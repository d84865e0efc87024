"""``python -m coning_kit``: the ``coning-kit`` command line."""

from .cli import main

main()
