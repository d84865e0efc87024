"""Exception types raised across the package, and ``Frozen``, the base of
its immutable values."""


#: Sets a slot of a ``Frozen`` value; for its ``__init__`` alone.
_set = object.__setattr__


class Frozen:
    """An immutable value: ``__slots__`` set once by ``__init__`` (through
    ``_set``), equal and hashed by identity, with the ``repr`` of a frozen
    dataclass over its public slots.  Assignment and deletion raise
    ``AttributeError``; copies and pickles rebuild through ``__init__``."""

    __slots__ = ()

    def _fields(self) -> list:
        return [name for name in self.__slots__ if name[0] != "_"]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ConingKitError(Exception):
    """Base class for all errors raised by this package."""


class NearPiRotation(ConingKitError):
    """Log map requested for a rotation whose angle is too close to pi."""


class NotNearOrthogonal(ConingKitError):
    """Matrix is too far from SO(3) to project, or the projection failed."""


class AngleOutOfDomain(ConingKitError):
    """Rotation angle outside the domain of the inverse right-Jacobian."""


class StageEvaluationError(ConingKitError):
    """ODE right-hand side raised inside a Runge-Kutta stage.

    The failing stage index (0-based) and evaluation time are recorded; the
    original exception is attached as ``__cause__``.  The time is stored and
    printed as a Python float, whatever numeric type it was computed in.
    """

    def __init__(self, stage: int, time: float, message: str = ""):
        self.stage = stage
        self.time = float(time)
        detail = message or "right-hand side evaluation failed"
        super().__init__(f"stage {stage} at t={self.time!r}: {detail}")


class NonFiniteIncrement(ConingKitError, ValueError):
    """An increment the array engine read, a correction, or a rotation
    vector's angle is not finite."""


class DegenerateStep(ConingKitError):
    """Measurement window has a non-positive step interval."""


class SingularSystem(ConingKitError):
    """Rate-model design matrix is numerically singular."""


class EmptyWindow(ConingKitError):
    """Two-speed correction called with no increments."""


class NoConvergence(ConingKitError):
    """Step-doubling refinement failed to reach the requested tolerance."""


class ConfigError(ConingKitError):
    """Invalid sweep or CLI configuration."""


class InsufficientData(ConingKitError):
    """Not enough usable records to fit a convergence order."""
