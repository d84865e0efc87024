"""Write ``truth.txt``: 30-digit attitudes of the step-doubled presets.

For each preset without a closed-form attitude (``fourier3``, ``poly3``)
this integrates the passive DCM equation ``dT/dt = -[omega x] T`` from
``T(t0) = I`` with ``mpmath.odefun`` (a Taylor-series integrator) at 30
significant digits, the rate evaluated in mpmath arithmetic from the
preset's float parameters, which mpmath holds exactly.  ``T(t1)`` is the
rotation relative to the attitude at ``t0``, the quantity
``trajectory.reference_attitude`` returns, so the file is a truth that no
code of the package computed.  Each line holds the preset, ``t0``, ``t1``
and the nine entries of ``T(t1)``, row-major, to 20 significant digits.

Run from the repository root; it takes about ten seconds::

    PYTHONPATH=src python tests/data/make_truth.py

Tier-1 reads the file and does not run this script.
"""

from pathlib import Path

import mpmath as mp

from coning_kit.trajectory import FourierRate, PolynomialRate, preset

#: (preset, t0, t1) of every attitude a test reads.
SPANS = (("fourier3", 0.0, 4.0), ("poly3", 0.0, 4.0))

DIGITS = 30
WRITTEN = 20

OUT = Path(__file__).resolve().parent / "truth.txt"


def rate(signal):
    """The signal's rate as a function of an mpf time, in mpmath."""
    if isinstance(signal, FourierRate):
        terms = [([mp.mpf(a) for a in amp.tolist()], mp.mpf(freq),
                  mp.mpf(phase)) for amp, freq, phase in signal.terms]
        return lambda t: [
            mp.fsum(amp[i] * mp.sin(freq * t + phase)
                    for amp, freq, phase in terms) for i in range(3)]
    if isinstance(signal, PolynomialRate):
        coeffs = [[mp.mpf(c) for c in row]
                  for row in signal.model.coeffs.tolist()]
        origin = mp.mpf(signal.model.origin)
        return lambda t: [mp.fsum(row[i] * (t - origin) ** m
                                  for m, row in enumerate(coeffs))
                          for i in range(3)]
    raise TypeError(f"no closed-form rate for {type(signal).__name__}")


def attitude(name: str, t0: float, t1: float) -> list:
    """Entries of ``T(t1)``, row-major, from ``T(t0) = I``."""
    omega = rate(preset(name))

    def rhs(t, entries):
        wx, wy, wz = omega(t)
        # -[w x] T, column by column: -(w x T[:, j]).
        out = [mp.mpf(0)] * 9
        for j in range(3):
            x, y, z = entries[j], entries[3 + j], entries[6 + j]
            out[j] = wz * y - wy * z
            out[3 + j] = wx * z - wz * x
            out[6 + j] = wy * x - wx * y
        return out

    identity = [mp.mpf(int(i == j)) for i in range(3) for j in range(3)]
    return mp.odefun(rhs, mp.mpf(t0), identity)(mp.mpf(t1))


def main() -> None:
    mp.mp.dps = DIGITS
    lines = ["# preset t0 t1 and T(t1) relative to T(t0), row-major: "
             "dT/dt = -[omega x] T",
             f"# in {DIGITS}-digit mpmath.odefun, written by make_truth.py"]
    for name, t0, t1 in SPANS:
        entries = attitude(name, t0, t1)
        lines.append(" ".join([name, repr(t0), repr(t1)]
                              + [mp.nstr(e, WRITTEN) for e in entries]))
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
