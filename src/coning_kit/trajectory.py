"""Analytic angular-velocity signals and synthetic gyro measurement truth.

Three signal families are available, each evaluable at arbitrary time:

- ``PolynomialRate``: the rate is a fixed polynomial (degree <= 5).
- ``FourierRate``: a sum of per-axis sinusoids with positive frequencies.
- ``ConingRotationVector``: the rotation vector itself traces a cone,
  ``phi(t) = alpha (cos Wt, sin Wt, 0)``, which gives this signal a closed
  form truth attitude ``T(phi(t))`` that no integrator had to produce.  Its
  rate ``omega = J(phi) @ phi_dot`` reduces, because ``phi`` is
  perpendicular to ``phi_dot`` and ``|phi| = alpha``, to the classical
  coning rate ``W (-sin(alpha) sin Wt, sin(alpha) cos Wt,
  -2 sin(alpha/2)^2)``.

Step-doubled sixth-order reference attitudes and synthetic increments are
deterministic: equal inputs give bitwise-identical results.

Every signal's rate is written once, in ``_rate_xyz``, and its increment
once, in ``_increment_xyz``: on Python floats for ``omega_at`` and
``synth_delta_theta``, and on columns for the array engine's ``_batch``.
The polynomial and Fourier rates keep the operations and their order of the
numpy forms that are their oracles in the tests, so ``omega_at`` agrees
with them bit for bit; the tests hold the cone's closed form to
``J(phi) @ phi_dot``, solved from ``kinematics.jinv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ConingKitError, Frozen, NoConvergence, _set
from .kinematics import JacobianMode
from .rate_model import RatePolynomial
from .rk import tableau_rk6
from .so3 import attitude_error_angle, dcm_from_rotation_vector

#: The 5-point Gauss-Legendre rule on [-1, 1], as (node, weight) pairs of
#: Python floats: ``numpy.polynomial.legendre.leggauss(5)`` bit for bit,
#: written out so that import computes nothing.  Exact for polynomials of
#: degree <= 9.
_GL_PAIRS = ((-0.906179845938664, 0.23692688505618928),
             (-0.5384693101056831, 0.4786286704993663),
             (0.0, 0.5688888888888887),
             (0.5384693101056831, 0.4786286704993663),
             (0.906179845938664, 0.23692688505618928))

#: The reference's tableau, built on first use and then shared.
_tableau_rk6 = cache(tableau_rk6)

#: Names accepted by ``preset``.
PRESET_NAMES = ("poly3", "fourier3", "coning")

#: Most steps one propagation may take: a sweep cell's sensor intervals
#: (``bench.MAX_CELL_STEPS``) or the substeps of one refinement of
#: ``reference_attitude``.
MAX_SUBSTEPS = 2 ** 20


class PolynomialRate(Frozen):
    """Rate signal defined by a polynomial model (degree <= 5).

    Construction precomputes the plan ``omega_at`` runs, as Python floats:
    the origin, the highest-power coefficient row, then the lower rows in
    decreasing power.
    """

    __slots__ = ("model", "_plan")

    def __init__(self, model: RatePolynomial):
        if model.q > 6:
            raise ValueError(
                f"polynomial rate limited to degree 5, got degree "
                f"{model.q - 1}")
        top, *lower = (tuple(row) for row in model.coeffs[::-1].tolist())
        _set(self, "model", model)
        _set(self, "_plan", (float(model.origin), top, tuple(lower)))


class FourierRate(Frozen):
    """Rate signal ``omega(t) = sum_i amp_i * sin(freq_i t + phase_i)``.

    ``terms`` is a sequence of (amplitude 3-vector, frequency rad/s > 0,
    phase rad) triples; the amplitude multiplies the sine componentwise.
    Every value must be finite.  The amplitudes are copied and frozen, and
    construction precomputes the plan ``omega_at`` runs: one Python-float
    tuple ``(ax, ay, az, freq, phase)`` per term.
    """

    __slots__ = ("terms", "_plan")

    def __init__(self, terms: tuple):
        norm = []
        for amp, freq, phase in terms:
            amp = np.array(amp, dtype=float)
            freq, phase = float(freq), float(phase)
            if amp.shape != (3,) or not np.isfinite(amp).all():
                raise ValueError(
                    f"amplitudes must be finite 3-vectors, got {amp!r}")
            if not 0.0 < freq < math.inf:
                raise ValueError(
                    f"frequencies must be positive and finite, got {freq!r}")
            if not math.isfinite(phase):
                raise ValueError(f"phases must be finite, got {phase!r}")
            amp.setflags(write=False)
            norm.append((amp, freq, phase))
        _set(self, "terms", tuple(norm))
        _set(self, "_plan", tuple((*amp.tolist(), freq, phase)
                                  for amp, freq, phase in norm))


@dataclass(frozen=True)
class ConingRotationVector:
    """Rotation-vector cone ``phi(t) = alpha (cos Wt, sin Wt, 0)``; the
    plan ``(W, W sin(alpha), -2 W sin(alpha/2)^2, 2 sin(alpha))`` of its rate
    and increment is precomputed as Python floats, with the half angle:
    ``1 - cos(alpha)`` would cancel."""

    cone_angle: float
    precession_rate: float

    def __post_init__(self):
        if not 0.0 < self.cone_angle < math.pi / 2.0:
            raise ValueError(
                f"cone angle must be in (0, pi/2), got {self.cone_angle!r}")
        if not 0.0 < self.precession_rate < math.inf:
            raise ValueError(
                f"precession rate must be positive and finite, got "
                f"{self.precession_rate!r}")
        a, w = float(self.cone_angle), float(self.precession_rate)
        object.__setattr__(self, "_plan", (
            w, w * math.sin(a), -2.0 * w * math.sin(0.5 * a) ** 2,
            2.0 * math.sin(a)))


AnalyticAttitudeSignal = PolynomialRate | FourierRate | ConingRotationVector


def preset(name: str) -> AnalyticAttitudeSignal:
    """Return one of the named benchmark signals.

    ``poly3``: a degree-3 polynomial rate.  ``fourier3``: three sinusoid
    terms with incommensurate frequencies.  ``coning``: the rotation-vector
    cone with a 0.05 rad half-angle precessing at 10 rad/s.
    """
    if name == "poly3":
        coeffs = np.array([[0.30, -0.20, 0.15],
                           [0.08, 0.12, -0.10],
                           [-0.030, 0.024, 0.018],
                           [0.004, -0.006, 0.005]])
        return PolynomialRate(RatePolynomial(coeffs))
    if name == "fourier3":
        return FourierRate((
            ((0.50, 0.20, -0.30), 1.0, 0.0),
            ((-0.20, 0.40, 0.10), math.sqrt(2.0), 0.7),
            ((0.10, -0.15, 0.25), math.sqrt(5.0), -1.1),
        ))
    if name == "coning":
        return ConingRotationVector(cone_angle=0.05, precession_rate=10.0)
    raise KeyError(
        f"unknown signal preset {name!r}; valid presets: "
        f"{', '.join(PRESET_NAMES)}")


def _rate_xyz(signal: AnalyticAttitudeSignal, t, lib=math):
    """Components ``(wx, wy, wz)`` of ``omega_at(signal, t)``.

    Horner's rule of ``rate_model.eval_rate``, the Fourier sum term by term,
    or the closed-form cone rate: floats for a float ``t``, columns for the
    array engine's 1-d ``t`` with ``lib=np`` (a constant component stays a
    float).
    """
    if isinstance(signal, FourierRate):
        wx = wy = wz = 0.0
        for ax, ay, az, freq, phase in signal._plan:
            s = lib.sin(freq * t + phase)
            wx = wx + ax * s
            wy = wy + ay * s
            wz = wz + az * s
        return wx, wy, wz
    if isinstance(signal, PolynomialRate):
        origin, (wx, wy, wz), lower = signal._plan
        tau = t - origin
        for rx, ry, rz in lower:
            wx = wx * tau + rx
            wy = wy * tau + ry
            wz = wz * tau + rz
        return wx, wy, wz
    if isinstance(signal, ConingRotationVector):
        w, w_sin, wz, _ = signal._plan
        wt = w * t
        return -w_sin * lib.sin(wt), w_sin * lib.cos(wt), wz
    raise TypeError(f"unknown signal type {type(signal).__name__}")


def _increment_xyz(signal: AnalyticAttitudeSignal, t0, t1, lib=math):
    """Components of ``synth_delta_theta(signal, t0, t1)``: floats, or
    columns for 1-d endpoints with ``lib=np``.

    Over ``h = t1 - t0`` about the midpoint ``m``, a sine of frequency ``f``
    and phase ``p`` integrates to ``(2/f) sin(f h/2) sin(f m + p)``: a
    product, so no difference of antiderivatives cancels.  The polynomial
    rate takes one panel of 5-point Gauss-Legendre, exact for its degree.
    """
    h = t1 - t0
    half = 0.5 * h
    mid = t0 + half
    if isinstance(signal, FourierRate):
        ax = ay = az = 0.0
        for sx, sy, sz, freq, phase in signal._plan:
            c = 2.0 / freq * lib.sin(freq * half) * lib.sin(freq * mid + phase)
            ax = ax + sx * c
            ay = ay + sy * c
            az = az + sz * c
        return ax, ay, az
    if isinstance(signal, PolynomialRate):
        ax = ay = az = 0.0
        for x, w in _GL_PAIRS:
            wx, wy, wz = _rate_xyz(signal, mid + half * x, lib)
            ax = ax + w * wx
            ay = ay + w * wy
            az = az + w * wz
        return ax * half, ay * half, az * half
    if isinstance(signal, ConingRotationVector):
        w, _, wz, two_sin = signal._plan
        s = two_sin * lib.sin(w * half)
        wm = w * mid
        return -s * lib.sin(wm), s * lib.cos(wm), wz * h
    raise TypeError(f"unknown signal type {type(signal).__name__}")


def _sines(signal: AnalyticAttitudeSignal) -> list:
    """``(frequency, phase)`` of each sine in the signal's rate: ``(W, 0)``
    for the cone, one per Fourier term, none for a polynomial rate."""
    if isinstance(signal, FourierRate):
        return [(freq, phase) for *_, freq, phase in signal._plan]
    if isinstance(signal, ConingRotationVector):
        return [(signal.precession_rate, 0.0)]
    return []


def omega_at(signal: AnalyticAttitudeSignal, t: float) -> np.ndarray:
    """Angular velocity of the signal at time ``t`` (exact closed form).
    Raises ``ValueError`` unless ``t`` is finite."""
    if not math.isfinite(t):
        raise ValueError(f"need a finite time, got {t!r}")
    return np.array(_rate_xyz(signal, t))


def exact_attitude(signal: AnalyticAttitudeSignal, t: float):
    """Closed-form attitude ``T(phi(t))`` where the signal defines one.

    Only the coning signal carries an exact attitude; other variants return
    ``None`` (use ``reference_attitude`` for those).
    """
    if isinstance(signal, ConingRotationVector):
        a, wt = signal.cone_angle, signal.precession_rate * t
        return dcm_from_rotation_vector(
            np.array([a * math.cos(wt), a * math.sin(wt), 0.0]))
    return None


def _check_interval(t0: float, t1: float) -> None:
    # t1 - t0 is finite only when both endpoints are and the difference
    # does not overflow.
    if not (t1 > t0 and t1 - t0 < math.inf):
        raise ValueError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")


def synth_delta_theta(signal: AnalyticAttitudeSignal, t0: float,
                      t1: float) -> np.ndarray:
    """Integrated-rate increment ``int omega dt`` over ``[t0, t1]``.

    In closed form for the cone and the Fourier signals, and by one panel of
    5-point Gauss-Legendre, exact up to roundoff, for the polynomial rates
    (degree <= 5).  Increments are additive across adjacent intervals to
    roundoff.  Raises ``ValueError`` unless ``t1 > t0`` and the width
    ``t1 - t0`` is finite.
    """
    _check_interval(t0, t1)
    return np.array(_increment_xyz(signal, t0, t1))


def _reference_pass(signal, t0: float, t1: float, levels: list) -> list:
    """Attitude or error of each refinement of ``levels`` substeps over
    ``[t0, t1]``, the cells of one pass of the array engine."""
    # Imported here: the engine depends on this module's signal types.
    from . import _batch

    return _batch.compose_steps(partial(
        _batch.rate_steps, _batch.RateSamples(signal, t0),
        [(t1 - t0) / n for n in levels], _tableau_rk6(),
        JacobianMode.EXACT_CLOSED_FORM), levels)


def reference_substeps(signal: AnalyticAttitudeSignal, t0: float,
                       t1: float) -> int:
    """Substeps of the coarsest refinement of ``reference_attitude``."""
    scale = max([1.0, *(freq for freq, _ in _sines(signal))])
    return max(8, math.ceil((t1 - t0) * scale))


def reference_attitude(signal: AnalyticAttitudeSignal, t0: float, t1: float,
                       tol: float) -> np.ndarray:
    """Attitude accumulated over ``[t0, t1]``, refined to tolerance ``tol``.

    Integrates the rotation-vector ODE with ``rk.tableau_rk6`` (sixth
    order) and the exact Jacobian, re-zeroing the rotation vector each
    substep and composing the per-substep DCMs; refinements are cells of
    the array engine of ``bench.propagate``.  The substep is halved until
    two successive refinements agree to within ``tol`` (rad), and the finer
    is returned.  The first pass runs the starting refinements n and 2n, the
    next the k = ceil(log_64(d / tol)) >= 1 halvings predicted from the last
    gap d, or two with no gap; the result is that of one refinement per
    pass.  A refinement the pass gives an error, such as a
    ``StageEvaluationError``, has no attitude to compare.  No refinement
    may use more than ``MAX_SUBSTEPS`` substeps: raises
    ``NoConvergence``, chained to the last such error if any, when the
    next one would, without starting it, and ``ValueError`` unless
    ``tol >= 1e-13`` (NaN included).  The returned matrix is the rotation
    relative to the attitude at ``t0``.  Raises ``ValueError`` unless
    ``t1 > t0`` and the width ``t1 - t0`` is finite.
    """
    _check_interval(t0, t1)
    if not tol >= 1e-13:
        raise ValueError(f"tolerance must be >= 1e-13 rad, got {tol!r}")
    n = reference_substeps(signal, t0, t1)
    if n > MAX_SUBSTEPS:
        raise NoConvergence(
            f"reference needs {n} substeps to start, above the budget of "
            f"{MAX_SUBSTEPS}")
    levels, prev, error = [n, 2 * n], None, None
    while levels := [m for m in levels if m <= MAX_SUBSTEPS]:
        for curr in _reference_pass(signal, t0, t1, levels):
            if isinstance(curr, ConingKitError):
                curr, error = None, curr
            gap = (None if prev is None or curr is None
                   else attitude_error_angle(curr, prev))
            if gap is not None and gap <= tol:
                return curr
            prev = curr
        k = 2 if gap is None else max(1, math.ceil(math.log(gap / tol, 64)))
        levels = [levels[-1] * 2 ** j for j in range(1, k + 1)]
    raise NoConvergence(
        f"reference refinement did not reach {tol!r} rad within the "
        f"budget of {MAX_SUBSTEPS} substeps") from error
