"""Analytic angular-velocity signals and synthetic gyro measurement truth.

Three signal families are available, each evaluable at arbitrary time:

- ``PolynomialRate``: the rate is a fixed polynomial (degree <= 5).
- ``FourierRate``: a sum of per-axis sinusoids with positive frequencies.
- ``ConingRotationVector``: the rotation vector itself traces a cone,
  ``phi(t) = alpha (cos Wt, sin Wt, 0)``; the rate follows from the forward
  Jacobian, ``omega = J(phi) @ phi_dot``, which gives this signal a closed
  form truth attitude ``T(phi(t))`` that no integrator had to produce.

Reference attitudes and synthetic increments are deterministic: repeated
calls with equal inputs return bitwise-identical results.

``omega_at`` and ``synth_delta_theta`` are the per-call path: the rates of
the polynomial and Fourier signals come from ``_rate_xyz`` on Python
floats, a kernel ``_batch.omega_many`` also runs on columns.  It keeps the
operations and their order of the numpy forms that are its oracles in the
tests, so the per-call results agree with them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NoConvergence
from .kinematics import JacobianMode, forward_jacobian
from .rate_model import RatePolynomial
from .rk import tableau_rk4
from .so3 import attitude_error_angle, dcm_from_rotation_vector

#: Nodes and weights of the 5-point Gauss-Legendre rule on [-1, 1], and
#: the same rule as (node, weight) pairs of Python floats.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_PAIRS = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))

#: Names accepted by ``preset``.
PRESET_NAMES = ("poly3", "fourier3", "coning")

#: Most steps one propagation may take: a sweep cell's sensor intervals
#: (``bench.MAX_CELL_STEPS``), the substeps of one refinement of
#: ``reference_attitude``, or the quadrature panels of one increment.
MAX_SUBSTEPS = 2 ** 20


@dataclass(frozen=True, eq=False)
class PolynomialRate:
    """Rate signal defined by a polynomial model (degree <= 5).

    Construction precomputes the plan ``omega_at`` runs, as Python floats:
    the origin, the highest-power coefficient row, then the lower rows in
    decreasing power.
    """

    model: RatePolynomial

    def __post_init__(self):
        if self.model.q > 6:
            raise ValueError(
                f"polynomial rate limited to degree 5, got degree "
                f"{self.model.q - 1}")
        top, *lower = (tuple(row) for row in self.model.coeffs[::-1].tolist())
        object.__setattr__(self, "_plan",
                           (float(self.model.origin), top, tuple(lower)))


@dataclass(frozen=True, eq=False)
class FourierRate:
    """Rate signal ``omega(t) = sum_i amp_i * sin(freq_i t + phase_i)``.

    ``terms`` is a sequence of (amplitude 3-vector, frequency rad/s > 0,
    phase rad) triples; the amplitude multiplies the sine componentwise.
    Every value must be finite.  The amplitudes are copied and frozen, and
    construction precomputes the plan ``omega_at`` runs: one Python-float
    tuple ``(ax, ay, az, freq, phase)`` per term.
    """

    terms: tuple

    def __post_init__(self):
        norm = []
        for amp, freq, phase in self.terms:
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
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(self, "_plan", tuple(
            (*amp.tolist(), freq, phase) for amp, freq, phase in norm))


@dataclass(frozen=True)
class ConingRotationVector:
    """Rotation-vector cone ``phi(t) = alpha (cos Wt, sin Wt, 0)``."""

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel count for the composite 5-point Gauss-Legendre rule."""

    panels_per_interval: int
    POINTS_PER_PANEL = 5

    def __post_init__(self):
        if self.panels_per_interval < 1:
            raise ValueError(
                f"panel count must be >= 1, got {self.panels_per_interval}")


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


def _coning_phi_and_rate(signal: ConingRotationVector, t: float):
    a = signal.cone_angle
    w = signal.precession_rate
    cw, sw = math.cos(w * t), math.sin(w * t)
    phi = np.array([a * cw, a * sw, 0.0])
    phi_dot = np.array([-a * w * sw, a * w * cw, 0.0])
    return phi, phi_dot


def _rate_xyz(signal: AnalyticAttitudeSignal, t, sin=math.sin):
    """Components ``(wx, wy, wz)`` of ``omega_at(signal, t)``.

    Horner's rule of ``rate_model.eval_rate``, or the Fourier sum term by
    term: floats for a float ``t``, columns for the array engine's 1-d
    ``t`` with ``sin=np.sin`` (a constant polynomial gives floats).  The
    cone's rate is ``omega_at``'s, for a float ``t`` only.
    """
    if isinstance(signal, FourierRate):
        wx = wy = wz = 0.0
        for ax, ay, az, freq, phase in signal._plan:
            s = sin(freq * t + phase)
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
        return omega_at(signal, t).tolist()
    raise TypeError(f"unknown signal type {type(signal).__name__}")


def omega_at(signal: AnalyticAttitudeSignal, t: float) -> np.ndarray:
    """Angular velocity of the signal at time ``t`` (exact closed form)."""
    if isinstance(signal, ConingRotationVector):
        # The inverse of jinv, kept as the oracle of the array engine's
        # closed-form cone rate.
        phi, phi_dot = _coning_phi_and_rate(signal, t)
        return forward_jacobian(phi) @ phi_dot
    return np.array(_rate_xyz(signal, t))


def exact_attitude(signal: AnalyticAttitudeSignal, t: float):
    """Closed-form attitude ``T(phi(t))`` where the signal defines one.

    Only the coning signal carries an exact attitude; other variants return
    ``None`` (use ``reference_attitude`` for those).
    """
    if isinstance(signal, ConingRotationVector):
        phi, _ = _coning_phi_and_rate(signal, t)
        return dcm_from_rotation_vector(phi)
    return None


def _check_interval(t0: float, t1: float) -> None:
    # t1 - t0 is finite only when both endpoints are and the difference
    # does not overflow.
    if not (t1 > t0 and t1 - t0 < math.inf):
        raise ValueError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")


def _rate_scale(signal: AnalyticAttitudeSignal) -> float:
    """Characteristic angular frequency content, for quadrature sizing."""
    if isinstance(signal, FourierRate):
        return max(freq for _, freq, _ in signal.terms)
    if isinstance(signal, ConingRotationVector):
        return signal.precession_rate
    return 0.0


def default_panels(signal: AnalyticAttitudeSignal, width: float):
    """Panel count ``synth_delta_theta`` uses by default over ``width``:
    an int, or ``math.inf`` where the count overflows a float."""
    x = width * _rate_scale(signal) / math.pi
    return math.ceil(x) + 2 if x < math.inf else math.inf


def synth_delta_theta(signal: AnalyticAttitudeSignal, t0: float, t1: float,
                      quadrature: QuadratureSpec | None = None) -> np.ndarray:
    """Integrated-rate increment ``int omega dt`` over ``[t0, t1]``.

    Composite 5-point Gauss-Legendre; exact up to roundoff for polynomial
    rates (degree <= 9 per panel).  When ``quadrature`` is omitted the panel
    count defaults to ``ceil((t1 - t0) * max_frequency / pi) + 2``, sized so
    synthesis error sits far below any integrator error under test.
    Increments are additive across adjacent intervals.  Raises
    ``ValueError`` unless ``t1 > t0`` and the width ``t1 - t0`` is finite,
    and, before evaluating any rate, if the panel count exceeds
    ``MAX_SUBSTEPS``.
    """
    _check_interval(t0, t1)
    panels = (default_panels(signal, t1 - t0) if quadrature is None
              else quadrature.panels_per_interval)
    if panels > MAX_SUBSTEPS:
        raise ValueError(f"{panels:.3g} quadrature panels exceed the budget "
                         f"of {MAX_SUBSTEPS}")
    h = (t1 - t0) / panels
    half = 0.5 * h
    ax = ay = az = 0.0
    for j in range(panels):
        mid = t0 + j * h + half
        for x, w in _GL_PAIRS:
            wx, wy, wz = _rate_xyz(signal, mid + half * x)
            ax += w * wx
            ay += w * wy
            az += w * wz
    # common panel width: one scaling of the accumulated weighted sum
    return np.array([ax * half, ay * half, az * half])


def _rk4_attitude(signal: AnalyticAttitudeSignal, t0: float, t1: float,
                  substeps: int) -> np.ndarray:
    # Imported here: the engine depends on this module's signal types.
    from . import _batch

    h = (t1 - t0) / substeps
    produce = partial(_batch.rate_steps, signal, t0, h, tableau_rk4(),
                      JacobianMode.EXACT_CLOSED_FORM)
    return _batch.compose_steps(produce, substeps)


def reference_substeps(signal: AnalyticAttitudeSignal, t0: float,
                       t1: float) -> int:
    """Substeps of the coarsest refinement of ``reference_attitude``."""
    return max(8, math.ceil((t1 - t0) * max(_rate_scale(signal), 1.0)))


def reference_attitude(signal: AnalyticAttitudeSignal, t0: float, t1: float,
                       tol: float) -> np.ndarray:
    """Attitude accumulated over ``[t0, t1]``, refined to tolerance ``tol``.

    Integrates the rotation-vector ODE with the four-stage scheme and the
    exact Jacobian, re-zeroing the rotation vector each substep and
    composing the per-substep DCMs.  Each refinement runs on the array
    engine of ``bench.propagate``: substep rotation vectors in blocks, DCMs
    multiplied in a pairwise tree, and any product whose orthogonality
    defect exceeds 1e-12 projected back onto SO(3).  The substep is halved
    until successive refinements agree to within ``tol`` (rad).  No
    refinement may use more than ``MAX_SUBSTEPS`` substeps: raises
    ``NoConvergence`` when the next one would, without starting it, and
    ``ValueError`` unless ``tol >= 1e-13`` (NaN included).  The returned
    matrix is the rotation relative to the attitude at ``t0`` (identity
    initial condition).  Raises ``ValueError`` unless ``t1 > t0`` and the
    width ``t1 - t0`` is finite.
    """
    _check_interval(t0, t1)
    if not tol >= 1e-13:
        raise ValueError(f"tolerance must be >= 1e-13 rad, got {tol!r}")
    n = reference_substeps(signal, t0, t1)
    if n > MAX_SUBSTEPS:
        raise NoConvergence(
            f"reference needs {n} substeps to start, above the budget of "
            f"{MAX_SUBSTEPS}")
    prev = _rk4_attitude(signal, t0, t1, n)
    while 2 * n <= MAX_SUBSTEPS:
        n *= 2
        curr = _rk4_attitude(signal, t0, t1, n)
        if attitude_error_angle(curr, prev) <= tol:
            return curr
        prev = curr
    raise NoConvergence(
        f"reference refinement did not reach {tol!r} rad within the budget "
        f"of {MAX_SUBSTEPS} substeps")
