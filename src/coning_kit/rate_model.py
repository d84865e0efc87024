"""Polynomial angular-rate reconstruction from integrated gyro increments.

A rate-integrating gyro reports increments ``dtheta_j = integral of omega``
over consecutive intervals of length ``dt``.  Writing the rate as a
polynomial in the time since the start of the step being propagated,

    omega(t) = sum_i p_i * t**(i-1),    i = 1..Q,

each increment gives one linear equation in the coefficient vectors ``p_i``,
since the integral of each monomial over the increment's span is known in
closed form.  Q consecutive increments determine a degree Q-1 model, which
is then sampled at the three solver nodes t = 0, dt/2, dt.

Window layout: the increment at ``alignment`` (default 1) covers ``[0, dt]``
and is the step being propagated; increment j covers
``[(j - alignment) dt, (j - alignment + 1) dt]``.  A Q=2 window is therefore
(prior, current) and a Q=3 window (prior, current, next).  The closed forms
(``fit_affine``, ``rk_node_samples_affine``, ``rk_node_samples_quadratic``
and ``coning.rk4_theta3``) hold for alignment 1 only and raise
``ValueError`` for any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep, SingularSystem


@dataclass(frozen=True, eq=False)
class MeasurementWindow:
    """Consecutive integrated-rate increments sharing one step interval.

    ``increments`` is a (Q, 3) array, Q >= 2; ``dt`` the common interval in
    seconds; ``alignment`` the index of the increment being propagated.
    The increments are copied and frozen; the caller's array is untouched.
    """

    increments: np.ndarray
    dt: float
    alignment: int = 1

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != 3 or inc.shape[0] < 2:
            raise ValueError(
                f"increments must have shape (Q >= 2, 3), got {inc.shape}")
        if not np.isfinite(inc).all():
            raise ValueError("increments must be finite")
        if not 0.0 < self.dt < math.inf:
            raise DegenerateStep(
                f"dt must be positive and finite, got {self.dt!r}")
        if not 0 <= self.alignment < inc.shape[0]:
            raise ValueError(
                f"alignment {self.alignment} out of range for Q={inc.shape[0]}")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def q(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True, eq=False)
class RatePolynomial:
    """Angular-rate model ``omega(t) = sum_i coeffs[i] * (t - origin)**i``.

    ``coeffs`` is a (Q, 3) array ordered by increasing power (row 0 is the
    constant term); it is copied and frozen.  The coefficients and the
    origin must be finite (``ValueError`` otherwise).
    """

    coeffs: np.ndarray
    origin: float = 0.0

    def __post_init__(self):
        co = np.array(self.coeffs, dtype=float)
        if co.ndim != 2 or co.shape[1] != 3 or co.shape[0] < 1:
            raise ValueError(f"coeffs must have shape (Q >= 1, 3), got {co.shape}")
        if not (np.isfinite(co).all() and math.isfinite(self.origin)):
            raise ValueError("coefficients and origin must be finite")
        co.setflags(write=False)
        object.__setattr__(self, "coeffs", co)

    @property
    def q(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class RkNodeSamples:
    """Angular-rate samples at the step's three solver nodes."""

    omega0: np.ndarray
    omega_mid: np.ndarray
    omega1: np.ndarray


#: Node-sample map for the quadratic model: Omega = _QUAD_NODE_MAP @ Theta
#: / (24 dt).  Rows sum to 24, so constant increments map to the constant
#: rate.  Cross-checked against the fitted-polynomial path in the tests.
_QUAD_NODE_MAP = np.array([[8.0, 20.0, -4.0],
                           [-1.0, 26.0, -1.0],
                           [-4.0, 20.0, 8.0]])


def _require_q(window: MeasurementWindow, q: int,
               aligned: bool = False) -> None:
    if len(window.increments) != q:
        raise ValueError(f"expected a Q={q} window, got Q={window.q}")
    if aligned and window.alignment != 1:
        raise ValueError(
            f"closed form needs alignment 1, got {window.alignment}")


def fit_affine(window: MeasurementWindow) -> RatePolynomial:
    """Affine rate model from a (prior, current) increment pair.

    Closed form of the 2x2 integral system:
    ``p1 = (prior + curr) / (2 dt)``, ``p2 = (curr - prior) / dt**2``.
    """
    _require_q(window, 2, aligned=True)
    dt = window.dt
    prior, curr = window.increments
    p1 = (prior + curr) / (2.0 * dt)
    p2 = (curr - prior) / (dt * dt)
    return RatePolynomial(np.stack([p1, p2]))


def fit_quadratic(window: MeasurementWindow) -> RatePolynomial:
    """Quadratic rate model from (prior, current, next) increments."""
    _require_q(window, 3)
    return _fit_integral_system(window)


def fit_polynomial(window: MeasurementWindow) -> RatePolynomial:
    """Degree Q-1 rate model from any Q >= 2 consecutive increments.

    Solves the QxQ linear system whose row j integrates each monomial over
    increment j's span (LU with partial pivoting).  Specializes to
    ``fit_affine`` for Q = 2 at alignment 1 and to ``fit_quadratic`` for
    Q = 3.  Raises ``SingularSystem`` if the design matrix's condition
    estimate exceeds 1e12; the monomial basis degrades quickly beyond Q ~ 5.
    """
    if window.q == 2 and window.alignment == 1:
        return fit_affine(window)
    return _fit_integral_system(window)


def _fit_integral_system(window: MeasurementWindow) -> RatePolynomial:
    # Solve in normalized time s = t/dt so the matrix entries are integer
    # ratios and conditioning reflects window geometry, not units.
    q = window.q
    dt = window.dt
    lo = np.arange(q, dtype=float) - window.alignment
    hi = lo + 1.0
    powers = np.arange(1, q + 1, dtype=float)
    design = (hi[:, None] ** powers - lo[:, None] ** powers) / powers
    cond = np.linalg.cond(design)
    if not cond < 1e12:
        raise SingularSystem(
            f"design matrix condition estimate {cond:.3e} exceeds 1e12")
    scaled = np.linalg.solve(design, window.increments / dt)
    coeffs = scaled / (dt ** np.arange(q, dtype=float))[:, None]
    return RatePolynomial(coeffs)


def eval_rate(model: RatePolynomial, t: float) -> np.ndarray:
    """Evaluate the rate model at time ``t`` (Horner form)."""
    tau = t - model.origin
    acc = model.coeffs[-1].copy()
    for row in model.coeffs[-2::-1]:
        acc = acc * tau + row
    return acc


def rk_node_samples_affine(window: MeasurementWindow) -> RkNodeSamples:
    """Solver-node rate samples implied by the affine model.

    ``w(0) = (prior + curr)/(2 dt)``, ``w(dt/2) = curr/dt``,
    ``w(dt) = (3 curr - prior)/(2 dt)``; identical to evaluating
    ``fit_affine`` at the three nodes.
    """
    _require_q(window, 2, aligned=True)
    dt = window.dt
    prior, curr = window.increments
    return RkNodeSamples(omega0=(prior + curr) / (2.0 * dt),
                         omega_mid=curr / dt,
                         omega1=(3.0 * curr - prior) / (2.0 * dt))


def rk_node_samples_quadratic(window: MeasurementWindow) -> RkNodeSamples:
    """Solver-node rate samples implied by the quadratic model."""
    _require_q(window, 3, aligned=True)
    nodes = (_QUAD_NODE_MAP @ window.increments) / (24.0 * window.dt)
    return RkNodeSamples(omega0=nodes[0], omega_mid=nodes[1], omega1=nodes[2])

