"""Closed-form coning corrections and the oracles used to validate them.

Per-channel integration of gyro signals loses the non-commutativity of
rotation, so the integrated increment ``dtheta`` must be corrected into a
rotation vector: ``delta_phi = dtheta + beta``.  This module provides the
classical single-speed (Miller) and two-speed corrections, the solver-based
corrections built from reconstructed rate samples, and reference
computations (analytic and quadrature) for an affine rate history.  The
single-speed ones are cross-sum tables on the kernel ``so3._cross_sum``.

The oracles live in the library rather than the test suite so the CLI can
run self-validation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import EmptyWindow, Frozen, _set
from .rate_model import MeasurementWindow
from .rk import OmegaSampler, _check_dt
from .so3 import _cross_sum, _finite, cross
from .trajectory import _GL_PAIRS


class ConingResult(Frozen):
    """Corrected rotation increment and the correction alone.

    ``delta_phi == dtheta_curr + beta`` where ``dtheta_curr`` is the
    increment of the step being propagated.
    """

    __slots__ = ("delta_phi", "beta")

    def __init__(self, delta_phi: np.ndarray, beta: np.ndarray):
        _set(self, "delta_phi", delta_phi)
        _set(self, "beta", beta)


# Each correction is computed once, by a kernel over the components of its
# increments: floats for the functions below, columns for ``_batch``.  The
# single-speed ones are cross-sum tables ``(D, ((i, j, N_ij), ...))``,
# ``beta = sum N_ij theta_i x theta_j / D`` over a window's increments, row 1
# the current one; ``tests/test_derivation.py`` derives both exactly.
MILLER = (12.0, ((0, 1, 1.0),))
RK4_THETA3 = (288.0, ((0, 1, 13.0), (1, 2, 13.0), (0, 2, -1.0)))


def _rk4_theta2_beta(px, py, pz, cx, cy, cz, dt):
    """Four-stage cross term on the affine node samples of (prior, curr)."""
    two_dt = 2.0 * dt
    # Node samples w(0), w(dt/2), w(dt) of the affine model.
    w0x, w0y, w0z = (px + cx) / two_dt, (py + cy) / two_dt, (pz + cz) / two_dt
    wmx, wmy, wmz = cx / dt, cy / dt, cz / dt
    w1x, w1y, w1z = ((3.0 * cx - px) / two_dt, (3.0 * cy - py) / two_dt,
                     (3.0 * cz - pz) / two_dt)
    ux, uy, uz = w0x - w1x, w0y - w1y, w0z - w1z
    scale = dt * dt / 12.0
    return (scale * (uy * wmz - uz * wmy),
            scale * (uz * wmx - ux * wmz),
            scale * (ux * wmy - uy * wmx))


def _two_speed_phi(rows, px, py, pz):
    """Two-speed rotation vector of the component triples ``rows`` that
    follow the increment ``(px, py, pz)``."""
    tx = ty = tz = hx = hy = hz = qx = qy = qz = 0.0
    for dx, dy, dz in rows:
        hx = hx + (ty * dz - tz * dy)
        hy = hy + (tz * dx - tx * dz)
        hz = hz + (tx * dy - ty * dx)
        qx = qx + (py * dz - pz * dy)
        qy = qy + (pz * dx - px * dz)
        qz = qz + (px * dy - py * dx)
        tx, ty, tz = tx + dx, ty + dy, tz + dz
        px, py, pz = dx, dy, dz
    return (tx + 0.5 * hx + qx / MILLER[0], ty + 0.5 * hy + qy / MILLER[0],
            tz + 0.5 * hz + qz / MILLER[0])


def _result(beta, curr) -> ConingResult:
    """The correction ``beta`` and the increment ``curr`` it corrects."""
    (bx, by, bz), (cx, cy, cz) = beta, curr
    return ConingResult(_finite((cx + bx, cy + by, cz + bz)), np.array(beta))


def _require_q(window: MeasurementWindow, q: int) -> None:
    if window.q != q:
        raise ValueError(f"expected a Q={q} window, got Q={window.q}")


def miller_single_speed(dtheta_prev: np.ndarray,
                        dtheta_curr: np.ndarray) -> ConingResult:
    """Single-speed correction ``beta = (1/12) dtheta_prev x dtheta_curr``.

    Exact for an affine rate history; ``beta`` vanishes identically for
    parallel increments (single-axis motion).  Like every correction here,
    raises ``NonFiniteIncrement`` if the result is not finite.
    """
    rows = (np.asarray(dtheta_prev, dtype=float).tolist(),
            np.asarray(dtheta_curr, dtype=float).tolist())
    return _result(_cross_sum(MILLER, rows), rows[1])


def rk4_theta2(window: MeasurementWindow) -> ConingResult:
    """Four-stage solver correction from a (prior, current) window.

    Feeds the affine-model node samples (``rk_node_samples``) through the
    fourth-order closed form.  The Simpson term of that form
    reconstructs the current increment identically for affine node samples,
    so only the cross term is evaluated; the result equals
    ``miller_single_speed`` on the same inputs to a few ulp (the tests
    assert both this identity and agreement with the literal node-sample
    composition).  Any alignment: the cross term is invariant under a time
    shift, and ``beta`` corrects the aligned increment.
    """
    _require_q(window, 2)
    rows = window.increments.tolist()
    return _result(_rk4_theta2_beta(*rows[0], *rows[1], float(window.dt)),
                   rows[window.alignment])


def rk4_theta3(window: MeasurementWindow) -> ConingResult:
    """Four-stage solver correction from a (prior, current, next) window.

    ``beta = (13 prior x curr + 13 curr x next - prior x next) / 288``, the
    quadratic-model node samples pushed through the fourth-order closed
    form.  Requires the increment one step ahead, so in streaming use the
    update is lagged by one interval.  Alignment 1 only.
    """
    _require_q(window, 3)
    if window.alignment != 1:
        raise ValueError(f"needs alignment 1, got {window.alignment}")
    rows = window.increments.tolist()
    return _result(_cross_sum(RK4_THETA3, rows), rows[1])


def two_speed_classic(increments, dtheta_before_first) -> np.ndarray:
    """Classic two-speed correction over one minor interval.

    Accumulates m sensor-interval increments into the minor-interval
    rotation vector::

        phi_m = theta_m + 1/2 sum_k theta_{k-1} x dtheta_k
                        + 1/12 sum_k dtheta_{k-1} x dtheta_k

    where ``theta_k`` is the running increment sum (``theta_0 = 0``) and
    ``dtheta_0`` is the increment immediately before the window — it must
    be a real measurement, since fabricating it degrades the 1/12 term to
    first order.  (The running-sum term is insensitive to whether the
    current increment is included: its self-cross vanishes.)  With m = 1
    this is exactly the single-speed correction.  Each of the m rows of
    ``increments``, like ``dtheta_before_first``, is any sequence of three
    numbers (a numpy array of shape (3,) or a list); ``ValueError`` for any
    other shape, and ``NonFiniteIncrement`` if the result is not finite.
    """
    rows = np.asarray(increments, dtype=float)
    before = np.asarray(dtheta_before_first, dtype=float)
    if len(rows) == 0:
        raise EmptyWindow("two-speed correction needs at least one increment")
    if rows.shape[1:] != (3,) or before.shape != (3,):
        raise ValueError("two-speed increments must be 3-vectors")
    return _finite(_two_speed_phi(rows.tolist(), *before.tolist()))


def goodman_robinson_beta_quadrature(sampler: OmegaSampler, t0: float,
                                     t1: float, panels: int) -> np.ndarray:
    """First-order coning integral ``(1/2) int theta x omega dt``.

    ``theta(t)`` is the rate integral accumulated from ``t0``.  Evaluated by
    composite 5-point Gauss-Legendre with ``panels`` panels (>= 8); exact
    up to roundoff for polynomial rates of degree <= 9 per panel.  This is
    a test oracle, not a production path.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0!r}, {t1!r}]")
    if panels < 8:
        raise ValueError(f"need at least 8 panels, got {panels}")
    h = (t1 - t0) / panels
    theta_start = np.zeros(3)
    beta = np.zeros(3)
    for j in range(panels):
        a = t0 + j * h
        half = 0.5 * h
        mid = a + half
        for x, w in _GL_PAIRS:
            t = mid + half * x
            theta_t = theta_start + _gl5_integral(sampler, a, t)
            beta = beta + (w * half) * cross(theta_t, sampler(t))
        theta_start = theta_start + _gl5_integral(sampler, a, a + h)
    return 0.5 * beta


def _gl5_integral(sampler: OmegaSampler, a: float, b: float) -> np.ndarray:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    acc = np.zeros(3)
    for x, w in _GL_PAIRS:
        acc = acc + w * np.asarray(sampler(mid + half * x), dtype=float)
    return half * acc


def affine_coning_oracle(p1: np.ndarray, p2: np.ndarray,
                         dt: float) -> np.ndarray:
    """Analytic coning integral for the rate ``omega = p1 + p2 t``.

    Over one interval of length ``dt`` the first-order coning integral is
    exactly ``(1/12) (p1 x p2) dt**3``.  ``dt`` must be positive and finite.
    """
    _check_dt(dt)
    return cross(p1, p2) * (dt ** 3 / 12.0)


def appendix_increment_identity_check(p1, p2, dt: float) -> float:
    """Residual of the affine-rate increment identity, in exact arithmetic.

    For ``omega = p1 + p2 t`` the increments over ``[-dt, 0]`` and
    ``[0, dt]`` are ``-+ p2 dt^2 / 2 + p1 dt``, and their cross product
    equals ``(p1 x p2) dt^3`` — the unknown term of the analytic coning
    integral.  This builds the increments, crosses them, and returns
    ``|cross - (p1 x p2) dt^3|``.  The whole computation runs in rational
    arithmetic on the exact binary values of the inputs, so the residual
    reflects only the construction algebra (zero when correct), not
    roundoff, which at small ``dt`` would otherwise swamp the ``dt^3``
    scale of the identity.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    q1 = [Fraction(float(v)) for v in p1]
    q2 = [Fraction(float(v)) for v in p2]
    step = Fraction(float(dt))
    half_sq = step * step / 2
    theta_curr = [a * half_sq + b * step for a, b in zip(q2, q1)]
    theta_prev = [-a * half_sq + b * step for a, b in zip(q2, q1)]
    lhs = _cross_frac(theta_prev, theta_curr)
    scale = step ** 3
    rhs = [v * scale for v in _cross_frac(q1, q2)]
    resid_sq = sum((l - r) ** 2 for l, r in zip(lhs, rhs))
    return float(resid_sq) ** 0.5


def _cross_frac(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]
