"""Array propagation engine behind ``bench.propagate`` and the reference.

Every propagation step starts from a zero rotation vector, so the per-step
rotation vectors are independent of one another.  A *producer* returns the
``(n, 3)`` rotation vectors of steps ``k0 .. k1 - 1`` as array operations:

- ``rate_steps`` runs the Runge-Kutta stages of the rotation-vector ODE on
  the signal's rate at the stage times (``rk.integrate_attitude_step``);
- ``miller_steps``, ``rk4_theta2_steps``, ``rk4_theta3_steps`` and
  ``two_speed_steps`` read their increments from an ``IncrementGrid``,
  which synthesizes each sensor interval once by interval quadrature
  (``synth_many``, after ``trajectory.synth_delta_theta``) for all of its
  readers, and apply one ``coning`` correction.

Both kinds of producer get their rates from ``omega_many``.  One call takes
the times of as many quadrature nodes or RK stages as fit in ``BLOCK`` rows,
and at least one, so no call is larger than one node's times for a block's
steps or increments.

``compose_steps`` is the one composer: it asks a producer for one block of
``BLOCK`` steps at a time, turns the rotation vectors into DCMs and
multiplies them in a pairwise tree; only the fold of block products onto the
running attitude is sequential.  Any product whose orthogonality defect
exceeds ``DRIFT_TOL`` is projected back onto SO(3), the rule ``so3.compose``
applies; that is the engine's only drift control.

Each array function repeats the arithmetic of the scalar function it
replaces, in the same order.  Results still differ from a scalar loop in
the last bits: numpy's sin and cos and its stacked 3x3 products round
differently, and the tree groups the product differently.  The scalar
functions stay the per-call API and are the oracles in
``tests/test_batch.py``, which states the tolerance each array function
holds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AngleOutOfDomain, StageEvaluationError
from .kinematics import _C_TAYLOR, _SERIES_BRANCH, MAX_ANGLE, JacobianMode
from .so3 import SMALL_ANGLE, compose, orthonormalize
from .trajectory import (_GL_NODES, _GL_WEIGHTS, ConingRotationVector,
                         FourierRate, PolynomialRate, _rate_scale)

#: Steps per block; for the two-speed method, sensor intervals per block.
#: Bounds the engine's working set whatever the step count.
BLOCK = 2048

#: Orthogonality defect above which a product is projected onto SO(3); the
#: threshold ``so3.compose`` applies.
DRIFT_TOL = 1e-12

# Below this angle the right-Jacobian coefficients come from their Taylor
# series; (a - sin a) / a^3 loses all digits to cancellation near zero.
_JACOBIAN_SERIES = 1e-2

_EYE3 = np.eye(3)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product, in the operation order of ``so3.cross``."""
    ux, uy, uz = u[:, 0], u[:, 1], u[:, 2]
    vx, vy, vz = v[:, 0], v[:, 1], v[:, 2]
    out = np.empty((u.shape[0], 3))
    np.subtract(uy * vz, uz * vy, out=out[:, 0])
    np.subtract(uz * vx, ux * vz, out=out[:, 1])
    np.subtract(ux * vy, uy * vx, out=out[:, 2])
    return out


# ------------------------------------------------------------- signals


def right_jacobian_coefficients(a):
    """Coefficients ``(k1, k2)`` of the right Jacobian at angle ``a``.

    ``J = I - k1 [phi x] + k2 [phi x]^2`` with ``a = |phi|``,
    ``k1 = (1 - cos a)/a^2`` and ``k2 = (a - sin a)/a^3``; ``k1`` is
    evaluated as ``(sin(a/2)/(a/2))^2 / 2``, which equals it without the
    cancellation.  ``a`` may be a scalar or an array; the result has its
    shape.
    """
    a = np.asarray(a, dtype=float)
    a2 = a * a
    k1 = np.empty_like(a)
    k2 = np.empty_like(a)
    small = a < _JACOBIAN_SERIES
    s = a2[small]
    k1[small] = 0.5 + s * (-1.0 / 24.0 + s / 720.0)
    k2[small] = 1.0 / 6.0 + s * (-1.0 / 120.0 + s / 5040.0)
    big = ~small
    ab, half = a[big], 0.5 * a[big]
    k1[big] = 0.5 * (np.sin(half) / half) ** 2
    k2[big] = (ab - np.sin(ab)) / (ab * a2[big])
    return k1, k2


def right_jacobian_apply(k1, k2, phi: np.ndarray,
                         v: np.ndarray) -> np.ndarray:
    """Rows of ``kinematics.forward_jacobian(phi) @ v``, in closed form.

    ``k1`` and ``k2`` are the ``right_jacobian_coefficients`` of ``|phi|``:
    scalars, or columns with one row per row of ``phi``.  No domain check:
    the coning signal keeps ``|phi|`` below pi/2.
    """
    c1 = _cross(phi, v)
    return v - k1 * c1 + k2 * _cross(phi, c1)


@lru_cache(maxsize=8)
def _cone_coefficients(cone_angle: float) -> tuple[float, float]:
    return tuple(float(k) for k in right_jacobian_coefficients(cone_angle))


def omega_many(signal, t: np.ndarray) -> np.ndarray:
    """``trajectory.omega_at`` at every time of the 1-d array ``t``."""
    if isinstance(signal, PolynomialRate):
        model = signal.model
        tau = (t - model.origin)[:, None]
        acc = np.broadcast_to(model.coeffs[-1], (t.size, 3))
        for row in model.coeffs[-2::-1]:
            acc = acc * tau + row
        return np.array(acc)
    if isinstance(signal, FourierRate):
        out = np.zeros((t.size, 3))
        for amp, freq, phase in signal.terms:
            out += amp * np.sin(freq * t + phase)[:, None]
        return out
    if isinstance(signal, ConingRotationVector):
        # |phi| is the cone angle at every t: one pair of coefficients,
        # computed once per cone.
        a = signal.cone_angle
        w = signal.precession_rate
        cw, sw = np.cos(w * t), np.sin(w * t)
        phi = np.zeros((t.size, 3))
        phi_dot = np.zeros((t.size, 3))
        np.multiply(a, cw, out=phi[:, 0])
        np.multiply(a, sw, out=phi[:, 1])
        np.multiply(-a * w, sw, out=phi_dot[:, 0])
        np.multiply(a * w, cw, out=phi_dot[:, 1])
        return right_jacobian_apply(*_cone_coefficients(a), phi, phi_dot)
    raise TypeError(f"unknown signal type {type(signal).__name__}")


def _per_call(rows: int) -> int:
    """How many batches of ``rows`` times one ``omega_many`` call takes:
    as many as fit in ``BLOCK`` rows, and at least one."""
    return max(1, BLOCK // rows)


def synth_many(signal, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """``trajectory.synth_delta_theta`` over every ``[t0[i], t1[i]]``.

    Default panel count, and the panel and node order of the scalar rule.
    The rates of several nodes come from one ``omega_many`` call of at most
    ``max(BLOCK, intervals)`` rows; they are accumulated node by node, so
    the result does not depend on how the nodes are batched.  The caller
    guarantees ``t1 > t0``.
    """
    panels = np.ceil((t1 - t0) * _rate_scale(signal) / math.pi) + 2.0
    out = np.empty((t0.size, 3))
    nodes = _GL_NODES.size
    for count in np.unique(panels):
        rows = panels == count
        start = t0[rows]
        h = (t1[rows] - start) / count
        half = 0.5 * h
        acc = np.zeros((start.size, 3))
        total, per = int(count) * nodes, _per_call(start.size)
        for q0 in range(0, total, per):
            q = np.arange(q0, min(q0 + per, total))
            mid = start + (q // nodes)[:, None] * h + half
            t = mid + half * _GL_NODES[q % nodes][:, None]
            omega = omega_many(signal, t.ravel()).reshape(q.size, -1, 3)
            for w, rate in zip(_GL_WEIGHTS[q % nodes], omega):
                acc = acc + w * rate
        out[rows] = acc * half[:, None]
    return out


# ----------------------------------------------------- rate-sample steps


def jinv_coefficients(angle: np.ndarray) -> np.ndarray:
    """``kinematics.jinv_coefficient`` of every angle, branch for branch.

    Angles outside ``[0, MAX_ANGLE)``, NaN included, give NaN instead of
    raising; the caller decides which one the scalar path would report.
    """
    c = np.full(angle.shape, np.nan)
    series = angle < _SERIES_BRANCH
    taylor = (angle >= _SERIES_BRANCH) & (angle < 1.0)
    trig = (angle >= 1.0) & (angle < MAX_ANGLE)
    a = angle[series]
    c[series] = (1.0 + a * a / 60.0) / 12.0
    a = angle[taylor]
    a2 = a * a
    acc = np.zeros_like(a)
    for coef in reversed(_C_TAYLOR):
        acc = acc * a2 + coef
    c[taylor] = acc
    a = angle[trig]
    half = 0.5 * a
    c[trig] = (1.0 - half * np.cos(half) / np.sin(half)) / (a * a)
    return c


def rate_steps(signal, t0: float, dt: float, tab, mode: JacobianMode,
               k0: int, k1: int) -> np.ndarray:
    """``rk.integrate_attitude_step`` on the signal's rate, steps k0..k1-1.

    Step k spans ``[t0 + k dt, t0 + (k + 1) dt]``.  A stage whose rotation
    vector leaves the exact Jacobian's domain raises
    ``StageEvaluationError`` from ``AngleOutOfDomain`` for the first step and
    stage at which the scalar step loop would have raised.
    """
    t_k = t0 + np.arange(k0, k1) * dt
    n = t_k.size
    # The stage rates do not depend on the stages: evaluate each distinct
    # stage time once, several of them per omega_many call.
    nodes, node_of = np.unique(tab.c, return_inverse=True)
    rates = []
    per = _per_call(n)
    for i in range(0, nodes.size, per):
        t = t_k + dt * nodes[i:i + per, None]
        rates.extend(omega_many(signal, t.ravel()).reshape(-1, n, 3))
    stages = []
    angles = np.zeros((tab.n, n))
    for nu in range(tab.n):
        psi = np.zeros((n, 3))
        for l in range(nu):
            a_nl = tab.a[nu, l]
            if a_nl != 0.0:
                psi = psi + a_nl * stages[l]
        omega = rates[node_of[nu]]
        # kinematics.bortz_rhs, term by term in the same order.
        if mode is JacobianMode.EXACT_CLOSED_FORM:
            px, py, pz = psi[:, 0], psi[:, 1], psi[:, 2]
            angles[nu] = np.sqrt(px * px + py * py + pz * pz)
            c = jinv_coefficients(angles[nu])[:, None]
        else:
            c = 1.0 / 12.0
        cross = _cross(psi, omega)
        stages.append(dt * (omega + 0.5 * cross + c * _cross(psi, cross)))
    bad = ~(angles < MAX_ANGLE)
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=0))[0])
        nu = int(np.flatnonzero(bad[:, k])[0])
        exc = AngleOutOfDomain(
            f"angle {float(angles[nu, k])!r} outside [0, {MAX_ANGLE!r}) rad")
        raise StageEvaluationError(nu, t_k[k] + dt * tab.c[nu],
                                   str(exc)) from exc
    out = np.zeros((n, 3))
    for l in range(tab.n):
        b_l = tab.b[l]
        if b_l != 0.0:
            out = out + b_l * stages[l]
    return out


# ------------------------------------------------------ increment steps


def miller(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
    """``coning.miller_single_speed(prev, curr).delta_phi`` row by row."""
    return curr + _cross(prev, curr) / 12.0


def rk4_theta2(prior: np.ndarray, curr: np.ndarray, dt: float) -> np.ndarray:
    """``coning.rk4_theta2`` of the (prior, curr) windows, ``delta_phi``."""
    omega0 = (prior + curr) / (2.0 * dt)
    omega_mid = curr / dt
    omega1 = (3.0 * curr - prior) / (2.0 * dt)
    return curr + (dt * dt / 12.0) * _cross(omega0 - omega1, omega_mid)


def rk4_theta3(prior: np.ndarray, curr: np.ndarray,
               nxt: np.ndarray) -> np.ndarray:
    """``coning.rk4_theta3`` of the (prior, curr, next) windows."""
    beta = (_cross(nxt, prior) + 13.0 * _cross(prior - nxt, curr)) / 288.0
    return curr + beta


def two_speed(increments: np.ndarray, before: np.ndarray) -> np.ndarray:
    """``coning.two_speed_classic`` for each row of ``increments``.

    ``increments`` has shape (n, m, 3); ``before[i]`` is the increment just
    before row i's window.
    """
    n = increments.shape[0]
    theta = np.zeros((n, 3))
    half_sum = np.zeros((n, 3))
    twelfth_sum = np.zeros((n, 3))
    prev = before
    for j in range(increments.shape[1]):
        d = increments[:, j]
        half_sum = half_sum + _cross(theta, d)
        twelfth_sum = twelfth_sum + _cross(prev, d)
        theta = theta + d
        prev = d
    return theta + 0.5 * half_sum + twelfth_sum / 12.0


class IncrementGrid:
    """Synthetic increments over ``[k h, (k + 1) h]`` for k = -1 .. n.

    Every increment method reads the sensor output of one interval width:
    the single-speed methods at step size ``dt`` read width ``dt``, the
    two-speed method reads ``dt / minor``.  A grid synthesizes each interval
    of its width once, and every reader takes its increments from it.  It is
    filled in chunks of at most ``BLOCK + 2`` intervals, so no
    ``omega_many`` call grows with the grid; synthesis is row-wise, so the
    chunks change no bits.  Row ``i`` holds interval ``k = i - 1``.
    """

    def __init__(self, signal, h: float, n: int):
        self.signal = signal
        self.h = h
        k = np.arange(-1, n + 1, dtype=float)
        parts = [k[i:i + BLOCK + 2] for i in range(0, k.size, BLOCK + 2)]
        self.values = np.concatenate(
            [synth_many(signal, p * h, (p + 1.0) * h) for p in parts])

    def span(self, first: int, last: int) -> np.ndarray:
        """Increments of the grid's intervals k = first..last-1."""
        return self.values[first + 1:last + 1]

    def take(self, k: np.ndarray, t0: np.ndarray,
             t1: np.ndarray) -> np.ndarray:
        """Increments over ``[t0[i], t1[i]]``, meant as grid interval ``k[i]``.

        An interval comes from the grid only where both of its endpoints
        equal the grid interval's bit for bit; the others are synthesized.
        """
        out = self.values[k + 1]
        kf = k.astype(float)
        miss = (t0 != kf * self.h) | (t1 != (kf + 1.0) * self.h)
        if miss.any():
            out[miss] = synth_many(self.signal, t0[miss], t1[miss])
        return out


def _windowed(increments: np.ndarray) -> np.ndarray:
    # The scalar path builds a MeasurementWindow per step, which refuses
    # non-finite increments.
    if not np.isfinite(increments).all():
        raise ValueError("increments must be finite")
    return increments


def miller_steps(grid: IncrementGrid, k0: int, k1: int) -> np.ndarray:
    """Single-speed corrected rotation vectors of steps k0..k1-1; step k
    spans the grid's interval k."""
    inc = grid.span(k0 - 1, k1)
    return miller(inc[:-1], inc[1:])


def rk4_theta2_steps(grid: IncrementGrid, k0: int, k1: int) -> np.ndarray:
    """Four-stage solver (prior, current) rotation vectors, steps k0..k1-1."""
    inc = _windowed(grid.span(k0 - 1, k1))
    return rk4_theta2(inc[:-1], inc[1:], grid.h)


def rk4_theta3_steps(grid: IncrementGrid, k0: int, k1: int) -> np.ndarray:
    """Four-stage solver (prior, current, next) rotation vectors."""
    inc = _windowed(grid.span(k0 - 1, k1 + 1))
    return rk4_theta3(inc[:-2], inc[1:-1], inc[2:])


def two_speed_steps(grid: IncrementGrid, dt: float, minor: int, k0: int,
                    k1: int) -> np.ndarray:
    """Two-speed rotation vectors of steps k0..k1-1, ``minor`` increments
    each, with the interval times of the scalar loop.

    Minor interval j of step k is interval ``k minor + j`` of ``grid``,
    whose width is ``dt / minor``; it is taken from the grid where its
    times equal the grid's.
    """
    sub = dt / minor
    start = np.arange(k0, k1, dtype=float)[:, None] * dt
    j = np.arange(minor, dtype=float)
    if k0 == 0:
        first = (-sub, 0.0)
    else:
        last_start = (k0 - 1) * dt
        first = (last_start + (minor - 1) * sub, last_start + minor * sub)
    inc = grid.take(np.arange(k0 * minor - 1, k1 * minor),
                    np.append(first[0], start + j * sub),
                    np.append(first[1], start + (j + 1.0) * sub))
    windows = inc[1:].reshape(k1 - k0, minor, 3)
    before = np.concatenate([inc[:1], windows[:-1, -1]])
    return two_speed(windows, before)


# ------------------------------------------------------------ composer


def dcm_many(phi: np.ndarray) -> np.ndarray:
    """``so3.dcm_from_rotation_vector`` of every row; shape (n, 3, 3)."""
    x, y, z = phi[:, 0], phi[:, 1], phi[:, 2]
    n2 = x * x + y * y + z * z
    k1 = np.empty_like(n2)
    k2 = np.empty_like(n2)
    small = n2 < SMALL_ANGLE * SMALL_ANGLE
    k1[small] = 1.0 - n2[small] / 6.0
    k2[small] = 0.5 - n2[small] / 24.0
    big = ~small
    angle = np.sqrt(n2[big])
    k1[big] = np.sin(angle) / angle
    k2[big] = (1.0 - np.cos(angle)) / n2[big]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    k1x, k1y, k1z = k1 * x, k1 * y, k1 * z
    out = np.empty((phi.shape[0], 3, 3))
    out[:, 0, 0] = 1.0 - k2 * (yy + zz)
    out[:, 0, 1] = k1z + k2 * xy
    out[:, 0, 2] = -k1y + k2 * xz
    out[:, 1, 0] = -k1z + k2 * xy
    out[:, 1, 1] = 1.0 - k2 * (xx + zz)
    out[:, 1, 2] = k1x + k2 * yz
    out[:, 2, 0] = k1y + k2 * xz
    out[:, 2, 1] = -k1x + k2 * yz
    out[:, 2, 2] = 1.0 - k2 * (xx + yy)
    return out


def chain_product(mats: np.ndarray) -> np.ndarray:
    """``mats[n-1] @ ... @ mats[1] @ mats[0]`` by a pairwise tree.

    Each level multiplies neighbouring pairs; a product whose orthogonality
    defect is not at most ``DRIFT_TOL`` (NaN included) is projected with
    ``so3.orthonormalize``, which raises ``NotNearOrthogonal`` on a matrix
    too far from SO(3) or with a non-finite entry.
    """
    while mats.shape[0] > 1:
        pairs = mats.shape[0] // 2
        prod = np.matmul(mats[1:2 * pairs:2], mats[0:2 * pairs:2])
        # matmul is faster on a contiguous transpose; same products.
        g = np.matmul(np.ascontiguousarray(prod.transpose(0, 2, 1)),
                      prod) - _EYE3
        defect = np.sqrt((g * g).sum(axis=(1, 2)))
        for i in np.flatnonzero(~(defect <= DRIFT_TOL)):
            prod[i] = orthonormalize(prod[i])
        if mats.shape[0] % 2:
            prod = np.concatenate([prod, mats[-1:]])
        mats = prod
    return mats[0]


def compose_steps(produce, n: int, block: int = BLOCK) -> np.ndarray:
    """Attitude after steps 0..n-1, starting from the identity.

    ``produce(k0, k1)`` returns the rotation vectors of steps k0..k1-1; each
    block's DCMs are multiplied by ``chain_product`` and the block products
    folded onto the attitude with ``so3.compose``, right to left.
    """
    t_mat = _EYE3
    for k0 in range(0, n, block):
        dphi = produce(k0, min(k0 + block, n))
        t_mat = compose(chain_product(dcm_many(dphi)), t_mat)
    return t_mat
