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

Each array function shares the kernel of the per-call function it
replaces: the ``coning`` correction kernels, ``so3._dcm_entries``,
``kinematics._apply_jacobian`` and ``trajectory._rate_xyz`` take (n,)
columns here and Python floats there, and IEEE arithmetic rounds each
element as it rounds the float.  Rows are kept as the transpose of a
``(3, n)`` array (``_rows``), so ``rows.T`` hands the kernels contiguous
columns.  Results still differ from a scalar loop in the last bits where
numpy's sin and cos and its stacked 3x3 products round differently, and
the tree groups the product differently.  The scalar functions stay the
per-call API and are the oracles in ``tests/test_batch.py``, which states
the tolerance each array function holds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .coning import (_miller_beta, _rk4_theta2_beta, _rk4_theta3_beta,
                     _two_speed_phi)
from .errors import AngleOutOfDomain, StageEvaluationError
from .kinematics import (_C_TAYLOR, _SERIES_BRANCH, MAX_ANGLE, JacobianMode,
                         _apply_jacobian)
from .so3 import SMALL_ANGLE, _dcm_entries, compose, orthonormalize
from .trajectory import (_GL_NODES, _GL_WEIGHTS, ConingRotationVector,
                         _rate_scale, _rate_xyz)

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


def _rows(components, n: int) -> np.ndarray:
    """Rows of three components (columns or floats), as ``(3, n)``.T."""
    out = np.empty((3, n))
    out[0], out[1], out[2] = components
    return out.T


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

    ``J = I - k1 [phi x] + k2 [phi x]^2``, where ``k1`` and ``k2`` are the
    ``right_jacobian_coefficients`` of ``|phi|``: scalars, or (n,) columns.
    No domain check: the coning signal keeps ``|phi|`` below pi/2.
    """
    return _rows(_apply_jacobian(*phi.T, *v.T, -k1, k2, 1.0), phi.shape[0])


@lru_cache(maxsize=8)
def _cone_coefficients(cone_angle: float) -> tuple[float, float]:
    return tuple(float(k) for k in right_jacobian_coefficients(cone_angle))


def omega_many(signal, t: np.ndarray) -> np.ndarray:
    """``trajectory.omega_at`` at every time of the 1-d array ``t``."""
    if isinstance(signal, ConingRotationVector):
        # |phi| is the cone angle at every t: one pair of coefficients,
        # computed once per cone.
        a = signal.cone_angle
        w = signal.precession_rate
        cw, sw = np.cos(w * t), np.sin(w * t)
        phi = _rows((a * cw, a * sw, 0.0), t.size)
        phi_dot = _rows((-a * w * sw, a * w * cw, 0.0), t.size)
        return right_jacobian_apply(*_cone_coefficients(a), phi, phi_dot)
    return _rows(_rate_xyz(signal, t, np.sin), t.size)


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
    out = np.empty((3, t0.size))
    nodes = _GL_NODES.size
    for count in np.unique(panels):
        rows = panels == count
        start = t0[rows]
        h = (t1[rows] - start) / count
        half = 0.5 * h
        acc = np.zeros((3, start.size))
        total, per = int(count) * nodes, _per_call(start.size)
        for q0 in range(0, total, per):
            q = np.arange(q0, min(q0 + per, total))
            mid = start + (q // nodes)[:, None] * h + half
            t = mid + half * _GL_NODES[q % nodes][:, None]
            omega = omega_many(signal, t.ravel()).T.reshape(3, q.size, -1)
            for w, rate in zip(_GL_WEIGHTS[q % nodes], omega.swapaxes(0, 1)):
                acc = acc + w * rate
        out[:, rows] = acc * half
    return out.T


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
        omega = omega_many(signal, t.ravel()).T.reshape(3, -1, n)
        rates.extend(omega.swapaxes(0, 1))
    stage_plan, weights = tab._plan
    zero = np.zeros((3, 1))
    stages = []
    angles = np.zeros((tab.n, n))
    for nu, (_, row) in enumerate(stage_plan):
        # rk.integrate_attitude_step, term by term in the same order.
        px, py, pz = sum((a_nl * stages[l] for l, a_nl in row), zero)
        if mode is JacobianMode.EXACT_CLOSED_FORM:
            angles[nu] = np.sqrt(px * px + py * py + pz * pz)
            c = jinv_coefficients(angles[nu])
        else:
            c = 1.0 / 12.0
        stages.append(np.array(_apply_jacobian(
            px, py, pz, *rates[node_of[nu]], 0.5, c, dt)))
    bad = ~(angles < MAX_ANGLE)
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=0))[0])
        nu = int(np.flatnonzero(bad[:, k])[0])
        exc = AngleOutOfDomain(
            f"angle {float(angles[nu, k])!r} outside [0, {MAX_ANGLE!r}) rad")
        raise StageEvaluationError(nu, t_k[k] + dt * tab.c[nu],
                                   str(exc)) from exc
    return _rows(sum((b_l * stages[l] for l, b_l in weights), zero), n)


# ------------------------------------------------------ increment steps


def miller(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
    """``coning.miller_single_speed(prev, curr).delta_phi`` row by row."""
    return (curr.T + _miller_beta(*prev.T, *curr.T)).T


def rk4_theta2(prior: np.ndarray, curr: np.ndarray, dt: float) -> np.ndarray:
    """``coning.rk4_theta2`` of the (prior, curr) windows, ``delta_phi``."""
    return (curr.T + _rk4_theta2_beta(*prior.T, *curr.T, dt)).T


def rk4_theta3(prior: np.ndarray, curr: np.ndarray,
               nxt: np.ndarray) -> np.ndarray:
    """``coning.rk4_theta3`` of the (prior, curr, next) windows."""
    return (curr.T + _rk4_theta3_beta(*prior.T, *curr.T, *nxt.T)).T


def two_speed(increments: np.ndarray, before: np.ndarray) -> np.ndarray:
    """``coning.two_speed_classic`` for each row of ``increments``.

    ``increments`` has shape (n, m, 3); ``before[i]`` is the increment just
    before row i's window.
    """
    # Shape (m, 3, n): the x, y and z columns of each increment.
    columns = np.ascontiguousarray(increments.transpose(1, 2, 0))
    return _rows(_two_speed_phi(columns, *before.T), increments.shape[0])


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
        self.values = np.hstack(
            [synth_many(signal, p * h, (p + 1.0) * h).T for p in parts]).T

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
    x, y, z = phi.T
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
    out = np.empty((phi.shape[0], 9))
    out.T[:] = _dcm_entries(x, y, z, k1, k2)
    return out.reshape(-1, 3, 3)


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
