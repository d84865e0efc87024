"""Array propagation engine behind ``bench.propagate`` and the reference.

Every propagation step starts from a zero rotation vector, so the per-step
rotation vectors are independent of one another.  A *producer* returns the
``(n, 3)`` rotation vectors of steps ``k0 .. k1 - 1`` as array operations:

- ``rate_steps`` runs the Runge-Kutta stages of the rotation-vector ODE on
  the signal's rate at the stage times (``rk.integrate_attitude_step``);
- ``miller_steps``, ``rk4_theta2_steps``, ``rk4_theta3_steps`` and
  ``two_speed_steps`` read their increments from an ``IncrementGrid``,
  which synthesizes each sensor interval ``[k h, (k + 1) h]`` once
  (``synth_many``, after ``trajectory.synth_delta_theta``), and apply one
  ``coning`` correction.  Every increment method reads the grid's own
  intervals, as a strapdown sensor samples every algorithm's increments on
  one clock.

``rate_steps`` gets its rates from ``omega_many``.  One call takes the times
of as many RK stages as fit in ``BLOCK`` rows, and at least one, so no call
is larger than one stage's times for a block's steps.

``compose_steps`` is the one composer: it asks a producer for one block of
``BLOCK`` steps at a time, turns the rotation vectors into DCMs and
multiplies them in a plain pairwise tree; only the fold of block products
onto the running attitude is sequential.  Drift is checked once per block,
by ``so3.compose`` at that fold; the product of ``BLOCK`` DCMs stays well
inside ``so3.DRIFT_TOL``, which ``tests/test_batch.py`` holds it to.

Each array function shares the kernel of the per-call function it
replaces: the ``coning`` correction kernels, ``so3._dcm_entries``,
``kinematics._apply_jacobian``, ``trajectory._rate_xyz`` and
``trajectory._increment_xyz`` take (n,) columns here and Python floats
there, and IEEE arithmetic rounds each element as it rounds the float.
Rows are kept as the transpose of a ``(3, n)`` array (``_rows``), so
``rows.T`` hands the kernels contiguous columns.  Results differ from a
scalar loop in the last bits where numpy's sin, cos and stacked 3x3
products round differently, where the cone's closed-form rate stands in
for ``omega_at``'s inversion of ``jinv``, and where the tree regroups the
product.  The scalar functions stay the per-call API and the oracles in
``tests/test_batch.py``, which states the tolerance each array function
holds.
"""

from __future__ import annotations

import numpy as np

from .coning import (_miller_beta, _rk4_theta2_beta, _rk4_theta3_beta,
                     _two_speed_phi)
from .errors import AngleOutOfDomain, StageEvaluationError
from .kinematics import (_C_TAYLOR, _SERIES_BRANCH, MAX_ANGLE, JacobianMode,
                         _apply_jacobian)
from .so3 import SMALL_ANGLE, _dcm_entries, compose
from .trajectory import _increment_xyz, _rate_xyz

#: Steps per block; for the two-speed method, sensor intervals per block.
#: Bounds the engine's working set whatever the step count.
BLOCK = 2048


def _rows(components, n: int) -> np.ndarray:
    """Rows of three components (columns or floats), as ``(3, n)``.T."""
    out = np.empty((3, n))
    out[0], out[1], out[2] = components
    return out.T


# ------------------------------------------------------------- signals


def omega_many(signal, t: np.ndarray) -> np.ndarray:
    """``trajectory.omega_at`` at every time of the 1-d array ``t``."""
    return _rows(_rate_xyz(signal, t, np), t.size)


def synth_many(signal, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """``trajectory.synth_delta_theta`` over every ``[t0[i], t1[i]]``.

    The caller guarantees ``t1 > t0``.
    """
    return _rows(_increment_xyz(signal, t0, t1, np), t0.size)


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
    # stage time once, as many of them per omega_many call as fit in BLOCK
    # rows, and at least one.
    nodes, node_of = np.unique(tab.c, return_inverse=True)
    rates = []
    per = max(1, BLOCK // n)
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
            px, py, pz, *rates[node_of[nu]], c, dt)))
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
    two-speed method reads ``dt / minor``, minor interval j of step k being
    the grid's interval ``k minor + j``.  A grid synthesizes each interval
    of its width once, and every reader takes its increments from it.  It is
    filled in chunks of at most ``BLOCK + 2`` intervals, so no temporary of
    ``synth_many`` grows with the grid; synthesis is row-wise, so the chunks
    change no bits.  Row ``i`` holds interval ``k = i - 1``.
    """

    def __init__(self, signal, h: float, n: int):
        self.h = h
        k = np.arange(-1, n + 1, dtype=float)
        parts = [k[i:i + BLOCK + 2] for i in range(0, k.size, BLOCK + 2)]
        self.values = np.hstack(
            [synth_many(signal, p * h, (p + 1.0) * h).T for p in parts]).T

    def span(self, first: int, last: int) -> np.ndarray:
        """Increments of the grid's intervals k = first..last-1."""
        return self.values[first + 1:last + 1]


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


def two_speed_steps(grid: IncrementGrid, minor: int, k0: int,
                    k1: int) -> np.ndarray:
    """Two-speed rotation vectors of steps k0..k1-1, ``minor`` increments
    each; minor interval j of step k is the grid's interval k minor + j."""
    inc = grid.span(k0 * minor - 1, k1 * minor)
    return two_speed(inc[1:].reshape(k1 - k0, minor, 3), inc[:-1:minor])


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

    Each level multiplies neighbouring pairs.  No drift control: the caller
    passes the result through ``so3.compose``.
    """
    while len(mats) > 1:
        prod = mats[1::2] @ mats[:len(mats) - 1:2]
        mats = np.concatenate([prod, mats[-1:]]) if len(mats) % 2 else prod
    return mats[0]


def compose_steps(produce, n: int, block: int = BLOCK) -> np.ndarray:
    """Attitude after steps 0..n-1, starting from the identity.

    ``produce(k0, k1)`` returns the rotation vectors of steps k0..k1-1; each
    block's DCMs are multiplied by ``chain_product`` and the block products
    folded onto the attitude with ``so3.compose``, right to left: the
    engine's drift control, once per block.
    """
    t_mat = np.eye(3)
    for k0 in range(0, n, block):
        dphi = produce(k0, min(k0 + block, n))
        t_mat = compose(chain_product(dcm_many(dphi)), t_mat)
    return t_mat
