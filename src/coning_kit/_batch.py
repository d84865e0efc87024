"""Array propagation engine behind ``bench.propagate`` and the reference.

Every propagation step starts from a zero rotation vector, so the per-step
rotation vectors are independent of one another, within one step size (a
*cell*) and across cells.  ``compose_steps`` propagates any number of cells
in one *pass*: it cuts each cell into *segments* ``(cell, k0, k1)`` of at
most ``BLOCK`` sensor intervals, packs consecutive segments, of one cell or
of several, into calls of at most ``BLOCK`` steps, and asks a *producer*
for each call's ``(n, 3)`` rotation vectors:

- ``rate_steps`` runs the Runge-Kutta stages of the rotation-vector ODE on
  the signal's rate (``rk.integrate_attitude_step``), with each row's step
  start and width as columns.  It reads the stage rates from
  ``RateSamples``, which samples each node time of a call once, as many
  nodes per ``omega_many`` call as fit in ``BLOCK`` rows, and keeps the
  nodes a later tableau's pass over the same calls reads;
- ``cross_sum_steps`` (with a ``coning`` table), ``rk4_theta2_steps`` and
  ``two_speed_steps`` read each cell's increments from its
  ``IncrementGrid``; ``increment_grids`` synthesizes each sensor interval
  of the grids a pass lacks once, each grid with its width as one number.

``chain_products`` multiplies each segment of a call's DCMs in one pairwise
tree.  A cell starts at its first segment's product, and ``so3.compose``
folds each later one onto it: the one sequential step.  The drift rule
runs once per segment.  Every kernel works row by row and a cell's segments
do not depend on the rest of its pass, so a cell's attitude is bitwise the
same alone or in any pass.

Each array function shares the kernel of the per-call function it replaces
(``coning``, ``so3._cross_sum`` and ``_dcm_entries``,
``kinematics._apply_jacobian`` and the two forms of ``c``,
``trajectory._rate_xyz`` and ``_increment_xyz``) on (n,) columns; rows are
the transpose of a ``(3, n)`` array (``_rows``), so ``rows.T`` hands the
kernels contiguous columns.  Results differ from a
scalar loop in the last bits where numpy's sin, cos and 3x3 products round
differently and where the tree regroups the product; ``tests/test_batch.py``
holds each array function to its scalar oracle within a stated tolerance.
"""

from __future__ import annotations

import numpy as np

from .coning import _rk4_theta2_beta, _two_speed_phi
from .errors import (AngleOutOfDomain, ConingKitError, NonFiniteIncrement,
                     StageEvaluationError)
from .kinematics import (MAX_ANGLE, JacobianMode, _apply_jacobian,
                         _coefficient_series, _coefficient_trig)
from .so3 import (SMALL_ANGLE, _cross_sum, _dcm_entries, _drift_rule,
                  compose)
from .trajectory import _increment_xyz, _rate_xyz

#: Steps per producer call, and sensor intervals per segment: a two-speed
#: segment of m minor steps holds ``BLOCK // m`` steps.  Bounds the engine's
#: working set whatever the step count; a two-speed call reads up to m
#: ``BLOCK`` intervals of grids that are resident in full.
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


def synth_many(signal, t0: np.ndarray, h) -> np.ndarray:
    """``trajectory.synth_delta_theta`` over every ``[t0[i], t0[i] + h]``,
    ``h`` one positive width or one per row."""
    return _rows(_increment_xyz(signal, t0, h, np), t0.size)


# ----------------------------------------------------- rate-sample steps


def jinv_coefficients(angle: np.ndarray) -> np.ndarray:
    """``kinematics.jinv_coefficient`` of every angle, form for form; NaN,
    instead of raising, for an angle outside ``[0, MAX_ANGLE)``."""
    if angle.max() < 1.0 and angle.min() >= 0.0:  # NaN fails both
        return _coefficient_series(angle * angle)
    c = np.full(angle.shape, np.nan)
    series = (angle >= 0.0) & (angle < 1.0)
    trig = (angle >= 1.0) & (angle < MAX_ANGLE)
    a = angle[series]
    c[series] = _coefficient_series(a * a)
    c[trig] = _coefficient_trig(angle[trig], np)
    return c


def _step_columns(segments, per_cell) -> tuple:
    """Columns of the step index ``k`` and of the cell's ``per_cell`` value,
    one row per step of ``segments``."""
    k = np.concatenate([np.arange(k0, k1) for _, k0, k1 in segments])
    v = np.repeat([per_cell[c] for c, _, _ in segments],
                  [k1 - k0 for _, k0, k1 in segments])
    return k, v


class RateSamples:
    """The signal's rate at the stage times ``t0 + k dt + c dt`` of the
    calls of ``rate_steps``, as ``(3, n)`` columns per call and node ``c``.

    The rate methods of a sweep run the same calls, so the columns sampled
    at a node of ``keep`` are kept for a later tableau that reads it; the
    caller drops them after the last one.  A call is keyed by the step
    width and range of each of its segments: a call of other segments,
    such as one run again alone, never reads rows made for this one.
    """

    def __init__(self, signal, t0: float):
        self.signal, self.t0 = signal, t0
        self.keep, self.kept = frozenset(), {}

    def columns(self, call, t_k: np.ndarray, dt: np.ndarray, nodes) -> dict:
        """Columns of each node of ``nodes``, the call's steps starting at
        ``t_k`` with widths ``dt``; each missing node is sampled once."""
        found = {c: self.kept[c, call] for c in nodes
                 if (c, call) in self.kept}
        missing = [c for c in nodes if c not in found]
        n = t_k.size
        per = max(1, BLOCK // n)
        for i in range(0, len(missing), per):
            group = missing[i:i + per]
            t = t_k + dt * np.array(group)[:, None]
            omega = omega_many(self.signal, t.ravel()).T.reshape(3, -1, n)
            found.update(zip(group, omega.swapaxes(0, 1)))
        self.kept.update(((c, call), found[c]) for c in missing
                         if c in self.keep)
        return found

    def drop(self, nodes) -> None:
        """Forget the columns of ``nodes``: no later pass reads them."""
        self.kept = {key: v for key, v in self.kept.items()
                     if key[0] not in nodes}


def rate_steps(samples: RateSamples, dts, tab, mode: JacobianMode,
               segments) -> np.ndarray:
    """``rk.integrate_attitude_step`` on the rate of ``samples``, for the
    steps of ``segments``; step k of cell c starts at ``samples.t0 + k
    dts[c]``.

    A stage whose rotation vector leaves the exact Jacobian's domain raises
    ``StageEvaluationError`` from ``AngleOutOfDomain`` for the first row and
    stage at which a step loop over the rows would have raised.
    """
    k, dt = _step_columns(segments, dts)
    t_k = samples.t0 + k * dt
    n = t_k.size
    stage_plan, weights = tab._plan
    # The stage rates do not depend on the stages: one per distinct node.
    rates = samples.columns(tuple((dts[c], k0, k1) for c, k0, k1 in segments),
                            t_k, dt, dict.fromkeys(c for c, _ in stage_plan))
    zero = np.zeros((3, 1))
    # Stage 0 has phi = 0, where the Jacobian is the identity.
    stages = [dt * rates[stage_plan[0][0]]]
    angles = np.zeros((tab.n, n))
    for nu, (c_nu, row) in enumerate(stage_plan[1:], 1):
        # rk.integrate_attitude_step, term by term in the same order.
        px, py, pz = sum((a_nl * stages[l] for l, a_nl in row), zero)
        if mode is JacobianMode.EXACT_CLOSED_FORM:
            angles[nu] = np.sqrt(px * px + py * py + pz * pz)
            c = jinv_coefficients(angles[nu])
        else:
            c = 1.0 / 12.0
        stages.append(np.array(_apply_jacobian(
            px, py, pz, *rates[c_nu], c, dt)))
    bad = ~(angles < MAX_ANGLE)
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=0))[0])
        nu = int(np.flatnonzero(bad[:, k])[0])
        exc = AngleOutOfDomain(
            f"angle {float(angles[nu, k])!r} outside [0, {MAX_ANGLE!r}) rad")
        raise StageEvaluationError(nu, t_k[k] + dt[k] * tab.c[nu],
                                   str(exc)) from exc
    return _rows(sum((b_l * stages[l] for l, b_l in weights), zero), n)


# ------------------------------------------------------ increment steps


def cross_sum(table, *windows: np.ndarray) -> np.ndarray:
    """``delta_phi`` of the cross-sum ``table`` (``coning.MILLER``,
    ``RK4_THETA3``) row by row; ``windows[i]`` holds increment i of every
    window, ``windows[1]`` the current one."""
    return (windows[1].T + _cross_sum(table, [w.T for w in windows])).T


def rk4_theta2(prior: np.ndarray, curr: np.ndarray, dt: float) -> np.ndarray:
    """``coning.rk4_theta2`` of the (prior, curr) windows, ``delta_phi``."""
    return (curr.T + _rk4_theta2_beta(*prior.T, *curr.T, dt)).T


def two_speed(increments: np.ndarray, before: np.ndarray) -> np.ndarray:
    """``coning.two_speed_classic`` of each (m, 3) window of
    ``increments``, ``before[i]`` being the increment before window i."""
    # Shape (m, 3, n): the x, y and z columns of each increment.
    columns = np.ascontiguousarray(increments.transpose(1, 2, 0))
    return _rows(_two_speed_phi(columns, *before.T), increments.shape[0])


class IncrementGrid:
    """Synthetic increments over ``[k h, (k + 1) h]`` for k = -1 .. n, row
    ``k + 1`` of ``values`` holding interval k: the sensor output of one
    width, which every increment method at that width reads."""

    def __init__(self, h: float, values: np.ndarray):
        self.h, self.values = h, values

    def span(self, first: int, last: int) -> np.ndarray:
        """Increments of the grid's intervals k = first..last-1."""
        return self.values[first + 1:last + 1]


def increment_grids(signal, keys) -> list:
    """The ``IncrementGrid`` of each ``(h, n)`` of ``keys``: ``synth_many``
    of the grid's starts ``k h`` with its width as one number, in chunks of
    at most ``BLOCK + 2`` rows, so no temporary grows with the grid.
    Synthesis is row-wise, so the chunks change no bits."""
    grids, step = [], BLOCK + 2
    for h, n in keys:
        t0 = np.arange(-1, n + 1, dtype=float) * h
        grids.append(IncrementGrid(h, np.hstack([
            synth_many(signal, t0[i:i + step], h).T
            for i in range(0, t0.size, step)]).T))
    return grids


def _spans(grids, segments, shift: int, minor: int = 1) -> np.ndarray:
    """Intervals ``k minor + shift + j``, j < minor, of cell c's grid for the
    steps k of each segment (c, k0, k1), concatenated."""
    return np.concatenate([grids[c].span(k0 * minor + shift,
                                         k1 * minor + shift)
                           for c, k0, k1 in segments])


def _windowed(increments: np.ndarray) -> np.ndarray:
    # The scalar path builds a MeasurementWindow per step, which refuses
    # non-finite increments.
    if not np.isfinite(increments).all():
        raise NonFiniteIncrement("increments must be finite")
    return increments


def cross_sum_steps(table, grids, segments) -> np.ndarray:
    """Single-speed rotation vectors of the steps of ``segments``; step k of
    cell c spans interval k of ``grids[c]``, its window interval k - 1 on."""
    rows = 1 + max(j for _, j, _ in table[1])
    return cross_sum(table, *(_windowed(_spans(grids, segments, shift))
                              for shift in range(-1, rows - 1)))


def rk4_theta2_steps(grids, segments) -> np.ndarray:
    """Four-stage solver (prior, current) rotation vectors."""
    _, h = _step_columns(segments, [grid.h for grid in grids])
    return rk4_theta2(_windowed(_spans(grids, segments, -1)),
                      _windowed(_spans(grids, segments, 0)), h)


def two_speed_steps(grids, minor: int, segments) -> np.ndarray:
    """Two-speed rotation vectors; minor interval j of step k of cell c is
    interval k minor + j of ``grids[c]``."""
    inc = _windowed(_spans(grids, segments, 0, minor))
    before = _windowed(_spans(grids, segments, -1, minor)[::minor])
    return two_speed(inc.reshape(-1, minor, 3), before)


# ------------------------------------------------------------ composer


def dcm_many(phi: np.ndarray) -> np.ndarray:
    """``so3.dcm_from_rotation_vector`` of every row; shape (n, 3, 3)."""
    x, y, z = phi.T
    n2 = x * x + y * y + z * z
    small = n2 < SMALL_ANGLE * SMALL_ANGLE
    big = ~small
    angle = np.sqrt(n2)
    k1 = np.sin(angle)
    np.divide(k1, angle, out=k1, where=big)
    k2 = 1.0 - np.cos(angle)
    np.divide(k2, n2, out=k2, where=big)
    if small.any():
        k1[small] = 1.0 - n2[small] / 6.0
        k2[small] = 0.5 - n2[small] / 24.0
    out = np.empty((phi.shape[0], 3, 3))
    entries = out.reshape(-1, 9).T
    for i, entry in enumerate(_dcm_entries(x, y, z, k1, k2)):
        entries[i] = entry
    return out


def chain_products(mats: np.ndarray, lengths) -> list:
    """``mats[k1-1] @ ... @ mats[k0]`` of each run of ``lengths``
    consecutive matrices, in a pairwise tree whose every level multiplies
    neighbouring pairs and carries an odd last one; the caller applies
    ``so3.compose``.

    The runs share one tree.  Each is padded with identity matrices to a
    power of two, which changes no product (``I @ A`` is ``A`` for finite
    ``A``, up to the sign of an exact zero), and the runs are ordered by
    padded length: each level is one ``np.matmul``, and a run leaves from
    the front once it is one matrix.
    """
    sizes = [1 << (n - 1).bit_length() for n in lengths]
    order = sorted(range(len(lengths)), key=sizes.__getitem__)
    tree = mats
    if sizes != sorted(lengths):  # not already padded and in order
        starts = np.cumsum([0, *lengths]).tolist()
        tree = np.empty((sum(sizes), 3, 3))
        at = 0
        for s in order:
            tree[at:at + lengths[s]] = mats[starts[s]:starts[s + 1]]
            tree[at + lengths[s]:at + sizes[s]] = np.eye(3)
            at += sizes[s]
    products = [None] * len(lengths)
    level = 1
    for s in order:
        while sizes[s] > level:
            tree = tree[1::2] @ tree[0::2]
            level *= 2
        products[s], tree = tree[0], tree[1:]
    return products


def compose_steps(produce, steps, block: int | None = None) -> list:
    """Outcome of each cell's steps from the identity, cell c having
    ``steps[c]``: its attitude, or the ``ConingKitError`` a pass of the cell
    alone raises.  Cells are cut into segments of ``block`` steps (default
    ``BLOCK``), packed into calls of at most ``BLOCK`` steps;
    ``produce(segments)`` returns the rotation vectors of a call's segments,
    one after the other.  A cell starts at its first segment's product,
    under ``compose``'s drift rule, and folds each later one on with
    ``so3.compose``, right to left.  A call that raises runs again segment
    by segment; a cell's first error skips the rest."""
    block = block or BLOCK
    calls, rows = [], BLOCK
    for c, n in enumerate(steps):
        for k0 in range(0, n, block):
            k1 = min(k0 + block, n)
            if rows + k1 - k0 > BLOCK:
                calls.append([])
                rows = 0
            calls[-1].append((c, k0, k1))
            rows += k1 - k0
    outcomes = [None if n else np.eye(3) for n in steps]
    for call in calls:
        call = [s for s in call
                if not isinstance(outcomes[s[0]], ConingKitError)]
        try:
            runs = [(call, produce(call))] if call else []
        except ConingKitError:
            runs = [([s], None) for s in call]
        for run, phi in runs:
            try:
                phi = produce(run) if phi is None else phi
            except ConingKitError as exc:
                outcomes[run[0][0]] = exc
                continue
            products = chain_products(dcm_many(phi),
                                      [k1 - k0 for _, k0, k1 in run])
            for (c, _, _), product in zip(run, products):
                try:
                    outcomes[c] = (_drift_rule(product) if outcomes[c] is None
                                   else compose(product, outcomes[c]))
                except ConingKitError as exc:
                    outcomes[c] = exc
    return outcomes
