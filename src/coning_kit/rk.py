"""Explicit Runge-Kutta engine over Butcher tableaux.

The step routine implements the standard explicit scheme

    psi_nu = y_k + sum_{l < nu} A[nu, l] f_l
    f_nu   = dt * f(t_k + dt * c[nu], psi_nu)
    y_k+1  = y_k + sum_l b[l] f_l

for any state dimension.  ``integrate_attitude_step`` specializes it to the
rotation-vector ODE over one sensor interval with the zero initial condition
(which makes the inverse Jacobian the identity at the first stage) and a
rate ``OmegaSampler`` of absolute time.  ``delta_phi_closed`` is its
second-order closed form for any tableau on the stage rates, such as
``rk_node_samples(window, tab.c)``: the weights ``b`` and a cross-sum table
read by ``so3._cross_sum`` like the ``coning`` corrections.

``integrate_attitude_step`` is the per-call path of a strapdown update: it
runs the scheme on Python floats, with the operations and order of
``rk_step`` on ``kinematics.bortz_rhs``, except that stage 0 is
``dt * omega``, as in the array engine.  The two steps agree bit for bit on
finite rates: their stage 0 may differ only in the sign of an exactly-zero
component, which no later sum keeps.  ``rk_step`` is its oracle in the
tests.  The later stages are evaluated by ``kinematics._apply_jacobian``,
the kernel the array engine runs on columns.  Both step routines read the
tableau's coefficients from the plan ``ButcherTableau`` precomputes as
Python floats.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import Frozen, StageEvaluationError, _set
from .kinematics import JacobianMode, _apply_jacobian, jinv_coefficient
from .so3 import _cross_sum, _finite

OdeFunction = Callable[[float, np.ndarray], np.ndarray]
OmegaSampler = Callable[[float], np.ndarray]


class ButcherTableau(Frozen):
    """Coefficients (A, b, c) of an explicit Runge-Kutta scheme.

    ``a`` must be strictly lower triangular for the scheme to be explicit;
    ``b`` must sum to 1 and each ``c[nu]`` must equal the row sum of
    ``a[nu]``.  Those coefficient invariants are checked by
    ``validate_tableau``, not at construction, so defective tableaux can be
    built for testing.  The three arrays are copied and frozen.

    Construction also precomputes, as Python floats, the plan both step
    routines run: per stage ``nu``, ``c[nu]`` and the pairs ``(l, A[nu, l])``
    with ``l < nu`` and a nonzero coefficient; then the pairs ``(l, b[l])``
    with a nonzero weight; and the cross-sum table of ``delta_phi_closed``.
    """

    __slots__ = ("a", "b", "c", "_plan", "_expansion")

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        a = np.array(a, dtype=float)
        b = np.array(b, dtype=float)
        c = np.array(c, dtype=float)
        n = b.shape[0]
        if a.shape != (n, n) or c.shape != (n,):
            raise ValueError(
                f"inconsistent tableau shapes: A {a.shape}, b {b.shape}, "
                f"c {c.shape}")
        stages = tuple(
            (float(c[nu]), tuple((l, float(a[nu, l])) for l in range(nu)
                                 if a[nu, l] != 0.0))
            for nu in range(n))
        weights = tuple((l, float(b[l])) for l in range(n) if b[l] != 0.0)
        for name, value in (("a", a), ("b", b), ("c", c)):
            value.setflags(write=False)
            _set(self, name, value)
        _set(self, "_plan", (stages, weights))
        _set(self, "_expansion", (2.0, tuple(
            (l, nu, float(b[nu]) * a_nl) for nu, (_, row) in enumerate(stages)
            for l, a_nl in row if b[nu] != 0.0)))

    @property
    def n(self) -> int:
        """Stage count."""
        return self.b.shape[0]


def tableau_forward_euler() -> ButcherTableau:
    """One-stage forward Euler (first order)."""
    return ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0])


def tableau_explicit_midpoint() -> ButcherTableau:
    """Two-stage explicit midpoint (second order)."""
    return ButcherTableau(a=[[0.0, 0.0], [0.5, 0.0]],
                          b=[0.0, 1.0],
                          c=[0.0, 0.5])


def tableau_rk3() -> ButcherTableau:
    """Kutta's original third-order scheme."""
    return ButcherTableau(a=[[0.0, 0.0, 0.0],
                             [0.5, 0.0, 0.0],
                             [-1.0, 2.0, 0.0]],
                          b=[1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
                          c=[0.0, 0.5, 1.0])


def tableau_rk4() -> ButcherTableau:
    """The classical fourth-order scheme."""
    return ButcherTableau(a=[[0.0, 0.0, 0.0, 0.0],
                             [0.5, 0.0, 0.0, 0.0],
                             [0.0, 0.5, 0.0, 0.0],
                             [0.0, 0.0, 1.0, 0.0]],
                          b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
                          c=[0.0, 0.5, 0.5, 1.0])


def tableau_rk6() -> ButcherTableau:
    """Butcher's seven-stage sixth-order scheme (J. C. Butcher, 1964)."""
    return ButcherTableau(a=[row + [0] * (7 - len(row)) for row in (
        [], [1 / 3], [0, 2 / 3], [1 / 12, 1 / 3, -1 / 12],
        [-1 / 16, 9 / 8, -3 / 16, -3 / 8], [0, 9 / 8, -3 / 8, -3 / 4, 1 / 2],
        [9 / 44, -9 / 11, 63 / 44, 18 / 11, 0, -16 / 11])],
        b=[11 / 120, 0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120],
        c=[0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1])


def validate_tableau(tab: ButcherTableau) -> list[str]:
    """Check tableau invariants; return every violation (empty list = ok)."""
    violations = []
    n = tab.n
    for nu in range(n):
        for l in range(nu, n):
            if tab.a[nu, l] != 0.0:
                violations.append(
                    f"A[{nu}][{l}] = {tab.a[nu, l]!r} must be 0 for an "
                    "explicit scheme")
    bsum = float(tab.b.sum())
    if abs(bsum - 1.0) > 1e-14:
        violations.append(f"sum(b) = {bsum!r} differs from 1 by more "
                          "than 1e-14")
    for nu in range(n):
        rowsum = float(tab.a[nu, :nu].sum()) if nu else 0.0
        if abs(float(tab.c[nu]) - rowsum) > 1e-14:
            violations.append(
                f"c[{nu}] = {float(tab.c[nu])!r} does not match row sum "
                f"{rowsum!r}")
    if n and tab.c[0] != 0.0:
        violations.append(f"c[0] = {float(tab.c[0])!r} must be 0")
    return violations


def _check_dt(dt: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")


def rk_step(f: OdeFunction, t_k: float, y_k: np.ndarray, dt: float,
            tab: ButcherTableau) -> np.ndarray:
    """Advance ``y_k`` by one explicit Runge-Kutta step of size ``dt``.

    ``f`` is evaluated only at times ``t_k + dt * c[nu]``, never outside
    ``[t_k, t_k + dt * max(c)]``.  Exceptions raised by ``f`` are re-raised
    as ``StageEvaluationError`` carrying the stage index, with the original
    exception chained.  ``dt`` must be positive and finite.
    """
    _check_dt(dt)
    y = np.asarray(y_k, dtype=float)
    stage_plan, weights = tab._plan
    stages = []
    for nu, (c_nu, row) in enumerate(stage_plan):
        psi = y
        for l, a_nl in row:
            psi = psi + a_nl * stages[l]
        t_nu = t_k + dt * c_nu
        try:
            f_nu = f(t_nu, psi)
        except Exception as exc:
            raise StageEvaluationError(nu, t_nu, str(exc)) from exc
        stages.append(dt * np.asarray(f_nu, dtype=float))
    out = y
    for l, b_l in weights:
        out = out + b_l * stages[l]
    return out


def integrate_attitude_step(sampler: OmegaSampler, t_k: float, dt: float,
                            tab: ButcherTableau,
                            mode: JacobianMode = JacobianMode.EXACT_CLOSED_FORM
                            ) -> np.ndarray:
    """Rotation-vector increment over ``[t_k, t_k + dt]``.

    Runs one step of the scheme on ``phi_dot = jinv(phi, mode) @
    sampler(t)`` from the zero initial condition, so the returned vector is
    the incremental rotation of the step.  Stage 0, at ``phi = 0``, is
    ``dt * omega`` and evaluates no Jacobian.  For a constant angular rate
    every tableau is exact: the increment is ``dt * omega``.  On finite
    rates the result equals ``rk_step`` on ``kinematics.bortz_rhs`` bit for
    bit, including the stage and time of a ``StageEvaluationError``: the
    stages differ at most in the sign of an exactly-zero component of stage
    0, which no sum of the step keeps.
    """
    _check_dt(dt)
    exact = mode is JacobianMode.EXACT_CLOSED_FORM
    c = 1.0 / 12.0
    stage_plan, weights = tab._plan
    stages = []
    for nu, (c_nu, row) in enumerate(stage_plan):
        px = py = pz = 0.0
        for l, a_nl in row:
            sx, sy, sz = stages[l]
            px += a_nl * sx
            py += a_nl * sy
            pz += a_nl * sz
        t_nu = t_k + dt * c_nu
        try:
            wx, wy, wz = np.asarray(sampler(t_nu), dtype=float).tolist()
            if not nu:
                # phi = 0, where the Jacobian is the identity.
                stages.append((dt * wx, dt * wy, dt * wz))
                continue
            if exact:
                c = jinv_coefficient(math.sqrt(px * px + py * py + pz * pz))
            stages.append(_apply_jacobian(px, py, pz, wx, wy, wz, c, dt))
        except Exception as exc:
            raise StageEvaluationError(nu, t_nu, str(exc)) from exc
    ox = oy = oz = 0.0
    for l, b_l in weights:
        sx, sy, sz = stages[l]
        ox += b_l * sx
        oy += b_l * sy
        oz += b_l * sz
    return np.array([ox, oy, oz])


def delta_phi_closed(tab: ButcherTableau, rows, dt: float) -> np.ndarray:
    """Second-order closed form of ``tab``'s rotation increment.

    ``dt sum_nu b_nu w_nu + (dt^2/2) sum_nu,l b_nu A[nu, l] w_l x w_nu``,
    with ``w_nu = rows[nu]`` the rate at stage ``nu``'s node, for example
    ``rk_node_samples(window, tab.c)``; the cross term is the table ``(2,
    ((l, nu, b_nu A[nu, l]), ...))`` that the tableau builds.  Raises
    ``ValueError`` unless ``rows`` is a ``(tab.n, 3)`` array, and
    ``NonFiniteIncrement``, a ``ValueError``, if the result is not finite.
    """
    _check_dt(dt)
    w = np.asarray(rows, dtype=float)
    if w.shape != (tab.n, 3):
        raise ValueError(f"rows must have shape ({tab.n}, 3), got {w.shape}")
    w = w.tolist()
    fx = fy = fz = 0.0
    for l, b_l in tab._plan[1]:
        x, y, z = w[l]
        fx += b_l * x
        fy += b_l * y
        fz += b_l * z
    cx, cy, cz = _cross_sum(tab._expansion, w)
    h = dt * dt
    return _finite((dt * fx + h * cx, dt * fy + h * cy, dt * fz + h * cz))
