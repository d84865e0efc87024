"""Explicit Runge-Kutta engine over Butcher tableaux.

The step routine implements the standard explicit scheme

    psi_nu = y_k + sum_{l < nu} A[nu, l] f_l
    f_nu   = dt * f(t_k + dt * c[nu], psi_nu)
    y_k+1  = y_k + sum_l b[l] f_l

for any state dimension.  ``integrate_attitude_step`` specializes it to the
rotation-vector ODE over one sensor interval with the zero initial condition
(which makes the inverse Jacobian the identity at the first stage), and the
``delta_phi_*_closed`` functions are the corresponding second-order closed
forms in angular-rate samples.

``integrate_attitude_step`` is the per-call path of a strapdown update: it
runs the scheme on Python floats, with the same operations in the same
order as ``rk_step`` on ``kinematics.bortz_rhs``, so the two agree bit for
bit; ``rk_step`` is its oracle in the tests.  Its stages are evaluated by
``kinematics._apply_jacobian``, the kernel the array engine runs on
columns.  Both step routines read the tableau's coefficients from the plan
``ButcherTableau`` precomputes as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StageEvaluationError
from .kinematics import JacobianMode, _apply_jacobian, jinv_coefficient
from .so3 import cross

OdeFunction = Callable[[float, np.ndarray], np.ndarray]
OmegaSampler = Callable[[float], np.ndarray]


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients (A, b, c) of an explicit Runge-Kutta scheme.

    ``a`` must be strictly lower triangular for the scheme to be explicit;
    ``b`` must sum to 1 and each ``c[nu]`` must equal the row sum of
    ``a[nu]``.  Those coefficient invariants are checked by
    ``validate_tableau``, not at construction, so defective tableaux can be
    built for testing.  The three arrays are copied and frozen.

    Construction also precomputes the plan both step routines run, as
    Python floats: per stage ``nu``, ``c[nu]`` and the pairs
    ``(l, A[nu, l])`` with ``l < nu`` and a nonzero coefficient; then the
    pairs ``(l, b[l])`` with a nonzero weight.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        n = b.shape[0]
        if a.shape != (n, n) or c.shape != (n,):
            raise ValueError(
                f"inconsistent tableau shapes: A {a.shape}, b {b.shape}, "
                f"c {c.shape}")
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        stages = tuple(
            (float(c[nu]), tuple((l, float(a[nu, l])) for l in range(nu)
                                 if a[nu, l] != 0.0))
            for nu in range(n))
        weights = tuple((l, float(b[l])) for l in range(n) if b[l] != 0.0)
        object.__setattr__(self, "_plan", (stages, weights))

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
    the incremental rotation of the step.  For a constant angular rate every
    tableau is exact: the increment is ``dt * omega``.  The result equals
    ``rk_step`` on ``kinematics.bortz_rhs`` bit for bit, including the stage
    and time of a ``StageEvaluationError``.
    """
    _check_dt(dt)
    exact = mode is JacobianMode.EXACT_CLOSED_FORM
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
            w = sampler(t_nu)
            wx, wy, wz = float(w[0]), float(w[1]), float(w[2])
            if exact:
                c = jinv_coefficient(math.sqrt(px * px + py * py + pz * pz))
            else:
                c = 1.0 / 12.0
        except Exception as exc:
            raise StageEvaluationError(nu, t_nu, str(exc)) from exc
        stages.append(_apply_jacobian(px, py, pz, wx, wy, wz, 0.5, c, dt))
    ox = oy = oz = 0.0
    for l, b_l in weights:
        sx, sy, sz = stages[l]
        ox += b_l * sx
        oy += b_l * sy
        oz += b_l * sz
    return np.array([ox, oy, oz])


def delta_phi_rk3_closed(omega0: np.ndarray, omega_mid: np.ndarray,
                         omega1: np.ndarray, dt: float) -> np.ndarray:
    """Quadratic-order closed form of the three-stage rotation increment.

    ``(dt/6)(w0 + 4 wm + w1) + (dt^2/6)(w0 - w1) x wm + (dt^2/12) w1 x wm``.
    Agrees with the three-stage solver to O(dt^3) when the samples come
    from a smooth rate signal; the trailing ``w1 x wm`` term makes the
    form asymmetric relative to the four-stage one.
    """
    _check_dt(dt)
    w0 = np.asarray(omega0, dtype=float)
    wm = np.asarray(omega_mid, dtype=float)
    w1 = np.asarray(omega1, dtype=float)
    simpson = (dt / 6.0) * (w0 + 4.0 * wm + w1)
    return (simpson
            + (dt * dt / 6.0) * cross(w0 - w1, wm)
            + (dt * dt / 12.0) * cross(w1, wm))


def delta_phi_rk4_closed(omega0: np.ndarray, omega_mid: np.ndarray,
                         omega1: np.ndarray, dt: float) -> np.ndarray:
    """Quadratic-order closed form of the four-stage rotation increment.

    ``(dt/6)(w0 + 4 wm + w1) + (dt^2/12)(w0 - w1) x wm``.  Agrees with the
    four-stage solver to O(dt^3) for any samples.
    """
    _check_dt(dt)
    w0 = np.asarray(omega0, dtype=float)
    wm = np.asarray(omega_mid, dtype=float)
    w1 = np.asarray(omega1, dtype=float)
    simpson = (dt / 6.0) * (w0 + 4.0 * wm + w1)
    return simpson + (dt * dt / 12.0) * cross(w0 - w1, wm)
