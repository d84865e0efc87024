"""Convergence-study engine: propagate, measure, and fit observed orders.

Each (method, step size) cell propagates the attitude over the full horizon,
starting from the identity, and records the principal angle between the
final attitude and the truth: closed form where the signal has one,
otherwise step-doubled.  Methods driven by instantaneous rate samples run
the generic solver on the rotation-vector ODE; methods driven by integrated
increments synthesize exact measurements from the signal and apply the
coning corrections.

Propagation runs on the array engine of ``_batch``.  Every step starts from
a zero rotation vector, so the steps of all of a method's cells are
independent: a sweep runs each method in one pass over all its step sizes,
cut into segments of ``_batch.BLOCK`` steps (``BLOCK // m`` for m minor
steps), and ``so3.compose`` applies its drift rule once per segment as it
folds the segment's product onto its cell.  ``propagate`` is a pass of one
cell, bitwise equal to the same cell of a sweep.  Like a strapdown
computer, a sweep synthesizes each sensor interval once: the increment
methods share one grid of increments per interval width, and a two-speed
cell of m minor steps reads minor interval j of step k as the grid's
interval ``k m + j`` of width h = dt / m, whose endpoints are at most one
rounding from ``k dt + j h``.  It samples each rate node time once too:
the rate methods run the same calls, and share the rate at each stage
node ``c`` of a call (``_batch.RateSamples``) until the last rate method
that reads that node.  A recorded error may differ from a
step-by-step loop over the per-call functions in its last digits; the
tests hold the default sweeps to 1e-6 relative, or 1e-12 absolute.

The report is method-major and dt-descending; repeated runs give bitwise
identical records (wall times excepted).  A cell whose pass gives it a
``ConingKitError``, the error it raises alone, is left out of the records
and listed with its reason.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial

import numpy as np

from . import _batch
from .coning import MILLER, RK4_THETA3
from .errors import ConfigError, ConingKitError, InsufficientData
from .kinematics import JacobianMode
from .rk import (tableau_explicit_midpoint, tableau_forward_euler,
                 tableau_rk3, tableau_rk4)
from .so3 import attitude_error_angle
from .trajectory import (MAX_SUBSTEPS, AnalyticAttitudeSignal,
                         _increment_xyz, exact_attitude, preset,
                         reference_attitude, reference_substeps,
                         PRESET_NAMES)

#: Errors at or below this value sit in the roundoff floor and are excluded
#: from order fits against a closed-form truth.
ERROR_FLOOR = 1e-14

#: Against a step-doubled reference, order fits exclude errors at or below
#: this multiple of its tolerance: the reference cannot resolve them.
REFERENCE_MARGIN = 10.0

#: Largest number of sensor intervals one cell may propagate: its step count,
#: times the minor steps for the two-speed method.  ``validate_config``
#: rejects a sweep above it before any work starts.
MAX_CELL_STEPS = MAX_SUBSTEPS


class MethodKind(Enum):
    """Propagation methods available to the sweep."""

    FWD_EULER_OMEGA = "fwdeuler"
    EXPLICIT_MIDPOINT_OMEGA = "exmid"
    RK3_OMEGA = "rk3omega"
    RK4_OMEGA = "rk4omega"
    SINGLE_SPEED_THETA2 = "theta2"
    SINGLE_SPEED_THETA3 = "theta3"
    TWO_SPEED_CLASSIC = "twospeed"
    RK4_THETA2 = "rk4theta2"


#: Each rate method's tableau, built on first use and then shared.
_OMEGA_TABLEAUX = {
    MethodKind.FWD_EULER_OMEGA: cache(tableau_forward_euler),
    MethodKind.EXPLICIT_MIDPOINT_OMEGA: cache(tableau_explicit_midpoint),
    MethodKind.RK3_OMEGA: cache(tableau_rk3),
    MethodKind.RK4_OMEGA: cache(tableau_rk4),
}

_INCREMENT_STEPS = {
    MethodKind.SINGLE_SPEED_THETA2: partial(_batch.cross_sum_steps, MILLER),
    MethodKind.RK4_THETA2: _batch.rk4_theta2_steps,
    MethodKind.SINGLE_SPEED_THETA3: partial(_batch.cross_sum_steps,
                                            RK4_THETA3),
}


@dataclass(frozen=True)
class MethodId:
    """A method selection; two-speed additionally carries its sub-step count."""

    kind: MethodKind
    minor_steps: int | None = None

    def __post_init__(self):
        if self.kind is MethodKind.TWO_SPEED_CLASSIC:
            m = self.minor_steps
            if isinstance(m, bool) or not (isinstance(m, int) and m >= 1):
                raise ConfigError(
                    "two-speed method needs an integer minor_steps >= 1, "
                    f"got {self.minor_steps!r}")
        elif self.minor_steps is not None:
            raise ConfigError(
                "minor_steps only applies to the two-speed method")

    @property
    def uses_rate_samples(self) -> bool:
        return self.kind in _OMEGA_TABLEAUX

    def label(self) -> str:
        if self.kind is MethodKind.TWO_SPEED_CLASSIC:
            return f"{self.kind.value}{self.minor_steps}"
        return self.kind.value


@dataclass(frozen=True)
class SweepConfig:
    """Everything that defines one convergence sweep."""

    signal: str
    methods: tuple
    step_sizes: tuple
    horizon: float
    tolerance: float = 1e-12
    jacobian_mode: JacobianMode = JacobianMode.EXACT_CLOSED_FORM


@dataclass(frozen=True)
class ErrorRecord:
    """One sweep cell: final attitude error of a method at one step size."""

    method: MethodId
    dt: float
    final_error_angle: float
    steps: int
    wall_time: float


@dataclass(frozen=True)
class MethodSummary:
    """All records of one method plus its fitted order (None if unfittable).

    ``failures`` holds ``(dt, reason)`` for each cell that raised instead of
    giving a record.
    """

    method: MethodId
    records: tuple
    order: float | None
    fit_residual: float | None
    failures: tuple = ()


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-method summaries, method-major and dt-descending."""

    summaries: tuple

    def records(self):
        return [r for s in self.summaries for r in s.records]


def _step_count(dt: float, horizon: float) -> int:
    ratio = horizon / dt
    if not math.isfinite(ratio):
        raise ConfigError(
            f"horizon {horizon!r} over step size {dt!r} is not a finite "
            "step count")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9:
        raise ConfigError(
            f"step size {dt!r} does not divide horizon {horizon!r}")
    return n


def propagate(method: MethodId, signal: AnalyticAttitudeSignal, dt: float,
              horizon: float,
              jacobian_mode: JacobianMode = JacobianMode.EXACT_CLOSED_FORM
              ) -> np.ndarray:
    """Propagate the attitude from identity over ``[0, horizon]``.

    Increment methods read exact synthetic measurements, from the warm-up
    increment before t = 0 (to one past the horizon for theta3).  A pass of
    one cell: equal to the cell of ``run_sweep`` bit for bit, and to the
    step-by-step loop of the per-call functions to roundoff.  Raises the
    cell's ``ConingKitError``; ``ConfigError``, before any work, on a cell
    beyond ``_check_cell``.
    """
    n = _step_count(dt, horizon)
    _check_cell(method, signal, dt, n)
    [final] = _propagate(method, signal, [(dt, n)], jacobian_mode, {},
                         _batch.RateSamples(signal, 0.0))
    if isinstance(final, ConingKitError):
        raise final
    return final


def _check_cell(method: MethodId, signal, dt: float, n: int) -> None:
    """Raise ``ConfigError`` if ``n`` steps of ``dt`` take more than
    ``MAX_CELL_STEPS`` sensor intervals, or if the increment over the first
    or last interval of the cell's grid, whose span covers the times any
    cell reads, is not finite on floats."""
    minor = method.minor_steps or 1
    if n * minor > MAX_CELL_STEPS:
        raise ConfigError(
            f"{method.label()} at dt={dt!r} needs {n * minor} sensor "
            f"intervals, above the per-cell cap of {MAX_CELL_STEPS}")
    h = dt / minor
    try:
        # Python floats overflow to inf without a warning.
        finite = all(abs(x) < math.inf for k in (-1.0, float(n * minor))
                     for x in _increment_xyz(signal, k * h, (k + 1.0) * h))
    except ValueError:  # math.sin of an infinite phase
        finite = False
    if not finite:
        raise ConfigError(f"{method.label()} at dt={dt!r} takes the signal's "
                          f"phase or increment beyond the float range")


def _grid_key(method: MethodId, dt: float, n: int):
    """(width, count) of the intervals a cell reads; None for rate samples."""
    if method.uses_rate_samples:
        return None
    minor = method.minor_steps or 1
    return dt / minor, n * minor


def _nodes(method: MethodId) -> frozenset:
    """Stage nodes ``c`` at which a rate method samples; none otherwise."""
    if method.uses_rate_samples:
        return frozenset(_OMEGA_TABLEAUX[method.kind]().c.tolist())
    return frozenset()


def _propagate(method: MethodId, signal, cells, jacobian_mode: JacobianMode,
               grids: dict, samples: _batch.RateSamples) -> list:
    """Final attitude or ``ConingKitError`` of each cell ``(dt, n)`` of
    ``method``, in one pass.  The grids the cells need and do not find in
    ``grids`` (by ``_grid_key``) are synthesized together and added; a rate
    method reads its stage rates from ``samples``."""
    minor = method.minor_steps or 1
    if method.uses_rate_samples:
        produce = partial(_batch.rate_steps, samples,
                          [dt for dt, _ in cells],
                          _OMEGA_TABLEAUX[method.kind](), jacobian_mode)
    else:
        keys = [_grid_key(method, dt, n) for dt, n in cells]
        missing = [key for key in dict.fromkeys(keys) if key not in grids]
        if missing:
            grids.update(zip(missing,
                             _batch.increment_grids(signal, missing)))
        cell_grids = [grids[key] for key in keys]
        if method.kind is MethodKind.TWO_SPEED_CLASSIC:
            produce = partial(_batch.two_speed_steps, cell_grids, minor)
        else:
            produce = partial(_INCREMENT_STEPS[method.kind], cell_grids)
    return _batch.compose_steps(produce, [n for _, n in cells],
                                max(1, _batch.BLOCK // minor))


def estimate_order(records, floor: float = ERROR_FLOOR
                   ) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(dt), in closed form.

    Records at or below ``floor``, the smallest error the truth resolves,
    are excluded before fitting; at least 3 usable records with distinct
    step sizes are required (``InsufficientData`` otherwise).  Returns
    (slope, RMS fit residual); ``ValueError`` on a non-finite record.
    """
    for r in records:
        if not (math.isfinite(r.dt) and math.isfinite(r.final_error_angle)):
            raise ValueError(f"cannot fit a non-finite record: {r!r}")
    usable = [r for r in records if r.final_error_angle > floor]
    dts = sorted({r.dt for r in usable})
    if len(usable) < 3 or len(dts) < 3:
        raise InsufficientData(
            f"order fit needs >= 3 records above the {floor:.0e} "
            f"floor with distinct step sizes, have {len(usable)}")
    x = [math.log(r.dt) for r in usable]
    y = [math.log(r.final_error_angle) for r in usable]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = (sum((a - mx) * (b - my) for a, b in zip(x, y))
             / sum((a - mx) ** 2 for a in x))
    residual = math.sqrt(sum((b - my - slope * (a - mx)) ** 2
                             for a, b in zip(x, y)) / len(y))
    return slope, residual


def validate_config(cfg: SweepConfig) -> None:
    """Raise ``ConfigError`` on any invalid sweep setting.

    Besides the shape of the sweep this bounds its work: every value must be
    finite, no cell may propagate more than ``MAX_CELL_STEPS`` sensor
    intervals or read an increment that is not finite on floats, and a
    step-doubled reference may not start above its budget of
    ``MAX_SUBSTEPS`` substeps.
    """
    if cfg.signal not in PRESET_NAMES:
        raise ConfigError(
            f"unknown signal preset {cfg.signal!r}; valid presets: "
            f"{', '.join(PRESET_NAMES)}")
    if not cfg.methods:
        raise ConfigError("method list is empty")
    if not cfg.step_sizes:
        raise ConfigError("step-size list is empty")
    if not math.isfinite(cfg.horizon):
        raise ConfigError(f"horizon must be finite, got {cfg.horizon!r}")
    dts = cfg.step_sizes
    for rule, bad in (("finite", lambda i: not math.isfinite(dts[i])),
                      ("positive", lambda i: dts[i] <= 0),
                      ("strictly decreasing",
                       lambda i: i > 0 and dts[i] >= dts[i - 1])):
        i = next((i for i in range(len(dts)) if bad(i)), None)
        if i is not None:
            raise ConfigError(f"step sizes must be {rule}: step size "
                              f"{i + 1} of {len(dts)} is {dts[i]!r}")
    steps = [_step_count(dt, cfg.horizon) for dt in cfg.step_sizes]
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance >= 1e-13):
        raise ConfigError(
            f"reference tolerance must be finite and >= 1e-13, got "
            f"{cfg.tolerance!r}")
    signal = preset(cfg.signal)
    for method in cfg.methods:
        # The finest step has the most intervals, the coarsest the widest span.
        _check_cell(method, signal, cfg.step_sizes[-1], steps[-1])
        _check_cell(method, signal, cfg.step_sizes[0], steps[0])
    if exact_attitude(signal, 0.0) is None:
        start = reference_substeps(signal, 0.0, cfg.horizon)
        if start > MAX_SUBSTEPS:
            raise ConfigError(
                f"the step-doubled reference over horizon {cfg.horizon!r} "
                f"starts at {start:.3g} substeps, above its budget of "
                f"{MAX_SUBSTEPS}")


def run_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Run every (method, dt) cell of the sweep and fit per-method orders.

    The truth is computed once: closed form where the signal has one,
    otherwise step-doubled.  Each method runs in one pass over all its step
    sizes; a cell the pass gives a ``ConingKitError`` has no record, and
    its summary lists ``(dt, reason)`` in ``failures``.  Methods share
    increment grids and rate samples, each dropped after the last method
    that reads it.  A record's ``wall_time`` is its share of its method's
    pass, in proportion to steps.  Order fits exclude records the truth
    cannot resolve: at or below ``ERROR_FLOOR`` against a closed form,
    ``REFERENCE_MARGIN`` times the tolerance against the step-doubled
    reference.
    """
    validate_config(cfg)
    signal = preset(cfg.signal)
    truth = exact_attitude(signal, cfg.horizon)
    if truth is not None:
        ref = truth @ exact_attitude(signal, 0.0).T
        floor = ERROR_FLOOR
    else:
        ref = reference_attitude(signal, 0.0, cfg.horizon, cfg.tolerance)
        floor = REFERENCE_MARGIN * cfg.tolerance

    cells = [(dt, _step_count(dt, cfg.horizon)) for dt in cfg.step_sizes]
    last_read = {_grid_key(method, dt, n): j
                 for j, method in enumerate(cfg.methods) for dt, n in cells}
    nodes = [_nodes(method) for method in cfg.methods]
    grids, samples = {}, _batch.RateSamples(signal, 0.0)
    summaries = []
    for j, method in enumerate(cfg.methods):
        # A pass keeps the rate samples of the nodes a later method reads.
        samples.keep = frozenset().union(*nodes[j + 1:])
        start = time.perf_counter()
        outcomes = _propagate(method, signal, cells, cfg.jacobian_mode,
                              grids, samples)
        finals = {cell: final for cell, final in zip(cells, outcomes)
                  if not isinstance(final, ConingKitError)}
        failed = tuple((dt, f"{type(exc).__name__}: {exc}")
                       for (dt, _), exc in zip(cells, outcomes)
                       if isinstance(exc, ConingKitError))
        share = (time.perf_counter() - start) / max(1, sum(
            n for _, n in finals))
        records = tuple(ErrorRecord(
            method=method, dt=dt, final_error_angle=attitude_error_angle(
                final, ref), steps=n, wall_time=n * share)
            for (dt, n), final in finals.items())
        for key in [key for key, last in last_read.items() if last == j]:
            grids.pop(key, None)
        samples.drop(nodes[j] - samples.keep)
        try:
            order, residual = estimate_order(records, floor)
        except InsufficientData:
            order, residual = None, None
        summaries.append(MethodSummary(
            method=method, records=records, order=order,
            fit_residual=residual, failures=failed))
    return ConvergenceReport(summaries=tuple(summaries))
