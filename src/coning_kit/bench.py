"""Convergence-study engine: propagate, measure, and fit observed orders.

Each (method, step size) cell propagates the attitude over the full horizon,
starting from the identity, and records the principal angle between the
final attitude and the truth: closed form where the signal has one,
otherwise step-doubled.  Methods driven by instantaneous rate samples run
the generic solver on the rotation-vector ODE; methods driven by integrated
increments synthesize exact measurements from the signal and apply the
coning corrections.

Propagation runs on the array engine of ``_batch``.  Every step starts from
a zero rotation vector, so a method's per-step rotation vectors are
independent and are computed for blocks of ``_batch.BLOCK`` steps at once;
one composer multiplies their DCMs in a pairwise tree.  The single drift
control is the rule of ``so3.compose``: a product whose orthogonality defect
exceeds 1e-12 is projected back onto SO(3).  Like a strapdown computer,
which samples each integrated-rate increment once and gives it to every
algorithm, a sweep synthesizes each distinct sensor interval once: the
increment methods share one grid of increments per interval width, and a
shared increment is bitwise the one a cell would synthesize alone.  The
engine groups the floating-point work differently from a step-by-step loop
over the per-call functions, so a recorded error may move in its last
digits; the tests hold every record of the default sweeps to 1e-6 relative,
or 1e-12 absolute (the default reference tolerance), of the loop's values.

The report is method-major and dt-descending; repeated runs give bitwise
identical records (wall times excepted).  A cell that raises a
``ConingKitError`` is left out of the records and listed with its reason.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import _batch
from .errors import ConfigError, ConingKitError, InsufficientData
from .kinematics import JacobianMode
from .rk import (tableau_explicit_midpoint, tableau_forward_euler,
                 tableau_rk3, tableau_rk4)
from .so3 import attitude_error_angle
from .trajectory import (MAX_SUBSTEPS, AnalyticAttitudeSignal,
                         default_panels, exact_attitude, preset,
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


_OMEGA_TABLEAUX = {
    MethodKind.FWD_EULER_OMEGA: tableau_forward_euler,
    MethodKind.EXPLICIT_MIDPOINT_OMEGA: tableau_explicit_midpoint,
    MethodKind.RK3_OMEGA: tableau_rk3,
    MethodKind.RK4_OMEGA: tableau_rk4,
}

_INCREMENT_STEPS = {
    MethodKind.SINGLE_SPEED_THETA2: _batch.miller_steps,
    MethodKind.RK4_THETA2: _batch.rk4_theta2_steps,
    MethodKind.SINGLE_SPEED_THETA3: _batch.rk4_theta3_steps,
}


@dataclass(frozen=True)
class MethodId:
    """A method selection; two-speed additionally carries its sub-step count."""

    kind: MethodKind
    minor_steps: int | None = None

    def __post_init__(self):
        if self.kind is MethodKind.TWO_SPEED_CLASSIC:
            if self.minor_steps is None or self.minor_steps < 1:
                raise ConfigError(
                    "two-speed method needs minor_steps >= 1, got "
                    f"{self.minor_steps!r}")
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

    Rate-sample methods integrate the rotation-vector ODE per step;
    increment methods consume exact synthetic measurements, including the
    warm-up increment before t = 0 (and, for the three-increment method,
    one increment past the horizon).  Both run on the array engine: the
    method's producer computes the per-step rotation vectors a block of
    steps at a time, and one composer multiplies their DCMs right to left
    in a pairwise tree, projecting any product whose orthogonality defect
    exceeds 1e-12 back onto SO(3).  The result matches the step-by-step
    composition of the per-call functions to roundoff (see
    ``tests/test_batch.py``), and equals the same cell of ``run_sweep`` bit
    for bit.
    """
    return _propagate(method, signal, dt, _step_count(dt, horizon),
                      jacobian_mode, {})


def _grid_key(method: MethodId, dt: float, n: int):
    """(interval width, interval count) of the increment grid a cell of
    ``n`` steps reads, or None for a rate-sample method."""
    if method.uses_rate_samples:
        return None
    minor = method.minor_steps or 1
    return dt / minor, n * minor


def _propagate(method: MethodId, signal, dt: float, n: int,
               jacobian_mode: JacobianMode, grids: dict) -> np.ndarray:
    """``propagate`` over ``n`` steps, reading increments from ``grids``.

    ``grids`` maps a ``_grid_key`` to its ``_batch.IncrementGrid``; a grid
    the cell needs and does not find is synthesized and added.
    """
    block = _batch.BLOCK
    if method.uses_rate_samples:
        produce = partial(_batch.rate_steps, signal, 0.0, dt,
                          _OMEGA_TABLEAUX[method.kind](), jacobian_mode)
        return _batch.compose_steps(produce, n, block)
    key = _grid_key(method, dt, n)
    if key not in grids:
        grids[key] = _batch.IncrementGrid(signal, *key)
    if method.kind is MethodKind.TWO_SPEED_CLASSIC:
        produce = partial(_batch.two_speed_steps, grids[key], dt,
                          method.minor_steps)
        block = max(1, block // method.minor_steps)
    else:
        produce = partial(_INCREMENT_STEPS[method.kind], grids[key])
    return _batch.compose_steps(produce, n, block)


def estimate_order(records, floor: float = ERROR_FLOOR
                   ) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(dt).

    Records at or below ``floor``, the smallest error the truth resolves,
    are excluded before fitting; at least 3 usable records with distinct
    step sizes are required (``InsufficientData`` otherwise).  Returns
    (slope, RMS fit residual).
    """
    usable = [r for r in records if r.final_error_angle > floor]
    dts = sorted({r.dt for r in usable})
    if len(usable) < 3 or len(dts) < 3:
        raise InsufficientData(
            f"order fit needs >= 3 records above the {floor:.0e} "
            f"floor with distinct step sizes, have {len(usable)}")
    x = np.log([r.dt for r in usable])
    y = np.log([r.final_error_angle for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = math.sqrt(float(np.mean((y - fitted) ** 2)))
    return float(slope), residual


def validate_config(cfg: SweepConfig) -> None:
    """Raise ``ConfigError`` on any invalid sweep setting.

    Besides the shape of the sweep this bounds its work: every value must be
    finite, no cell may propagate more than ``MAX_CELL_STEPS`` sensor
    intervals, no increment may take more than ``MAX_SUBSTEPS`` quadrature
    panels, and a step-doubled reference may not start above its budget of
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
    if not all(math.isfinite(dt) for dt in cfg.step_sizes):
        raise ConfigError(f"step sizes must be finite: {cfg.step_sizes}")
    if any(dt <= 0 for dt in cfg.step_sizes):
        raise ConfigError(f"step sizes must be positive: {cfg.step_sizes}")
    if list(cfg.step_sizes) != sorted(set(cfg.step_sizes), reverse=True):
        raise ConfigError(
            f"step sizes must be strictly decreasing: {cfg.step_sizes}")
    steps = [_step_count(dt, cfg.horizon) for dt in cfg.step_sizes]
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance >= 1e-13):
        raise ConfigError(
            f"reference tolerance must be finite and >= 1e-13, got "
            f"{cfg.tolerance!r}")
    signal = preset(cfg.signal)
    for method in cfg.methods:
        intervals = steps[-1] * (method.minor_steps or 1)
        if intervals > MAX_CELL_STEPS:
            raise ConfigError(
                f"{method.label()} at dt={cfg.step_sizes[-1]!r} needs "
                f"{intervals} sensor intervals, above the per-cell cap of "
                f"{MAX_CELL_STEPS}")
        panels = default_panels(
            signal, cfg.step_sizes[0] / (method.minor_steps or 1))
        if not method.uses_rate_samples and panels > MAX_SUBSTEPS:
            raise ConfigError(
                f"{method.label()} at dt={cfg.step_sizes[0]!r} needs "
                f"{panels:.3g} quadrature panels per increment, above the "
                f"budget of {MAX_SUBSTEPS}")
    if exact_attitude(signal, 0.0) is None:
        start = reference_substeps(signal, 0.0, cfg.horizon)
        if start > MAX_SUBSTEPS:
            raise ConfigError(
                f"the step-doubled reference over horizon {cfg.horizon!r} "
                f"starts at {start} substeps, above its budget of "
                f"{MAX_SUBSTEPS}")


def run_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Run every (method, dt) cell of the sweep and fit per-method orders.

    The truth is computed once for the signal/horizon: closed form where
    the signal has one, otherwise step-doubled.  Cells run step size by step
    size and share their increment grids: each sensor interval is
    synthesized once per sweep, and a grid is dropped after the last step
    size that reads it.  A cell whose propagation raises a
    ``ConingKitError`` gives no record; its summary lists ``(dt, reason)``
    in ``failures``.  Order fits use the remaining records and exclude
    those the truth cannot resolve: at or below ``ERROR_FLOOR`` against a
    closed form, at or below ``REFERENCE_MARGIN`` times the tolerance
    against the step-doubled reference.
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

    steps = [_step_count(dt, cfg.horizon) for dt in cfg.step_sizes]
    last_read = {}
    for i, (dt, n) in enumerate(zip(cfg.step_sizes, steps)):
        for method in cfg.methods:
            key = _grid_key(method, dt, n)
            if key is not None:
                last_read[key] = i

    grids = {}
    records = [[] for _ in cfg.methods]
    failures = [[] for _ in cfg.methods]
    for i, (dt, n) in enumerate(zip(cfg.step_sizes, steps)):
        for j, method in enumerate(cfg.methods):
            start = time.perf_counter()
            try:
                final = _propagate(method, signal, dt, n, cfg.jacobian_mode,
                                   grids)
            except ConingKitError as exc:
                failures[j].append((dt, f"{type(exc).__name__}: {exc}"))
                continue
            err = attitude_error_angle(final, ref)
            records[j].append(ErrorRecord(
                method=method, dt=dt, final_error_angle=err, steps=n,
                wall_time=time.perf_counter() - start))
        for key in [key for key, last in last_read.items() if last == i]:
            grids.pop(key, None)

    summaries = []
    for method, recs, failed in zip(cfg.methods, records, failures):
        try:
            order, residual = estimate_order(recs, floor)
        except InsufficientData:
            order, residual = None, None
        summaries.append(MethodSummary(
            method=method, records=tuple(recs), order=order,
            fit_residual=residual, failures=tuple(failed)))
    return ConvergenceReport(summaries=tuple(summaries))
