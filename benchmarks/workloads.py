"""Workload definitions, their set-up, one timed pass each, and the checks.

Two kinds of workload drive the public API of ``coning_kit``:

- a *sweep* is one ``bench.run_sweep`` over a preset with every method and
  step size of the paper's error-versus-step-size study.  Sweeps take no
  random input, so their records can be compared with a golden CSV.
- the *stream* is a strapdown computer's use of the library: one attitude
  update per sensor interval, each a call of the method's public function
  followed by ``so3.dcm_from_rotation_vector`` and ``so3.compose``.  The
  workload seed draws the rate signal; every increment and node rate is
  generated before the timed loop.
"""

from __future__ import annotations

import csv
import importlib
import math
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

PACKAGE = "coning_kit"

SWEEP_METHODS = ("fwdeuler", "exmid", "rk3omega", "rk4omega", "theta2",
                 "theta3", "rk4theta2", "twospeed4")

#: Step sizes 0.25 s to 1/256 s, the CLI default of ``--dt-max 0.25
#: --halvings 6``.
SWEEP_DTS = tuple(0.25 * 2.0 ** -k for k in range(7))

#: The reference tolerance of the CLI default; also the absolute floor of
#: the golden comparison, since the reference is not trusted below it.
REFERENCE_TOL = 1e-12

#: Relative tolerance on ``final_error_rad`` against the golden CSV.  A
#: faster engine may reorder floating-point operations, so the comparison
#: is not bit-exact; roundoff in a chain of about a thousand products moves
#: an error by far less than this, a changed algorithm by far more.
GOLDEN_REL_TOL = 1e-6

#: Fitted-order windows of acceptance criterion 3 (tests/test_acceptance.py).
ORDER_WINDOWS = {"fwdeuler": (0.8, 1.3), "exmid": (1.7, 2.4),
                 "rk3omega": (2.6, 3.5), "rk4omega": (3.6, 4.5)}

#: Criterion 4: an increment method's order tracks a rate solver's within
#: 0.5.  rk4theta2 computes theta2's result (criterion 1), and twospeed<m>
#: reduces to theta2 at m = 1, so both are held to theta2's partner.
ORDER_TRACKS = {"theta2": "rk3omega", "rk4theta2": "rk3omega",
                "twospeed4": "rk3omega", "theta3": "rk4omega"}
ORDER_TRACK_TOL = 0.5


@dataclass(frozen=True)
class SweepSpec:
    """One preset sweep and the order windows that apply on its signal."""

    signal: str
    windows: tuple
    methods: tuple = SWEEP_METHODS
    step_sizes: tuple = SWEEP_DTS
    horizon: float = 4.0

    @property
    def golden_path(self) -> Path:
        return GOLDEN_DIR / f"{self.signal}.csv"


@dataclass(frozen=True)
class StreamSpec:
    """Seeded stream: ``updates`` attitude updates of ``dt`` per method."""

    updates: int
    dt: float


#: Bound on each stream method's final attitude error against
#: ``trajectory.reference_attitude`` of the seeded signal, as a share of the
#: error of composing the raw increments with no coning correction: about
#: 10x the largest share seen over seeds 0-59 at dt = 1/128 s over 4 s.  A
#: dropped or sign-flipped correction gives a share near 1 or above.
STREAM_MAX_RATIO = {"rk4omega": 3e-4, "theta2": 0.1, "rk4theta2": 0.1,
                    "theta3": 1e-3, "twospeed4": 3e-3}

WORKLOADS = {
    # Coning on the rotation vector: omega_at inverts jinv on every call, so
    # trajectory and kinematics.forward_jacobian dominate, and the
    # step-doubled reference is about a third of the wall time.
    "coning-sweep": SweepSpec("coning",
                              windows=("fwdeuler", "exmid", "rk4omega")),
    # Closed-form rate with no Jacobian inversion and a cheap reference:
    # time splits between synthesis quadrature, rk stages and so3.  The
    # control for any kinematics or coning-reference change.
    "fourier3-sweep": SweepSpec("fourier3", windows=tuple(ORDER_WINDOWS)),
    # Per-call library path of a strapdown computer; trajectory does no
    # timed work.  Catches a sweep engine that slows the per-call API.
    "stream-update": StreamSpec(updates=512, dt=1.0 / 128.0),
}


def import_package(src: Path):
    """Import ``coning_kit`` afresh from ``src``, dropping any loaded copy.

    Raises ``ImportError`` if the package that loads is not the one under
    ``src``, so a stray installed copy is never measured.
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ck = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(ck.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"{PACKAGE} loaded from {ck.__file__}, not {src}")
    return ck


# --------------------------------------------------------------- sweeps


@dataclass
class SweepCase:
    ck: object
    cfg: object


def sweep_setup(spec: SweepSpec, src: Path) -> SweepCase:
    """Import, build and validate the sweep configuration."""
    ck = import_package(src)
    cfg = ck.bench.SweepConfig(
        signal=spec.signal,
        methods=tuple(ck.cli.parse_method(m) for m in spec.methods),
        step_sizes=spec.step_sizes, horizon=spec.horizon,
        tolerance=REFERENCE_TOL)
    ck.bench.validate_config(cfg)
    ck.trajectory.preset(spec.signal)
    return SweepCase(ck, cfg)


def sweep_pass(case: SweepCase):
    """One ``run_sweep``; returns (report, or the exception it raised,
    wall seconds)."""
    start = time.perf_counter()
    try:
        report = case.ck.bench.run_sweep(case.cfg)
    except Exception as exc:  # a failing sweep is counted, not fatal
        report = exc
    return report, time.perf_counter() - start


def read_golden(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@dataclass
class Check:
    """Outcome of checking one pass: items attempted, and the failed items
    keyed by item with the reason."""

    attempted: int
    failed: dict


def check_sweep(report, golden: list[dict], spec: SweepSpec,
                jacobian_mode: str) -> Check:
    """Check one sweep's records and fits.

    Each cell and each method's order fit is one item.  A cell fails when
    its key columns differ from the golden row or its ``final_error_rad``
    differs by more than ``GOLDEN_REL_TOL`` relative, with a
    ``REFERENCE_TOL`` floor; a fit fails when it lies outside its
    criterion-3 window or strays from its criterion-4 partner.  A sweep
    that raised fails every item.
    """
    check = Check(len(golden) + len(spec.methods), {})
    if isinstance(report, Exception):
        reason = f"sweep raised {type(report).__name__}: {report}"
        check.failed = dict.fromkeys(range(check.attempted), reason)
        return check
    rows = [(s.method, rec) for s in report.summaries for rec in s.records]
    for i, gold in enumerate(golden):
        if i >= len(rows):
            check.failed[i] = "record missing"
            continue
        method, rec = rows[i]
        mode = jacobian_mode if method.uses_rate_samples else "none"
        key = (method.label(), mode, repr(rec.dt), str(rec.steps))
        want = (gold["method"], gold["jacobian_mode"], gold["dt"],
                gold["steps"])
        ref = float(gold["final_error_rad"])
        got = rec.final_error_angle
        if key != want:
            check.failed[i] = f"cell {key} where golden has {want}"
        elif not abs(got - ref) <= max(GOLDEN_REL_TOL * abs(ref),
                                       REFERENCE_TOL):
            check.failed[i] = (f"{key[0]} dt={key[2]}: error {got!r}, "
                               f"golden {ref!r}")
    check.failed.update(check_orders(report, spec))
    return check


def check_orders(report, spec: SweepSpec) -> dict:
    """Failed order fits, keyed by method label."""
    orders = {s.method.label(): s.order for s in report.summaries}
    failed = {}
    for label in spec.methods:
        order = orders.get(label)
        if order is None:
            failed[label] = f"{label}: no fitted order"
            continue
        if label in spec.windows:
            lo, hi = ORDER_WINDOWS[label]
            if not lo <= order <= hi:
                failed[label] = (f"{label}: order {order:.3f} outside "
                                 f"[{lo}, {hi}]")
        partner = ORDER_TRACKS.get(label)
        if partner is not None and orders.get(partner) is not None:
            if not abs(order - orders[partner]) <= ORDER_TRACK_TOL:
                failed[label] = (f"{label}: order {order:.3f} strays from "
                                 f"{partner} {orders[partner]:.3f}")
    return failed


# --------------------------------------------------------------- stream

STREAM_METHODS = ("rk4omega", "theta2", "rk4theta2", "theta3", "twospeed4")
_TWO_SPEED_MINOR = 4

#: fourier3's frequencies; the seed draws amplitudes and phases.
_STREAM_FREQS = (1.0, math.sqrt(2.0), math.sqrt(5.0))

#: theta2 and rk4theta2 compute the same increment to a few ulp
#: (acceptance criterion 1 holds them to this relative difference).
IDENTITY_REL_TOL = 1e-15


@dataclass
class StreamCase:
    ck: object
    spec: StreamSpec
    increments: list        # [-dt, 0], [0, dt], ..., [n dt, (n+1) dt]
    minor: list             # [-dt/4, 0], then n * 4 minor increments
    node_rates: dict        # t -> omega at every rk4 node time
    tableau: object
    reference: np.ndarray | None = None
    raw_error: float | None = None  # error of the uncorrected increments


def stream_signal(ck, seed: int):
    """Fourier rate at fourier3's frequencies with seeded amplitudes."""
    rng = np.random.default_rng(seed)
    terms = tuple((rng.uniform(-0.5, 0.5, 3), freq,
                   float(rng.uniform(-math.pi, math.pi)))
                  for freq in _STREAM_FREQS)
    return ck.trajectory.FourierRate(terms)


def stream_setup(spec: StreamSpec, seed: int, src: Path) -> StreamCase:
    """Import, then generate every increment and node rate."""
    ck = import_package(src)
    traj = ck.trajectory
    signal = stream_signal(ck, seed)
    n, dt = spec.updates, spec.dt
    sub = dt / _TWO_SPEED_MINOR
    increments = [traj.synth_delta_theta(signal, k * dt, (k + 1) * dt)
                  for k in range(-1, n + 1)]
    minor = [traj.synth_delta_theta(signal, -sub, 0.0)]
    minor += [traj.synth_delta_theta(signal, k * dt + j * sub,
                                     k * dt + (j + 1) * sub)
              for k in range(n) for j in range(_TWO_SPEED_MINOR)]
    tableau = ck.rk.tableau_rk4()
    node_rates = {}
    for k in range(n):
        for c in tableau.c:
            t = k * dt + dt * c
            node_rates[t] = traj.omega_at(signal, t)
    return StreamCase(ck, spec, increments, minor, node_rates, tableau)


def add_stream_oracle(case: StreamCase, seed: int) -> None:
    """Attach the reference attitude and the error of composing the raw
    increments with no coning correction, which scales the checks."""
    ck, n = case.ck, case.spec.updates
    signal = stream_signal(ck, seed)
    case.reference = ck.trajectory.reference_attitude(
        signal, 0.0, n * case.spec.dt, REFERENCE_TOL)
    raw = np.eye(3)
    for inc in case.increments[1:n + 1]:
        raw = ck.so3.compose(ck.so3.dcm_from_rotation_vector(inc), raw)
    case.raw_error = ck.so3.attitude_error_angle(raw, case.reference)


def stream_pass(case: StreamCase):
    """Run every method over the stream once.

    Returns ((outputs, samples), wall seconds): ``outputs[method]`` is the
    final attitude and the per-update delta_phi list (or None), or the
    exception the method raised; ``samples[method]`` holds each update's
    latency in ns.  Functions are looked up on the modules at call time, so
    a tracer that rebinds them sees these calls.
    """
    start = time.perf_counter()
    outputs = {}
    samples = {method: array("q") for method in STREAM_METHODS}
    for method in STREAM_METHODS:
        try:
            outputs[method] = _STREAM_LOOPS[method](case.ck, case,
                                                    samples[method])
        except Exception as exc:  # a failing method is counted, not fatal
            outputs[method] = exc
    return (outputs, samples), time.perf_counter() - start


def _loop_rk4omega(ck, case, times):
    step = ck.rk.integrate_attitude_step
    dcm, compose = ck.so3.dcm_from_rotation_vector, ck.so3.compose
    sampler, tab, dt = case.node_rates.__getitem__, case.tableau, case.spec.dt
    clock, t_mat = time.perf_counter_ns, np.eye(3)
    for k in range(case.spec.updates):
        t0 = clock()
        t_mat = compose(dcm(step(sampler, k * dt, dt, tab)), t_mat)
        times.append(clock() - t0)
    return t_mat, None


def _loop_theta2(ck, case, times):
    miller = ck.coning.miller_single_speed
    dcm, compose = ck.so3.dcm_from_rotation_vector, ck.so3.compose
    inc = case.increments
    clock, t_mat, deltas = time.perf_counter_ns, np.eye(3), []
    for k in range(case.spec.updates):
        t0 = clock()
        dphi = miller(inc[k], inc[k + 1]).delta_phi
        t_mat = compose(dcm(dphi), t_mat)
        times.append(clock() - t0)
        deltas.append(dphi)
    return t_mat, deltas


def _loop_rk4theta2(ck, case, times):
    solve, window = ck.coning.rk4_theta2, ck.rate_model.MeasurementWindow
    dcm, compose = ck.so3.dcm_from_rotation_vector, ck.so3.compose
    inc, dt = case.increments, case.spec.dt
    clock, t_mat, deltas = time.perf_counter_ns, np.eye(3), []
    for k in range(case.spec.updates):
        t0 = clock()
        dphi = solve(window(np.stack([inc[k], inc[k + 1]]), dt)).delta_phi
        t_mat = compose(dcm(dphi), t_mat)
        times.append(clock() - t0)
        deltas.append(dphi)
    return t_mat, deltas


def _loop_theta3(ck, case, times):
    solve, window = ck.coning.rk4_theta3, ck.rate_model.MeasurementWindow
    dcm, compose = ck.so3.dcm_from_rotation_vector, ck.so3.compose
    inc, dt = case.increments, case.spec.dt
    clock, t_mat = time.perf_counter_ns, np.eye(3)
    for k in range(case.spec.updates):
        t0 = clock()
        dphi = solve(window(np.stack(inc[k:k + 3]), dt)).delta_phi
        t_mat = compose(dcm(dphi), t_mat)
        times.append(clock() - t0)
    return t_mat, None


def _loop_twospeed4(ck, case, times):
    correct = ck.coning.two_speed_classic
    dcm, compose = ck.so3.dcm_from_rotation_vector, ck.so3.compose
    minor, m = case.minor, _TWO_SPEED_MINOR
    clock, t_mat = time.perf_counter_ns, np.eye(3)
    for k in range(case.spec.updates):
        t0 = clock()
        start = 1 + k * m
        dphi = correct(minor[start:start + m], minor[start - 1])
        t_mat = compose(dcm(dphi), t_mat)
        times.append(clock() - t0)
    return t_mat, None


_STREAM_LOOPS = {"rk4omega": _loop_rk4omega, "theta2": _loop_theta2,
                 "rk4theta2": _loop_rk4theta2, "theta3": _loop_theta3,
                 "twospeed4": _loop_twospeed4}


def check_stream(case: StreamCase, outputs: dict) -> Check:
    """Check one stream pass; each (method, update) is one item.

    A method that raised, or whose final attitude error exceeds its share
    of the uncorrected error, fails all its updates.  An rk4theta2 update
    that differs from theta2's by more than ``IDENTITY_REL_TOL`` fails.
    """
    n = case.spec.updates
    check = Check(n * len(STREAM_METHODS), {})
    error_angle = case.ck.so3.attitude_error_angle
    for method in STREAM_METHODS:
        result = outputs[method]
        if isinstance(result, Exception):
            reason = f"{method}: {type(result).__name__}: {result}"
        else:
            ratio = error_angle(result[0], case.reference) / case.raw_error
            bound = STREAM_MAX_RATIO[method]
            if ratio <= bound:
                continue
            reason = (f"{method}: final error {ratio:.3e} of the "
                      f"uncorrected error, above {bound:.0e}")
        check.failed.update({(method, k): reason for k in range(n)})
    pair = [outputs[m] for m in ("theta2", "rk4theta2")]
    if not any(isinstance(r, Exception) for r in pair):
        a, b = (np.array(r[1]) for r in pair)
        scale = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
        diff = np.abs(a - b).max(axis=1)
        for k in np.nonzero(~(diff <= IDENTITY_REL_TOL * scale))[0]:
            check.failed.setdefault(
                ("rk4theta2", int(k)),
                f"update {k}: rk4theta2 differs from theta2 by {diff[k]:.3e}")
    return check
