"""End-to-end and per-layer benchmark of coning-kit.

Usage, from the repository root::

    python3 benchmarks/run.py --workload coning-sweep --seed 1 \
        --seconds 35 --trace 0

``--workload`` is one of ``coning-sweep``, ``fourier3-sweep``,
``stream-update`` or ``all``.  With ``--trace 0`` the run reports the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead.  Every pass's output is checked (see ``workloads``).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The package is imported from ``src/`` of the checkout that holds this
directory; the run exits with code 2, printing no result, when it is not
there.  Each workload runs single-threaded in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as W
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Fewest timed passes per run, so every median has several samples.
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("latency_p50_us", "us"),
              ("steps_per_s", "1/s"), ("peak_rss_mb", "MiB"))

PER_LAYER = (LAYER_METRICS
             + tuple((f"bench.us_per_step.{m}", "us")
                     for m in W.SWEEP_METHODS)
             + tuple((f"update_p50_us.{m}", "us") for m in W.STREAM_METHODS)
             + (("update_p99_us", "us"), ("trace.overhead_s", "s")))

THREADS_VAR = "CONING_KIT_THREADS"


class Tally:
    """Checked items, failed items and distinct failure reasons of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def add(self, check) -> None:
        self.attempted += check.attempted
        self.failed += len(check.failed)
        for reason in check.failed.values():
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            THREADS_VAR: os.environ.get(THREADS_VAR, "unset"),
            "timers": "in-process perf_counter only; no system-wide "
                      "tracing and no cache control"}


def timed_setups(setup):
    """Run ``setup`` ``SETUP_REPS`` times; return (median s, last case)."""
    times, case = [], None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        case = setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), case


def repeat(one_pass, seconds: float, min_passes: int) -> None:
    """Call ``one_pass`` (which returns its wall time) while another pass
    fits in ``seconds``, and at least ``min_passes`` times."""
    walls = []
    started = time.perf_counter()
    while (len(walls) < min_passes
           or time.perf_counter() - started + statistics.mean(walls)
           <= seconds):
        walls.append(one_pass())


@dataclass(frozen=True)
class TracedPass:
    figures: dict
    wall: float
    spans: int
    absent: tuple


@dataclass
class Passes:
    """What the timed passes of one run leave: each untraced pass's kept
    result and wall time, the traced passes, and the peak resident memory
    after the first pass (later growth is the benchmark's own samples)."""

    untraced: list
    traced: list
    peak_rss_mb: float = 0.0


def passes(run_pass, check, keep, tally, seconds, trace) -> Passes:
    """Timed passes of ``run_pass``, each result checked into ``tally``
    and reduced by ``keep`` before it is stored.

    With ``trace`` every untraced pass is followed by a traced one, whose
    layer figures must not claim more self time than its wall time.
    """
    out = Passes([], [])

    def one_round():
        result, wall = run_pass()
        tally.add(check(result))
        out.untraced.append((keep(result), wall))
        if len(out.untraced) == 1:
            out.peak_rss_mb = _peak_rss_mb()
        if not trace:
            return wall
        with Tracer() as tracer:
            result, traced_wall = run_pass()
        tally.add(check(result))
        figures = tracer.layer_metrics()
        self_s = sum(v for k, v in figures.items() if k.endswith(".self_s"))
        tally.add(W.Check(1, {} if self_s <= traced_wall else {
            0: f"self times sum to {self_s:.6f} s, more than the traced "
               f"wall time {traced_wall:.6f} s"}))
        out.traced.append(TracedPass(figures, traced_wall, tracer.span_count,
                                     tuple(tracer.absent)))
        return wall + traced_wall

    repeat(one_round, seconds, 1 if trace else MIN_PASSES)
    return out


def layer_metrics(run: Passes) -> tuple[dict, list[str]]:
    """Mean per-pass figures of the traced passes, the tracing overhead,
    and notes on spans, absent names and functions never called."""
    metrics = {name: statistics.fmean(p.figures[name] for p in run.traced)
               for name, _ in LAYER_METRICS}
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in run.traced)
        - statistics.median(wall for _, wall in run.untraced))
    last = run.traced[-1]
    notes = [f"{len(run.traced)} traced and {len(run.untraced)} untraced "
             f"passes; {last.spans} spans in the last traced pass; "
             f"per-layer figures are means per pass"]
    if last.absent:
        notes.append("absent from the package: " + ", ".join(last.absent))
    idle = [k[:-len(".calls")] for k, v in last.figures.items()
            if k.endswith(".calls") and v == 0]
    if idle:
        notes.append("not called: " + ", ".join(idle))
    return metrics, notes


# --------------------------------------------------------------- sweeps


def sweep_run(spec, seconds, trace):
    if trace:
        setup_s, case = None, W.sweep_setup(spec, SRC)
    else:
        setup_s, case = timed_setups(lambda: W.sweep_setup(spec, SRC))
    golden = W.read_golden(spec.golden_path)
    mode = case.cfg.jacobian_mode.value
    tally = Tally()
    run = passes(lambda: W.sweep_pass(case),
                 lambda report: W.check_sweep(report, golden, spec, mode),
                 lambda report: report, tally, seconds, trace)
    cells = [rec for report, _ in run.untraced
             if not isinstance(report, Exception) for rec in report.records()]
    if trace:
        metrics, notes = layer_metrics(run)
        for label in W.SWEEP_METHODS:
            mine = [rec for rec in cells if rec.method.label() == label]
            metrics[f"bench.us_per_step.{label}"] = _ratio(
                sum(rec.wall_time for rec in mine) * 1e6,
                sum(rec.steps for rec in mine))
        return metrics, tally, notes
    sweep_us = [wall * 1e6 for _, wall in run.untraced]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_us": _percentile(sweep_us, 50),
        "steps_per_s": _ratio(sum(rec.steps for rec in cells),
                              sum(rec.wall_time for rec in cells)),
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = [f"latency over {len(sweep_us)} sweeps of "
             f"{len(case.cfg.methods)} methods x {len(case.cfg.step_sizes)} "
             f"step sizes; steps_per_s excludes the reference"]
    return metrics, tally, notes


# --------------------------------------------------------------- stream


def stream_run(spec, seed, seconds, trace):
    if trace:
        setup_s, case = None, W.stream_setup(spec, seed, SRC)
    else:
        setup_s, case = timed_setups(lambda: W.stream_setup(spec, seed, SRC))
    W.add_stream_oracle(case, seed)
    tally = Tally()
    W.stream_pass(case)  # warm-up, unchecked
    run = passes(lambda: W.stream_pass(case),
                 lambda result: W.check_stream(case, result[0]),
                 lambda result: result[1], tally, seconds, trace)
    latency = {m: np.concatenate([np.frombuffer(samples[m], dtype=np.int64)
                                  for samples, _ in run.untraced]) * 1e-3
               for m in W.STREAM_METHODS}
    pooled = np.concatenate(list(latency.values()))
    if trace:
        metrics, notes = layer_metrics(run)
        for label in W.STREAM_METHODS:
            metrics[f"update_p50_us.{label}"] = _percentile(latency[label],
                                                             50)
        metrics["update_p99_us"] = _percentile(pooled, 99)
        return metrics, tally, notes
    metrics = {
        "setup_s": setup_s,
        "latency_p50_us": _percentile(pooled, 50),
        "steps_per_s": _ratio(pooled.size, pooled.sum() * 1e-6),
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = [f"latency over {pooled.size} updates: {len(run.untraced)} "
             f"passes of {len(W.STREAM_METHODS)} methods x {spec.updates} "
             f"updates; p99 {_percentile(pooled, 99):.1f} us; set-up "
             f"includes generating the inputs"]
    return metrics, tally, notes


# --------------------------------------------------------------- output


def _percentile(values, q: float) -> float:
    """Percentile, or 0 when every pass failed and left no samples."""
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (metrics, tally, notes).  Per-layer
    metrics of the other kind of workload read 0."""
    spec = W.WORKLOADS[workload]
    if isinstance(spec, W.StreamSpec):
        metrics, tally, notes = stream_run(spec, seed, seconds, trace)
    else:
        metrics, tally, notes = sweep_run(spec, seconds, trace)
    if trace:
        for name, _ in PER_LAYER:
            metrics.setdefault(name, 0.0)
    return metrics, tally, notes


def result_line(metrics: dict, units: dict, tally: Tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def run_one(args) -> int:
    env = environment()
    if env[THREADS_VAR] != "unset":
        print(f"error: {THREADS_VAR} is set; the benchmark measures the "
              "serial path", file=sys.stderr)
        return 2
    try:
        metrics, tally, notes = measure(args.workload, args.seed,
                                        args.seconds, args.trace == 1)
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:45s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':45s} "
          f"{tally.failed / max(tally.attempted, 1):>16.6g} "
          f"({tally.failed} of {tally.attempted})")
    for reason, count in list(tally.reasons.items())[:10]:
        print(f"  FAIL x{count}: {reason}")
    print(result_line(metrics, units, tally))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the stream-update signal")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
