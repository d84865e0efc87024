"""Smoke test of the benchmark on tiny configurations.

Run from the repository root with ``python3 -m pytest benchmarks``.  It
checks the output schema against ``BENCHMARK.json``, that every check
passes on the current package, that a perturbed golden value is counted as
a failure, and that the tracer survives a traced name the package lacks.
There is no wall-clock gate.
"""

import csv
import json
from pathlib import Path

import pytest

import capture_golden
import run
import tracer
import workloads as W

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY_SWEEP = W.SweepSpec("fourier3", windows=(),
                         methods=("rk4omega", "theta2", "rk4theta2"),
                         step_sizes=(0.25, 0.125, 0.0625), horizon=1.0)
TINY_STREAM = W.StreamSpec(updates=128, dt=1.0 / 128.0)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads with a golden CSV captured into ``tmp_path``."""
    monkeypatch.setattr(W, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setitem(W.WORKLOADS, "fourier3-sweep", TINY_SWEEP)
    monkeypatch.setitem(W.WORKLOADS, "stream-update", TINY_STREAM)
    with open(TINY_SWEEP.golden_path, "w", newline="") as handle:
        csv.writer(handle).writerows(capture_golden.golden_rows(TINY_SWEEP))
    return TINY_SWEEP.golden_path


def run_json(capsys, workload, trace):
    """Run the benchmark; return its result line, parsed, and its output."""
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


def assert_schema(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", ["fourier3-sweep", "stream-update"])
@pytest.mark.parametrize("trace", [0, 1])
def test_schema_and_checks_pass(tiny, capsys, workload, trace):
    result, _ = run_json(capsys, workload, trace)
    assert_schema(result, trace)
    assert result["correct"] and result["failed"] == 0
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_golden_value_fails(tiny, capsys):
    with open(tiny, newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows[4]["final_error_rad"] = repr(float(rows[4]["final_error_rad"]) * 1.01)
    with open(tiny, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    result, _ = run_json(capsys, "fourier3-sweep", 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_tracer_reports_absent_name(tiny, capsys, monkeypatch):
    monkeypatch.setattr(tracer, "TRACED",
                        tracer.TRACED + (("so3", "no_such_function"),))
    result, out = run_json(capsys, "fourier3-sweep", 1)
    assert "absent from the package: so3.no_such_function" in out
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["kinematics.forward_jacobian.calls"] == 0
    assert metrics["rk.integrate_attitude_step.calls"] > 0
