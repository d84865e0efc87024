import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coning_kit import bench
from coning_kit.bench import MethodKind
from coning_kit.cli import parse_method, run_cli
from coning_kit.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParseMethod:
    def test_plain_names(self):
        assert parse_method("rk4omega").kind is MethodKind.RK4_OMEGA
        assert parse_method("theta3").kind is MethodKind.SINGLE_SPEED_THETA3
        assert parse_method(" ExMid ").kind is \
            MethodKind.EXPLICIT_MIDPOINT_OMEGA

    def test_two_speed_with_count(self):
        method = parse_method("twospeed8")
        assert method.kind is MethodKind.TWO_SPEED_CLASSIC
        assert method.minor_steps == 8

    def test_unknown_name_lists_valid_options(self):
        with pytest.raises(ConfigError) as info:
            parse_method("rk9")
        assert "rk4omega" in str(info.value)
        assert "twospeed" in str(info.value)


class TestTableauxCommand:
    def test_prints_all_and_exits_zero(self, capsys):
        assert run_cli(["tableaux"]) == 0
        out = capsys.readouterr().out
        for name in ("forward-euler", "explicit-midpoint", "rk3", "rk4"):
            assert name in out
        assert out.count("ok") == 4


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert run_cli(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for check in ("increment-identity", "single-speed-identity",
                      "coning-quadrature", "exp-log-roundtrip"):
            assert f"PASS {check}" in out


def sweep_args(tmp_path, fmt="csv"):
    out = tmp_path / f"records.{fmt}"
    return out, ["sweep", "--signal", "coning",
                 "--methods", "rk4omega,theta2,theta3",
                 "--dt-max", "0.25", "--halvings", "2",
                 "--horizon", "1", "--format", fmt,
                 "--output", str(out)]


class TestSweepCommand:
    def test_row_count_and_schema(self, tmp_path, capsys):
        out, args = sweep_args(tmp_path)
        assert run_cli(args) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "jacobian_mode", "dt", "steps",
                           "final_error_rad", "wall_time_s"]
        assert len(rows) == 1 + 3 * 3  # header + methods x step sizes
        methods = [r[0] for r in rows[1:]]
        assert methods == (["rk4omega"] * 3 + ["theta2"] * 3 + ["theta3"] * 3)
        modes = {r[0]: r[1] for r in rows[1:]}
        assert modes["rk4omega"] == "exact"
        assert modes["theta2"] == "none"
        err = capsys.readouterr().err
        assert "fitted order" in err

    def test_data_columns_byte_stable(self, tmp_path):
        out1, args1 = sweep_args(tmp_path)
        stable1 = _data_columns(out1, args1)
        out1.unlink()
        stable2 = _data_columns(out1, args1)
        assert stable1 == stable2

    def test_tsv_format(self, tmp_path):
        out, args = sweep_args(tmp_path, fmt="tsv")
        assert run_cli(args) == 0
        first = out.read_text().splitlines()[0]
        assert "\t" in first and "," not in first

    def test_float_formatting_roundtrips(self, tmp_path):
        out, args = sweep_args(tmp_path)
        assert run_cli(args) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        for row in rows:
            # repr round-trip: the printed value parses back exactly
            assert repr(float(row[2])) == row[2]
            assert repr(float(row[4])) == row[4]

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        assert run_cli(["sweep", "--methods", "rk9",
                        "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "rk4omega" in err

    def test_unknown_signal_exits_2(self, tmp_path, capsys):
        assert run_cli(["sweep", "--signal", "warp",
                        "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "poly3" in err and "coning" in err

    def test_non_dividing_step_exits_2(self, tmp_path, capsys):
        assert run_cli(["sweep", "--dts", "0.3", "--horizon", "1",
                        "--methods", "theta2",
                        "--output", str(tmp_path / "x.csv")]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--horizon", "nan"], "horizon"),
        (["--horizon", "inf"], "horizon"),
        (["--tolerance", "nan"], "tolerance"),
        (["--halvings", "40"], "cap"),
        (["--signal", "fourier3", "--horizon", "1000000", "--dt-max", "1",
          "--halvings", "0"], "budget"),
        (["--signal", "coning", "--dts", "1e6,5e5,2.5e5", "--horizon",
          "1e6"], "panels"),
    ], ids=["horizon-nan", "horizon-inf", "tolerance-nan", "halvings-40",
            "reference-budget", "panel-budget"])
    def test_unbounded_work_rejected_before_sweeping(self, flags, named,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # Each once escaped validation: NaN and inf horizons as a traceback
        # from round(), a NaN tolerance and 40 halvings as a sweep that
        # never ends, a 10^6 s fourier3 horizon as a step-doubled reference
        # that starts at 2.2e6 substeps, 10^6 s coning increments as 3.2e6
        # quadrature panels each.  None may start any propagation.
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(bench, "reference_attitude", no_work)
        monkeypatch.setattr(bench, "propagate", no_work)
        monkeypatch.setattr(bench, "_propagate", no_work)
        assert run_cli(["sweep", "--methods", "theta2", *flags,
                        "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_failed_cell_reported_and_skipped(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--signal", "fourier3",
                        "--methods", "fwdeuler,rk4omega", "--dt-max", "8",
                        "--halvings", "3", "--horizon", "16",
                        "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [(r[0], r[2]) for r in rows] == (
            [("fwdeuler", dt) for dt in ("8.0", "4.0", "2.0", "1.0")]
            + [("rk4omega", dt) for dt in ("4.0", "2.0", "1.0")])
        err = capsys.readouterr().err
        assert ("rk4omega dt=8.0: failed: StageEvaluationError: stage 3 at "
                "t=8.0: angle") in err
        assert "rk4omega: fitted order" in err

    def test_every_cell_failed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli(["sweep", "--signal", "fourier3",
                        "--methods", "rk4omega", "--dts", "8",
                        "--horizon", "16", "--output", str(out)]) == 2
        assert out.read_text() == ("method,jacobian_mode,dt,steps,"
                                   "final_error_rad,wall_time_s\n")
        err = capsys.readouterr().err
        assert "rk4omega dt=8.0: failed: " in err
        assert "every cell" in err

    def test_stdout_output(self, capsys):
        assert run_cli(["sweep", "--signal", "poly3", "--methods", "exmid",
                        "--dts", "0.25", "--horizon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method,jacobian_mode")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("signal = poly3\n"
                       "methods = exmid  # solver choice\n"
                       "dt-max = 0.25\n"
                       "halvings = 1\n"
                       "horizon = 0.5\n")
        out = tmp_path / "records.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--methods", "theta2",
                        "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 2
        assert {r[0] for r in rows[1:]} == {"theta2"}

    def test_config_file_bad_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("signl = poly3\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "signl" in err and "signal" in err


def _data_columns(path, args):
    assert run_cli(args) == 0
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    # all columns except the informational wall time
    return [row[:5] for row in rows]


@pytest.mark.parametrize("flags, code", [([], 0), (["--horizon", "nan"], 2)],
                         ids=["ok", "horizon-nan"])
def test_python_dash_m(flags, code):
    # The package under test, whatever copy is installed.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "coning_kit", "sweep", "--signal", "poly3",
         "--methods", "exmid", "--dts", "0.25", "--horizon", "0.5", *flags],
        capture_output=True, text=True, env=env, timeout=60, check=False)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.startswith(
            "method,jacobian_mode,dt,steps,final_error_rad,wall_time_s\n")
    else:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
