import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from coning_kit import bench, cli, trajectory
from coning_kit.bench import MethodId, MethodKind
from coning_kit.cli import parse_method, run_cli
from coning_kit.errors import ConfigError, NoConvergence

SRC = Path(__file__).resolve().parent.parent / "src"

#: Long step-size lists with one bad value, which the error message once
#: echoed whole.
_INCREASING_DTS = ",".join(repr((k + 1) * 1e-6) for k in range(100_000))
_DECREASING_DTS = ",".join(repr(1.0 - k * 1e-6) for k in range(50_000))


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
        # Bare "twospeed" names a method kind but no minor-step count.
        for name in ("rk9", "twospeed", "TwoSpeed "):
            with pytest.raises(ConfigError, match="unknown method") as info:
                parse_method(name)
            for kind in MethodKind:
                assert kind.value in str(info.value)
            assert "twospeed<m>" in str(info.value)

    def test_every_plain_kind_parses(self):
        for kind in MethodKind:
            if kind is not MethodKind.TWO_SPEED_CLASSIC:
                assert parse_method(kind.value.upper()) == MethodId(kind)


class TestTableauxCommand:
    def test_prints_all_and_exits_zero(self, capsys):
        assert run_cli(["tableaux"]) == 0
        out = capsys.readouterr().out
        for name in ("forward-euler", "explicit-midpoint", "rk3", "rk4",
                     "rk6"):
            assert name in out
        assert out.count("ok") == 5


class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert run_cli(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for check in ("increment-identity", "single-speed-identity",
                      "coning-quadrature", "exp-log-roundtrip",
                      "node-sample-procedure"):
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

    def test_jacobian_mode_names(self, tmp_path, capsys):
        out, args = sweep_args(tmp_path)
        assert run_cli(args + ["--jacobian-mode", "Approx"]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert {r[1] for r in rows if r[0] == "rk4omega"} == {"approx"}
        capsys.readouterr()
        assert run_cli(args + ["--jacobian-mode", "warp"]) == 2
        err = capsys.readouterr().err
        assert "unknown jacobian_mode 'warp'" in err
        assert "valid modes: approx, exact" in err

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
        (["--halvings", "1000000"], "halvings"),
        (["--signal", "fourier3", "--horizon", "1000000", "--dt-max", "1",
          "--halvings", "0"], "budget"),
        (["--signal", "coning", "--dts", "1e308", "--horizon", "1e308"],
         "phase"),
        (["--dts", _INCREASING_DTS], "decreasing"),
        (["--dts", _DECREASING_DTS + ",nan"], "finite"),
        (["--dts", _DECREASING_DTS + ",-1"], "positive"),
        (["--dts", _DECREASING_DTS + ",x"], "dts"),
    ], ids=["horizon-nan", "horizon-inf", "tolerance-nan", "halvings-40",
            "halvings-1e6", "reference-budget", "phase-overflow",
            "dts-increasing", "dts-nan", "dts-negative", "dts-unparsable"])
    def test_unbounded_work_rejected_before_sweeping(self, flags, named,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # Each once escaped validation: NaN and inf horizons as a traceback
        # from round(), a NaN tolerance and 40 halvings as a sweep that
        # never ends, a 10^6 s fourier3 horizon as a step-doubled reference
        # that starts at 2.2e6 substeps, a 10^308 s coning step as a phase
        # W t that overflows, 10^6 halvings as 10^6 step sizes built and
        # echoed in a 5 MB message, 10^5 increasing step sizes echoed in a
        # 937 KB one, 5 x 10^4 with a bad last value in 250 KB.  None may
        # start any propagation, and the message stays short.
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(bench, "reference_attitude", no_work)
        monkeypatch.setattr(bench, "propagate", no_work)
        monkeypatch.setattr(bench, "_propagate", no_work)
        assert run_cli(["sweep", "--methods", "theta2", *flags,
                        "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert len(err) < 1024

    @pytest.mark.parametrize("signal, span, named", [
        ("poly3", "1e308", "increment"),
        ("fourier3", "1e307", "starts at 2.24e+307 substeps"),
    ], ids=["poly3-increment", "fourier3-reference-budget"])
    def test_huge_spans_rejected_in_one_short_line(self, signal, span, named,
                                                   tmp_path, capsys):
        # Each once printed the reference's exact start, a 309-digit
        # integer for poly3; its increment now fails first, in floats.
        assert run_cli(["sweep", "--signal", signal, "--methods", "theta2",
                        "--dts", span, "--horizon", span,
                        "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert err.count("\n") == 1 and len(err) < 200

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

    def test_reference_refines_past_stages_out_of_domain(self, capsys):
        # poly3 over 16 s: the reference's first refinements take rk4
        # stages beyond the Jacobian's domain near t = 11 s.  They give no
        # attitude, and the refinement halves past them instead of failing
        # the sweep.
        assert run_cli(["sweep", "--signal", "poly3", "--methods", "theta2",
                        "--horizon", "16", "--dt-max", "0.5",
                        "--halvings", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [
            "0.5", "0.25", "0.125", "0.0625"]

    def test_cell_a_half_turn_from_the_truth_keeps_the_sweep(self, capsys):
        # One forward-Euler step over this horizon ends within 1e-6 rad of a
        # half-turn from the cone's attitude, where the log map gives no
        # axis; the cell keeps its record, and the others theirs.
        span = "6.317249567751999"
        assert run_cli(["sweep", "--signal", "coning", "--methods",
                        "fwdeuler,theta2,rk4omega", "--dts", span,
                        "--horizon", span]) == 0
        rows = [row.split(",") for row
                in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["fwdeuler", "theta2", "rk4omega"]
        assert math.pi - 1e-6 < float(rows[0][4]) <= math.pi
        assert float(rows[1][4]) < 0.1

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

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        # Byte 0xff once escaped as a UnicodeDecodeError traceback.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"horizon = \xff4\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err


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


def test_cli_import_leaves_fractions_unloaded():
    # Only coning.appendix_increment_identity_check uses fractions, and
    # imports it itself, so a cold sweep does not pay for it.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coning_kit.cli; print(sorted("
         "{'coning_kit.cli', 'fractions'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout == "['coning_kit.cli']\n"


_PLAIN_METHODS = tuple(kind.value for kind in MethodKind
                       if kind is not MethodKind.TWO_SPEED_CLASSIC)

_FAILED_CELL = re.compile(r"^(\S+) dt=(\S+): failed: ", re.MULTILINE)


@given(signal=st.sampled_from(("coning", "fourier3", "poly3")),
       methods=st.lists(st.one_of(
           st.sampled_from(_PLAIN_METHODS),
           st.integers(1, 4).map(lambda m: f"twospeed{m}")),
           min_size=1, max_size=3, unique=True),
       coarsest=st.sampled_from((0.5, 0.25, 0.3, 0.1)),
       ladder=st.one_of(
           st.integers(0, 4),
           st.lists(st.sampled_from((1.5, 2, 2.5, 3, 5, 7)), max_size=3,
                    unique=True).map(lambda ds: (1, *ds))),
       multiple=st.integers(1, 32),
       tolerance=st.floats(-13.0, -8.0).map(lambda e: 10.0 ** e),
       config_file=st.booleans())
@example(signal="poly3", methods=["theta2"], coarsest=0.5, ladder=3,
         multiple=32, tolerance=1e-12, config_file=False)
@example(signal="fourier3", methods=["twospeed2", "rk4omega"], coarsest=0.3,
         ladder=(1, 2, 3), multiple=4, tolerance=1e-12, config_file=True)
@settings(max_examples=60, deadline=None)
def test_sweep_outcome_over_whole_configs(signal, methods, coarsest, ladder,
                                          multiple, tolerance, config_file):
    # Any such sweep ends one of three ways: every cell recorded or listed
    # as failed (exit 0, or 2 when none was recorded); a ConfigError before
    # any propagation; or a reference that cannot converge.  A halvings
    # count is a dyadic ladder from --dt-max; a tuple of divisors d gives
    # the step sizes coarsest / d through --dts, in the drawn order, and
    # some of them do not divide the horizon.  The settings go in as flags
    # or as the key = value lines of a --config file.
    if isinstance(ladder, int):
        dts = [coarsest * 2.0 ** -k for k in range(ladder + 1)]
        steps = [("dt-max", repr(coarsest)), ("halvings", str(ladder))]
    else:
        dts = [coarsest / d for d in ladder]
        steps = [("dts", ",".join(map(repr, dts)))]
    flags = [("signal", signal), ("methods", ",".join(methods)), *steps,
             ("horizon", repr(multiple * coarsest)),
             ("tolerance", repr(tolerance))]
    propagated, raised = [], []
    propagate, cmd_sweep = bench._propagate, cli._cmd_sweep

    def counted(*a):
        propagated.append(a)
        return propagate(*a)

    def recorded(a):
        try:
            return cmd_sweep(a)
        except Exception as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(bench, "_propagate", counted), \
            mock.patch.object(cli, "_cmd_sweep", recorded), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        if config_file:
            path = Path(tmp) / "sweep.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in flags))
            args = ["sweep", "--config", str(path)]
        else:
            args = ["sweep", *(x for k, v in flags for x in (f"--{k}", v))]
        code = run_cli(args)
    event(type(raised[0]).__name__ if raised else f"exit {code}")
    if raised:
        assert code == 2
        if isinstance(raised[0], ConfigError):
            assert not propagated
        else:
            assert isinstance(raised[0], NoConvergence), err.getvalue()
        return
    # One pass per method, whether or not some of its cells fail.
    assert len(propagated) == len(methods)
    records = [(row[0], row[2])
               for row in csv.reader(out.getvalue().splitlines()[1:])]
    failed = _FAILED_CELL.findall(err.getvalue())
    cells = [(parse_method(m).label(), repr(dt)) for m in methods for dt in dts]
    assert sorted(records + failed) == sorted(cells)
    assert code == (0 if records else 2)


#: stderr of the eight-method poly3 sweep over 32 s: the cells whose stages
#: leave the Jacobian's domain, then the fitted orders.
_POLY3_32_STDERR = """\
    fwdeuler: fitted order 0.265
exmid dt=0.25: failed: StageEvaluationError: stage 1 at t=18.875: angle 6.332038808602793 outside [0, 6.282185307179586) rad
exmid dt=0.125: failed: StageEvaluationError: stage 1 at t=23.4375: angle 6.306839049008506 outside [0, 6.282185307179586) rad
exmid dt=0.0625: failed: StageEvaluationError: stage 1 at t=29.28125: angle 6.317557411030897 outside [0, 6.282185307179586) rad
       exmid: fitted order 2.494
rk3omega dt=0.25: failed: StageEvaluationError: stage 2 at t=15.25: angle 6.593459619715142 outside [0, 6.282185307179586) rad
rk3omega dt=0.125: failed: StageEvaluationError: stage 2 at t=18.75: angle 6.331593692851445 outside [0, 6.282185307179586) rad
rk3omega dt=0.0625: failed: StageEvaluationError: stage 2 at t=23.375: angle 6.306768042409573 outside [0, 6.282185307179586) rad
rk3omega dt=0.03125: failed: StageEvaluationError: stage 2 at t=29.21875: angle 6.296730026463315 outside [0, 6.282185307179586) rad
    rk3omega: fitted order 3.260
rk4omega dt=0.25: failed: StageEvaluationError: stage 3 at t=15.25: angle 6.426278472524741 outside [0, 6.282185307179586) rad
rk4omega dt=0.125: failed: StageEvaluationError: stage 3 at t=18.875: angle 6.398579767890803 outside [0, 6.282185307179586) rad
rk4omega dt=0.0625: failed: StageEvaluationError: stage 3 at t=23.4375: angle 6.333111980510162 outside [0, 6.282185307179586) rad
rk4omega dt=0.03125: failed: StageEvaluationError: stage 3 at t=29.21875: angle 6.286350497005965 outside [0, 6.282185307179586) rad
    rk4omega: fitted order 4.222
      theta2: fitted order 3.559
      theta3: fitted order 3.564
   rk4theta2: fitted order 3.559
   twospeed4: fitted order 3.564
"""  # noqa: E501


def test_failing_cells_cost_no_pass_of_their_own():
    # poly3's rate grows as t^3: over 32 s the coarse cells of three rate
    # methods and the reference's coarse refinements take stages beyond the
    # Jacobian's domain.  Still each method runs in one pass, and the
    # reference in one pass per prediction of its halvings.
    passes = {"sweep": 0, "reference": 0}
    propagate, reference_pass = bench._propagate, trajectory._reference_pass

    def sweep_pass(*a):
        passes["sweep"] += 1
        return propagate(*a)

    def reference(*a):
        passes["reference"] += 1
        return reference_pass(*a)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(bench, "_propagate", sweep_pass), \
            mock.patch.object(trajectory, "_reference_pass", reference), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["sweep", "--signal", "poly3", "--horizon", "32",
                        "--methods", "fwdeuler,exmid,rk3omega,rk4omega,"
                        "theta2,theta3,rk4theta2,twospeed4"])
    assert code == 0
    assert err.getvalue() == _POLY3_32_STDERR
    assert passes == {"sweep": 8, "reference": 5}
