import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit import _batch, bench, rk
from coning_kit.bench import (ERROR_FLOOR, MAX_CELL_STEPS, ErrorRecord,
                              MethodId, MethodKind, SweepConfig,
                              estimate_order, propagate, run_sweep,
                              validate_config)
from coning_kit.cli import parse_method
from coning_kit.errors import (AngleOutOfDomain, ConfigError, ConingKitError,
                               InsufficientData, NonFiniteIncrement,
                               StageEvaluationError)
from coning_kit.rate_model import RatePolynomial
from coning_kit.so3 import attitude_error_angle, dcm_from_rotation_vector
from coning_kit.trajectory import (MAX_SUBSTEPS, PRESET_NAMES,
                                   PolynomialRate, exact_attitude, preset,
                                   reference_attitude)

DEFAULT_DTS = tuple(0.25 * 2.0 ** -k for k in range(7))
ALL_EIGHT = ("fwdeuler,exmid,rk3omega,rk4omega,theta2,theta3,rk4theta2,"
             "twospeed4")

ALL_METHODS = [MethodId(kind, 4) if kind is MethodKind.TWO_SPEED_CLASSIC
               else MethodId(kind) for kind in MethodKind]


def record(method, dt, err):
    return ErrorRecord(method=method, dt=dt, final_error_angle=err,
                       steps=int(round(1.0 / dt)), wall_time=0.0)


class TestMethodId:
    def test_two_speed_requires_minor_steps(self):
        with pytest.raises(ConfigError):
            MethodId(MethodKind.TWO_SPEED_CLASSIC)
        with pytest.raises(ConfigError):
            MethodId(MethodKind.TWO_SPEED_CLASSIC, 0)
        with pytest.raises(ConfigError):
            MethodId(MethodKind.TWO_SPEED_CLASSIC, 2.5)
        with pytest.raises(ConfigError):
            MethodId(MethodKind.TWO_SPEED_CLASSIC, True)

    def test_minor_steps_rejected_elsewhere(self):
        with pytest.raises(ConfigError):
            MethodId(MethodKind.RK4_OMEGA, 4)

    def test_labels(self):
        assert MethodId(MethodKind.RK4_OMEGA).label() == "rk4omega"
        assert MethodId(MethodKind.TWO_SPEED_CLASSIC, 8).label() == "twospeed8"


class TestEstimateOrder:
    def test_synthetic_quadratic_errors(self):
        m = MethodId(MethodKind.EXPLICIT_MIDPOINT_OMEGA)
        records = [record(m, dt, 0.37 * dt ** 2)
                   for dt in (0.5, 0.25, 0.125, 0.0625)]
        slope, residual = estimate_order(records)
        assert abs(slope - 2.0) <= 1e-12
        assert residual <= 1e-12

    def test_floored_point_excluded(self):
        m = MethodId(MethodKind.RK4_OMEGA)
        records = [record(m, dt, 0.37 * dt ** 2)
                   for dt in (0.5, 0.25, 0.125, 0.0625)]
        polluted = records + [record(m, 1e-4, 5e-15)]
        slope_a, _ = estimate_order(records)
        slope_b, _ = estimate_order(polluted)
        assert slope_a == slope_b

    def test_floor_is_exclusive_and_adjustable(self):
        m = MethodId(MethodKind.RK4_OMEGA)
        records = [record(m, dt, 0.37 * dt ** 2)
                   for dt in (0.5, 0.25, 0.125, 0.0625)]
        at_floor = records + [record(m, 1e-4, 1e-11)]
        assert estimate_order(at_floor, 1e-11) == estimate_order(records)
        assert estimate_order(at_floor) != estimate_order(records)

    def test_insufficient_data(self):
        m = MethodId(MethodKind.RK4_OMEGA)
        with pytest.raises(InsufficientData):
            estimate_order([record(m, 0.5, 1e-3), record(m, 0.25, 1e-4)])
        # floored records do not count toward the minimum
        with pytest.raises(InsufficientData):
            estimate_order([record(m, 0.5, 1e-15), record(m, 0.25, 1e-15),
                            record(m, 0.125, 1e-15)])

    @pytest.mark.parametrize("dt, error", [
        (0.03125, math.nan), (0.03125, math.inf), (math.nan, 1e-3),
        (math.inf, 1e-3)])
    def test_refuses_a_non_finite_record(self, dt, error):
        # A NaN error was dropped by the floor test (nan > floor is false)
        # and the rest fitted to (2.0, 0.0); a NaN dt gave (nan, nan).
        m = MethodId(MethodKind.RK4_OMEGA)
        bad = ErrorRecord(method=m, dt=dt, final_error_angle=error, steps=32,
                          wall_time=0.0)
        records = [record(m, d, 0.37 * d ** 2)
                   for d in (0.5, 0.25, 0.125, 0.0625)] + [bad]
        with pytest.raises(ValueError, match="non-finite record") as info:
            estimate_order(records)
        assert repr(bad) in str(info.value)

    @pytest.mark.parametrize("signal", ["coning", "fourier3", "poly3"])
    def test_default_sweep_fits_match_polyfit(self, signal):
        cfg = SweepConfig(signal=signal,
                          methods=tuple(parse_method(m)
                                        for m in ALL_EIGHT.split(",")),
                          step_sizes=DEFAULT_DTS, horizon=4.0)
        floor = (ERROR_FLOOR if signal == "coning"
                 else bench.REFERENCE_MARGIN * cfg.tolerance)
        fitted = 0
        for summary in run_sweep(cfg).summaries:
            if summary.order is not None:
                fitted += 1
                assert_fit_matches_polyfit(summary.records, floor)
        assert fitted >= 6

    @given(points=st.lists(
        st.tuples(st.integers(0, 20), st.floats(-13.5, 0.0)),
        min_size=3, max_size=12, unique_by=lambda p: p[0]),
        base=st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_fit_matches_polyfit(self, points, base):
        m = MethodId(MethodKind.RK4_OMEGA)
        assert_fit_matches_polyfit(
            [record(m, base * 2.0 ** -k, 10.0 ** e) for k, e in points],
            ERROR_FLOOR)


def assert_fit_matches_polyfit(records, floor):
    """``estimate_order`` against the SVD least-squares fit of
    ``np.polyfit`` on the records above ``floor``, within 1e-12."""
    usable = [r for r in records if r.final_error_angle > floor]
    x = np.log([r.dt for r in usable])
    y = np.log([r.final_error_angle for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    got_slope, got_residual = estimate_order(records, floor)
    assert abs(got_slope - slope) <= 1e-12
    assert abs(got_residual - residual) <= 1e-12


class TestPropagate:
    @pytest.mark.parametrize("method", ALL_METHODS,
                             ids=lambda m: m.label())
    def test_constant_rate_exact(self, method):
        omega = np.array([0.3, 0.0, 0.0])
        signal = PolynomialRate(RatePolynomial(np.array([omega])))
        expected = dcm_from_rotation_vector(omega * 1.0)
        for dt in (0.25, 0.125):
            final = propagate(method, signal, dt, 1.0)
            assert attitude_error_angle(final, expected) <= 1e-12

    def test_identity_between_solver_and_single_speed_paths(self):
        signal = preset("coning")
        for dt in (0.25, 1.0 / 64.0):
            a = propagate(MethodId(MethodKind.RK4_THETA2), signal, dt, 1.0)
            b = propagate(MethodId(MethodKind.SINGLE_SPEED_THETA2), signal,
                          dt, 1.0)
            assert attitude_error_angle(a, b) <= 1e-14

    def test_rejects_non_dividing_step(self):
        signal = preset("poly3")
        with pytest.raises(ConfigError):
            propagate(MethodId(MethodKind.RK4_OMEGA), signal, 0.3, 1.0)

    @pytest.mark.parametrize("method, signal, dt, horizon, named", [
        (MethodId(MethodKind.SINGLE_SPEED_THETA2), "coning", 1e308, 1e308,
         "phase"),
        (MethodId(MethodKind.TWO_SPEED_CLASSIC, 4), "fourier3", 1e308,
         1e308, "phase"),
        (MethodId(MethodKind.FWD_EULER_OMEGA), "fourier3", 2.0 ** -21, 1.0,
         "cap"),
        (MethodId(MethodKind.TWO_SPEED_CLASSIC, 4), "poly3", 2.0 ** -19,
         1.0, "twospeed4"),
        (MethodId(MethodKind.SINGLE_SPEED_THETA2), "poly3", 1e100, 1e100,
         "increment"),
        (MethodId(MethodKind.RK4_THETA2), "poly3", 1e100, 1e100,
         "increment"),
        (MethodId(MethodKind.RK4_OMEGA), "poly3", 1e100, 1e100,
         "increment"),
    ], ids=["phase", "fourier-phase", "steps", "two-speed-intervals",
            "poly-theta2", "poly-rk4theta2", "poly-rk4omega"])
    def test_applies_the_sweep_cell_bounds(self, method, signal, dt,
                                           horizon, named, monkeypatch):
        # A coning or Fourier phase that overflows at the grid's last
        # endpoint, 2^21 steps and 2^21 sensor intervals once ran unbounded
        # here: no grid or composer may start.  A 1e100 s step of poly3
        # once overflowed inside the engine, with warnings, into a NaN
        # defect or a bare ValueError; on floats the check warns of nothing.
        def no_work(*args, **kwargs):
            raise AssertionError("propagation started")

        monkeypatch.setattr(bench._batch, "increment_grids", no_work)
        monkeypatch.setattr(bench._batch, "compose_steps", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=named):
                propagate(method, preset(signal), dt, horizon)


class TestValidateConfig:
    def good(self):
        return SweepConfig(signal="coning",
                           methods=(MethodId(MethodKind.RK4_OMEGA),),
                           step_sizes=(0.25, 0.125),
                           horizon=1.0)

    def test_good_config_passes(self):
        validate_config(self.good())

    def test_unknown_signal(self):
        cfg = SweepConfig(signal="warp", methods=self.good().methods,
                          step_sizes=(0.25,), horizon=1.0)
        with pytest.raises(ConfigError, match="poly3"):
            validate_config(cfg)

    def test_rejects_increasing_steps(self):
        cfg = SweepConfig(signal="coning", methods=self.good().methods,
                          step_sizes=(0.125, 0.25), horizon=1.0)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_rejects_non_dividing_steps(self):
        cfg = SweepConfig(signal="coning", methods=self.good().methods,
                          step_sizes=(0.3,), horizon=1.0)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_rejects_tight_tolerance(self):
        cfg = SweepConfig(signal="coning", methods=self.good().methods,
                          step_sizes=(0.25,), horizon=1.0, tolerance=1e-14)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("field, value", [
        ("horizon", float("nan")), ("horizon", float("inf")),
        ("step_sizes", (float("nan"),)), ("step_sizes", (float("inf"),)),
        ("step_sizes", (5e-324,)), ("tolerance", float("nan")),
        ("tolerance", float("inf"))])
    def test_rejects_non_finite_values(self, field, value):
        cfg = dataclasses.replace(self.good(), **{field: value})
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_step_cap(self):
        dt = 1.0 / MAX_CELL_STEPS
        validate_config(dataclasses.replace(self.good(), step_sizes=(dt,)))
        with pytest.raises(ConfigError, match="cap"):
            validate_config(dataclasses.replace(self.good(),
                                                step_sizes=(dt / 2,)))
        two_speed = (MethodId(MethodKind.TWO_SPEED_CLASSIC, 4),)
        with pytest.raises(ConfigError, match="twospeed4"):
            validate_config(dataclasses.replace(
                self.good(), methods=two_speed, step_sizes=(dt,)))

    @pytest.mark.parametrize("dt", [1e308, 2e307])
    def test_rejects_a_phase_that_overflows(self, dt):
        # One rk4omega step of the cone: W t is inf at the horizon, where
        # the closed-form truth once raised "math domain error".
        cfg = dataclasses.replace(self.good(), step_sizes=(dt,), horizon=dt)
        with pytest.raises(ConfigError, match="phase"):
            validate_config(cfg)

    def test_reference_start_budget(self):
        # 10^6 steps of 1 s pass the cell cap; fourier3's reference would
        # start at 2.2e6 substeps, above its budget.  The coning truth is
        # closed form and needs no reference.
        cfg = dataclasses.replace(self.good(), step_sizes=(1.0,),
                                  horizon=1e6)
        assert 1e6 <= MAX_CELL_STEPS
        validate_config(cfg)
        with pytest.raises(ConfigError, match=str(MAX_SUBSTEPS)):
            validate_config(dataclasses.replace(cfg, signal="fourier3"))

    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigError):
            validate_config(SweepConfig(signal="coning", methods=(),
                                        step_sizes=(0.25,), horizon=1.0))
        with pytest.raises(ConfigError):
            validate_config(SweepConfig(signal="coning",
                                        methods=self.good().methods,
                                        step_sizes=(), horizon=1.0))


class TestRunSweep:
    def small_config(self):
        return SweepConfig(
            signal="fourier3",
            methods=(MethodId(MethodKind.EXPLICIT_MIDPOINT_OMEGA),
                     MethodId(MethodKind.SINGLE_SPEED_THETA2)),
            step_sizes=(1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0),
            horizon=1.0)

    def test_single_cell(self):
        cfg = SweepConfig(signal="poly3",
                          methods=(MethodId(MethodKind.RK4_OMEGA),),
                          step_sizes=(0.25,), horizon=1.0)
        report = run_sweep(cfg)
        assert len(report.summaries) == 1
        assert len(report.summaries[0].records) == 1
        assert report.summaries[0].order is None

    def test_record_layout_and_orders(self):
        report = run_sweep(self.small_config())
        assert [s.method.label() for s in report.summaries] == \
            ["exmid", "theta2"]
        for summary in report.summaries:
            dts = [r.dt for r in summary.records]
            assert dts == sorted(dts, reverse=True)
            assert all(r.steps == round(1.0 / r.dt) for r in summary.records)
            assert summary.order is not None
        exmid = report.summaries[0]
        assert 1.6 <= exmid.order <= 2.4

    def test_coning_truth_is_closed_form(self, monkeypatch):
        def no_reference(*args, **kwargs):
            raise AssertionError("step-doubled reference called")

        monkeypatch.setattr(bench, "reference_attitude", no_reference)
        cfg = SweepConfig(signal="coning",
                          methods=(MethodId(MethodKind.RK4_OMEGA),),
                          step_sizes=(0.25,), horizon=1.0)
        rec = run_sweep(cfg).summaries[0].records[0]
        signal = preset("coning")
        truth = exact_attitude(signal, 1.0) @ exact_attitude(signal, 0.0).T
        final = propagate(cfg.methods[0], signal, 0.25, 1.0)
        assert rec.final_error_angle == attitude_error_angle(final, truth)

    def test_other_truth_is_step_doubled(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return reference_attitude(*args)

        monkeypatch.setattr(bench, "reference_attitude", counted)
        run_sweep(self.small_config())
        assert calls == [(0.0, 1.0, 1e-12)]

    def test_tableaux_built_once_per_process(self, monkeypatch):
        # Every rate method and the step-doubled reference, after one sweep
        # has built their tableaux.
        cfg = SweepConfig(signal="fourier3", methods=tuple(
            MethodId(kind) for kind in bench._OMEGA_TABLEAUX),
            step_sizes=(1.0 / 16.0, 1.0 / 32.0), horizon=1.0)
        want = run_sweep(cfg)
        built = []

        class Counted(rk.ButcherTableau):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(rk, "ButcherTableau", Counted)
        got = run_sweep(cfg)
        assert built == []
        assert [r.final_error_angle for r in got.records()] == \
            [r.final_error_angle for r in want.records()]

    def test_fit_excludes_records_the_reference_cannot_resolve(self):
        # fourier3 rk4omega at dt = 1/256 is about 4e-13: above the roundoff
        # floor, but inside ten times the 1e-12 reference tolerance, as is
        # the 6.6e-12 record at dt = 1/128.  The fit must leave both out.
        cfg = SweepConfig(signal="fourier3",
                          methods=(MethodId(MethodKind.RK4_OMEGA),),
                          step_sizes=tuple(0.25 * 2.0 ** -k
                                           for k in range(7)),
                          horizon=4.0)
        summary = run_sweep(cfg).summaries[0]
        finest = summary.records[-1]
        assert ERROR_FLOOR < finest.final_error_angle <= 1e-12
        resolved = [r for r in summary.records
                    if r.final_error_angle > 10 * cfg.tolerance]
        assert len(resolved) == 5
        assert summary.order == estimate_order(resolved)[0]
        assert summary.order != estimate_order(summary.records)[0]

    def test_halving_monotonic_in_asymptotic_regime(self):
        cfg = SweepConfig(signal="fourier3",
                          methods=(MethodId(MethodKind.RK4_OMEGA),),
                          step_sizes=(1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0),
                          horizon=1.0)
        records = run_sweep(cfg).summaries[0].records
        for coarse, fine in zip(records, records[1:]):
            assert fine.final_error_angle <= 1.05 * coarse.final_error_angle

    @pytest.mark.parametrize("signal, methods, dts, horizon", [
        ("coning", ALL_EIGHT, DEFAULT_DTS, 4.0),
        ("fourier3", ALL_EIGHT, DEFAULT_DTS, 4.0),
        ("poly3", ALL_EIGHT, DEFAULT_DTS, 4.0),
        ("fourier3", "theta3,twospeed3", (0.3, 0.15, 0.1), 1.2),
    ], ids=["coning", "fourier3", "poly3", "non-dyadic"])
    def test_records_equal_per_cell_propagate(self, signal, methods, dts,
                                              horizon):
        # The sweep shares increments between cells; each record must still
        # be bit for bit that of the cell propagated on its own.  Every
        # increment method, two-speed included, reads the grid's intervals,
        # at the non-dyadic step sizes too.
        cfg = SweepConfig(signal=signal,
                          methods=tuple(parse_method(m)
                                        for m in methods.split(",")),
                          step_sizes=dts, horizon=horizon)
        sig = preset(signal)
        truth = exact_attitude(sig, horizon)
        ref = (truth @ exact_attitude(sig, 0.0).T if truth is not None
               else reference_attitude(sig, 0.0, horizon, cfg.tolerance))
        report = run_sweep(cfg)
        assert len(report.records()) == len(cfg.methods) * len(dts)
        for rec in report.records():
            final = propagate(rec.method, sig, rec.dt, horizon)
            assert rec.final_error_angle == attitude_error_angle(final, ref)

    def test_failing_cell_leaves_the_rest_of_the_sweep(self):
        # rk4omega at dt = 8 leaves the Jacobian's domain in its last stage.
        cfg = SweepConfig(signal="fourier3",
                          methods=(MethodId(MethodKind.FWD_EULER_OMEGA),
                                   MethodId(MethodKind.RK4_OMEGA)),
                          step_sizes=(8.0, 4.0, 2.0, 1.0), horizon=16.0)
        euler, rk4 = run_sweep(cfg).summaries
        assert [r.dt for r in euler.records] == [8.0, 4.0, 2.0, 1.0]
        assert euler.failures == ()
        assert [r.dt for r in rk4.records] == [4.0, 2.0, 1.0]
        [(dt, reason)] = rk4.failures
        assert dt == 8.0
        assert reason.startswith("StageEvaluationError: stage 3 at t=8.0: "
                                 "angle ")
        assert rk4.order == estimate_order(rk4.records,
                                           10 * cfg.tolerance)[0]
        # Alone, the cell raises the error the sweep lists.
        with pytest.raises(StageEvaluationError) as info:
            propagate(rk4.method, preset("fourier3"), 8.0, 16.0)
        assert reason == f"StageEvaluationError: {info.value}"
        assert isinstance(info.value.__cause__, AngleOutOfDomain)


#: Methods the pass tests draw from: every kind, and a two-speed count that
#: is not a power of two.
PASS_METHODS = ALL_EIGHT.split(",") + ["twospeed3"]

#: (step sizes, horizon): dyadic, whose cells of 4 to 32 steps fit one
#: 64-row call together, and non-dyadic, whose ratios are not powers of two.
PASS_GRIDS = [((0.25, 0.125, 0.0625, 0.03125), 1.0),
              ((0.3, 0.2, 0.12, 0.1), 1.2)]


class TestOnePassPerMethod:
    """A sweep runs each method in one pass over all its step sizes."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_records_equal_per_cell_propagate_for_any_block(self, data):
        # A small BLOCK cuts cells into several segments; a larger one packs
        # several cells into one call.  Either way each record is bit for
        # bit that of the cell propagated alone.
        block = data.draw(st.integers(min_value=1, max_value=64))
        signal = data.draw(st.sampled_from(PRESET_NAMES))
        names = data.draw(st.lists(st.sampled_from(PASS_METHODS), min_size=1,
                                   max_size=4, unique=True))
        dts, horizon = data.draw(st.sampled_from(PASS_GRIDS))
        dts = tuple(sorted(data.draw(st.sets(st.sampled_from(dts),
                                             min_size=1)), reverse=True))
        cfg = SweepConfig(signal=signal,
                          methods=tuple(parse_method(m) for m in names),
                          step_sizes=dts, horizon=horizon)
        sig = preset(signal)
        truth = exact_attitude(sig, horizon)
        # Any fixed attitude serves as the reference of a bitwise check.
        ref = (truth @ exact_attitude(sig, 0.0).T if truth is not None
               else dcm_from_rotation_vector(np.array([0.1, -0.2, 0.3])))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_batch, "BLOCK", block)
            patch.setattr(bench, "reference_attitude", lambda *args: ref)
            report = run_sweep(cfg)
            assert len(report.records()) == len(cfg.methods) * len(dts)
            for rec in report.records():
                final = propagate(rec.method, sig, rec.dt, horizon)
                assert rec.final_error_angle == \
                    attitude_error_angle(final, ref)

    def test_failing_cell_inside_a_packed_call(self, monkeypatch):
        # rk4omega at dt = 8 leaves the Jacobian's domain.  With BLOCK = 8
        # its 2 steps share a call with the 4 steps at dt = 4: the call
        # raises, its segments run again one at a time, and the failure
        # reads as it does when the cell has a call to itself.
        cfg = SweepConfig(signal="fourier3",
                          methods=(MethodId(MethodKind.FWD_EULER_OMEGA),
                                   MethodId(MethodKind.RK4_OMEGA)),
                          step_sizes=(8.0, 4.0, 2.0, 1.0), horizon=16.0)
        alone = run_sweep(cfg).summaries[1].failures
        calls = []
        rate_steps = _batch.rate_steps

        def spied(samples, dts, tab, mode, segments):
            calls.append([(dts[c], k1 - k0) for c, k0, k1 in segments])
            return rate_steps(samples, dts, tab, mode, segments)

        monkeypatch.setattr(_batch, "BLOCK", 8)
        monkeypatch.setattr(_batch, "rate_steps", spied)
        euler, rk4 = run_sweep(cfg).summaries
        # rk4omega's packed call, then its two segments alone, once.
        retried = [[(8.0, 2), (4.0, 4)], [(8.0, 2)], [(4.0, 4)]]
        assert any(calls[i:i + 3] == retried for i in range(len(calls)))
        assert calls.count([(8.0, 2)]) == 1
        assert rk4.failures == alone
        [(dt, reason)] = rk4.failures
        assert dt == 8.0
        assert reason.startswith("StageEvaluationError: stage 3 at t=8.0: "
                                 "angle ")
        assert [r.dt for r in euler.records] == [8.0, 4.0, 2.0, 1.0]
        assert [r.dt for r in rk4.records] == [4.0, 2.0, 1.0]
        ref = reference_attitude(preset("fourier3"), 0.0, 16.0, 1e-12)
        for rec in euler.records + rk4.records:
            final = propagate(rec.method, preset("fourier3"), rec.dt, 16.0)
            assert rec.final_error_angle == attitude_error_angle(final, ref)

    def test_fold_failure_fails_only_its_cell(self, monkeypatch):
        # A NaN rotation vector makes its segment's product NaN, and the
        # fold onto the cell raises NotNearOrthogonal.  The cell fails; the
        # cells that share its call keep their records bit for bit.
        cfg = SweepConfig(signal="coning",
                          methods=(MethodId(MethodKind.RK4_OMEGA),
                                   MethodId(MethodKind.SINGLE_SPEED_THETA2)),
                          step_sizes=DEFAULT_DTS[1:5], horizon=1.0)
        want = run_sweep(cfg).summaries
        rate_steps = _batch.rate_steps
        calls = []

        def poisoned(samples, dts, tab, mode, segments):
            calls.append(len(segments))
            phi = rate_steps(samples, dts, tab, mode, segments)
            at = 0
            for c, k0, k1 in segments:
                if dts[c] == 0.0625:
                    phi[at + 1, 0] = np.nan
                at += k1 - k0
            return phi

        monkeypatch.setattr(_batch, "rate_steps", poisoned)
        got = run_sweep(cfg).summaries
        assert calls == [4]
        [(dt, reason)] = got[0].failures
        assert dt == 0.0625 and reason.startswith("NotNearOrthogonal: ")
        assert got[1].failures == ()

        def data(records):
            return [dataclasses.replace(r, wall_time=0.0) for r in records]

        assert data(got[0].records) == data(
            r for r in want[0].records if r.dt != 0.0625)
        assert data(got[1].records) == data(want[1].records)

    def test_non_finite_increments_fail_their_cells(self, monkeypatch):
        # The engine's own finiteness check raises a ConingKitError, which
        # the sweep records per cell instead of stopping.
        assert issubclass(NonFiniteIncrement, ConingKitError)
        assert issubclass(NonFiniteIncrement, ValueError)

        def infinite(signal, t0, t1):
            return np.full((t0.size, 3), np.inf)

        monkeypatch.setattr(_batch, "synth_many", infinite)
        cfg = SweepConfig(signal="coning",
                          methods=tuple(parse_method(m) for m in (
                              "theta2", "rk4theta2", "fwdeuler", "theta3",
                              "twospeed4")),
                          step_sizes=(0.25, 0.125), horizon=1.0)
        theta2, rk4theta2, euler, theta3, two_speed = run_sweep(cfg).summaries
        reason = "NonFiniteIncrement: increments must be finite"
        for summary in (theta2, rk4theta2, theta3, two_speed):
            assert summary.records == ()
            assert summary.failures == ((0.25, reason), (0.125, reason))
        assert len(euler.records) == 2 and euler.failures == ()

    def test_wall_time_is_each_cells_share_of_its_pass(self):
        cfg = SweepConfig(signal="coning",
                          methods=tuple(parse_method(m) for m in (
                              "rk4omega", "theta3", "twospeed4")),
                          step_sizes=DEFAULT_DTS[:4], horizon=1.0)
        start = time.perf_counter()
        report = run_sweep(cfg)
        wall = time.perf_counter() - start
        for summary in report.summaries:
            assert all(r.wall_time > 0.0 for r in summary.records)
            per_step = [r.wall_time / r.steps for r in summary.records]
            assert per_step == pytest.approx([per_step[0]] * len(per_step),
                                             rel=1e-12)
        assert sum(r.wall_time for r in report.records()) <= wall
