"""The array engine against the per-call functions it replaces.

Each array function is checked row by row against its scalar oracle.
Where the array code runs the scalar function's kernel on columns (the
polynomial rate, the coning corrections, the small-angle DCM branch) the
results must be equal.  Where numpy's sin, cos or 3x3 products stand in
for the scalar ones, or the composition is regrouped, the difference is
bounded relative to the magnitude of the compared quantity:

- ``ROW_TOL`` for one evaluation (rate, increment, DCM, RK step):
  a few ulp observed, 1e-14 allowed;
- ``CHAIN_TOL`` per product for a chain of rotations, on the attitude
  error angle.

How many stage times share one ``omega_many`` call changes nothing: the
batched results equal those of one call per stage time bit for bit.

A kernel shared by both sides cannot show its own error in those
comparisons, so ``TestAgainstNumpy`` also holds each array function to a
numpy formulation of its own, within ``ROW_TOL``.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit import _batch, bench, trajectory
from coning_kit.bench import (MethodId, MethodKind, SweepConfig, propagate,
                              run_sweep)
from coning_kit.cli import parse_method
from coning_kit.coning import (MILLER, RK4_THETA3, miller_single_speed,
                               rk4_theta2, rk4_theta3, two_speed_classic)
from coning_kit.errors import (AngleOutOfDomain, NotNearOrthogonal,
                               StageEvaluationError)
from coning_kit.kinematics import JacobianMode, jinv
from coning_kit.rate_model import (MeasurementWindow, RatePolynomial,
                                   eval_rate)
from coning_kit.rk import (integrate_attitude_step, rk_step,
                           tableau_explicit_midpoint,
                           tableau_forward_euler, tableau_rk3, tableau_rk4,
                           tableau_rk6)
from coning_kit.so3 import (DRIFT_TOL, SMALL_ANGLE, attitude_error_angle,
                            compose, dcm_from_rotation_vector,
                            orthogonality_defect, wedge)
from coning_kit.trajectory import (ConingRotationVector, FourierRate,
                                   PolynomialRate, omega_at, preset,
                                   synth_delta_theta)

from conftest import cone_rate_oracle

ROW_TOL = 1e-14
CHAIN_TOL = 1e-15

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

TABLEAUX = (tableau_forward_euler, tableau_explicit_midpoint, tableau_rk3,
            tableau_rk4, tableau_rk6)


def random_signal(rng, kind):
    if kind == "poly":
        q = int(rng.integers(1, 7))
        return PolynomialRate(RatePolynomial(rng.uniform(-1.0, 1.0, (q, 3))))
    if kind == "fourier":
        return FourierRate(tuple(
            (rng.uniform(-1.0, 1.0, 3), rng.uniform(0.1, 10.0),
             rng.uniform(-3.0, 3.0)) for _ in range(3)))
    return ConingRotationVector(rng.uniform(1e-3, 1.5), rng.uniform(0.1, 20.0))


def assert_rows_close(got, want, tol=ROW_TOL):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= tol * scale


def rate_steps(signal, t0, dts, tab, mode, segments):
    """``_batch.rate_steps`` of one pass that keeps no samples."""
    return _batch.rate_steps(_batch.RateSamples(signal, t0), dts, tab, mode,
                             segments)


def chain_product(mats):
    """``mats[n-1] @ ... @ mats[0]`` in the pairwise tree of one segment,
    each level multiplying neighbouring pairs and carrying an odd last one:
    the per-segment product that ``_batch.chain_products`` shares."""
    while len(mats) > 1:
        prod = mats[1::2] @ mats[:len(mats) - 1:2]
        mats = np.concatenate([prod, mats[-1:]]) if len(mats) % 2 else prod
    return mats[0]


def product(mats):
    """The engine's product of one segment."""
    [prod] = _batch.chain_products(mats, [len(mats)])
    return prod


def rows_of(dphi):
    """Producer of the rows of ``dphi`` for ``compose_steps``'s segments."""
    return lambda segments: np.concatenate(
        [dphi[k0:k1] for _, k0, k1 in segments])


def random_rotation_vectors(rng, n, max_angle):
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    return direction * rng.uniform(0.0, max_angle, n)[:, None]


SIGNAL_KINDS = ("poly", "fourier", "coning")

#: The default 8-method coning sweep; its truth is closed form, so only the
#: methods sample the rate.
DEFAULT_CONING = SweepConfig(
    signal="coning",
    methods=tuple(parse_method(m) for m in (
        "fwdeuler,exmid,rk3omega,rk4omega,theta2,theta3,rk4theta2,"
        "twospeed4").split(",")),
    step_sizes=tuple(0.25 * 2.0 ** -k for k in range(7)), horizon=4.0)


class TestSignals:
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_omega_many_matches_omega_at(self, kind, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        t = rng.uniform(-5.0, 5.0, 16)
        want = np.array([omega_at(signal, x) for x in t])
        got = _batch.omega_many(signal, t)
        if kind == "poly":
            assert np.array_equal(got, want)
        else:
            assert_rows_close(got, want)

    @pytest.mark.parametrize("cone_angle", [1e-3, 9e-3, 1.1e-2, 0.05, 1.5])
    def test_cone_rate_from_two_scalars(self, cone_angle):
        # The cone's closed-form rate comes from the signal's two scalars,
        # not from a Jacobian of phi row by row.  From small cone angles,
        # where 1 - cos(alpha) would cancel, to large ones it holds
        # ROW_TOL relative against J(phi) @ phi_dot solved from jinv.
        signal = ConingRotationVector(cone_angle, 10.0)
        t = np.linspace(-3.0, 3.0, 64)
        want = np.array([cone_rate_oracle(signal, x) for x in t.tolist()])
        assert_rows_close(_batch.omega_many(signal, t), want)

    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_synth_many_matches_synth_delta_theta(self, kind, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        t0 = rng.uniform(-5.0, 5.0, 8)
        t1 = t0 + 10.0 ** rng.uniform(-3.0, 0.3, 8)
        want = np.array([synth_delta_theta(signal, a, b)
                         for a, b in zip(t0, t1)])
        got = _batch.synth_many(signal, t0, t1)
        for g, w in zip(got, want):
            if kind == "poly":
                assert np.array_equal(g, w)
            else:
                assert_rows_close(g, w)


class TestBatching:
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_results_do_not_depend_on_the_batch(self, kind, seed):
        # BLOCK = 1 evaluates one stage time per call; a huge BLOCK
        # evaluates all of them in one.
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        n = int(rng.integers(1, 40))
        t0 = rng.uniform(-5.0, 5.0, n)
        t1 = t0 + 10.0 ** rng.uniform(-3.0, 0.7, n)
        dt = float(10.0 ** rng.uniform(-3.0, -1.5))
        results = []
        for block in (1, 10 ** 6):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_batch, "BLOCK", block)
                results.append(
                    [_batch.synth_many(signal, t0, t1)]
                    + [rate_steps(signal, 0.5, [dt], factory(), mode,
                                  [(0, 3, 3 + n)])
                       for factory in TABLEAUX for mode in JacobianMode])
        for one, batched in zip(*results):
            assert np.array_equal(one, batched)

    @pytest.mark.parametrize("signal", ["coning", "fourier3"])
    def test_default_sweep_calls_stay_within_the_row_bound(self, signal,
                                                           monkeypatch):
        # Batching may not grow the working set, which drives peak memory:
        # no rate or increment call takes more rows than the largest
        # unbatched call, a block of steps or the increments of one,
        # BLOCK + 2 for theta3.
        rows = []

        def counted(name):
            original = getattr(_batch, name)

            def call(sig, t, *rest):
                rows.append(t.size)
                return original(sig, t, *rest)

            monkeypatch.setattr(_batch, name, call)

        counted("omega_many")
        counted("synth_many")
        run_sweep(SweepConfig(
            signal=signal,
            methods=tuple(parse_method(m) for m in (
                "fwdeuler,exmid,rk3omega,rk4omega,theta2,theta3,rk4theta2,"
                "twospeed4").split(",")),
            step_sizes=tuple(0.25 * 2.0 ** -k for k in range(7)),
            horizon=4.0))
        assert rows and max(rows) <= _batch.BLOCK + 2

    def test_default_sweep_synthesizes_each_interval_once(self, monkeypatch):
        # theta2, rk4theta2 and theta3 at dt read the intervals of width dt,
        # twospeed4 at dt those of width dt / 4, which theta2 reads at
        # dt / 4 when that step size is in the sweep.  The grids hold 8194
        # intervals; synthesized per cell they were 14260.  A pass that
        # lacks grids synthesizes them in one packed run: 2046 intervals
        # for theta2, then 6148 in three calls for twospeed4, where one run
        # per grid took ten calls.
        intervals = []
        synth_many = _batch.synth_many

        def counted(sig, t0, t1):
            intervals.append(t0.size)
            return synth_many(sig, t0, t1)

        monkeypatch.setattr(_batch, "synth_many", counted)
        run_sweep(DEFAULT_CONING)
        assert sum(intervals) <= 8300
        assert intervals == [2046, 2050, 2050, 2048]

    def test_default_sweep_samples_each_node_time_once(self, monkeypatch):
        # The rate methods read the rate at the nodes {0}, {0, 1/2},
        # {0, 1/2, 1} and {0, 1/2, 1} of each of the 2032 steps: 6096 node
        # times in three calls, one per node, where sampling them per
        # method took 18288 rows.
        rows = []
        omega_many = _batch.omega_many

        def counted(sig, t):
            rows.append(t.size)
            return omega_many(sig, t)

        monkeypatch.setattr(_batch, "omega_many", counted)
        run_sweep(DEFAULT_CONING)
        assert rows == [2032, 2032, 2032]

    def test_no_grid_outlives_its_last_reader(self, monkeypatch):
        # Each grid a method's pass finds must still be read by this method
        # or a later one; none may be left once the sweep is done.
        cfg = SweepConfig(
            signal="poly3",
            methods=tuple(parse_method(m) for m in (
                "theta2", "twospeed2", "theta3", "twospeed4", "rk4omega")),
            step_sizes=tuple(0.5 * 2.0 ** -k for k in range(5)),
            horizon=2.0)
        last_reader = {(dt / (m.minor_steps or 1),
                        round(cfg.horizon / dt) * (m.minor_steps or 1)): j
                       for j, m in enumerate(cfg.methods)
                       for dt in cfg.step_sizes if not m.uses_rate_samples}
        seen = []
        propagate_pass = bench._propagate

        def checked(method, signal, cells, mode, grids, samples):
            for key in grids:
                assert last_reader[key] >= cfg.methods.index(method)
            seen.append(grids)
            return propagate_pass(method, signal, cells, mode, grids, samples)

        monkeypatch.setattr(bench, "_propagate", checked)
        run_sweep(cfg)
        assert len(seen) == 5 and seen[-1] == {}

    def test_no_rate_sample_outlives_its_last_reader(self, monkeypatch):
        # Node 1 has one reader, rk3omega, and is never kept; node 1/2 is
        # last read by exmid, node 0 by fwdeuler.  Each node time of each
        # cell is sampled once, and nothing is left after the sweep.  The
        # cone's truth is closed form, so no reference samples the rate.
        cfg = SweepConfig(
            signal="coning",
            methods=tuple(parse_method(m) for m in (
                "rk3omega", "exmid", "theta2", "fwdeuler", "twospeed2")),
            step_sizes=tuple(0.5 * 2.0 ** -k for k in range(5)),
            horizon=2.0)
        last_reader = {0.0: 3, 0.5: 1}
        keep = [{0.0, 0.5}, {0.0}, {0.0}, set(), set()]
        seen, times = [], []
        propagate_pass = bench._propagate
        omega_many = _batch.omega_many

        def checked(method, signal, cells, mode, grids, samples):
            j = cfg.methods.index(method)
            assert all(last_reader[c] >= j for c, _ in samples.kept)
            assert samples.keep == keep[j]
            seen.append(samples)
            return propagate_pass(method, signal, cells, mode, grids, samples)

        def counted(sig, t):
            times.extend(t.tolist())
            return omega_many(sig, t)

        monkeypatch.setattr(bench, "_propagate", checked)
        monkeypatch.setattr(_batch, "omega_many", counted)
        run_sweep(cfg)
        assert len(seen) == 5 and seen[-1].kept == {}
        steps = sum(round(cfg.horizon / dt) for dt in cfg.step_sizes)
        assert len(times) == 3 * steps

    def test_a_call_reads_only_rows_of_its_own_segments(self):
        # Two passes over the same cells cut into different calls: the
        # second samples its own calls, keeps them beside the first's, and
        # each reads the rate at its own step times.
        signal = preset("fourier3")
        samples = _batch.RateSamples(signal, 0.25)
        samples.keep = frozenset({0.0, 0.5})
        tab = tableau_explicit_midpoint()
        dts = [0.5, 0.25]
        for block in (8, 2):
            _batch.compose_steps(partial(
                _batch.rate_steps, samples, dts, tab,
                JacobianMode.EXACT_CLOSED_FORM), [4, 8], block)
        assert len(samples.kept) == 2 * (2 + 6)
        for (c, call), rates in samples.kept.items():
            t = [0.25 + k * dt + dt * c
                 for dt, k0, k1 in call for k in range(k0, k1)]
            assert np.array_equal(rates, _batch.omega_many(
                signal, np.array(t)).T)
        samples.drop({0.5})
        assert {c for c, _ in samples.kept} == {0.0}


class TestIncrementGrid:
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_chunked_fill_equals_one_synthesis(self, kind, seed):
        # Grids of several widths are synthesized in one packed run of
        # chunks that cross grid boundaries; each grid equals one synthesis
        # of its own intervals.
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        keys = [(float(10.0 ** rng.uniform(-3.0, 0.0)),
                 int(rng.integers(0, 30)))
                for _ in range(int(rng.integers(1, 4)))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_batch, "BLOCK", int(rng.integers(1, 8)))
            grids = _batch.increment_grids(signal, keys)
        for (h, n), grid in zip(keys, grids):
            k = np.arange(-1, n + 1, dtype=float)
            want = _batch.synth_many(signal, k * h, (k + 1.0) * h)
            assert grid.h == h
            assert np.array_equal(grid.values, want)
            assert np.array_equal(grid.span(-1, n + 1), want)


class TestRateSteps:
    @pytest.mark.parametrize("mode", list(JacobianMode))
    @pytest.mark.parametrize("factory", TABLEAUX)
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_matches_integrate_attitude_step(self, kind, factory, mode, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        tab = factory()
        t0 = float(rng.uniform(-1.0, 1.0))
        dt = float(10.0 ** rng.uniform(-3.0, -1.5))
        k0 = int(rng.integers(0, 10))
        k1 = k0 + int(rng.integers(1, 12))
        got = rate_steps(signal, t0, [dt], tab, mode, [(0, k0, k1)])
        for k, row in zip(range(k0, k1), got):
            want = integrate_attitude_step(
                lambda t: omega_at(signal, t), t0 + k * dt, dt, tab, mode)
            assert_rows_close(row, want)

    @pytest.mark.parametrize("factory", TABLEAUX)
    def test_domain_error_at_the_scalar_loops_first_failure(self, factory):
        # The rate grows with t, so later steps leave the Jacobian's domain
        # at earlier stages; the engine must name the step and stage at
        # which a step-by-step loop stops first.
        signal = PolynomialRate(RatePolynomial(
            np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])))
        tab = factory()
        dt = 0.5
        expected = None
        for k in range(40):
            try:
                integrate_attitude_step(lambda t: omega_at(signal, t),
                                        k * dt, dt, tab)
            except StageEvaluationError as exc:
                expected = exc
                break
        if tab.n == 1:
            # Forward Euler evaluates only at phi = 0, never out of domain.
            assert expected is None
            rate_steps(signal, 0.0, [dt], tab, JacobianMode.EXACT_CLOSED_FORM,
                       [(0, 0, 40)])
            return
        assert isinstance(expected.__cause__, AngleOutOfDomain)
        with pytest.raises(StageEvaluationError) as info:
            rate_steps(signal, 0.0, [dt], tab, JacobianMode.EXACT_CLOSED_FORM,
                       [(0, 0, 40)])
        assert isinstance(info.value.__cause__, AngleOutOfDomain)
        assert (info.value.stage, info.value.time) == \
            (expected.stage, expected.time)
        assert str(info.value) == str(expected)

    def test_domain_error_names_a_plain_float_time(self):
        # Stage times are computed from numpy scalars; the message must
        # print t=8.0, not t=np.float64(8.0), on both paths.
        signal = preset("fourier3")
        tab = tableau_rk4()
        with pytest.raises(StageEvaluationError) as scalar:
            integrate_attitude_step(lambda t: omega_at(signal, t), 0.0, 8.0,
                                    tab)
        with pytest.raises(StageEvaluationError) as array:
            rate_steps(signal, 0.0, [8.0], tab,
                       JacobianMode.EXACT_CLOSED_FORM, [(0, 0, 2)])
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value).startswith("stage 3 at t=8.0: angle ")
        assert type(array.value.time) is float


class TestCorrections:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_corrections_equal_their_scalar_functions(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        dt = float(10.0 ** rng.uniform(-3.0, 0.0))
        inc = rng.uniform(-0.5, 0.5, (n + 2, 3))
        prior, curr, nxt = inc[:-2], inc[1:-1], inc[2:]
        miller = _batch.cross_sum(MILLER, prior, curr)
        theta2 = _batch.rk4_theta2(prior, curr, dt)
        theta3 = _batch.cross_sum(RK4_THETA3, prior, curr, nxt)
        for i in range(n):
            assert np.array_equal(
                miller[i], miller_single_speed(prior[i], curr[i]).delta_phi)
            window = MeasurementWindow(np.stack([prior[i], curr[i]]), dt)
            assert np.array_equal(theta2[i], rk4_theta2(window).delta_phi)
            window = MeasurementWindow(inc[i:i + 3], dt)
            assert np.array_equal(theta3[i], rk4_theta3(window).delta_phi)

    @given(seed=seeds, minor=st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_two_speed_equals_two_speed_classic(self, seed, minor):
        rng = np.random.default_rng(seed)
        windows = rng.uniform(-0.5, 0.5, (5, minor, 3))
        before = rng.uniform(-0.5, 0.5, (5, 3))
        got = _batch.two_speed(windows, before)
        for i in range(5):
            assert np.array_equal(got[i],
                                  two_speed_classic(list(windows[i]),
                                                    before[i]))

    @pytest.mark.parametrize("name", ["miller", "rk4_theta2", "rk4_theta3",
                                      "two_speed"])
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    def test_step_producers_match_the_scalar_loop(self, name, kind):
        # Steps 3..9, so the warm-up increments come from inside the run.
        rng = np.random.default_rng(604)
        signal = random_signal(rng, kind)
        dt, minor, k0, k1 = 0.1, 3, 3, 10

        def inc(k, h=dt):
            return synth_delta_theta(signal, k * h, (k + 1) * h)

        want = []
        for k in range(k0, k1):
            if name == "miller":
                want.append(miller_single_speed(inc(k - 1), inc(k)).delta_phi)
            elif name == "rk4_theta2":
                window = MeasurementWindow(np.stack([inc(k - 1), inc(k)]), dt)
                want.append(rk4_theta2(window).delta_phi)
            elif name == "rk4_theta3":
                window = MeasurementWindow(
                    np.stack([inc(k - 1), inc(k), inc(k + 1)]), dt)
                want.append(rk4_theta3(window).delta_phi)
            else:
                # Minor interval j of step k is interval k minor + j of
                # width dt / minor, at the grid's times.
                sub = dt / minor
                want.append(two_speed_classic(
                    [inc(k * minor + j, sub) for j in range(minor)],
                    inc(k * minor - 1, sub)))
        segments = [(0, k0, k1)]
        if name == "two_speed":
            grids = _batch.increment_grids(signal, [(dt / minor, k1 * minor)])
            got = _batch.two_speed_steps(grids, minor, segments)
        else:
            grids = _batch.increment_grids(signal, [(dt, k1)])
            got = (_batch.rk4_theta2_steps(grids, segments)
                   if name == "rk4_theta2" else _batch.cross_sum_steps(
                       MILLER if name == "miller" else RK4_THETA3, grids,
                       segments))
        for g, w in zip(got, want):
            if kind == "poly":
                assert np.array_equal(g, w)
            else:
                assert_rows_close(g, w)


@pytest.mark.parametrize("minor", [3, 5, 7])
@pytest.mark.parametrize("dt", [0.1, 0.05])
@pytest.mark.parametrize("name", ["poly3", "fourier3", "coning"])
def test_two_speed_within_a_rounding_of_the_scalar_loop_times(name, dt,
                                                              minor):
    # At these step sizes k dt + j dt / m and the grid's (k m + j) dt / m
    # differ in the last bit for some intervals.  Moving an endpoint by one
    # rounding stays inside the chain tolerance of a per-call loop on the
    # k dt + j dt / m times.
    signal, horizon = preset(name), 3.0
    n = round(horizon / dt)
    sub = dt / minor

    def inc(t0, t1):
        return synth_delta_theta(signal, t0, t1)

    want = np.eye(3)
    before = inc(-sub, 0.0)
    for k in range(n):
        window = [inc(k * dt + j * sub, k * dt + (j + 1) * sub)
                  for j in range(minor)]
        dphi = two_speed_classic(window, before)
        want = compose(dcm_from_rotation_vector(dphi), want)
        before = window[-1]
    got = propagate(MethodId(MethodKind.TWO_SPEED_CLASSIC, minor), signal,
                    dt, horizon)
    assert attitude_error_angle(got, want) <= CHAIN_TOL * n


@pytest.mark.parametrize("method", ["theta2", "rk4theta2", "theta3",
                                    "twospeed4"])
def test_non_finite_increments_refused_like_measurement_window(
        method, monkeypatch):
    # No signal gives infinite increments (RatePolynomial refuses infinite
    # coefficients), so the synthesis the engine calls returns them.
    with pytest.raises(ValueError, match="finite"):
        MeasurementWindow(np.array([[np.inf, 0.0, 0.0], [np.inf, 0.0, 0.0]]),
                          0.25)

    def infinite(signal, t0, t1):
        return np.full((t0.size, 3), np.inf)

    monkeypatch.setattr(_batch, "synth_many", infinite)
    with pytest.raises(ValueError, match="finite"):
        propagate(parse_method(method), preset("poly3"), 0.25, 1.0)


class TestComposer:
    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_dcm_many_matches_on_both_sides_of_small_angle(self, seed):
        rng = np.random.default_rng(seed)
        small = random_rotation_vectors(rng, 8, 0.99 * SMALL_ANGLE)
        large = random_rotation_vectors(rng, 8, 3.0)
        large[0] *= 1.01 * SMALL_ANGLE / np.linalg.norm(large[0])
        for phi, exact in ((small, True), (large, False)):
            got = _batch.dcm_many(phi)
            for g, p in zip(got, phi):
                want = dcm_from_rotation_vector(p)
                if exact:
                    assert np.array_equal(g, want)
                else:
                    assert_rows_close(g, want)

    @given(seed=seeds, n=st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_pairwise_product_matches_sequential_compose(self, seed, n):
        rng = np.random.default_rng(seed)
        mats = _batch.dcm_many(random_rotation_vectors(rng, n, 0.3))
        want = np.eye(3)
        for m in mats:
            want = compose(m, want)
        got = product(mats.copy())
        assert attitude_error_angle(got, want) <= CHAIN_TOL * n

    @given(seed=seeds, lengths=st.lists(
        st.integers(min_value=1, max_value=_batch.BLOCK), min_size=1,
        max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_one_tree_equals_the_tree_of_each_segment(self, seed, lengths):
        # Segments of any length and order share one tree, padded with
        # identities; each product is bit for bit its own segment's tree.
        rng = np.random.default_rng(seed)
        for lengths in (lengths, [3, 2048, 1, 1000, 5, 6, 7]):
            mats = _batch.dcm_many(
                random_rotation_vectors(rng, sum(lengths), 0.3))
            ends = np.cumsum(lengths).tolist()
            got = _batch.chain_products(mats, lengths)
            assert len(got) == len(lengths)
            for prod, n, end in zip(got, lengths, ends):
                assert np.array_equal(prod, chain_product(mats[end - n:end]))

    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_compose_steps_folds_blocks_in_order(self, n):
        rng = np.random.default_rng(605)
        dphi = random_rotation_vectors(rng, n, 0.3)
        want = np.eye(3)
        for row in dphi:
            want = compose(dcm_from_rotation_vector(row), want)
        for block in (1, 4, 2048):
            [got] = _batch.compose_steps(rows_of(dphi), [n], block)
            assert attitude_error_angle(got, want) <= CHAIN_TOL * n

    @given(seed=seeds, block=st.integers(min_value=1, max_value=16),
           steps=st.lists(st.integers(min_value=1, max_value=40),
                          min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_a_pass_of_several_cells_equals_each_cell_alone(self, seed,
                                                            block, steps):
        # Segments of several cells share calls of at most ``block`` rows;
        # each cell's attitude is bitwise the one of a pass of its own.
        rng = np.random.default_rng(seed)
        dphi = [random_rotation_vectors(rng, n, 0.3) for n in steps]
        rows = []

        def produce(segments):
            rows.append(sum(k1 - k0 for _, k0, k1 in segments))
            return np.concatenate([dphi[c][k0:k1] for c, k0, k1 in segments])

        together = _batch.compose_steps(produce, steps, block)
        assert max(rows) <= block
        assert len(rows) <= sum(-(-n // block) for n in steps)
        for cell, n in zip(dphi, steps):
            [alone] = _batch.compose_steps(rows_of(cell), [n], block)
            assert np.array_equal(together.pop(0), alone)

    def test_drift_is_projected(self):
        # Scaled by 1 + 1e-9, each factor's defect exceeds the threshold.
        # The tree leaves the block's product as it is; the fold projects it
        # back onto SO(3).
        rng = np.random.default_rng(606)
        mats = _batch.dcm_many(random_rotation_vectors(rng, 8, 0.3))
        block = product(mats * (1.0 + 1e-9))
        assert orthogonality_defect(block) > DRIFT_TOL
        got = compose(block, np.eye(3))
        assert orthogonality_defect(got) <= DRIFT_TOL
        assert attitude_error_angle(got, product(mats)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_not_near_orthogonal_raised_like_compose(self, n):
        rng = np.random.default_rng(607)
        mats = _batch.dcm_many(random_rotation_vectors(rng, n, 0.3)) * 1.2
        with pytest.raises(NotNearOrthogonal):
            t = np.eye(3)
            for m in mats:
                t = compose(m, t)
        with pytest.raises(NotNearOrthogonal):
            compose(product(mats), np.eye(3))

    @pytest.mark.parametrize("n", [2, 5])
    def test_nan_entry_raises(self, n):
        rng = np.random.default_rng(608)
        mats = _batch.dcm_many(random_rotation_vectors(rng, n, 0.3))
        mats[n - 1, 1, 1] = np.nan
        with pytest.raises(NotNearOrthogonal):
            compose(product(mats), np.eye(3))
        # Through the composer: a NaN rotation vector in the second block
        # makes the cell's outcome the error its fold raises.
        dphi = random_rotation_vectors(rng, 2 * n, 0.3)
        dphi[n + 1, 0] = np.nan
        [got] = _batch.compose_steps(rows_of(dphi), [2 * n], n)
        assert isinstance(got, NotNearOrthogonal)

    @given(seed=seeds, max_angle=st.sampled_from([1e-6, 1e-3, 0.3, 3.1]))
    @settings(max_examples=25, deadline=None)
    def test_block_product_stays_inside_the_drift_rule(self, seed,
                                                       max_angle):
        # The tree has no drift control of its own: a full block's product
        # must stay an order of magnitude inside the tolerance of the fold.
        rng = np.random.default_rng(seed)
        phi = random_rotation_vectors(rng, _batch.BLOCK, max_angle)
        mats = _batch.dcm_many(phi)
        assert orthogonality_defect(product(mats)) <= \
            DRIFT_TOL / 10


class TestAgainstNumpy:
    """Each array function against numpy's cross product, matrix products
    and sine, none of which runs a kernel of the package."""

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_corrections(self, seed):
        rng = np.random.default_rng(seed)
        dt = float(10.0 ** rng.uniform(-3.0, 0.0))
        inc = rng.uniform(-0.5, 0.5, (14, 3))
        prior, curr, nxt = inc[:-2], inc[1:-1], inc[2:]
        # rk4_theta2 equals Miller's correction to a few ulp.
        miller = curr + np.cross(prior, curr) / 12.0
        assert_rows_close(_batch.cross_sum(MILLER, prior, curr), miller)
        assert_rows_close(_batch.rk4_theta2(prior, curr, dt), miller)
        beta = (np.cross(nxt, prior)
                + 13.0 * np.cross(prior - nxt, curr)) / 288.0
        assert_rows_close(_batch.cross_sum(RK4_THETA3, prior, curr, nxt),
                          curr + beta)

    @given(seed=seeds, minor=st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_two_speed(self, seed, minor):
        rng = np.random.default_rng(seed)
        windows = rng.uniform(-0.5, 0.5, (5, minor, 3))
        before = rng.uniform(-0.5, 0.5, (5, 3))
        theta, half, twelfth = (np.zeros((5, 3)) for _ in range(3))
        prev = before
        for j in range(minor):
            d = windows[:, j]
            half = half + np.cross(theta, d)
            twelfth = twelfth + np.cross(prev, d)
            theta, prev = theta + d, d
        assert_rows_close(_batch.two_speed(windows, before),
                          theta + 0.5 * half + twelfth / 12.0)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_dcm_many(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_rotation_vectors(rng, 8, 3.0)
        for got, p in zip(_batch.dcm_many(phi), phi):
            a, w = np.linalg.norm(p), wedge(p)
            want = (np.eye(3) - math.sin(a) / a * w
                    + (1.0 - math.cos(a)) / (a * a) * (w @ w))
            assert_rows_close(got, want)

    @pytest.mark.parametrize("kind", ["poly", "fourier"])
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_omega_many(self, kind, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        t = rng.uniform(-5.0, 5.0, 16)
        if kind == "poly":
            want = np.array([eval_rate(signal.model, x) for x in t])
        else:
            want = sum(amp * np.sin(freq * t + phase)[:, None]
                       for amp, freq, phase in signal.terms)
        assert np.array_equal(_batch.omega_many(signal, t), want)

    @pytest.mark.parametrize("mode", list(JacobianMode))
    @pytest.mark.parametrize("factory", TABLEAUX)
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_rate_steps(self, factory, mode, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, "fourier")
        tab = factory()
        dt = float(10.0 ** rng.uniform(-3.0, -1.0))

        def f(t, phi):
            return jinv(phi, mode) @ omega_at(signal, t)

        got = rate_steps(signal, 0.0, [dt], tab, mode, [(0, 0, 6)])
        for k, row in enumerate(got):
            assert_rows_close(row, rk_step(f, k * dt, np.zeros(3), dt, tab))


def test_reference_engine_matches_the_scalar_step_loop():
    # The step-doubled reference composes sixth-order substeps; a cell of
    # its pass must give the attitude of the per-call loop.
    signal = preset("coning")
    tab = tableau_rk6()
    n, t0, t1 = 100, 0.2, 1.2
    h = (t1 - t0) / n
    want = np.eye(3)
    for k in range(n):
        dphi = integrate_attitude_step(lambda t: omega_at(signal, t),
                                       t0 + k * h, h, tab)
        want = compose(dcm_from_rotation_vector(dphi), want)
    [got] = trajectory._reference_pass(signal, t0, t1, [n])
    assert attitude_error_angle(got, want) <= CHAIN_TOL * n
