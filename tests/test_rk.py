import math
from fractions import Fraction

import numpy as np
import pytest

from coning_kit.errors import AngleOutOfDomain, StageEvaluationError
from coning_kit.kinematics import JacobianMode, jinv
from coning_kit.rk import (ButcherTableau, delta_phi_closed,
                           integrate_attitude_step, rk_step,
                           tableau_explicit_midpoint, tableau_forward_euler,
                           tableau_rk3, tableau_rk4, tableau_rk6,
                           validate_tableau)

from conftest import node_sampler

EPS = np.finfo(float).eps

ALL_TABLEAUX = [tableau_forward_euler, tableau_explicit_midpoint,
                tableau_rk3, tableau_rk4, tableau_rk6]


class TestTableaux:
    def test_forward_euler_coefficients(self):
        tab = tableau_forward_euler()
        assert tab.n == 1
        assert np.array_equal(tab.b, [1.0])
        assert np.array_equal(tab.c, [0.0])

    def test_explicit_midpoint_coefficients(self):
        tab = tableau_explicit_midpoint()
        assert np.array_equal(tab.b, [0.0, 1.0])
        assert tab.a[1, 0] == 0.5
        assert np.array_equal(tab.c, [0.0, 0.5])

    def test_rk3_coefficients(self):
        tab = tableau_rk3()
        assert np.array_equal(tab.c, [0.0, 0.5, 1.0])
        assert np.array_equal(tab.a[2], [-1.0, 2.0, 0.0])
        assert np.array_equal(tab.b, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])

    def test_rk4_coefficients(self):
        tab = tableau_rk4()
        assert np.array_equal(tab.b, [1.0 / 6.0, 1.0 / 3.0,
                                      1.0 / 3.0, 1.0 / 6.0])
        assert np.array_equal(tab.c, [0.0, 0.5, 0.5, 1.0])
        assert tab.a[1, 0] == 0.5 and tab.a[2, 1] == 0.5 and tab.a[3, 2] == 1.0

    @pytest.mark.parametrize("factory", ALL_TABLEAUX)
    def test_builtins_validate_clean(self, factory):
        assert validate_tableau(factory()) == []

    def test_bad_weight_sum_reported(self):
        tab = ButcherTableau(a=tableau_rk4().a, c=tableau_rk4().c,
                             b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
        violations = validate_tableau(tab)
        assert any("sum(b)" in v for v in violations)

    def test_bad_row_sum_reported(self):
        tab = ButcherTableau(a=tableau_rk3().a, b=tableau_rk3().b,
                             c=[0.0, 0.5, 0.9])
        violations = validate_tableau(tab)
        assert any("c[2]" in v for v in violations)

    def test_non_explicit_matrix_reported(self):
        tab = ButcherTableau(a=[[0.0, 0.5], [0.5, 0.0]],
                             b=[0.5, 0.5], c=[0.0, 0.5])
        violations = validate_tableau(tab)
        assert any("A[0][1]" in v for v in violations)

    def test_all_violations_reported_not_just_first(self):
        tab = ButcherTableau(a=[[0.0, 0.5], [0.5, 0.0]],
                             b=[0.5, 0.6], c=[0.1, 0.4])
        assert len(validate_tableau(tab)) >= 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0, 0.0])

    def test_leaves_caller_arrays_writable(self):
        rk4 = tableau_rk4()
        a, b, c = rk4.a.copy(), rk4.b.copy(), rk4.c.copy()
        tab = ButcherTableau(a=a, b=b, c=c)

        def f(t, y):
            return np.cos(t) * y

        y0 = np.array([1.0, -0.5])
        before = rk_step(f, 0.3, y0, 0.1, tab)
        assert a.flags.writeable and b.flags.writeable and c.flags.writeable
        a[:] = 1.0
        b[:] = 2.0
        c[:] = 3.0
        assert np.array_equal(rk_step(f, 0.3, y0, 0.1, tab), before)
        assert np.array_equal(tab.a, rk4.a)
        assert not tab.a.flags.writeable


class TestRkStep:
    @pytest.mark.parametrize("factory", ALL_TABLEAUX)
    def test_zero_rhs_is_identity(self, factory):
        y0 = np.array([1.5, -2.0, 0.25])
        out = rk_step(lambda t, y: np.zeros(3), 0.0, y0, 0.3, factory())
        assert np.array_equal(out, y0)

    def test_rk4_matches_degree4_taylor_exactly(self):
        # h = 0.25 makes both evaluations round identically
        h = 0.25
        out = rk_step(lambda t, y: y, 0.0, np.array([1.0]), h, tableau_rk4())
        expected = float(Fraction(1) + Fraction(h) + Fraction(h) ** 2 / 2
                         + Fraction(h) ** 3 / 6 + Fraction(h) ** 4 / 24)
        assert out[0] == expected

    def test_midpoint_quadrature_of_t(self):
        out = rk_step(lambda t, y: np.array([t]), 0.0, np.array([0.0]), 1.0,
                      tableau_explicit_midpoint())
        assert out[0] == 0.5

    @pytest.mark.parametrize("factory,order", [
        (tableau_forward_euler, 1),
        (tableau_explicit_midpoint, 2),
        (tableau_rk3, 3),
        (tableau_rk4, 4),
    ])
    def test_single_step_order_on_exponential(self, factory, order):
        tab = factory()
        hs, errs = [], []
        for k in range(3, 10):
            h = 2.0 ** -k
            out = rk_step(lambda t, y: y, 0.0, np.array([1.0]), h, tab)
            err = abs(out[0] - math.exp(h))
            if err > 1e-14:  # points in the roundoff floor break the fit
                hs.append(h)
                errs.append(err)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - (order + 1)) <= 0.2

    @pytest.mark.parametrize("factory", ALL_TABLEAUX)
    def test_never_samples_outside_step(self, factory):
        tab = factory()
        seen = []

        def f(t, y):
            seen.append(t)
            return np.array([math.sin(t)])

        t_k, dt = 1.7, 0.3
        rk_step(f, t_k, np.array([0.0]), dt, tab)
        hi = t_k + dt * float(np.max(tab.c))
        assert all(t_k <= t <= hi + 1e-15 for t in seen)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rk_step(lambda t, y: y, 0.0, np.array([1.0]), 0.0, tableau_rk4())

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="finite"):
            rk_step(lambda t, y: y, 0.0, np.array([1.0]), dt, tableau_rk4())

    def test_stage_failure_annotated_and_chained(self):
        def f(t, y):
            if t > 0.0:
                raise AngleOutOfDomain("boom")
            return np.zeros(2)

        with pytest.raises(StageEvaluationError) as info:
            rk_step(f, 0.0, np.zeros(2), 1.0, tableau_rk4())
        assert info.value.stage == 1
        assert isinstance(info.value.__cause__, AngleOutOfDomain)


class TestIntegrateAttitudeStep:
    @pytest.mark.parametrize("factory", ALL_TABLEAUX)
    def test_constant_rate_is_exact(self, factory):
        omega = np.array([0.7, 0.0, 0.0])
        dphi = integrate_attitude_step(lambda t: omega, 2.0, 0.125, factory())
        assert np.array_equal(dphi, omega * 0.125)

    def test_forward_euler_returns_scaled_first_sample(self):
        def sampler(t):
            return np.array([math.sin(t), math.cos(2 * t), t * t])

        t_k, dt = 0.9, 0.05
        dphi = integrate_attitude_step(sampler, t_k, dt,
                                       tableau_forward_euler())
        assert np.array_equal(dphi, dt * sampler(t_k))

    def test_explicit_midpoint_matches_hand_expansion(self):
        rng = np.random.default_rng(301)
        for _ in range(50):
            p1 = rng.uniform(-1.0, 1.0, 3)
            p2 = rng.uniform(-1.0, 1.0, 3)
            t_k, dt = 0.4, 0.2

            def sampler(t):
                return p1 + p2 * (t - t_k)

            engine = integrate_attitude_step(sampler, t_k, dt,
                                             tableau_explicit_midpoint())
            psi = 0.5 * dt * sampler(t_k)
            hand = dt * (jinv(psi) @ sampler(t_k + 0.5 * dt))
            assert np.max(np.abs(engine - hand)) <= 1e-15

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="finite"):
            integrate_attitude_step(lambda t: np.ones(3), 0.0, dt,
                                    tableau_rk4())

    def test_sampler_failure_propagates(self):
        def sampler(t):
            raise AngleOutOfDomain("sensor gap")

        with pytest.raises(StageEvaluationError) as info:
            integrate_attitude_step(sampler, 0.0, 0.1, tableau_rk4())
        assert isinstance(info.value.__cause__, AngleOutOfDomain)


def quadratic_sampler(coeffs):
    """Smooth quadratic rate signal with O(1) coefficients."""

    def sampler(t):
        return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t

    return sampler


def closed_on_nodes(factory, w0, wm, w1, dt):
    """``delta_phi_closed`` of ``factory``'s tableau on the rates at t = 0,
    dt/2, dt."""
    return delta_phi_closed(factory(), node_sampler((w0, wm, w1)), dt)


class TestClosedForms:
    def test_constant_rate(self):
        w = np.array([0.3, -0.6, 0.9])
        for factory in (tableau_rk3, tableau_rk4):
            assert np.allclose(closed_on_nodes(factory, w, w, w, 0.2),
                               0.2 * w, rtol=0, atol=1e-17)

    def test_parallel_samples_leave_only_simpson_term(self):
        w = np.array([0.4, 0.0, 0.0])
        out3 = closed_on_nodes(tableau_rk3, w, 2.0 * w, 4.0 * w, 0.5)
        out4 = closed_on_nodes(tableau_rk4, w, 2.0 * w, 4.0 * w, 0.5)
        simpson = (0.5 / 6.0) * (w + 8.0 * w + 4.0 * w)
        assert np.array_equal(out3, simpson)
        assert np.array_equal(out4, simpson)

    def test_equal_endpoints_kill_rk4_cross_term(self):
        # The stage weights sum the first-order part in another grouping
        # than (dt/6)(2 w0 + 4 wm), so it agrees to rounding.
        w0 = np.array([0.3, -0.2, 0.5])
        wm = np.array([-0.1, 0.4, 0.2])
        out = closed_on_nodes(tableau_rk4, w0, wm, w0, 0.3)
        want = (0.3 / 6.0) * (2.0 * w0 + 4.0 * wm)
        assert np.abs(out - want).max() <= 4.0 * EPS * np.abs(want).max()

    @pytest.mark.parametrize("factory", [tableau_rk3, tableau_rk4])
    def test_matches_engine_with_approx_jacobian(self, factory):
        # the closed forms drop the solvers' third-order terms, which are
        # small only when the node samples come from a smooth signal, so
        # sample a smooth quadratic
        rng = np.random.default_rng(302)
        dt = 1e-3
        for _ in range(100):
            sampler = quadratic_sampler(rng.uniform(-1.0, 1.0, (3, 3)))
            w0, wm, w1 = (sampler(0.0), sampler(0.5 * dt), sampler(dt))
            engine = integrate_attitude_step(
                sampler, 0.0, dt, factory(), JacobianMode.THIRD_ORDER_APPROX)
            got = closed_on_nodes(factory, w0, wm, w1, dt)
            assert np.max(np.abs(got - engine)) <= 1e-9

    @pytest.mark.parametrize("factory", ALL_TABLEAUX[1:])
    def test_discrepancy_shrinks_quartically(self, factory):
        rng = np.random.default_rng(304)
        tab = factory()
        for _ in range(5):
            sampler = quadratic_sampler(rng.uniform(-1.0, 1.0, (3, 3)))
            gaps = []
            dts = [1e-1, 1e-2, 1e-3]
            for dt in dts:
                closed = delta_phi_closed(tab, lambda c: sampler(c * dt), dt)
                engine = integrate_attitude_step(
                    sampler, 0.0, dt, tab, JacobianMode.THIRD_ORDER_APPROX)
                gaps.append(np.max(np.abs(closed - engine)))
            slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
            assert slope >= 3.9

    def test_generic_form_is_forward_euler(self):
        rng = np.random.default_rng(305)
        tab = tableau_forward_euler()
        for _ in range(50):
            sampler = quadratic_sampler(rng.uniform(-1.0, 1.0, (3, 3)))
            dt = 10.0 ** rng.uniform(-3.0, 0.0)
            engine = integrate_attitude_step(
                sampler, 0.0, dt, tab, JacobianMode.THIRD_ORDER_APPROX)
            closed = delta_phi_closed(tab, lambda c: sampler(c * dt), dt)
            assert np.array_equal(closed, engine)

    def test_rejects_nonpositive_dt(self):
        w = np.zeros(3)
        with pytest.raises(ValueError):
            closed_on_nodes(tableau_rk3, w, w, w, 0.0)
        with pytest.raises(ValueError):
            closed_on_nodes(tableau_rk4, w, w, w, -1.0)

    @pytest.mark.parametrize("factory", [tableau_rk3, tableau_rk4])
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, factory, dt):
        w = np.ones(3)
        with pytest.raises(ValueError, match="finite"):
            closed_on_nodes(factory, w, w, w, dt)

    @pytest.mark.parametrize("factory", ALL_TABLEAUX)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_rate_sample(self, factory, bad):
        # A NaN rate at the mid node gave [nan, nan, nan]; every built-in
        # tableau reads every stage's sample.
        tab = factory()
        for c_bad in set(tab.c.tolist()):
            def omega(c, c_bad=c_bad):
                return np.array([bad if c == c_bad else 0.5, 0.1, -0.2])

            with pytest.raises(ValueError, match="not finite"):
                delta_phi_closed(tab, omega, 0.1)

    def test_rejects_an_overflow(self):
        w = np.full(3, 1e300)
        with pytest.raises(ValueError, match="not finite"):
            closed_on_nodes(tableau_rk4, w, w, w, 1e10)
