import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit.coning import (affine_coning_oracle,
                               appendix_increment_identity_check,
                               goodman_robinson_beta_quadrature,
                               miller_single_speed, rk4_theta2, rk4_theta3,
                               two_speed_classic)
from coning_kit.errors import EmptyWindow, NonFiniteIncrement
from coning_kit.rate_model import MeasurementWindow, rk_node_samples
from coning_kit.rk import delta_phi_closed, tableau_rk4
from coning_kit.so3 import rotation_vector_from_dcm
from coning_kit.trajectory import (PolynomialRate, reference_attitude,
                                   synth_delta_theta)
from coning_kit.rate_model import RatePolynomial

from conftest import node_sampler


def affine_increments(p1, p2, dt, spans):
    """Exact increments of omega = p1 + p2 t over the given (lo, hi) spans."""

    def theta(t):
        return p1 * t + 0.5 * p2 * t * t

    return [theta(hi) - theta(lo) for lo, hi in spans]


class TestMillerSingleSpeed:
    def test_parallel_increments_give_zero_beta(self):
        curr = np.array([0.4, 0.0, 0.0])
        for prev in (curr, 2.0 * curr, 0.5 * curr, np.zeros(3)):
            result = miller_single_speed(prev, curr)
            assert np.array_equal(result.beta, np.zeros(3))
            assert np.array_equal(result.delta_phi, curr)

    def test_orthogonal_increments(self):
        a = 0.3
        result = miller_single_speed([a, 0.0, 0.0], [0.0, a, 0.0])
        assert np.allclose(result.beta, [0.0, 0.0, a * a / 12.0],
                           rtol=0, atol=1e-18)

    def test_result_invariant(self):
        rng = np.random.default_rng(501)
        for _ in range(100):
            prev, curr = rng.uniform(-1.0, 1.0, (2, 3))
            result = miller_single_speed(prev, curr)
            assert np.array_equal(result.delta_phi, curr + result.beta)

    def test_matches_reference_attitude_for_affine_rate(self):
        rng = np.random.default_rng(502)
        dt = 0.01
        for _ in range(10):
            p1, p2 = rng.uniform(-0.5, 0.5, (2, 3))
            prev, curr = affine_increments(p1, p2, dt,
                                           [(-dt, 0.0), (0.0, dt)])
            signal = PolynomialRate(RatePolynomial(np.stack([p1, p2])))
            truth = rotation_vector_from_dcm(
                reference_attitude(signal, 0.0, dt, 1e-13))
            delta = miller_single_speed(prev, curr).delta_phi
            assert np.max(np.abs(delta - truth)) <= 5e-11

    @pytest.mark.parametrize("prev, curr", [
        ([1.0, 0.0, 0.0], [0.0, math.inf, 0.0]),
        ([math.nan, 0.0, 0.0], [0.0, 1.0, 0.0]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, math.nan]),
        # Finite increments whose cross product overflows.
        ([1e200, 0.0, 0.0], [0.0, 1e200, 0.0])])
    def test_refuses_a_non_finite_result(self, prev, curr):
        # At [1, 0, 0], [0, inf, 0] the result was [nan, inf, inf].
        with pytest.raises(NonFiniteIncrement, match="not finite"):
            miller_single_speed(prev, curr)


class TestRk4Theta2:
    def test_identity_with_single_speed(self):
        rng = np.random.default_rng(503)
        worst = 0.0
        for _ in range(2000):
            prev, curr = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-3, 0)
            window = MeasurementWindow(np.stack([prev, curr]), dt)
            a = rk4_theta2(window).delta_phi
            b = miller_single_speed(prev, curr).delta_phi
            scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
            worst = max(worst, np.max(np.abs(a - b)) / scale)
        assert worst <= 1e-15

    def test_identity_at_both_scales(self):
        rng = np.random.default_rng(504)
        for dt in (1.0, 1e-2):
            for _ in range(200):
                prev, curr = rng.uniform(-1.0, 1.0, (2, 3))
                window = MeasurementWindow(np.stack([prev, curr]), dt)
                a = rk4_theta2(window).delta_phi
                b = miller_single_speed(prev, curr).delta_phi
                scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
                assert np.max(np.abs(a - b)) <= 1e-15 * scale

    def test_matches_literal_node_composition(self):
        rng = np.random.default_rng(505)
        for _ in range(500):
            prev, curr = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(np.stack([prev, curr]), dt)
            literal = delta_phi_closed(
                tableau_rk4(), node_sampler(rk_node_samples(window)), dt)
            got = rk4_theta2(window).delta_phi
            scale = max(1e-3, np.max(np.abs(literal)))
            assert np.max(np.abs(got - literal)) <= 2e-15 * scale

    def test_refuses_an_overflow(self):
        # The node samples of dt = 1e-310 overflow; the result was NaN.
        window = MeasurementWindow(np.eye(3)[:2], 1e-310)
        with pytest.raises(NonFiniteIncrement):
            rk4_theta2(window)

    def test_constant_rate_window_gives_zero_beta(self):
        inc = np.array([0.2, 0.0, 0.0])
        window = MeasurementWindow(np.stack([inc, inc]), 0.1)
        result = rk4_theta2(window)
        assert np.array_equal(result.beta, np.zeros(3))
        assert np.array_equal(result.delta_phi, inc)


class TestRk4Theta3:
    def test_parallel_increments_give_zero_beta(self):
        inc = np.array([0.0, 0.5, 0.0])
        window = MeasurementWindow(np.stack([inc, 2.0 * inc, 4.0 * inc]), 0.1)
        result = rk4_theta3(window)
        assert np.array_equal(result.beta, np.zeros(3))
        assert np.array_equal(result.delta_phi, 2.0 * inc)

    def test_printed_coefficients(self):
        # prev x next term carries 1/288; the matched pair carries 13/288
        prev = np.array([1.0, 0.0, 0.0])
        curr = np.zeros(3)
        nxt = np.array([0.0, 1.0, 0.0])
        result = rk4_theta3(MeasurementWindow(np.stack([prev, curr, nxt]),
                                              1.0))
        assert np.allclose(result.beta, [0.0, 0.0, -1.0 / 288.0],
                           rtol=0, atol=1e-19)

        curr = np.array([0.0, 0.0, 1.0])
        result = rk4_theta3(MeasurementWindow(
            np.stack([prev, curr, np.zeros(3)]), 1.0))
        # beta = (13/288) (prev x curr) here
        assert np.allclose(result.beta, [0.0, -13.0 / 288.0, 0.0],
                           rtol=0, atol=1e-19)

    def test_matches_node_sample_composition(self):
        rng = np.random.default_rng(506)
        for _ in range(1000):
            inc = rng.uniform(-1.0, 1.0, (3, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(inc, dt)
            literal = delta_phi_closed(
                tableau_rk4(), node_sampler(rk_node_samples(window)), dt)
            got = rk4_theta3(window).delta_phi
            scale = max(1e-3, np.max(np.abs(literal)))
            assert np.max(np.abs(got - literal)) <= 1e-13 * scale

    def test_refuses_an_overflow(self):
        window = MeasurementWindow(
            [[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1.0]], 1.0)
        with pytest.raises(NonFiniteIncrement):
            rk4_theta3(window)

    @pytest.mark.parametrize("alignment", [0, 2])
    def test_rejects_other_alignment(self, alignment):
        # (1/288)(next x prior + 13 (prior - next) x curr) corrects the
        # middle increment; at alignment 0 the correction is another one.
        window = MeasurementWindow(np.eye(3), 0.1, alignment=alignment)
        with pytest.raises(ValueError, match="alignment 1"):
            rk4_theta3(window)

    def test_swapping_outer_increments_negates_beta(self):
        rng = np.random.default_rng(507)
        for _ in range(200):
            prev, curr, nxt = rng.uniform(-1.0, 1.0, (3, 3))
            fwd = rk4_theta3(MeasurementWindow(np.stack([prev, curr, nxt]),
                                               0.25))
            rev = rk4_theta3(MeasurementWindow(np.stack([nxt, curr, prev]),
                                               0.25))
            assert np.array_equal(rev.beta, -fwd.beta)

    def test_per_step_error_beats_single_speed_on_quadratic_rate(self):
        rng = np.random.default_rng(508)
        dt = 0.01
        for _ in range(10):
            coeffs = rng.uniform(-0.5, 0.5, (3, 3))
            signal = PolynomialRate(RatePolynomial(coeffs))
            truth = rotation_vector_from_dcm(
                reference_attitude(signal, 0.0, dt, 1e-13))
            incs = [synth_delta_theta(signal, lo, hi)
                    for lo, hi in [(-dt, 0.0), (0.0, dt), (dt, 2 * dt)]]
            window = MeasurementWindow(np.stack(incs), dt)
            err3 = np.max(np.abs(rk4_theta3(window).delta_phi - truth))
            err2 = np.max(np.abs(
                miller_single_speed(incs[0], incs[1]).delta_phi - truth))
            assert err3 <= err2 + 1e-15


class TestTwoSpeedClassic:
    def test_single_interval_reduces_to_miller(self):
        rng = np.random.default_rng(509)
        for _ in range(100):
            before, inc = rng.uniform(-1.0, 1.0, (2, 3))
            two_speed = two_speed_classic([inc], before)
            miller = miller_single_speed(before, inc).delta_phi
            assert np.array_equal(two_speed, miller)

    def test_single_axis_motion_sums_exactly(self):
        incs = [np.array([c, 0.0, 0.0]) for c in (0.1, -0.2, 0.4, 0.05)]
        out = two_speed_classic(incs, np.array([0.3, 0.0, 0.0]))
        assert np.array_equal(out, sum(incs))

    def test_affine_rate_matches_quadrature(self):
        rng = np.random.default_rng(510)
        m, dt = 8, 0.01
        for _ in range(20):
            p1, p2 = rng.uniform(-1.0, 1.0, (2, 3))
            spans = [(k * dt, (k + 1) * dt) for k in range(m)]
            incs = affine_increments(p1, p2, dt, spans)
            before = affine_increments(p1, p2, dt, [(-dt, 0.0)])[0]
            got = two_speed_classic(incs, before)

            def omega(t, p1=p1, p2=p2):
                return p1 + p2 * t

            beta = goodman_robinson_beta_quadrature(omega, 0.0, m * dt, 8)
            theta = np.sum(incs, axis=0)
            assert np.max(np.abs(got - (theta + beta))) <= 1e-10

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            two_speed_classic([], np.zeros(3))

    @pytest.mark.parametrize("rows, before", [
        ([[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]], [0.0, 0.0, 0.0]),
        ([[1.0, 0.0, 0.0]], [0.0, math.inf, 0.0]),
        ([[0.1, 0.2, 0.3]], [math.nan, 0.0, 0.0]),
        # Finite increments whose running sum overflows.
        ([[1e308, 0.0, 0.0], [1e308, 0.0, 0.0]], [0.0, 0.0, 0.0])])
    def test_refuses_a_non_finite_result(self, rows, before):
        # A NaN row gave NaN, and before = [0, inf, 0] gave [nan, 0, -inf].
        with pytest.raises(NonFiniteIncrement, match="not finite"):
            two_speed_classic(rows, before)

    @pytest.mark.parametrize("m", [1, 4])
    def test_lists_and_arrays_give_equal_results(self, m):
        # A list row once raised AttributeError.
        rng = np.random.default_rng(511)
        incs = rng.uniform(-1.0, 1.0, (m, 3))
        before = rng.uniform(-1.0, 1.0, 3)
        want = two_speed_classic(list(incs), before)
        for rows, first in ((incs.tolist(), before.tolist()),
                            (incs, before), (list(incs), tuple(before))):
            assert np.array_equal(two_speed_classic(rows, first), want)


class TestGoodmanRobinsonQuadrature:
    def test_constant_rate_vanishes(self):
        omega = np.array([0.7, -0.2, 0.4])
        beta = goodman_robinson_beta_quadrature(lambda t: omega, 0.0, 1.0, 8)
        assert np.max(np.abs(beta)) <= 1e-14

    def test_converges_to_affine_oracle(self):
        rng = np.random.default_rng(511)
        for _ in range(20):
            p1, p2 = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-2, 0)

            def omega(t, p1=p1, p2=p2):
                return p1 + p2 * t

            beta = goodman_robinson_beta_quadrature(omega, 0.0, dt, 16)
            oracle = affine_coning_oracle(p1, p2, dt)
            assert np.max(np.abs(beta - oracle)) <= 1e-12 * max(
                1e-6, np.max(np.abs(oracle)))

    def test_quadratic_rate_already_converged(self):
        rng = np.random.default_rng(512)
        p = rng.uniform(-1.0, 1.0, (3, 3))

        def omega(t):
            return p[0] + p[1] * t + p[2] * t * t

        coarse = goodman_robinson_beta_quadrature(omega, 0.0, 0.5, 8)
        fine = goodman_robinson_beta_quadrature(omega, 0.0, 0.5, 16)
        assert np.max(np.abs(coarse - fine)) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            goodman_robinson_beta_quadrature(lambda t: np.zeros(3),
                                             0.0, 1.0, 4)
        with pytest.raises(ValueError):
            goodman_robinson_beta_quadrature(lambda t: np.zeros(3),
                                             1.0, 1.0, 8)


class TestAffineOracle:
    def test_parallel_coefficients_vanish(self):
        p = np.array([0.3, -0.1, 0.9])
        assert np.array_equal(affine_coning_oracle(p, 2.0 * p, 0.5),
                              np.zeros(3))

    def test_unit_example(self):
        beta = affine_coning_oracle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)
        assert np.allclose(beta, [0.0, 0.0, 1.0 / 12.0], rtol=0, atol=1e-18)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            affine_coning_oracle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="finite"):
            affine_coning_oracle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], dt)


class TestAppendixIdentity:
    def test_residual_is_exactly_zero(self):
        rng = np.random.default_rng(513)
        for _ in range(100):
            p1, p2 = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-4, 0)
            assert appendix_increment_identity_check(p1, p2, dt) == 0.0

    def test_parallel_coefficients(self):
        p = np.array([0.3, -0.1, 0.9])
        assert appendix_increment_identity_check(p, 0.5 * p, 0.01) == 0.0

    def test_dt_sweep_stays_relative_flat(self):
        p1 = np.array([0.9, 0.1, -0.3])
        p2 = np.array([-0.2, 0.8, 0.4])
        scale = np.linalg.norm(np.cross(p1, p2))
        for dt in (1.0, 1e-2, 1e-4):
            resid = appendix_increment_identity_check(p1, p2, dt)
            assert resid <= 1e-15 * scale * dt ** 3


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_oracle_chain_consistency(seed):
    # analytic oracle == quadrature limit == single-speed beta on exact
    # affine increments
    rng = np.random.default_rng(seed)
    p1, p2 = rng.uniform(-1.0, 1.0, (2, 3))
    dt = 10.0 ** rng.uniform(-2, -1)

    def omega(t):
        return p1 + p2 * t

    oracle = affine_coning_oracle(p1, p2, dt)
    quad = goodman_robinson_beta_quadrature(omega, 0.0, dt, 8)
    prev, curr = affine_increments(p1, p2, dt, [(-dt, 0.0), (0.0, dt)])
    miller_beta = miller_single_speed(prev, curr).beta
    assert np.max(np.abs(quad - oracle)) <= 1e-11
    assert np.max(np.abs(miller_beta - oracle)) <= 1e-11
