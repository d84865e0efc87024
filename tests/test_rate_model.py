import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit.errors import DegenerateStep
from coning_kit.rate_model import (MeasurementWindow, RatePolynomial,
                                   _fit_integral_system,
                                   eval_rate, fit_affine, fit_polynomial,
                                   fit_quadratic, rk_node_samples_affine,
                                   rk_node_samples_quadratic)


def poly_increments(coeffs, dt, q, alignment=1):
    """Exact increments of a polynomial rate via its antiderivative."""
    coeffs = np.asarray(coeffs, dtype=float)

    def theta(t):
        acc = np.zeros(3)
        for i, row in enumerate(coeffs):
            acc = acc + row * t ** (i + 1) / (i + 1)
        return acc

    rows = []
    for j in range(q):
        lo = (j - alignment) * dt
        rows.append(theta(lo + dt) - theta(lo))
    return np.stack(rows)


class TestWindow:
    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            MeasurementWindow(np.zeros((1, 3)), 0.1)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(DegenerateStep):
            MeasurementWindow(np.zeros((2, 3)), 0.0)
        with pytest.raises(DegenerateStep):
            MeasurementWindow(np.zeros((2, 3)), -0.5)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(DegenerateStep):
            MeasurementWindow(np.ones((2, 3)), dt)

    def test_rejects_bad_alignment(self):
        with pytest.raises(ValueError):
            MeasurementWindow(np.zeros((2, 3)), 0.1, alignment=2)

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            MeasurementWindow(bad, 0.1)

    def test_leaves_caller_array_writable(self):
        inc = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]])
        window = MeasurementWindow(inc, 0.1)
        assert inc.flags.writeable
        inc[0, 0] = 2.0
        assert window.increments[0, 0] == 0.1
        assert not window.increments.flags.writeable


def test_rate_polynomial_leaves_caller_array_writable():
    coeffs = np.array([[0.3, -0.2, 0.1], [0.05, 0.0, -0.4]])
    model = RatePolynomial(coeffs)
    assert coeffs.flags.writeable
    coeffs[:] = 7.0
    assert np.array_equal(eval_rate(model, 0.0), [0.3, -0.2, 0.1])
    assert not model.coeffs.flags.writeable


class TestFitAffine:
    def test_constant_rate(self):
        inc = np.array([0.4, 0.0, 0.0])
        model = fit_affine(MeasurementWindow(np.stack([inc, inc]), 0.2))
        assert np.allclose(model.coeffs[0], inc / 0.2, rtol=0, atol=1e-16)
        assert np.array_equal(model.coeffs[1], np.zeros(3))

    def test_hand_worked_example(self):
        window = MeasurementWindow(
            np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1.0)
        model = fit_affine(window)
        assert np.array_equal(model.coeffs[0], [1.0, 0.0, 0.0])
        assert np.array_equal(model.coeffs[1], [2.0, 0.0, 0.0])

    def test_rejects_other_alignment(self):
        # The closed form assumes spans [-dt, 0] and [0, dt].
        window = MeasurementWindow(
            np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]]), 0.1, alignment=0)
        with pytest.raises(ValueError, match="alignment 1"):
            fit_affine(window)

    def test_recovers_random_affine_rate(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(poly_increments(coeffs, dt, 2), dt)
            model = fit_affine(window)
            assert np.max(np.abs(model.coeffs - coeffs)) <= 1e-13


class TestFitQuadratic:
    def test_constant_rate(self):
        inc = np.array([0.0, -0.6, 0.0])
        window = MeasurementWindow(np.stack([inc, inc, inc]), 0.3)
        model = fit_quadratic(window)
        assert np.allclose(model.coeffs[0], inc / 0.3, rtol=1e-15, atol=1e-15)
        assert np.max(np.abs(model.coeffs[1:])) <= 1e-13

    def test_recovers_random_quadratic_rate(self):
        # leading-coefficient recovery amplifies increment roundoff by
        # 1/dt^2, so the 1e-12 bound needs dt above ~0.05
        rng = np.random.default_rng(402)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, (3, 3))
            dt = 10.0 ** rng.uniform(-1.3, 0)
            window = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            model = fit_quadratic(window)
            assert np.max(np.abs(model.coeffs - coeffs)) <= 1e-12

    def test_affine_data_yields_zero_leading_coefficient(self):
        rng = np.random.default_rng(403)
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 0.05
            window = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            model = fit_quadratic(window)
            assert np.max(np.abs(model.coeffs[2])) <= 1e-12


class TestFitPolynomial:
    def test_q2_specializes_to_affine(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (2, 3)),
                                       10.0 ** rng.uniform(-2, 0))
            a = fit_affine(window).coeffs
            b = fit_polynomial(window).coeffs
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

    def test_q3_specializes_to_quadratic(self):
        rng = np.random.default_rng(405)
        for _ in range(100):
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (3, 3)), 0.25)
            a = fit_quadratic(window).coeffs
            b = fit_polynomial(window).coeffs
            assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(a)))

    def test_q4_recovers_cubic_rate(self):
        rng = np.random.default_rng(406)
        for dt in (0.5, 1.0):
            for _ in range(50):
                coeffs = rng.uniform(-1.0, 1.0, (4, 3))
                window = MeasurementWindow(
                    poly_increments(coeffs, dt, 4), dt)
                model = fit_polynomial(window)
                assert np.max(np.abs(model.coeffs - coeffs)) <= 1e-10

    def test_linearity_in_measurements(self):
        rng = np.random.default_rng(407)
        for _ in range(100):
            w1 = rng.uniform(-1.0, 1.0, (3, 3))
            w2 = rng.uniform(-1.0, 1.0, (3, 3))
            a, b = rng.uniform(-2.0, 2.0, 2)
            dt = 0.125
            mixed = fit_polynomial(
                MeasurementWindow(a * w1 + b * w2, dt)).coeffs
            separate = (a * fit_polynomial(MeasurementWindow(w1, dt)).coeffs
                        + b * fit_polynomial(MeasurementWindow(w2, dt)).coeffs)
            scale = max(1.0, np.max(np.abs(separate)))
            assert np.max(np.abs(mixed - separate)) <= 1e-12 * scale

    def test_q2_off_alignment_solves_the_integral_system(self):
        # At alignment 0 the window spans [0, dt] and [dt, 2 dt]; the affine
        # closed form assumes [-dt, 0] and [0, dt] and gave the constant
        # term [2.5, 1.5, 0.5].
        window = MeasurementWindow(
            np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]]), 0.1, alignment=0)
        model = fit_polynomial(window)
        assert np.array_equal(model.coeffs,
                              _fit_integral_system(window).coeffs)
        assert np.allclose(model.coeffs[0], [-0.5, 2.5, 5.5],
                           rtol=0.0, atol=1e-12)
        back = poly_increments(model.coeffs, 0.1, 2, alignment=0)
        assert np.allclose(back, window.increments, rtol=0.0, atol=1e-14)

    def test_integral_consistency(self):
        # integrating the fitted model over each span returns the inputs
        rng = np.random.default_rng(408)
        for q in (2, 3, 4):
            for _ in range(50):
                inc = rng.uniform(-1.0, 1.0, (q, 3))
                dt = 0.2
                model = fit_polynomial(MeasurementWindow(inc, dt))
                back = poly_increments(model.coeffs, dt, q)
                assert np.max(np.abs(back - inc)) <= 1e-12


class TestEvalRate:
    def test_constant_model(self):
        model = RatePolynomial(np.array([[0.7, -0.1, 0.4]]))
        assert np.array_equal(eval_rate(model, 123.0), [0.7, -0.1, 0.4])

    def test_affine_model_at_origin(self):
        model = RatePolynomial(np.array([[0.7, -0.1, 0.4],
                                         [1.0, 2.0, 3.0]]), origin=5.0)
        assert np.array_equal(eval_rate(model, 5.0), [0.7, -0.1, 0.4])

    def test_matches_naive_power_sum(self):
        rng = np.random.default_rng(409)
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, (3, 3))
            model = RatePolynomial(coeffs)
            t = rng.uniform(-2.0, 2.0)
            naive = sum(coeffs[i] * t ** i for i in range(3))
            assert np.max(np.abs(eval_rate(model, t) - naive)) <= 1e-15


class TestNodeSamplesAffine:
    def test_hand_worked_example(self):
        window = MeasurementWindow(
            np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1.0)
        nodes = rk_node_samples_affine(window)
        assert np.array_equal(nodes.omega0, [1.0, 0.0, 0.0])
        assert np.array_equal(nodes.omega_mid, [2.0, 0.0, 0.0])
        assert np.array_equal(nodes.omega1, [3.0, 0.0, 0.0])

    def test_equal_increments_give_constant_rate(self):
        inc = np.array([0.3, -0.2, 0.1])
        window = MeasurementWindow(np.stack([inc, inc]), 0.25)
        nodes = rk_node_samples_affine(window)
        for node in (nodes.omega0, nodes.omega_mid, nodes.omega1):
            assert np.allclose(node, inc / 0.25, rtol=1e-15, atol=0)

    def test_matches_model_evaluation(self):
        rng = np.random.default_rng(410)
        for _ in range(200):
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (2, 3)), dt)
            nodes = rk_node_samples_affine(window)
            model = fit_affine(window)
            for node, t in ((nodes.omega0, 0.0),
                            (nodes.omega_mid, 0.5 * dt),
                            (nodes.omega1, dt)):
                expected = eval_rate(model, t)
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(node - expected)) <= 1e-15 * scale


    def test_rejects_other_alignment(self):
        window = MeasurementWindow(
            np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]]), 0.1, alignment=0)
        with pytest.raises(ValueError, match="alignment 1"):
            rk_node_samples_affine(window)


class TestNodeSamplesQuadratic:
    @pytest.mark.parametrize("alignment", [0, 2])
    def test_rejects_other_alignment(self, alignment):
        window = MeasurementWindow(np.eye(3), 0.1, alignment=alignment)
        with pytest.raises(ValueError, match="alignment 1"):
            rk_node_samples_quadratic(window)

    def test_equal_increments_give_constant_rate(self):
        # rows of the node map each sum to 24
        inc = np.array([0.5, 0.1, -0.4])
        window = MeasurementWindow(np.stack([inc, inc, inc]), 0.5)
        nodes = rk_node_samples_quadratic(window)
        for node in (nodes.omega0, nodes.omega_mid, nodes.omega1):
            assert np.allclose(node, inc / 0.5, rtol=1e-15, atol=1e-16)

    def test_affine_data_matches_affine_nodes(self):
        rng = np.random.default_rng(411)
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 0.1
            w3 = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            w2 = MeasurementWindow(poly_increments(coeffs, dt, 2), dt)
            n3 = rk_node_samples_quadratic(w3)
            n2 = rk_node_samples_affine(w2)
            for a, b in ((n3.omega0, n2.omega0),
                         (n3.omega_mid, n2.omega_mid),
                         (n3.omega1, n2.omega1)):
                assert np.max(np.abs(a - b)) <= 1e-13

    def test_recovers_true_rate_at_nodes(self):
        rng = np.random.default_rng(412)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, (3, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            nodes = rk_node_samples_quadratic(window)
            model = RatePolynomial(coeffs)
            for node, t in ((nodes.omega0, 0.0),
                            (nodes.omega_mid, 0.5 * dt),
                            (nodes.omega1, dt)):
                assert np.max(np.abs(node - eval_rate(model, t))) <= 1e-12

    def test_matches_fitted_model_evaluation(self):
        rng = np.random.default_rng(413)
        for _ in range(200):
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (3, 3)), dt)
            nodes = rk_node_samples_quadratic(window)
            model = fit_quadratic(window)
            for node, t in ((nodes.omega0, 0.0),
                            (nodes.omega_mid, 0.5 * dt),
                            (nodes.omega1, dt)):
                expected = eval_rate(model, t)
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(node - expected)) <= 1e-13 * scale


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_fit_and_nodes_are_linear_in_window(seed):
    rng = np.random.default_rng(seed)
    dt = 0.1
    w1 = rng.uniform(-1.0, 1.0, (3, 3))
    w2 = rng.uniform(-1.0, 1.0, (3, 3))
    a, b = rng.uniform(-2.0, 2.0, 2)
    mixed = rk_node_samples_quadratic(MeasurementWindow(a * w1 + b * w2, dt))
    n1 = rk_node_samples_quadratic(MeasurementWindow(w1, dt))
    n2 = rk_node_samples_quadratic(MeasurementWindow(w2, dt))
    for got, x, y in ((mixed.omega0, n1.omega0, n2.omega0),
                      (mixed.omega_mid, n1.omega_mid, n2.omega_mid),
                      (mixed.omega1, n1.omega1, n2.omega1)):
        want = a * x + b * y
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
