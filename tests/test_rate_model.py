import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit.errors import DegenerateStep
from coning_kit.rate_model import (MeasurementWindow, RatePolynomial, _solve,
                                   eval_rate, fit_polynomial, rk_node_samples)

from test_derivation import NODES, node_map


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


def assert_derived(samples, window):
    """``samples`` at t = 0, dt/2, dt are the rates of the exact node map
    (``test_derivation.node_map``) on the window's increments."""
    n = node_map(window.q, window.alignment)
    scale = np.abs(window.increments).max() / window.dt
    for got, s in zip(samples, NODES):
        want = (np.array([float(v) for v in n(s)]) @ window.increments
                / window.dt)
        assert np.abs(got - want).max() <= 1e-13 * scale


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

    @pytest.mark.parametrize("alignment", [1.5, 1.0, "1", True, None])
    def test_rejects_non_integer_alignment(self, alignment):
        # 1.5 used to fit half-shifted intervals, and "1" raised a bare
        # TypeError.
        with pytest.raises(ValueError, match="integer"):
            MeasurementWindow(np.zeros((3, 3)), 0.1, alignment=alignment)

    def test_accepts_numpy_integer_alignment(self):
        inc = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]])
        a = rk_node_samples(MeasurementWindow(inc, 0.1, np.int64(0)), NODES)
        b = rk_node_samples(MeasurementWindow(inc, 0.1, 0), NODES)
        assert np.array_equal(a[2], b[2])

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


@pytest.mark.parametrize("coeffs, origin", [
    ([[np.nan, 0.0, 0.0]], 0.0), ([[np.inf, 0.0, 0.0]], 0.0),
    ([[0.1, 0.2, 0.3], [0.0, -np.inf, 0.0]], 0.0),
    ([[0.1, 0.2, 0.3]], np.nan), ([[0.1, 0.2, 0.3]], -np.inf)])
def test_rate_polynomial_rejects_non_finite(coeffs, origin):
    with pytest.raises(ValueError, match="finite"):
        RatePolynomial(np.array(coeffs), origin)


class TestFitAffine:
    def test_constant_rate(self):
        inc = np.array([0.4, 0.0, 0.0])
        model = fit_polynomial(MeasurementWindow(np.stack([inc, inc]), 0.2))
        assert np.allclose(model.coeffs[0], inc / 0.2, rtol=0, atol=1e-16)
        assert np.array_equal(model.coeffs[1], np.zeros(3))

    def test_hand_worked_example(self):
        window = MeasurementWindow(
            np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1.0)
        model = fit_polynomial(window)
        assert np.array_equal(model.coeffs[0], [1.0, 0.0, 0.0])
        assert np.array_equal(model.coeffs[1], [2.0, 0.0, 0.0])

    def test_other_alignment_gives_the_derivation(self):
        # Spans [0, dt] and [dt, 2 dt]; this used to raise.
        window = MeasurementWindow(
            np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]]), 0.1, alignment=0)
        model = fit_polynomial(window)
        assert_derived([eval_rate(model, float(s) * 0.1) for s in NODES],
                       window)

    def test_recovers_random_affine_rate(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(poly_increments(coeffs, dt, 2), dt)
            model = fit_polynomial(window)
            assert np.max(np.abs(model.coeffs - coeffs)) <= 1e-13


class TestFitQuadratic:
    def test_constant_rate(self):
        inc = np.array([0.0, -0.6, 0.0])
        window = MeasurementWindow(np.stack([inc, inc, inc]), 0.3)
        model = fit_polynomial(window)
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
            model = fit_polynomial(window)
            assert np.max(np.abs(model.coeffs - coeffs)) <= 1e-12

    def test_affine_data_yields_zero_leading_coefficient(self):
        rng = np.random.default_rng(403)
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 0.05
            window = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            model = fit_polynomial(window)
            assert np.max(np.abs(model.coeffs[2])) <= 1e-12


class TestFitPolynomial:
    def test_q2_specializes_to_affine(self):
        # (prior, curr) over [-dt, 0], [0, dt]: p0 = (prior + curr)/(2 dt),
        # p1 = (curr - prior)/dt^2.
        rng = np.random.default_rng(404)
        for _ in range(100):
            prior, curr = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            a = np.stack([(prior + curr) / (2.0 * dt),
                          (curr - prior) / dt / dt])
            b = fit_polynomial(MeasurementWindow(np.stack([prior, curr]),
                                                 dt)).coeffs
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

    def test_q3_specializes_to_quadratic(self):
        # (prior, curr, next) over [-dt, 0], [0, dt], [dt, 2 dt]:
        # p0 = (2 prior + 5 curr - next)/(6 dt), p1 = (curr - prior)/dt^2,
        # p2 = (next - 2 curr + prior)/(2 dt^3).
        rng = np.random.default_rng(405)
        dt = 0.25
        for _ in range(100):
            prior, curr, nxt = rng.uniform(-1.0, 1.0, (3, 3))
            a = np.stack([(2.0 * prior + 5.0 * curr - nxt) / (6.0 * dt),
                          (curr - prior) / dt ** 2,
                          (nxt - 2.0 * curr + prior) / (2.0 * dt ** 3)])
            b = fit_polynomial(MeasurementWindow(
                np.stack([prior, curr, nxt]), dt)).coeffs
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


class TestOverflow:
    # The suite runs with warnings as errors, so a numpy RuntimeWarning on
    # the way to the ValueError fails these tests.
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("dt", [1e-200, 1e-310])
    def test_fit_raises_value_error_only(self, q, dt):
        window = MeasurementWindow(np.arange(1.0, 3 * q + 1).reshape(q, 3),
                                   dt)
        with pytest.raises(ValueError, match="finite"):
            fit_polynomial(window)

    @pytest.mark.parametrize("q", [2, 3])
    def test_node_samples_raise_value_error_only(self, q):
        # At dt = 1e-310 the affine samples used to come back infinite.
        window = MeasurementWindow(np.arange(1.0, 3 * q + 1).reshape(q, 3),
                                   1e-310)
        with pytest.raises(ValueError, match="overflow"):
            rk_node_samples(window, NODES)

    @pytest.mark.parametrize("q", [2, 3])
    def test_node_samples_finite_when_representable(self, q):
        window = MeasurementWindow(np.arange(1.0, 3 * q + 1).reshape(q, 3),
                                   1e-200)
        assert np.isfinite(rk_node_samples(window, NODES)).all()

    @pytest.mark.parametrize("node", [np.nan, np.inf, -np.inf])
    def test_node_samples_refuse_a_non_finite_node(self, node):
        window = MeasurementWindow(np.arange(1.0, 7.0).reshape(2, 3), 0.1)
        with pytest.raises(ValueError, match="node is not finite"):
            rk_node_samples(window, (0.0, node, 1.0))

    def test_zero_window_fits_at_tiny_dt(self):
        model = fit_polynomial(MeasurementWindow(np.zeros((3, 3)), 1e-200))
        assert not model.coeffs.any()


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


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_node_samples_are_the_node_map_product(q):
    # The rows once held as three fields: the node map times the
    # increments over dt, bit for bit, in a frozen (3, 3) array.
    rng = np.random.default_rng(414 + q)
    for alignment in range(q):
        for dt in (1e-3, 0.1, 1.0):
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (q, 3)), dt,
                                       alignment)
            nodes = rk_node_samples(window, NODES)
            assert nodes.shape == (3, 3) and not nodes.flags.writeable
            want = (np.array(NODES, dtype=float)[:, None] ** np.arange(q)
                    @ _solve(q, alignment) @ window.increments / dt)
            w0, wm, w1 = nodes
            for got, row in zip((w0, wm, w1), want):
                assert got.tobytes() == row.tobytes()


class TestNodeSamplesAffine:
    def test_hand_worked_example(self):
        window = MeasurementWindow(
            np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), 1.0)
        w0, wm, w1 = rk_node_samples(window, NODES)
        assert np.array_equal(w0, [1.0, 0.0, 0.0])
        assert np.array_equal(wm, [2.0, 0.0, 0.0])
        assert np.array_equal(w1, [3.0, 0.0, 0.0])

    def test_equal_increments_give_constant_rate(self):
        inc = np.array([0.3, -0.2, 0.1])
        window = MeasurementWindow(np.stack([inc, inc]), 0.25)
        for node in rk_node_samples(window, NODES):
            assert np.allclose(node, inc / 0.25, rtol=1e-15, atol=0)

    def test_matches_model_evaluation(self):
        rng = np.random.default_rng(410)
        for _ in range(200):
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (2, 3)), dt)
            nodes = rk_node_samples(window, NODES)
            model = fit_polynomial(window)
            for node, t in zip(nodes, (0.0, 0.5 * dt, dt)):
                expected = eval_rate(model, t)
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(node - expected)) <= 1e-15 * scale

    def test_other_alignment_gives_the_derivation(self):
        window = MeasurementWindow(
            np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2]]), 0.1, alignment=0)
        assert_derived(rk_node_samples(window, NODES), window)


class TestNodeSamplesQuadratic:
    @pytest.mark.parametrize("alignment", [0, 2])
    def test_other_alignment_gives_the_derivation(self, alignment):
        window = MeasurementWindow(
            np.array([[0.1, 0.2, 0.3], [0.4, 0.1, -0.2], [-0.3, 0.2, 0.5]]),
            0.1, alignment=alignment)
        assert_derived(rk_node_samples(window, NODES), window)

    def test_equal_increments_give_constant_rate(self):
        # rows of the node map each sum to 24
        inc = np.array([0.5, 0.1, -0.4])
        window = MeasurementWindow(np.stack([inc, inc, inc]), 0.5)
        for node in rk_node_samples(window, NODES):
            assert np.allclose(node, inc / 0.5, rtol=1e-15, atol=1e-16)

    def test_affine_data_matches_affine_nodes(self):
        rng = np.random.default_rng(411)
        for _ in range(100):
            coeffs = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 0.1
            w3 = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            w2 = MeasurementWindow(poly_increments(coeffs, dt, 2), dt)
            for a, b in zip(rk_node_samples(w3, NODES),
                            rk_node_samples(w2, NODES)):
                assert np.max(np.abs(a - b)) <= 1e-13

    def test_recovers_true_rate_at_nodes(self):
        rng = np.random.default_rng(412)
        for _ in range(200):
            coeffs = rng.uniform(-1.0, 1.0, (3, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(poly_increments(coeffs, dt, 3), dt)
            nodes = rk_node_samples(window, NODES)
            model = RatePolynomial(coeffs)
            for node, t in zip(nodes, (0.0, 0.5 * dt, dt)):
                assert np.max(np.abs(node - eval_rate(model, t))) <= 1e-12

    def test_matches_fitted_model_evaluation(self):
        rng = np.random.default_rng(413)
        for _ in range(200):
            dt = 10.0 ** rng.uniform(-2, 0)
            window = MeasurementWindow(rng.uniform(-1.0, 1.0, (3, 3)), dt)
            nodes = rk_node_samples(window, NODES)
            model = fit_polynomial(window)
            for node, t in zip(nodes, (0.0, 0.5 * dt, dt)):
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
    mixed = rk_node_samples(MeasurementWindow(a * w1 + b * w2, dt), NODES)
    n1 = rk_node_samples(MeasurementWindow(w1, dt), NODES)
    n2 = rk_node_samples(MeasurementWindow(w2, dt), NODES)
    for got, x, y in zip(mixed, n1, n2):
        want = a * x + b * y
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
