import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit import _batch, trajectory
from coning_kit.coning import affine_coning_oracle
from coning_kit.errors import NoConvergence, StageEvaluationError
from coning_kit.kinematics import JacobianMode, jinv
from coning_kit.rate_model import RatePolynomial
from coning_kit.rk import tableau_rk4
from coning_kit.so3 import (attitude_error_angle, dcm_from_rotation_vector,
                            rotation_vector_from_dcm)
from coning_kit.trajectory import (ConingRotationVector, FourierRate,
                                   PolynomialRate, exact_attitude, omega_at,
                                   preset, reference_attitude,
                                   synth_delta_theta, PRESET_NAMES)


def make_poly(coeffs):
    return PolynomialRate(RatePolynomial(np.asarray(coeffs, dtype=float)))


def cone_rate_40_digits(signal, phase):
    """``J(phi) phi_dot`` of the cone at the float phase ``W t``, in 40-digit
    arithmetic, with the right Jacobian ``I - k1 [phi x] + k2 [phi x]^2``."""
    with mp.workdps(40):
        a = mp.mpf(signal.cone_angle)
        w = mp.mpf(signal.precession_rate)
        c, s = mp.cos(mp.mpf(phase)), mp.sin(mp.mpf(phase))
        phi = (a * c, a * s, mp.mpf(0))
        phi_dot = (-a * w * s, a * w * c, mp.mpf(0))

        def cross(u, v):
            return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0])

        k1 = (1 - mp.cos(a)) / a ** 2
        k2 = (a - mp.sin(a)) / a ** 3
        c1 = cross(phi, phi_dot)
        c2 = cross(phi, c1)
        return [float(v - k1 * x + k2 * y)
                for v, x, y in zip(phi_dot, c1, c2)]


def increment_40_digits(signal, t0, t1):
    """``int omega dt`` over the float interval ``[t0, t1]``, from the
    antiderivative in 40-digit arithmetic."""
    with mp.workdps(40):
        t0, t1 = mp.mpf(t0), mp.mpf(t1)
        if isinstance(signal, PolynomialRate):
            origin = mp.mpf(signal.model.origin)
            out = [mp.mpf(0)] * 3
            for k, row in enumerate(signal.model.coeffs.tolist()):
                d = ((t1 - origin) ** (k + 1)
                     - (t0 - origin) ** (k + 1)) / (k + 1)
                out = [o + mp.mpf(c) * d for o, c in zip(out, row)]
        elif isinstance(signal, ConingRotationVector):
            a = mp.mpf(signal.cone_angle)
            w = mp.mpf(signal.precession_rate)
            out = (mp.sin(a) * (mp.cos(w * t1) - mp.cos(w * t0)),
                   mp.sin(a) * (mp.sin(w * t1) - mp.sin(w * t0)),
                   -2 * w * mp.sin(a / 2) ** 2 * (t1 - t0))
        else:
            out = [mp.mpf(0)] * 3
            for amp, freq, phase in signal.terms:
                f, p = mp.mpf(freq), mp.mpf(phase)
                c = (mp.cos(f * t0 + p) - mp.cos(f * t1 + p)) / f
                out = [o + mp.mpf(x) * c for o, x in zip(out, amp.tolist())]
        return [float(v) for v in out]


class TestSignals:
    def test_polynomial_degree_capped(self):
        with pytest.raises(ValueError):
            make_poly(np.zeros((7, 3)))

    def test_fourier_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            FourierRate((((1.0, 0.0, 0.0), 0.0, 0.0),))

    @pytest.mark.parametrize("term", [
        ((np.inf, 0.0, 0.0), 1.0, 0.0),
        ((0.0, np.nan, 0.0), 1.0, 0.0),
        ((1.0, 0.0, 0.0), np.inf, 0.0),
        ((1.0, 0.0, 0.0), np.nan, 0.0),
        ((1.0, 0.0, 0.0), 1.0, np.inf),
        ((1.0, 0.0, 0.0), 1.0, np.nan),
    ])
    def test_fourier_rejects_non_finite_values(self, term):
        with pytest.raises(ValueError, match="finite"):
            FourierRate((term,))

    @pytest.mark.parametrize("amp", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                                     ((1.0, 0.0, 0.0),), 1.0])
    def test_fourier_rejects_amplitude_not_a_3_vector(self, amp):
        with pytest.raises(ValueError, match="3-vectors"):
            FourierRate(((amp, 1.0, 0.0),))

    def test_fourier_copies_and_freezes_amplitudes(self):
        amp = np.array([0.5, -0.2, 0.1])
        signal = FourierRate(((amp, 1.3, 0.2),))
        before = omega_at(signal, 0.7)
        assert amp.flags.writeable
        amp[:] = 9.0
        assert np.array_equal(omega_at(signal, 0.7), before)
        assert np.array_equal(signal.terms[0][0], [0.5, -0.2, 0.1])
        assert not signal.terms[0][0].flags.writeable

    def test_polynomial_leaves_caller_coefficients_writable(self):
        coeffs = np.array([[0.3, -0.2, 0.1], [0.05, 0.0, -0.4]])
        signal = PolynomialRate(RatePolynomial(coeffs, origin=0.5))
        before = omega_at(signal, 1.25)
        assert coeffs.flags.writeable
        coeffs[:] = 7.0
        assert np.array_equal(omega_at(signal, 1.25), before)

    def test_coning_invariants(self):
        with pytest.raises(ValueError):
            ConingRotationVector(cone_angle=0.0, precession_rate=1.0)
        with pytest.raises(ValueError):
            ConingRotationVector(cone_angle=math.pi / 2.0, precession_rate=1.0)
        with pytest.raises(ValueError):
            ConingRotationVector(cone_angle=0.1, precession_rate=0.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_coning_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            ConingRotationVector(cone_angle=0.05, precession_rate=rate)

    def test_presets_resolve(self):
        assert isinstance(preset("poly3"), PolynomialRate)
        assert isinstance(preset("fourier3"), FourierRate)
        assert isinstance(preset("coning"), ConingRotationVector)
        assert preset("poly3").model.q == 4
        with pytest.raises(KeyError):
            preset("nope")
        assert set(PRESET_NAMES) == {"poly3", "fourier3", "coning"}


class TestOmegaAt:
    def test_constant_polynomial(self):
        signal = make_poly([[0.7, 0.0, 0.0]])
        for t in (-3.0, 0.0, 11.5):
            assert np.array_equal(omega_at(signal, t), [0.7, 0.0, 0.0])

    def test_fourier_single_term(self):
        amp = np.array([0.4, -0.2, 0.9])
        freq, phase = 1.7, 0.3
        signal = FourierRate(((amp, freq, phase),))
        for t in (0.0, 0.8, 2.5):
            expected = amp * math.sin(freq * t + phase)
            assert np.max(np.abs(omega_at(signal, t) - expected)) <= 1e-16

    def test_coning_at_time_zero(self):
        signal = ConingRotationVector(cone_angle=0.05, precession_rate=10.0)
        phi = np.array([0.05, 0.0, 0.0])
        phi_dot = np.array([0.0, 0.5, 0.0])
        oracle = np.linalg.inv(jinv(phi)) @ phi_dot
        assert np.max(np.abs(omega_at(signal, 0.0) - oracle)) <= 1e-15

    def test_coning_rate_consistent_with_finite_differences(self):
        signal = preset("coning")
        t = 0.37
        slopes = []
        for h in (1e-3, 1e-4):
            phi_p = np.array([0.05 * math.cos(10.0 * (t + h)),
                              0.05 * math.sin(10.0 * (t + h)), 0.0])
            phi_m = np.array([0.05 * math.cos(10.0 * (t - h)),
                              0.05 * math.sin(10.0 * (t - h)), 0.0])
            phi = np.array([0.05 * math.cos(10.0 * t),
                            0.05 * math.sin(10.0 * t), 0.0])
            fd = np.linalg.solve(jinv(phi), (phi_p - phi_m) / (2.0 * h))
            slopes.append(np.max(np.abs(fd - omega_at(signal, t))))
        order = math.log(slopes[0] / slopes[1]) / math.log(10.0)
        assert abs(order - 2.0) <= 0.2

    def test_unknown_signal_type_rejected(self):
        with pytest.raises(TypeError):
            omega_at(object(), 0.0)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, name, t):
        with pytest.raises(ValueError, match="finite time"):
            omega_at(preset(name), t)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cone_rate_matches_40_digit_arithmetic(self, seed):
        # The closed form on floats and on columns against the right
        # Jacobian in exact-enough arithmetic, at the phase both compute.
        rng = np.random.default_rng(seed)
        signal = ConingRotationVector(rng.uniform(1e-3, 1.5),
                                      rng.uniform(0.1, 30.0))
        t = rng.uniform(-20.0, 20.0, 16)
        want = np.array([
            cone_rate_40_digits(signal, signal.precession_rate * x)
            for x in t.tolist()])
        bound = 1e-15 * float(np.max(np.abs(want)))
        floats = np.array([trajectory._rate_xyz(signal, x)
                           for x in t.tolist()])
        assert float(np.max(np.abs(floats - want))) <= bound
        columns = _batch.omega_many(signal, t)
        assert float(np.max(np.abs(columns - want))) <= bound


class TestExactAttitude:
    def test_periodicity(self):
        signal = preset("coning")
        period = 2.0 * math.pi / signal.precession_rate
        a = exact_attitude(signal, 0.0)
        b = exact_attitude(signal, period)
        assert np.max(np.abs(a - b)) <= 1e-13

    def test_time_zero_construction(self):
        signal = preset("coning")
        expected = dcm_from_rotation_vector([signal.cone_angle, 0.0, 0.0])
        assert np.array_equal(exact_attitude(signal, 0.0), expected)

    def test_unavailable_for_other_variants(self):
        assert exact_attitude(preset("poly3"), 1.0) is None
        assert exact_attitude(preset("fourier3"), 1.0) is None


class TestSynthDeltaTheta:
    def test_gauss_legendre_literals_are_leggauss(self):
        # The rule is written out so that import computes nothing; it must
        # stay numpy's, bit for bit, signed zero included.
        nodes, weights = np.polynomial.legendre.leggauss(5)
        assert len(trajectory._GL_PAIRS) == 5
        for (x, w), want_x, want_w in zip(trajectory._GL_PAIRS,
                                          nodes.tolist(), weights.tolist()):
            assert type(x) is float and type(w) is float
            assert (x.hex(), w.hex()) == (want_x.hex(), want_w.hex())
            assert math.copysign(1.0, x) == math.copysign(1.0, want_x)

    def test_constant_rate_exact(self):
        signal = make_poly([[0.25, 0.0, 0.0]])
        out = synth_delta_theta(signal, 0.0, 0.5)
        assert np.allclose(out, [0.125, 0.0, 0.0], rtol=1e-15, atol=1e-18)

    def test_affine_increments_match_antiderivative(self):
        rng = np.random.default_rng(601)
        for _ in range(50):
            p1, p2 = rng.uniform(-1.0, 1.0, (2, 3))
            dt = 10.0 ** rng.uniform(-2, 0)
            signal = make_poly(np.stack([p1, p2]))
            prev = synth_delta_theta(signal, -dt, 0.0)
            curr = synth_delta_theta(signal, 0.0, dt)
            exp_prev = p1 * dt - 0.5 * p2 * dt * dt
            exp_curr = p1 * dt + 0.5 * p2 * dt * dt
            scale = max(np.max(np.abs(exp_prev)), np.max(np.abs(exp_curr)))
            assert np.max(np.abs(prev - exp_prev)) <= 2e-15 * scale
            assert np.max(np.abs(curr - exp_curr)) <= 2e-15 * scale

    def test_fourier_matches_closed_antiderivative(self):
        amp = np.array([0.4, -0.2, 0.9])
        freq, phase = 2.3, -0.4
        signal = FourierRate(((amp, freq, phase),))
        for t0, t1 in ((0.0, 0.21), (1.3, 1.45), (-0.5, 0.75)):
            got = synth_delta_theta(signal, t0, t1)
            expected = amp * (math.cos(freq * t0 + phase)
                              - math.cos(freq * t1 + phase)) / freq
            assert np.max(np.abs(got - expected)) <= 1e-13

    def test_additivity(self):
        signal = preset("fourier3")
        a = synth_delta_theta(signal, 0.0, 0.13)
        b = synth_delta_theta(signal, 0.13, 0.4)
        whole = synth_delta_theta(signal, 0.0, 0.4)
        assert np.max(np.abs(a + b - whole)) <= 1e-14

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            synth_delta_theta(preset("poly3"), 1.0, 1.0)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.0),
                                        (math.nan, 1.0), (0.0, math.nan),
                                        (-1e308, 1e308)])
    def test_rejects_non_finite_endpoints(self, name, t0, t1):
        with pytest.raises(ValueError, match="t1 > t0"):
            synth_delta_theta(preset(name), t0, t1)

    @pytest.mark.parametrize("kind", ["cone", "fourier", "poly"])
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_increments_match_40_digit_arithmetic(self, kind, seed):
        # The increments on floats and on columns against the
        # antiderivative in exact-enough arithmetic.  A phase f t + p is
        # rounded to about eps |f t + p|, so the bound grows with it.
        rng = np.random.default_rng(seed)
        if kind == "poly":
            # Degree 5 over one Gauss-Legendre panel.  A time rounded to
            # eps |t| moves the rate by at most 5 eps of the bound below, so
            # the degree stands in for the phase.
            signal = make_poly(rng.normal(size=(6, 3)))
            rows = np.abs(signal.model.coeffs).sum(axis=1)

            def peak_and_phase(x0, x1):
                return max(float(rows @ abs(t) ** np.arange(6))
                           for t in (x0, x1)), 5.0
        else:
            if kind == "cone":
                signal = ConingRotationVector(rng.uniform(1e-3, 1.5),
                                              rng.uniform(0.1, 30.0))
                a, w = signal.cone_angle, signal.precession_rate
                peak = 2.0 * w * math.sin(0.5 * a)
                sines = [(w, 0.0)]
            else:
                signal = FourierRate(tuple(
                    (rng.normal(size=3), rng.uniform(0.1, 30.0),
                     rng.uniform(-math.pi, math.pi)) for _ in range(3)))
                peak = sum(float(np.linalg.norm(amp))
                           for amp, _, _ in signal.terms)
                sines = [(f, p) for _, f, p in signal.terms]

            def peak_and_phase(x0, x1):
                return peak, max(abs(f * t + p) for f, p in sines
                                 for t in (x0, x1))
        t0 = rng.uniform(-20.0, 19.0, 8)
        t1 = t0 + 10.0 ** rng.uniform(-4.0, 0.0, 8)
        columns = _batch.synth_many(signal, t0, t1 - t0)
        for x0, x1, column in zip(t0.tolist(), t1.tolist(), columns):
            want = np.array(increment_40_digits(signal, x0, x1))
            peak, phase = peak_and_phase(x0, x1)
            bound = (2.0 * np.finfo(float).eps * (x1 - x0) * peak
                     * (1.0 + phase))
            got = synth_delta_theta(signal, x0, x1)
            assert float(np.max(np.abs(got - want))) <= bound
            assert float(np.max(np.abs(column - want))) <= bound


class TestReferenceAttitude:
    def test_constant_rate_single_level(self):
        omega = np.array([0.3, -0.4, 0.2])
        signal = make_poly([omega])
        got = reference_attitude(signal, 0.0, 0.75, 1e-12)
        expected = dcm_from_rotation_vector(omega * 0.75)
        assert np.linalg.norm(got - expected) <= 1e-14

    def test_coning_matches_exact_attitude_over_period(self):
        signal = preset("coning")
        period = 2.0 * math.pi / signal.precession_rate
        got = reference_attitude(signal, 0.0, period, 1e-12)
        relative_truth = (exact_attitude(signal, period)
                          @ exact_attitude(signal, 0.0).T)
        assert attitude_error_angle(got, relative_truth) <= 1e-11

    def test_coning_matches_exact_attitude_generic_horizon(self):
        signal = preset("coning")
        t0, t1 = 0.2, 1.15
        got = reference_attitude(signal, t0, t1, 1e-12)
        relative_truth = (exact_attitude(signal, t1)
                          @ exact_attitude(signal, t0).T)
        assert attitude_error_angle(got, relative_truth) <= 1e-11

    def test_affine_step_matches_coning_oracle_chain(self):
        rng = np.random.default_rng(602)
        dt = 0.01
        for _ in range(5):
            p1, p2 = rng.uniform(-0.5, 0.5, (2, 3))
            signal = make_poly(np.stack([p1, p2]))
            truth = rotation_vector_from_dcm(
                reference_attitude(signal, 0.0, dt, 1e-13))
            curr = synth_delta_theta(signal, 0.0, dt)
            expected = curr + affine_coning_oracle(p1, p2, dt)
            assert np.max(np.abs(truth - expected)) <= 5e-11

    def test_deterministic(self):
        signal = preset("fourier3")
        a = reference_attitude(signal, 0.0, 0.5, 1e-12)
        b = reference_attitude(signal, 0.0, 0.5, 1e-12)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("budget, levels", [(100, [9, 18, 36, 72]),
                                                (8, [])])
    def test_refinement_stays_within_the_substep_budget(self, budget, levels,
                                                         monkeypatch):
        # fourier3 over 4 s starts at 9 substeps and needs far more than
        # 100 to agree to 1e-13: the refinement stops at the last level
        # that fits, or before any work when the first does not.
        used = []
        reference_pass = trajectory._reference_pass

        def counted(signal, t0, t1, levels):
            used.extend(levels)
            return reference_pass(signal, t0, t1, levels)

        monkeypatch.setattr(trajectory, "MAX_SUBSTEPS", budget)
        monkeypatch.setattr(trajectory, "_reference_pass", counted)
        with pytest.raises(NoConvergence, match=str(budget)):
            reference_attitude(preset("fourier3"), 0.0, 4.0, 1e-13)
        assert used == levels

    def test_stage_errors_give_no_attitude_to_compare(self, monkeypatch):
        # poly3's rate grows as t^3: over 16 s the coarse refinements take
        # stages beyond the Jacobian's domain and are passed over; over
        # 1024 s every refinement within the budget does, and the
        # NoConvergence is chained to the last stage error.
        used = []
        reference_pass = trajectory._reference_pass

        def counted(signal, t0, t1, levels):
            used.extend(levels)
            return reference_pass(signal, t0, t1, levels)

        monkeypatch.setattr(trajectory, "_reference_pass", counted)
        signal = preset("poly3")
        want = reference_attitude(signal, 0.0, 16.0, 1e-12)
        [finer] = reference_pass(signal, 0.0, 16.0, [used[-2]])
        assert attitude_error_angle(want, finer) <= 1e-12
        [coarsest] = reference_pass(signal, 0.0, 16.0, [used[0]])
        assert isinstance(coarsest, StageEvaluationError)
        with pytest.raises(NoConvergence) as info:
            reference_attitude(signal, 0.0, 1024.0, 1e-12)
        assert isinstance(info.value.__cause__, StageEvaluationError)

    @pytest.mark.parametrize("name, horizon", [
        ("fourier3", 4.0), ("poly3", 4.0), ("poly3", 16.0)])
    def test_ladder_equals_one_refinement_per_pass(self, name, horizon,
                                                   monkeypatch):
        # Cells are bitwise the same in any pass, so predicting the
        # halvings and running them together changes no bit of the result.
        # poly3 over 16 s passes over refinements with stage errors.
        signal = preset(name)
        n, prev = trajectory.reference_substeps(signal, 0.0, horizon), None
        while True:
            [curr] = trajectory._reference_pass(signal, 0.0, horizon, [n])
            if isinstance(curr, StageEvaluationError):
                curr = None
            if (prev is not None and curr is not None
                    and attitude_error_angle(curr, prev) <= 1e-12):
                break
            prev, n = curr, 2 * n
        passes = []
        compose_steps = _batch.compose_steps

        def counted(produce, steps, *args):
            passes.append(list(steps))
            return compose_steps(produce, steps, *args)

        monkeypatch.setattr(_batch, "compose_steps", counted)
        got = reference_attitude(signal, 0.0, horizon, 1e-12)
        assert np.array_equal(got, curr)
        if (name, horizon) == ("fourier3", 4.0):
            assert passes == [[9, 18], [36, 72, 144, 288]]

    def test_refinement_gaps_fall_at_sixth_order(self):
        # Each halving of the substep divides the gap between successive
        # refinements by about 2^6, until it nears the roundoff floor.
        signal = preset("fourier3")
        attitudes = trajectory._reference_pass(
            signal, 0.0, 4.0, [9 * 2 ** k for k in range(6)])
        gaps = [attitude_error_angle(a, b)
                for a, b in zip(attitudes, attitudes[1:])]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 5.5 <= math.log2(coarse / fine) <= 6.5

    @pytest.mark.parametrize("name", ["fourier3", "poly3"])
    def test_agrees_with_a_fourth_order_ladder(self, name):
        # rk4 refined to 1e-13, one refinement per pass: an independent
        # integration of the same ODE.
        signal = preset(name)
        n, prev = trajectory.reference_substeps(signal, 0.0, 4.0), None
        while True:
            produce = partial(_batch.rate_steps,
                              _batch.RateSamples(signal, 0.0), [4.0 / n],
                              tableau_rk4(), JacobianMode.EXACT_CLOSED_FORM)
            [curr] = _batch.compose_steps(produce, [n])
            if prev is not None and attitude_error_angle(curr, prev) <= 1e-13:
                break
            prev, n = curr, 2 * n
        got = reference_attitude(signal, 0.0, 4.0, 1e-12)
        assert attitude_error_angle(got, curr) <= 1e-13

    def test_rejects_bad_arguments(self):
        signal = preset("poly3")
        with pytest.raises(ValueError):
            reference_attitude(signal, 1.0, 1.0, 1e-12)
        with pytest.raises(ValueError):
            reference_attitude(signal, 0.0, 1.0, 1e-14)
        with pytest.raises(ValueError):
            reference_attitude(signal, 0.0, 1.0, float("nan"))
        for t0, t1 in ((0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="t1 > t0"):
                reference_attitude(signal, t0, t1, 1e-12)
