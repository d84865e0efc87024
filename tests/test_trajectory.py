import math

import numpy as np
import pytest

from coning_kit import trajectory
from coning_kit.coning import affine_coning_oracle
from coning_kit.errors import NoConvergence
from coning_kit.kinematics import forward_jacobian, jinv
from coning_kit.rate_model import RatePolynomial
from coning_kit.so3 import (attitude_error_angle, dcm_from_rotation_vector,
                            rotation_vector_from_dcm)
from coning_kit.trajectory import (ConingRotationVector, FourierRate,
                                   PolynomialRate, QuadratureSpec,
                                   exact_attitude, omega_at, preset,
                                   reference_attitude, synth_delta_theta,
                                   PRESET_NAMES)


def make_poly(coeffs):
    return PolynomialRate(RatePolynomial(np.asarray(coeffs, dtype=float)))


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

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(panels_per_interval=0)


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
            fd = forward_jacobian(phi) @ ((phi_p - phi_m) / (2.0 * h))
            slopes.append(np.max(np.abs(fd - omega_at(signal, t))))
        order = math.log(slopes[0] / slopes[1]) / math.log(10.0)
        assert abs(order - 2.0) <= 0.2

    def test_unknown_signal_type_rejected(self):
        with pytest.raises(TypeError):
            omega_at(object(), 0.0)


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

    @pytest.mark.parametrize("name", ["fourier3", "coning"])
    def test_default_panels_converged_at_sensor_scales(self, name):
        signal = preset(name)
        for t0, dt in ((0.0, 0.25), (1.1, 0.05), (3.7, 0.25)):
            base = synth_delta_theta(signal, t0, t0 + dt)
            default_panels = math.ceil(
                dt * (signal.precession_rate
                      if name == "coning" else math.sqrt(5.0)) / math.pi) + 2
            doubled = synth_delta_theta(
                signal, t0, t0 + dt, QuadratureSpec(2 * default_panels))
            assert np.max(np.abs(base - doubled)) <= 1e-13

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

    @pytest.mark.parametrize("t1, quadrature", [
        (1e12, None), (1e308, None),
        (1.0, QuadratureSpec(trajectory.MAX_SUBSTEPS + 1))],
        ids=["default-panels", "panels-overflow", "quadrature-spec"])
    def test_panel_budget_checked_before_any_rate(self, t1, quadrature,
                                                  monkeypatch):
        # fourier3 over [0, 1e12] s takes 7.1e11 panels by default.
        def no_rate(*args, **kwargs):
            raise AssertionError("rate evaluated")

        monkeypatch.setattr(trajectory, "_rate_xyz", no_rate)
        with pytest.raises(ValueError, match="panels exceed the budget"):
            synth_delta_theta(preset("fourier3"), 0.0, t1, quadrature)


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
        rk4_attitude = trajectory._rk4_attitude

        def counted(signal, t0, t1, substeps):
            used.append(substeps)
            return rk4_attitude(signal, t0, t1, substeps)

        monkeypatch.setattr(trajectory, "MAX_SUBSTEPS", budget)
        monkeypatch.setattr(trajectory, "_rk4_attitude", counted)
        with pytest.raises(NoConvergence, match=str(budget)):
            reference_attitude(preset("fourier3"), 0.0, 4.0, 1e-13)
        assert used == levels

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
