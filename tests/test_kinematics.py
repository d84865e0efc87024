import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from coning_kit import _batch
from coning_kit.errors import AngleOutOfDomain
from coning_kit.kinematics import (MAX_ANGLE, JacobianMode, bortz_rhs, jinv,
                                   jinv_coefficient)
from coning_kit.so3 import wedge

from conftest import random_rotation_vector

mp.mp.dps = 50

EXACT = JacobianMode.EXACT_CLOSED_FORM
APPROX = JacobianMode.THIRD_ORDER_APPROX


#: Angles of the coefficient's accuracy test: zero, the smallest subnormal,
#: angles whose square underflows or nears the series' first term, then a
#: geometric sweep of the domain.
COEFFICIENT_ANGLES = [0.0, 5e-324, 1e-300, 1e-12,
                      *np.geomspace(1e-6, 2.0 * math.pi - 2e-3, 500).tolist()]


def coefficient_oracle(angle: float) -> float:
    """High-precision evaluation of the rate-equation coefficient.  Each of
    its two subtractions, ``1 - cos(a)`` and ``1 - a sin(a) / ...``, cancels
    about 2 log10(1/a) digits, which the precision covers."""
    if angle == 0.0:
        return 1.0 / 12.0
    with mp.workdps(40 + 4 * max(0, math.ceil(-math.log10(angle)))):
        a = mp.mpf(angle)
        return float((1 - a * mp.sin(a) / (2 * (1 - mp.cos(a)))) / a ** 2)


class TestCoefficient:
    def test_zero_limit(self):
        assert jinv_coefficient(0.0) == 1.0 / 12.0

    def test_value_at_pi(self):
        assert abs(jinv_coefficient(math.pi) - 1.0 / math.pi ** 2) <= 1e-16

    def test_accuracy_over_domain(self):
        for angle in COEFFICIENT_ANGLES:
            value = jinv_coefficient(angle)
            oracle = coefficient_oracle(angle)
            assert abs(value - oracle) <= 5e-15 * abs(oracle)

    def test_column_form_matches_floats_bit_for_bit(self):
        # Both forms run the same two kernels, so they agree to the bit in
        # the domain; outside it the column form gives NaN and no warning.
        angles = np.array(COEFFICIENT_ANGLES + np.linspace(
            1.0, MAX_ANGLE, 500, endpoint=False).tolist())
        want = np.array([jinv_coefficient(a) for a in angles.tolist()])
        assert np.array_equal(_batch.jinv_coefficients(angles), want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outside = _batch.jinv_coefficients(
                np.array([-1e-9, MAX_ANGLE, math.inf, math.nan]))
        assert np.isnan(outside).all()

    @pytest.mark.parametrize("angle", [-1e-9, 2.0 * math.pi - 1e-3,
                                       7.0, math.inf, math.nan])
    def test_domain_errors(self, angle):
        with pytest.raises(AngleOutOfDomain):
            jinv_coefficient(angle)


class TestJinv:
    def test_zero_gives_identity_both_modes(self):
        zero = np.zeros(3)
        assert np.array_equal(jinv(zero, EXACT), np.eye(3))
        assert np.array_equal(jinv(zero, APPROX), np.eye(3))

    def test_modes_agree_to_series_remainder(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            phi = random_rotation_vector(rng, 0.1)
            phi *= 0.1 / np.linalg.norm(phi)
            diff = np.linalg.norm(jinv(phi, EXACT) - jinv(phi, APPROX))
            assert diff <= 2e-6

    def test_mode_difference_bound(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            phi = random_rotation_vector(rng, 2.0)
            angle = np.linalg.norm(phi)
            if angle == 0.0:
                continue
            w2 = wedge(phi) @ wedge(phi)
            bound = abs(jinv_coefficient(angle) - 1.0 / 12.0) \
                * np.max(np.abs(w2)) + 1e-15
            diff = np.max(np.abs(jinv(phi, EXACT) - jinv(phi, APPROX)))
            assert diff <= bound * (1.0 + 1e-12)

    def test_quadratic_part_is_symmetric(self):
        rng = np.random.default_rng(204)
        for _ in range(100):
            phi = random_rotation_vector(rng, 3.0)
            rest = jinv(phi, EXACT) - np.eye(3) - 0.5 * wedge(phi)
            assert np.max(np.abs(rest - rest.T)) <= 1e-14

    def test_exact_mode_domain(self):
        with pytest.raises(AngleOutOfDomain):
            jinv(np.array([2.0 * math.pi - 5e-4, 0.0, 0.0]), EXACT)
        # the approximation accepts any finite vector
        jinv(np.array([2.0 * math.pi, 0.0, 0.0]), APPROX)


class TestBortzRhs:
    def test_roundtrip_through_jinv_solve(self):
        rng = np.random.default_rng(206)
        for _ in range(100):
            phi = random_rotation_vector(rng, 3.0)
            omega = rng.uniform(-2.0, 2.0, 3)
            back = np.linalg.solve(jinv(phi, EXACT),
                                   bortz_rhs(phi, omega, EXACT))
            assert np.max(np.abs(back - omega)) <= 1e-12

    def test_zero_rotation_vector_passes_omega_through(self):
        omega = np.array([0.3, -1.2, 0.7])
        assert np.array_equal(bortz_rhs(np.zeros(3), omega, EXACT), omega)
        assert np.array_equal(bortz_rhs(np.zeros(3), omega, APPROX), omega)

    def test_parallel_vectors_pass_through(self):
        omega = np.array([0.3, -1.2, 0.7])
        # power-of-two multiples keep the cross products exactly zero
        for lam in (0.5, 2.0, -4.0):
            assert np.array_equal(bortz_rhs(lam * omega, omega, EXACT), omega)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(207)
        for _ in range(10_000):
            phi = random_rotation_vector(rng, 3.0)
            omega = rng.uniform(-2.0, 2.0, 3)
            angle = float(np.linalg.norm(phi))
            c = coefficient_oracle(angle)
            direct = (omega + 0.5 * np.cross(phi, omega)
                      + c * np.cross(phi, np.cross(phi, omega)))
            diff = np.max(np.abs(bortz_rhs(phi, omega, EXACT) - direct))
            assert diff <= 1e-14

    def test_approx_mode_uses_constant_coefficient(self):
        rng = np.random.default_rng(208)
        for _ in range(100):
            phi = random_rotation_vector(rng, 3.0)
            omega = rng.uniform(-2.0, 2.0, 3)
            direct = (omega + 0.5 * np.cross(phi, omega)
                      + np.cross(phi, np.cross(phi, omega)) / 12.0)
            diff = np.max(np.abs(bortz_rhs(phi, omega, APPROX) - direct))
            assert diff <= 1e-14

    @pytest.mark.parametrize("phi, omega", [
        (np.zeros(4), np.ones(3)), (np.zeros(3), np.ones(5)),
        (np.zeros(2), np.ones(3)), (np.zeros(3), np.ones(2))])
    def test_rejects_vectors_of_another_length(self, phi, omega):
        # A longer vector once had its first three entries read.
        for mode in (EXACT, APPROX):
            with pytest.raises(ValueError, match="values to unpack"):
                bortz_rhs(phi, omega, mode)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(209)
        for mode in (EXACT, APPROX):
            for _ in range(100):
                phi = random_rotation_vector(rng, 3.0)
                omega = rng.uniform(-2.0, 2.0, 3)
                via_matrix = jinv(phi, mode) @ omega
                diff = np.max(np.abs(bortz_rhs(phi, omega, mode) - via_matrix))
                assert diff <= 1e-14
