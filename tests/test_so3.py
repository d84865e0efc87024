import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coning_kit.errors import (NearPiRotation, NotNearOrthogonal,
                               NotSkewSymmetric)
from coning_kit.so3 import (attitude_error_angle, compose, cross,
                            dcm_from_rotation_vector, orthogonality_defect,
                            orthonormalize, rotation_vector_from_dcm, vee,
                            wedge)

from conftest import expm_series, logm_series, random_rotation_vector

components = st.floats(min_value=-10.0, max_value=10.0,
                       allow_nan=False, allow_infinity=False)
vec3 = st.tuples(components, components, components)


class TestWedgeVee:
    def test_zero_vector_gives_zero_matrix(self):
        assert np.array_equal(wedge([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_matrix_layout(self):
        expected = np.array([[0.0, -3.0, 2.0],
                             [3.0, 0.0, -1.0],
                             [-2.0, 1.0, 0.0]])
        assert np.array_equal(wedge([1.0, 2.0, 3.0]), expected)

    def test_vee_inverts_layout(self):
        m = np.array([[0.0, -3.0, 2.0],
                      [3.0, 0.0, -1.0],
                      [-2.0, 1.0, 0.0]])
        assert np.array_equal(vee(m), [1.0, 2.0, 3.0])

    def test_vee_zero(self):
        assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))

    def test_vee_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            vee(np.eye(3))

    @given(vec3)
    def test_roundtrip_exact(self, v):
        assert np.array_equal(vee(wedge(v)), np.asarray(v))

    @given(vec3, vec3)
    def test_wedge_acts_as_cross_product(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        direct = np.array([a[1] * b[2] - a[2] * b[1],
                           a[2] * b[0] - a[0] * b[2],
                           a[0] * b[1] - a[1] * b[0]])
        assert np.allclose(wedge(a) @ b, direct, rtol=0, atol=1e-12)
        assert np.allclose(cross(a, b), direct, rtol=0, atol=0)

    @given(vec3, vec3)
    def test_antisymmetry(self, a, b):
        assert np.allclose(wedge(a) @ np.asarray(b),
                           -(wedge(b) @ np.asarray(a)),
                           rtol=0, atol=1e-12)

    @given(vec3)
    def test_wedge_is_skew(self, v):
        m = wedge(v)
        assert np.array_equal(m + m.T, np.zeros((3, 3)))


class TestExpMap:
    def test_zero_gives_identity(self):
        assert np.array_equal(dcm_from_rotation_vector([0.0, 0.0, 0.0]),
                              np.eye(3))

    def test_quarter_turn_about_z(self):
        t = dcm_from_rotation_vector([0.0, 0.0, math.pi / 2.0])
        expected = np.array([[0.0, 1.0, 0.0],
                             [-1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.allclose(t, expected, rtol=0, atol=1e-15)

    def test_matches_matrix_exponential_series(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            phi = random_rotation_vector(rng, math.pi)
            t = dcm_from_rotation_vector(phi)
            oracle = expm_series(-wedge(phi), terms=30)
            assert np.linalg.norm(t - oracle) <= 1e-13

    def test_small_angle_branch_matches_series(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            phi = random_rotation_vector(rng, 9e-5)
            t = dcm_from_rotation_vector(phi)
            oracle = expm_series(-wedge(phi), terms=8)
            assert np.linalg.norm(t - oracle) <= 1e-15

    def test_inverse_is_negated_vector(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            phi = random_rotation_vector(rng, math.pi)
            prod = dcm_from_rotation_vector(phi) @ dcm_from_rotation_vector(-phi)
            assert np.linalg.norm(prod - np.eye(3)) <= 1e-13

    def test_output_is_orthogonal(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            t = dcm_from_rotation_vector(random_rotation_vector(rng, math.pi))
            assert orthogonality_defect(t) <= 1e-12
            assert abs(np.linalg.det(t) - 1.0) <= 1e-12


class TestLogMap:
    def test_identity_gives_zero(self):
        assert np.array_equal(rotation_vector_from_dcm(np.eye(3)), np.zeros(3))

    def test_roundtrip_example(self):
        phi = np.array([0.1, -0.2, 0.3])
        back = rotation_vector_from_dcm(dcm_from_rotation_vector(phi))
        assert np.max(np.abs(back - phi)) <= 1e-13

    def test_roundtrip_large_angle(self):
        rng = np.random.default_rng(105)
        for _ in range(50):
            direction = rng.normal(size=3)
            phi = 3.0 * direction / np.linalg.norm(direction)
            back = rotation_vector_from_dcm(dcm_from_rotation_vector(phi))
            assert np.max(np.abs(back - phi)) <= 1e-11

    def test_roundtrip_reproduces_dcm(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            t = dcm_from_rotation_vector(
                random_rotation_vector(rng, math.pi - 0.1))
            t2 = dcm_from_rotation_vector(rotation_vector_from_dcm(t))
            assert np.linalg.norm(t2 - t) <= 1e-12

    def test_near_pi_rejected(self):
        phi = np.array([math.pi - 1e-7, 0.0, 0.0])
        with pytest.raises(NearPiRotation):
            rotation_vector_from_dcm(dcm_from_rotation_vector(phi))

    def test_small_angle_branch(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            phi = random_rotation_vector(rng, 9e-5)
            back = rotation_vector_from_dcm(dcm_from_rotation_vector(phi))
            assert np.max(np.abs(back - phi)) <= 1e-16 + 1e-12 * np.max(np.abs(phi))


class TestCompose:
    def test_identity_is_neutral(self):
        t = dcm_from_rotation_vector([0.4, -0.1, 0.8])
        assert np.array_equal(compose(t, np.eye(3)), t)

    def test_transpose_is_inverse(self):
        t = dcm_from_rotation_vector([0.4, -0.1, 0.8])
        assert np.linalg.norm(compose(t, t.T) - np.eye(3)) <= 1e-13

    def test_two_quarter_turns_make_half_turn(self):
        quarter = dcm_from_rotation_vector([0.0, 0.0, math.pi / 2.0])
        half = compose(quarter, quarter)
        # the finite rotation formula at pi about z: diag(-1, -1, 1)
        assert np.allclose(half, np.diag([-1.0, -1.0, 1.0]),
                           rtol=0, atol=1e-15)

    def test_non_finite_product_rejected(self):
        with pytest.raises(NotNearOrthogonal):
            compose(np.full((3, 3), np.nan), np.eye(3))

    def test_million_products_stay_on_manifold(self):
        rng = np.random.default_rng(108)
        factors = [dcm_from_rotation_vector(random_rotation_vector(rng, 1e-3))
                   for _ in range(1000)]
        t = np.eye(3)
        for k in range(1_000_000):
            t = compose(factors[k % 1000], t)
            if (k + 1) % 1000 == 0:
                t = orthonormalize(t)
        assert orthogonality_defect(t) <= 1e-10


class TestAttitudeErrorAngle:
    def test_identical_inputs(self):
        t = dcm_from_rotation_vector([0.2, 0.1, -0.5])
        assert attitude_error_angle(t, t) == 0.0

    def test_constructed_small_error(self):
        eps = 1e-3
        t_ref = dcm_from_rotation_vector([0.7, -0.3, 0.2])
        t_est = compose(dcm_from_rotation_vector([eps, 0.0, 0.0]), t_ref)
        assert abs(attitude_error_angle(t_est, t_ref) - eps) <= 1e-12

    def test_symmetry(self):
        a = dcm_from_rotation_vector([0.3, 0.4, -0.2])
        b = dcm_from_rotation_vector([-0.1, 0.2, 0.6])
        assert (attitude_error_angle(a, b)
                == pytest.approx(attitude_error_angle(b, a), abs=1e-15))

    def test_matches_series_log_oracle(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            t_ref = dcm_from_rotation_vector(
                random_rotation_vector(rng, math.pi - 0.2))
            delta = random_rotation_vector(rng, 0.5)
            t_est = compose(dcm_from_rotation_vector(delta), t_ref)
            rel = t_est @ t_ref.T
            oracle = np.linalg.norm(vee(logm_series(rel, terms=60)))
            assert abs(attitude_error_angle(t_est, t_ref) - oracle) <= 1e-12


class TestOrthonormalize:
    def test_orthogonal_input_unchanged(self):
        t = dcm_from_rotation_vector([0.5, -0.2, 0.9])
        assert np.max(np.abs(orthonormalize(t) - t)) <= 1e-15

    def test_small_perturbation_projected(self):
        t = dcm_from_rotation_vector([0.5, -0.2, 0.9])
        fixed = orthonormalize(t + 1e-8)
        assert orthogonality_defect(fixed) <= 1e-12
        assert abs(np.linalg.det(fixed) - 1.0) <= 1e-12

    def test_projection_is_locally_closest(self):
        rng = np.random.default_rng(110)
        t = dcm_from_rotation_vector([0.3, 0.8, -0.1])
        noisy = t + rng.normal(scale=1e-3, size=(3, 3))
        projected = orthonormalize(noisy)
        base = np.linalg.norm(noisy - projected)
        for axis in range(3):
            for eps in (1e-4, -1e-4, 1e-3, -1e-3):
                tweak = np.zeros(3)
                tweak[axis] = eps
                candidate = projected @ dcm_from_rotation_vector(tweak)
                assert np.linalg.norm(noisy - candidate) >= base

    def test_rejects_far_from_orthogonal(self):
        with pytest.raises(NotNearOrthogonal):
            orthonormalize(2.0 * np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry_without_det(self, bad):
        t = dcm_from_rotation_vector([0.5, -0.2, 0.9])
        t[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNearOrthogonal, match="not near SO"):
                orthonormalize(t)

    def test_rejects_negative_determinant(self):
        with pytest.raises(NotNearOrthogonal):
            orthonormalize(np.diag([1.0, 1.0, -1.0]))
