"""The per-call strapdown functions against their numpy formulations.

``so3.compose``, the ``coning`` corrections, ``kinematics.bortz_rhs``,
``rk.integrate_attitude_step`` and the signal functions
``trajectory.omega_at`` and ``synth_delta_theta`` run on Python floats.
Each keeps the operations and their order of the numpy expression it
replaced, written out here as the oracle, so the two must agree bit for
bit: ``np.array_equal`` on every returned vector.
``integrate_attitude_step`` is held to ``rk_step`` on the Bortz right-hand
side, and ``rk_step`` to its loop over the tableau arrays.

``orthogonality_defect`` is the one exception: numpy forms ``T^T T`` with
BLAS, which may fuse multiply-adds, so the float formula agrees only to
rounding.  ``compose`` uses it only against the 1e-12 threshold, and the
inputs here keep well away from it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coning_kit.coning import (miller_single_speed, rk4_theta2, rk4_theta3,
                               two_speed_classic)
from coning_kit.errors import AngleOutOfDomain, StageEvaluationError
from coning_kit.kinematics import (JacobianMode, bortz_rhs, forward_jacobian,
                                   jinv_coefficient)
from coning_kit.rate_model import (MeasurementWindow, RatePolynomial,
                                   eval_rate, rk_node_samples_affine)
from coning_kit.rk import (ButcherTableau, integrate_attitude_step, rk_step,
                           tableau_explicit_midpoint, tableau_forward_euler,
                           tableau_rk3, tableau_rk4)
from coning_kit.so3 import (compose, cross, dcm_from_rotation_vector,
                            orthogonality_defect, orthonormalize)
from coning_kit.trajectory import (ConingRotationVector, FourierRate,
                                   PolynomialRate, QuadratureSpec, omega_at,
                                   synth_delta_theta)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

TABLEAUX = (tableau_forward_euler, tableau_explicit_midpoint, tableau_rk3,
            tableau_rk4)

_EYE3 = np.eye(3)


def vectors(rng, n):
    """``n`` 3-vectors, each of a magnitude drawn from 1e-8 to 1e2."""
    return rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8.0, 2.0, (n, 1))


# ------------------------------------------------- numpy formulations


def np_miller(prev, curr):
    curr = np.asarray(curr, dtype=float)
    beta = cross(prev, curr) / 12.0
    return curr + beta, beta


def np_rk4_theta2(window):
    # The node samples at the default alignment: the cross term does not
    # change under a shift of time, so it serves any alignment.
    nodes = rk_node_samples_affine(
        MeasurementWindow(window.increments, window.dt))
    dt = window.dt
    beta = (dt * dt / 12.0) * cross(nodes.omega0 - nodes.omega1,
                                    nodes.omega_mid)
    curr = window.increments[window.alignment]
    return curr + beta, beta


def np_rk4_theta3(window):
    prior, curr, nxt = window.increments
    beta = (cross(nxt, prior) + 13.0 * cross(prior - nxt, curr)) / 288.0
    return curr + beta, beta


def np_two_speed(increments, before):
    theta = np.zeros(3)
    half_sum = np.zeros(3)
    twelfth_sum = np.zeros(3)
    prev = np.asarray(before, dtype=float)
    for raw in increments:
        d = np.asarray(raw, dtype=float)
        half_sum = half_sum + cross(theta, d)
        twelfth_sum = twelfth_sum + cross(prev, d)
        theta = theta + d
        prev = d
    return theta + 0.5 * half_sum + twelfth_sum / 12.0


def np_rk_step(f, t_k, y_k, dt, tab):
    y = np.asarray(y_k, dtype=float)
    a, b, c = tab.a, tab.b, tab.c
    stages = []
    for nu in range(tab.n):
        psi = y
        for l in range(nu):
            a_nl = a[nu, l]
            if a_nl != 0.0:
                psi = psi + a_nl * stages[l]
        t_nu = t_k + dt * c[nu]
        try:
            f_nu = f(t_nu, psi)
        except Exception as exc:
            raise StageEvaluationError(nu, t_nu, str(exc)) from exc
        stages.append(dt * np.asarray(f_nu, dtype=float))
    out = y
    for l in range(tab.n):
        b_l = b[l]
        if b_l != 0.0:
            out = out + b_l * stages[l]
    return out


def np_defect(t):
    g = np.asarray(t)
    g = g.T @ g - _EYE3
    return math.sqrt(float((g * g).sum()))


def np_orthonormalize(m):
    t = np.array(m, dtype=float)
    defect = np_defect(t)
    for _ in range(10):
        if defect <= 1e-14:
            return t
        t = 1.5 * t - 0.5 * (t @ t.T @ t)
        defect = np_defect(t)
    return t


def np_compose(t2, t1):
    t = np.asarray(t2) @ np.asarray(t1)
    if np_defect(t) > 1e-12:
        t = np_orthonormalize(t)
    return t


def np_bortz_rhs(phi, omega, mode):
    phi = np.asarray(phi, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if mode is JacobianMode.EXACT_CLOSED_FORM:
        x, y, z = phi
        c = jinv_coefficient(math.sqrt(x * x + y * y + z * z))
    else:
        c = 1.0 / 12.0
    c1 = cross(phi, omega)
    return omega + 0.5 * c1 + c * cross(phi, c1)


def bortz_attitude_step(sampler, t_k, dt, tab, mode):
    def f(t, phi):
        return bortz_rhs(phi, sampler(t), mode)

    return rk_step(f, t_k, np.zeros(3), dt, tab)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def np_omega_at(signal, t):
    if isinstance(signal, PolynomialRate):
        return eval_rate(signal.model, t)
    if isinstance(signal, FourierRate):
        wx = wy = wz = 0.0
        for amp, freq, phase in signal.terms:
            s = math.sin(freq * t + phase)
            wx += amp[0] * s
            wy += amp[1] * s
            wz += amp[2] * s
        return np.array([wx, wy, wz])
    a, w = signal.cone_angle, signal.precession_rate
    cw, sw = math.cos(w * t), math.sin(w * t)
    phi = np.array([a * cw, a * sw, 0.0])
    phi_dot = np.array([-a * w * sw, a * w * cw, 0.0])
    return forward_jacobian(phi) @ phi_dot


def np_synth_delta_theta(signal, t0, t1, quadrature=None):
    if quadrature is None:
        if isinstance(signal, FourierRate):
            scale = max(freq for _, freq, _ in signal.terms)
        elif isinstance(signal, ConingRotationVector):
            scale = signal.precession_rate
        else:
            scale = 0.0
        panels = math.ceil((t1 - t0) * scale / math.pi) + 2
    else:
        panels = quadrature.panels_per_interval
    h = (t1 - t0) / panels
    half = 0.5 * h
    acc = np.zeros(3)
    for j in range(panels):
        mid = t0 + j * h + half
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            acc = acc + w * np_omega_at(signal, mid + half * x)
    return acc * half


# ---------------------------------------------------------------- tests


def assert_result_equal(got, want):
    assert np.array_equal(got.delta_phi, want[0])
    assert np.array_equal(got.beta, want[1])


class TestCorrections:
    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_miller(self, seed):
        prev, curr = vectors(np.random.default_rng(seed), 2)
        assert_result_equal(miller_single_speed(prev, curr),
                            np_miller(prev, curr))

    @given(seed=seeds, alignment=st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_rk4_theta2(self, seed, alignment):
        rng = np.random.default_rng(seed)
        window = MeasurementWindow(vectors(rng, 2),
                                   10.0 ** rng.uniform(-4.0, 0.0), alignment)
        assert_result_equal(rk4_theta2(window), np_rk4_theta2(window))

    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_rk4_theta3(self, seed):
        rng = np.random.default_rng(seed)
        window = MeasurementWindow(vectors(rng, 3),
                                   10.0 ** rng.uniform(-4.0, 0.0))
        assert_result_equal(rk4_theta3(window), np_rk4_theta3(window))

    @given(seed=seeds, m=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_two_speed_classic(self, seed, m):
        rng = np.random.default_rng(seed)
        increments = vectors(rng, m + 1)
        got = two_speed_classic(list(increments[1:]), increments[0])
        assert np.array_equal(got, np_two_speed(increments[1:],
                                                increments[0]))

    def test_q_checked(self):
        with pytest.raises(ValueError, match="Q=2"):
            rk4_theta2(MeasurementWindow(np.ones((3, 3)), 0.1))
        with pytest.raises(ValueError, match="Q=3"):
            rk4_theta3(MeasurementWindow(np.ones((2, 3)), 0.1))


def random_sampler(rng, t_k, scale):
    """Quadratic rate about ``t_k`` with coefficients of size ``scale``."""
    p = rng.normal(size=(3, 3)) * scale

    def sampler(t):
        tau = t - t_k
        return p[0] + p[1] * tau + p[2] * tau * tau

    return sampler


class TestBortzRhs:
    @pytest.mark.parametrize("mode", list(JacobianMode))
    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_form(self, mode, seed):
        # Angles from 1e-8 to 6 rad cover every branch of the coefficient.
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        phi = direction / np.linalg.norm(direction) * \
            10.0 ** rng.uniform(-8.0, math.log10(6.0))
        omega = vectors(rng, 1)[0]
        assert np.array_equal(bortz_rhs(phi, omega, mode),
                              np_bortz_rhs(phi, omega, mode))


class TestIntegrateAttitudeStep:
    @pytest.mark.parametrize("factory", TABLEAUX)
    @pytest.mark.parametrize("mode", list(JacobianMode))
    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_rk_step_on_bortz_rhs(self, factory, mode, seed):
        rng = np.random.default_rng(seed)
        tab = factory()
        t_k = rng.uniform(-10.0, 10.0)
        dt = 10.0 ** rng.uniform(-4.0, -0.5)
        sampler = random_sampler(rng, t_k, 10.0 ** rng.uniform(-2.0, 1.0))
        got = integrate_attitude_step(sampler, t_k, dt, tab, mode)
        want = bortz_attitude_step(sampler, t_k, dt, tab, mode)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("factory", TABLEAUX)
    @given(seed=seeds, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sampler_failure_reported_at_the_same_stage(self, factory, seed,
                                                        data):
        tab = factory()
        fail_at = data.draw(st.integers(0, tab.n - 1))
        rng = np.random.default_rng(seed)
        t_k, dt = rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-4.0, -0.5)
        smooth = random_sampler(rng, t_k, 1.0)

        def failing(calls):
            def sampler(t):
                calls.append(t)
                if len(calls) > fail_at:
                    raise AngleOutOfDomain("sensor gap")
                return smooth(t)
            return sampler

        errors = []
        for step in (integrate_attitude_step, bortz_attitude_step):
            with pytest.raises(StageEvaluationError) as info:
                step(failing([]), t_k, dt, tab, JacobianMode.EXACT_CLOSED_FORM)
            errors.append(info.value)
        got, want = errors
        assert (got.stage, got.time) == (want.stage, want.time) == \
            (fail_at, t_k + dt * float(tab.c[fail_at]))
        assert isinstance(got.__cause__, AngleOutOfDomain)

    @pytest.mark.parametrize("factory", TABLEAUX[1:])
    def test_domain_error_reported_at_the_same_stage(self, factory):
        # A rate this large takes the first stage's rotation vector beyond
        # the exact Jacobian's domain.
        tab = factory()
        errors = []
        for step in (integrate_attitude_step, bortz_attitude_step):
            with pytest.raises(StageEvaluationError) as info:
                step(lambda t: np.array([40.0, 0.0, 0.0]), 0.5, 1.0, tab,
                     JacobianMode.EXACT_CLOSED_FORM)
            errors.append(info.value)
        got, want = errors
        assert (got.stage, got.time, str(got)) == \
            (want.stage, want.time, str(want))


class TestRkStep:
    @pytest.mark.parametrize("factory", TABLEAUX)
    @given(seed=seeds, dim=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_over_tableau_arrays(self, factory, seed, dim):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim))
        y0 = rng.normal(size=dim)
        t_k, dt = rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.5)

        def f(t, y):
            return m @ y + math.sin(t)

        assert np.array_equal(rk_step(f, t_k, y0, dt, factory()),
                              np_rk_step(f, t_k, y0, dt, factory()))

    def test_defective_tableau_runs_every_nonzero_coefficient(self):
        # Not explicit and with a NaN weight: the plan keeps the nonzero
        # entries below the diagonal and every nonzero weight, NaN included.
        tab = ButcherTableau(a=[[0.0, 1.0], [0.25, 0.0]], b=[np.nan, 0.5],
                             c=[0.0, 0.3])

        def f(t, y):
            return y + t

        got = rk_step(f, 0.2, np.array([1.0]), 0.1, tab)
        assert np.array_equal(got, np_rk_step(f, 0.2, np.array([1.0]), 0.1,
                                              tab), equal_nan=True)


def random_dcm(rng):
    return dcm_from_rotation_vector(rng.normal(size=3))


class TestCompose:
    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_product_on_the_manifold(self, seed):
        rng = np.random.default_rng(seed)
        t2, t1 = random_dcm(rng), random_dcm(rng)
        assert np.array_equal(compose(t2, t1), np_compose(t2, t1))

    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_drifted_product_projected(self, seed):
        rng = np.random.default_rng(seed)
        t2 = random_dcm(rng) + rng.normal(size=(3, 3)) * 1e-9
        t1 = random_dcm(rng)
        assert np.array_equal(compose(t2, t1), np_compose(t2, t1))
        assert np.array_equal(orthonormalize(t2), np_orthonormalize(t2))

    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_defect_matches_numpy_to_rounding(self, seed):
        rng = np.random.default_rng(seed)
        t = random_dcm(rng) + rng.normal(size=(3, 3)) * \
            10.0 ** rng.uniform(-16.0, 1.0)
        bound = 1e-14 * (1.0 + float((t * t).sum()))
        assert abs(orthogonality_defect(t) - np_defect(t)) <= bound


def random_signal(rng, kind):
    """A polynomial (degree 0 to 5, origin zero or not), Fourier or cone
    signal with seeded parameters."""
    if kind == "poly":
        q = int(rng.integers(1, 7))
        coeffs = rng.normal(size=(q, 3)) * 10.0 ** rng.uniform(-3.0, 1.0,
                                                               (q, 1))
        origin = 0.0 if rng.random() < 0.25 else rng.uniform(-10.0, 10.0)
        return PolynomialRate(RatePolynomial(coeffs, origin))
    if kind == "fourier":
        return FourierRate(tuple(
            (rng.normal(size=3), 10.0 ** rng.uniform(-1.0, 1.5),
             rng.uniform(-math.pi, math.pi))
            for _ in range(int(rng.integers(1, 6)))))
    return ConingRotationVector(rng.uniform(0.01, 1.5),
                                10.0 ** rng.uniform(-1.0, 1.5))


SIGNAL_KINDS = ("poly", "fourier", "cone")


class TestSignal:
    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_omega_at(self, kind, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        for t in rng.uniform(-20.0, 20.0, 4):
            assert np.array_equal(omega_at(signal, t), np_omega_at(signal, t))

    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds, panels=st.none() | st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_synth_delta_theta(self, kind, seed, panels):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        t0 = rng.uniform(-20.0, 20.0)
        t1 = t0 + 10.0 ** rng.uniform(-4.0, 0.0)
        quadrature = None if panels is None else QuadratureSpec(panels)
        assert np.array_equal(synth_delta_theta(signal, t0, t1, quadrature),
                              np_synth_delta_theta(signal, t0, t1, quadrature))
