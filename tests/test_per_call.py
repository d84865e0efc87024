"""The per-call strapdown functions against their numpy formulations.

``so3.compose``, the ``coning`` corrections, ``kinematics.bortz_rhs``,
``rk.integrate_attitude_step`` and the signal functions
``trajectory.omega_at`` and ``synth_delta_theta`` run on Python floats.
Each keeps the operations and their order of the numpy expression it
replaced, written out here as the oracle, so the two must agree bit for
bit: ``np.array_equal`` on every returned vector.
``omega_at`` of the cone is one exception: it is a closed form, held to
``ROW_TOL`` of ``max|omega|`` against the oracle that solves
``jinv(phi) @ omega = phi_dot``.
``synth_delta_theta`` of the cone and the Fourier signals is another: it
is a closed form, held to the oracle's composite Gauss-Legendre rule on
converged panels to ``ROW_TOL`` relative to ``(t1 - t0) max|omega|
(1 + |phase|)``.
``integrate_attitude_step`` is held to ``rk_step`` on the Bortz right-hand
side, and ``rk_step`` to its loop over the tableau arrays.  Its stage 0 is
``dt * omega``, with no Jacobian, where ``rk_step`` adds the signed zeros of
``phi x omega`` terms at ``phi = 0``: the stages may differ in the sign of
an exactly-zero component, and the steps still agree bit for bit, zero
rate components included.
The kernels the per-call functions share with the array engine,
``so3._dcm_entries`` and ``kinematics._coefficient_series``, are held bit
for bit, on floats and on columns, to the longer forms written out here.

``orthogonality_defect`` is the third exception: numpy forms ``T^T T`` with
BLAS, which may fuse multiply-adds, so the float formula agrees only to
rounding.  ``compose`` uses it only against the 1e-12 threshold, and the
inputs here keep well away from it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coning_kit import rk
from coning_kit.coning import (miller_single_speed, rk4_theta2, rk4_theta3,
                               two_speed_classic)
from coning_kit.errors import AngleOutOfDomain, StageEvaluationError
from coning_kit.kinematics import (_C_TAYLOR, JacobianMode,
                                   _apply_jacobian, _coefficient_series,
                                   bortz_rhs, jinv_coefficient)
from coning_kit.rate_model import (MeasurementWindow, RatePolynomial,
                                   eval_rate)
from coning_kit.rk import (ButcherTableau, integrate_attitude_step, rk_step,
                           tableau_explicit_midpoint, tableau_forward_euler,
                           tableau_rk3, tableau_rk4, tableau_rk6)
from coning_kit.so3 import (_dcm_entries, compose, cross,
                            dcm_from_rotation_vector, orthogonality_defect,
                            orthonormalize, wedge)
from coning_kit.trajectory import (ConingRotationVector, FourierRate,
                                   PolynomialRate, omega_at,
                                   synth_delta_theta)

from conftest import cone_rate_oracle

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

TABLEAUX = (tableau_forward_euler, tableau_explicit_midpoint, tableau_rk3,
            tableau_rk4, tableau_rk6)

_EYE3 = np.eye(3)

#: Relative bound of one evaluation that rounds differently from its
#: oracle: a few ulp observed, 1e-14 allowed.
ROW_TOL = 1e-14

EPS = np.finfo(float).eps


def vectors(rng, n):
    """``n`` 3-vectors, each of a magnitude drawn from 1e-8 to 1e2."""
    return rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8.0, 2.0, (n, 1))


# ------------------------------------------------- numpy formulations


def np_miller(prev, curr):
    curr = np.asarray(curr, dtype=float)
    beta = cross(prev, curr) / 12.0
    return curr + beta, beta


def np_rk4_theta2(window):
    # The affine model's node samples w(0), w(dt/2), w(dt) at alignment 1:
    # the cross term does not change under a shift of time, so it serves
    # any alignment.
    prior, curr = window.increments
    dt = window.dt
    omega0 = (prior + curr) / (2.0 * dt)
    omega_mid = curr / dt
    omega1 = (3.0 * curr - prior) / (2.0 * dt)
    beta = (dt * dt / 12.0) * cross(omega0 - omega1, omega_mid)
    return window.increments[window.alignment] + beta, beta


def np_rk4_theta3(window):
    # The cross sum of ``coning.RK4_THETA3``, in table order.
    prior, curr, nxt = window.increments
    beta = (13.0 * cross(prior, curr) + 13.0 * cross(curr, nxt)
            - cross(prior, nxt)) / 288.0
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


def signed_term_dcm_entries(x, y, z, k1, k2):
    """``so3._dcm_entries`` as a sum of signed terms: each ``k2`` product
    formed where it is used, and a skew term negated before it is added."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    k1x, k1y, k1z = k1 * x, k1 * y, k1 * z
    return (1.0 - k2 * (yy + zz), k1z + k2 * xy, -k1y + k2 * xz,
            -k1z + k2 * xy, 1.0 - k2 * (xx + zz), k1x + k2 * yz,
            k1y + k2 * xz, -k1x + k2 * yz, 1.0 - k2 * (xx + yy))


def loop_coefficient_series(a2):
    """``kinematics._coefficient_series`` as a Horner loop from 0.0."""
    acc = 0.0
    for coef in reversed(_C_TAYLOR):
        acc = acc * a2 + coef
    return acc


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
    return cone_rate_oracle(signal, t)


def np_synth_delta_theta(signal, t0, t1, panels):
    """Composite 5-point Gauss-Legendre of ``np_omega_at`` over ``panels``
    panels."""
    h = (t1 - t0) / panels
    half = 0.5 * h
    acc = np.zeros(3)
    for j in range(panels):
        mid = t0 + j * h + half
        for x, w in zip(_GL_NODES, _GL_WEIGHTS):
            acc = acc + w * np_omega_at(signal, mid + half * x)
    return acc * half


# ---------------------------------------------------------------- tests


def bits(values):
    """The bit patterns of float values or of equal-length columns, so that
    equality also tells signed zeros apart."""
    return np.array(values, dtype=float).view(np.uint64)


#: Finite operands whose products and sums of two stay finite.
kernel_floats = st.floats(min_value=-1e100, max_value=1e100)
#: ``a^2`` over the series form's domain, angles below 1 rad.
squared_angles = st.floats(min_value=0.0, max_value=1.0)


def columns(elements, count):
    """``count`` float64 columns of one drawn length."""
    return st.integers(1, 8).flatmap(lambda n: st.tuples(
        *[hnp.arrays(np.float64, n, elements=elements)] * count))


class TestSharedKernels:
    """The kernels the per-call functions share with the array engine,
    against the longer forms they replaced, on floats and on columns."""

    @given(st.tuples(*[kernel_floats] * 5))
    @settings(max_examples=300)
    def test_dcm_entries_on_floats(self, args):
        assert np.array_equal(bits(_dcm_entries(*args)),
                              bits(signed_term_dcm_entries(*args)))

    @given(columns(kernel_floats, 5))
    @settings(max_examples=100)
    def test_dcm_entries_on_columns(self, args):
        assert np.array_equal(bits(_dcm_entries(*args)),
                              bits(signed_term_dcm_entries(*args)))

    @given(squared_angles)
    @settings(max_examples=300)
    def test_coefficient_series_on_floats(self, a2):
        assert bits(_coefficient_series(a2)) == \
            bits(loop_coefficient_series(a2))

    @given(columns(squared_angles, 1))
    @settings(max_examples=100)
    def test_coefficient_series_on_columns(self, a2):
        [a2] = a2
        assert np.array_equal(bits(_coefficient_series(a2)),
                              bits(loop_coefficient_series(a2)))


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

    @given(seed=seeds)
    @settings(max_examples=200, deadline=None)
    def test_rk4_theta3_near_the_two_cross_grouping(self, seed):
        # The same correction grouped as (next x prior + 13 (prior - next)
        # x curr) / 288 rounds differently: 2.1 eps of the scale below at
        # most over 20,000 draws.
        rng = np.random.default_rng(seed)
        prior, curr, nxt = inc = vectors(rng, 3)
        grouped = (cross(nxt, prior)
                   + 13.0 * cross(prior - nxt, curr)) / 288.0
        p, c, n = (np.linalg.norm(v) for v in inc)
        scale = (13.0 * (p * c + c * n) + p * n) / 288.0
        beta = rk4_theta3(MeasurementWindow(inc, 0.1)).beta
        assert np.abs(beta - grouped).max() <= 4.0 * EPS * scale

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


@pytest.mark.parametrize("n", [2, 4])
def test_three_vector_functions_reject_other_lengths(n):
    # A 4-vector used to lose its fourth component.
    v, ones = [0.1] * n, np.ones(3)
    calls = (lambda: dcm_from_rotation_vector(v),
             lambda: dcm_from_rotation_vector(np.array(v)),
             lambda: wedge(v), lambda: cross(v, ones), lambda: cross(ones, v),
             lambda: two_speed_classic([v], ones),
             lambda: two_speed_classic([ones], v),
             lambda: miller_single_speed(v, ones))
    for call in calls:
        with pytest.raises(ValueError):
            call()


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
    @example(seed=7716374)
    @settings(max_examples=60, deadline=None)
    def test_matches_rk_step_on_bortz_rhs(self, factory, mode, seed):
        rng = np.random.default_rng(seed)
        tab = factory()
        t_k = rng.uniform(-10.0, 10.0)
        dt = 10.0 ** rng.uniform(-4.0, -0.5)
        sampler = random_sampler(rng, t_k, 10.0 ** rng.uniform(-2.0, 1.0))
        # A large rate can take a stage out of the exact Jacobian's domain
        # (the explicit example, with rk3); both sides must then raise alike.
        results = []
        for step in (integrate_attitude_step, bortz_attitude_step):
            try:
                results.append(step(sampler, t_k, dt, tab, mode))
            except StageEvaluationError as exc:
                results.append(str(exc))
        got, want = results
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("factory", TABLEAUX)
    @pytest.mark.parametrize("shape", [(4,), (2,), (3, 1), (1, 3)])
    def test_rejects_a_rate_that_is_not_a_3_vector(self, factory, shape):
        # Both forms once read the first three entries of a longer rate.
        # Now both raise alike at stage 0, whose sample is the first read.
        errors = []
        for step in (integrate_attitude_step, bortz_attitude_step):
            with pytest.raises(StageEvaluationError) as info:
                step(lambda t: np.ones(shape), 0.0, 0.1, factory(),
                     JacobianMode.EXACT_CLOSED_FORM)
            errors.append((str(info.value), info.value.stage,
                           type(info.value.__cause__)))
        assert errors[0] == errors[1]
        assert errors[0][1] == 0

    @pytest.mark.parametrize("factory", TABLEAUX)
    @pytest.mark.parametrize("mode", list(JacobianMode))
    @given(rates=st.lists(st.tuples(*[st.sampled_from(
        [0.0, -0.0, 5e-324, -0.25, 0.5, 3.0])] * 3), min_size=7, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_rk_step_with_zero_rate_components(self, factory, mode,
                                                       rates):
        # Stage 0 is dt * omega, where rk_step's Bortz rate adds signed
        # zeros to omega: only the sign of a zero component can differ, and
        # every later sum starts at +0.0, so the step agrees bit for bit.
        tab = factory()
        node_rates = dict(zip(tab.c.tolist(), map(np.array, rates)))
        results = []
        for step in (integrate_attitude_step, bortz_attitude_step):
            try:
                results.append(bits(step(lambda t: node_rates[t], 0.0, 1.0,
                                         tab, mode)))
            except StageEvaluationError as exc:
                results.append(str(exc))
        got, want = results
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("factory", TABLEAUX)
    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stage_zero_is_dt_omega(self, factory, seed):
        # With all the weight on stage 0, the step returns stage 0.
        tab = factory()
        first = ButcherTableau(tab.a, np.eye(tab.n)[0], tab.c)
        rng = np.random.default_rng(seed)
        t_k, dt = rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-4.0, -0.5)
        sampler = random_sampler(rng, t_k, 10.0 ** rng.uniform(-2.0, 1.0))
        for mode in JacobianMode:
            assert np.array_equal(
                integrate_attitude_step(sampler, t_k, dt, first, mode),
                dt * sampler(t_k))

    @pytest.mark.parametrize("factory", TABLEAUX)
    def test_stage_zero_evaluates_no_jacobian(self, factory, monkeypatch):
        calls = {"jinv_coefficient": 0, "_apply_jacobian": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name, fn in (("jinv_coefficient", jinv_coefficient),
                         ("_apply_jacobian", _apply_jacobian)):
            monkeypatch.setattr(rk, name, counted(name, fn))
        tab = factory()
        for mode, coefficients in ((JacobianMode.EXACT_CLOSED_FORM, tab.n - 1),
                                   (JacobianMode.THIRD_ORDER_APPROX, 0)):
            calls.update(dict.fromkeys(calls, 0))
            integrate_attitude_step(lambda t: np.array([0.3, -0.2, 0.1]),
                                    0.0, 0.1, tab, mode)
            assert calls == {"jinv_coefficient": coefficients,
                             "_apply_jacobian": tab.n - 1}

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
            got, want = omega_at(signal, t), np_omega_at(signal, t)
            if kind == "cone":
                bound = ROW_TOL * float(np.max(np.abs(want)))
                assert float(np.max(np.abs(got - want))) <= bound
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_synth_delta_theta(self, kind, seed):
        rng = np.random.default_rng(seed)
        signal = random_signal(rng, kind)
        t0 = rng.uniform(-20.0, 20.0)
        t1 = t0 + 10.0 ** rng.uniform(-4.0, 0.0)
        got = synth_delta_theta(signal, t0, t1)
        if kind == "poly":
            # One panel of the oracle's rule, exact for degree <= 9.
            assert np.array_equal(got, np_synth_delta_theta(signal, t0, t1, 1))
            return
        # The closed forms against the oracle on panels of at most a quarter
        # radian of the fastest sine, where its own error is below 1e-19 of
        # (t1 - t0) max|omega|.  Each rounds a phase f t + p to about
        # eps |f t + p|, so the bound grows with it; 0.75 eps of this scale
        # was the largest difference seen over 600 draws.
        if kind == "cone":
            sines = [(signal.precession_rate, 0.0)]
            # |omega| = 2 W sin(alpha / 2) is below 1.5 W.
            peak = 1.5 * signal.precession_rate
        else:
            sines = [(f, p) for _, f, p in signal.terms]
            peak = sum(float(np.linalg.norm(a)) for a, _, _ in signal.terms)
        panels = math.ceil(4.0 * max(f for f, _ in sines) * (t1 - t0)) + 1
        want = np_synth_delta_theta(signal, t0, t1, panels)
        phase = max(abs(f * t + p) for f, p in sines for t in (t0, t1))
        scale = (t1 - t0) * peak * (1.0 + phase)
        assert float(np.max(np.abs(got - want))) <= ROW_TOL * scale
