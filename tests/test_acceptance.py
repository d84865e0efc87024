"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (with the measured figure) once its
assertions hold; stated runtime bounds are asserted alongside the numeric
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from coning_kit.bench import MethodId, MethodKind, SweepConfig, propagate, \
    run_sweep
from coning_kit.coning import (affine_coning_oracle,
                               appendix_increment_identity_check,
                               goodman_robinson_beta_quadrature,
                               miller_single_speed, rk4_theta2, rk4_theta3,
                               two_speed_classic)
from coning_kit.kinematics import JacobianMode
from coning_kit.rate_model import (MeasurementWindow, RatePolynomial,
                                   fit_polynomial, rk_node_samples)
from coning_kit.rk import rk_step, tableau_rk4
from coning_kit.so3 import (attitude_error_angle, dcm_from_rotation_vector,
                            rotation_vector_from_dcm)
from coning_kit.trajectory import (PolynomialRate, preset, reference_attitude)

SWEEP_DTS = tuple(0.25 * 2.0 ** -k for k in range(7))


def announce(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}")


@pytest.fixture(scope="module")
def coning_reference():
    signal = preset("coning")
    return signal, reference_attitude(signal, 0.0, 4.0, 1e-12)


def test_criterion_1_single_speed_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(811)
    worst = 0.0
    for _ in range(10_000):
        prev, curr = rng.uniform(-1.0, 1.0, (2, 3))
        dt = 10.0 ** rng.uniform(-3, 0)
        window = MeasurementWindow(np.stack([prev, curr]), dt)
        a = rk4_theta2(window).delta_phi
        b = miller_single_speed(prev, curr).delta_phi
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-15
    assert elapsed < 1.0
    announce(1, f"solver/single-speed max relative difference {worst:.3e} "
                f"over 10^4 windows ({elapsed:.2f} s)")


def test_criterion_2_appendix_oracle_chain():
    start = time.perf_counter()
    rng = np.random.default_rng(812)
    worst_resid = 0.0
    worst_quad = 0.0
    for _ in range(100):
        p1 = rng.uniform(-1.0, 1.0, 3)
        p2 = rng.uniform(-1.0, 1.0, 3)
        p1 /= max(1.0, np.linalg.norm(p1))
        p2 /= max(1.0, np.linalg.norm(p2))
        cross_norm = float(np.linalg.norm(np.cross(p1, p2)))
        for dt in (1.0, 0.1, 0.01):
            scale = cross_norm * dt ** 3
            resid = appendix_increment_identity_check(p1, p2, dt)
            worst_resid = max(worst_resid, resid / scale)

            def omega(t, p1=p1, p2=p2):
                return p1 + p2 * t

            quad = goodman_robinson_beta_quadrature(omega, 0.0, dt, 8)
            exact = affine_coning_oracle(p1, p2, dt)
            gap = float(np.max(np.abs(quad - exact)))
            worst_quad = max(worst_quad, gap / (1e-12 * scale))
    elapsed = time.perf_counter() - start
    assert worst_resid <= 1e-15
    assert worst_quad <= 1.0
    assert elapsed < 2.0
    announce(2, f"identity residual <= {worst_resid:.3e} relative, "
                f"quadrature gap at {worst_quad:.2f} of bound "
                f"({elapsed:.2f} s)")


def test_criterion_3_order_slopes_on_fourier3():
    start = time.perf_counter()
    cfg = SweepConfig(signal="fourier3",
                      methods=(MethodId(MethodKind.FWD_EULER_OMEGA),
                               MethodId(MethodKind.EXPLICIT_MIDPOINT_OMEGA),
                               MethodId(MethodKind.RK3_OMEGA),
                               MethodId(MethodKind.RK4_OMEGA)),
                      step_sizes=SWEEP_DTS,
                      horizon=4.0,
                      jacobian_mode=JacobianMode.EXACT_CLOSED_FORM)
    report = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    windows = {"fwdeuler": (0.8, 1.3), "exmid": (1.7, 2.4),
               "rk3omega": (2.6, 3.5), "rk4omega": (3.6, 4.5)}
    slopes = {}
    for summary in report.summaries:
        lo, hi = windows[summary.method.label()]
        assert summary.order is not None
        assert lo <= summary.order <= hi, \
            f"{summary.method.label()}: slope {summary.order:.3f} " \
            f"outside [{lo}, {hi}]"
        slopes[summary.method.label()] = summary.order
    assert elapsed < 20.0
    announce(3, "fourier3 slopes "
                + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
                + f" ({elapsed:.2f} s)")


def test_criterion_4_coning_ordering_claims():
    start = time.perf_counter()
    cfg = SweepConfig(signal="coning",
                      methods=(MethodId(MethodKind.SINGLE_SPEED_THETA2),
                               MethodId(MethodKind.SINGLE_SPEED_THETA3),
                               MethodId(MethodKind.RK3_OMEGA),
                               MethodId(MethodKind.RK4_OMEGA)),
                      step_sizes=SWEEP_DTS,
                      horizon=4.0)
    report = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    by_label = {s.method.label(): s for s in report.summaries}
    theta2, theta3 = by_label["theta2"], by_label["theta3"]
    rk3, rk4 = by_label["rk3omega"], by_label["rk4omega"]

    # (a) the quadratic model improves on the affine one at every step size
    for r2, r3 in zip(theta2.records, theta3.records):
        assert r3.final_error_angle <= r2.final_error_angle, \
            f"dt={r2.dt}: theta3 {r3.final_error_angle:.3e} > " \
            f"theta2 {r2.final_error_angle:.3e}"
    # (b) three-increment correction tracks the four-stage rate solver
    assert abs(theta3.order - rk4.order) <= 0.5
    # (c) two-increment correction tracks the three-stage rate solver
    assert abs(theta2.order - rk3.order) <= 0.5
    assert elapsed < 20.0
    announce(4, f"theta3<=theta2 at all 7 step sizes; slopes "
                f"theta3={theta3.order:.2f} vs rk4={rk4.order:.2f}, "
                f"theta2={theta2.order:.2f} vs rk3={rk3.order:.2f} "
                f"({elapsed:.2f} s)")


def test_criterion_5_jacobian_mode_robustness(coning_reference):
    signal, ref = coning_reference
    dt = 1.0 / 256.0
    method = MethodId(MethodKind.RK4_OMEGA)
    errors = {}
    for mode in (JacobianMode.EXACT_CLOSED_FORM,
                 JacobianMode.THIRD_ORDER_APPROX):
        final = propagate(method, signal, dt, 4.0, mode)
        errors[mode] = attitude_error_angle(final, ref)
    exact = errors[JacobianMode.EXACT_CLOSED_FORM]
    approx = errors[JacobianMode.THIRD_ORDER_APPROX]
    change = abs(exact - approx) / exact
    assert change < 0.10
    announce(5, f"rate-solver error {exact:.3e} changes by {change:.2e} "
                f"between Jacobian modes")


def test_criterion_6_exactness_invariants():
    start = time.perf_counter()

    # constant-rate propagation is exact for every method at every dt
    omega = np.array([0.3, 0.0, 0.0])
    signal = PolynomialRate(RatePolynomial(np.array([omega])))
    truth = dcm_from_rotation_vector(omega)
    methods = [MethodId(k, 4) if k is MethodKind.TWO_SPEED_CLASSIC
               else MethodId(k) for k in MethodKind]
    worst_const = 0.0
    for method in methods:
        for dt in (0.25, 0.125, 0.0625):
            err = attitude_error_angle(
                propagate(method, signal, dt, 1.0), truth)
            worst_const = max(worst_const, err)
    assert worst_const <= 1e-12

    # single-axis histories leave every correction identically zero
    rng = np.random.default_rng(816)
    mags = rng.uniform(0.1, 0.5, 8)
    incs = [np.array([m, 0.0, 0.0]) for m in mags]
    zero = np.zeros(3)
    assert np.array_equal(miller_single_speed(incs[0], incs[1]).beta, zero)
    window2 = MeasurementWindow(np.stack(incs[:2]), 0.1)
    assert np.array_equal(rk4_theta2(window2).beta, zero)
    window3 = MeasurementWindow(np.stack(incs[:3]), 0.1)
    assert np.array_equal(rk4_theta3(window3).beta, zero)
    assert np.array_equal(two_speed_classic(incs[1:], incs[0]),
                          sum(incs[1:]))
    beta = goodman_robinson_beta_quadrature(
        lambda t: np.array([math.sin(t), 0.0, 0.0]), 0.0, 1.0, 8)
    assert np.array_equal(beta, zero)

    # exponential/logarithm round trip
    worst_round = 0.0
    for _ in range(10_000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        phi = direction * rng.uniform(0.0, math.pi - 0.1)
        back = rotation_vector_from_dcm(dcm_from_rotation_vector(phi))
        worst_round = max(worst_round, float(np.max(np.abs(back - phi))))
    elapsed = time.perf_counter() - start
    assert worst_round <= 1e-11
    assert elapsed < 3.0
    announce(6, f"constant-rate error <= {worst_const:.3e}, single-axis "
                f"corrections identically zero, round-trip <= "
                f"{worst_round:.3e} ({elapsed:.2f} s)")


def test_criterion_7_quadratic_fit_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(817)
    worst_fit = 0.0
    worst_node = 0.0
    for _ in range(1000):
        coeffs = rng.uniform(-1.0, 1.0, (3, 3))
        # coefficient recovery amplifies roundoff by 1/dt^2; stay above
        # dt ~ 0.05 so the 1e-12 bound is meaningful
        dt = 10.0 ** rng.uniform(-1.3, 0.0)

        def theta(t):
            return coeffs[0] * t + coeffs[1] * t ** 2 / 2.0 \
                + coeffs[2] * t ** 3 / 3.0

        incs = np.stack([theta(j * dt) - theta((j - 1) * dt)
                         for j in (0, 1, 2)])
        window = MeasurementWindow(incs, dt)
        fitted = fit_polynomial(window).coeffs
        scale = np.max(np.abs(coeffs))
        worst_fit = max(worst_fit,
                        float(np.max(np.abs(fitted - coeffs))) / scale)
        w0, wm, w1 = rk_node_samples(window)
        for sample, t in ((w0, 0.0), (wm, 0.5 * dt), (w1, dt)):
            true_rate = coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
            worst_node = max(worst_node,
                             float(np.max(np.abs(sample - true_rate))))
    elapsed = time.perf_counter() - start
    assert worst_fit <= 1e-12
    assert worst_node <= 1e-12
    assert elapsed < 2.0
    announce(7, f"coefficient recovery <= {worst_fit:.3e} relative, node "
                f"samples <= {worst_node:.3e} ({elapsed:.2f} s)")


def test_criterion_8_scalar_solver_sanity():
    h = 0.25
    out = rk_step(lambda t, y: y, 0.0, np.array([1.0]), h, tableau_rk4())
    taylor = float(Fraction(1) + Fraction(h) + Fraction(h) ** 2 / 2
                   + Fraction(h) ** 3 / 6 + Fraction(h) ** 4 / 24)
    rel = abs(out[0] - taylor) / taylor
    assert rel <= 1e-16
    announce(8, f"one four-stage step reproduces the degree-4 Taylor value "
                f"(relative error {rel:.1e})")
