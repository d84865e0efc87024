"""The typed correction constants against their derivation, in exact
arithmetic.

A Runge-Kutta scheme applied to the rotation-vector equation
``phi' = omega + 1/2 phi x omega + ...`` gives, to second order in ``dt``,

    delta_phi = dt sum_nu b_nu w_nu
                + (dt^2 / 2) sum_nu,l b_nu a_nu,l  w_l x w_nu,

with ``w_nu`` the rate at node ``c_nu``.  A rate model fitted to Q sensor
increments makes each node rate a linear map of the increments,
``w(s) = sum_i N_i(s) theta_i / dt``, from the exact Q x Q integral system
``int over interval i of w = theta_i``.  Substituting gives first-order
weights on the increments and a correction
``beta = sum_{i<j} K_ij theta_i x theta_j``.  Everything below runs on
``fractions.Fraction``: the tableaux are read back to the rationals their
floats round, so a typed constant is checked against the procedure and not
against another typed constant.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from coning_kit.coning import MILLER, RK4_THETA3
from coning_kit.kinematics import _C_TAYLOR
from coning_kit.rate_model import (_QUAD_NODE_MAP, MeasurementWindow,
                                   _fit_integral_system, eval_rate,
                                   rk_node_samples_affine)
from coning_kit.rk import (delta_phi_rk3_closed, delta_phi_rk4_closed,
                           tableau_explicit_midpoint, tableau_forward_euler,
                           tableau_rk3, tableau_rk4)

EPS = np.finfo(float).eps

#: The three distinct nodes of the tableaux up to fourth order.
NODES = (Fraction(0), Fraction(1, 2), Fraction(1))


def rational(x):
    """The small-denominator rational that the float ``x`` rounds."""
    q = Fraction(x).limit_denominator(10 ** 4)
    assert float(q) == x
    return q


def exact_tableau(factory):
    tab = factory()
    return ([[rational(v) for v in row] for row in tab.a],
            [rational(v) for v in tab.b], [rational(v) for v in tab.c])


def inverse(m):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * p for v, p in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def node_map(q, alignment=1):
    """``s -> (N_0(s), ..., N_{q-1}(s))``: the rate of the degree q - 1
    polynomial whose integrals over ``[i - alignment, i - alignment + 1]``
    are the increments, at normalized time ``s`` (dt = 1)."""
    design = [[(Fraction(i - alignment + 1) ** (m + 1)
                - Fraction(i - alignment) ** (m + 1)) / (m + 1)
               for m in range(q)] for i in range(q)]
    coef = inverse(design)  # coef[m][i]: theta_i's share of power m
    return lambda s: tuple(sum(Fraction(s) ** m * coef[m][i]
                               for m in range(q)) for i in range(q))


def identity_map(s):
    """Node rates taken as the unknowns themselves, one per node."""
    return tuple(Fraction(int(s == node)) for node in NODES)


def derive(factory, basis):
    """First-order weights and ``{(i, j): K_ij}`` (i < j, nonzero) of the
    scheme's second-order expansion, node rates from ``basis``."""
    a, b, c = exact_tableau(factory)
    w = [basis(cv) for cv in c]
    size = len(w[0])
    weights = tuple(sum(bv * wv[i] for bv, wv in zip(b, w))
                    for i in range(size))
    m = [[sum(b[nu] * a[nu][l] * w[l][i] * w[nu][j]
              for nu in range(len(b)) for l in range(len(b))) / 2
          for j in range(size)] for i in range(size)]
    k = {(i, j): m[i][j] - m[j][i]
         for i in range(size) for j in range(i + 1, size)}
    return weights, {ij: v for ij, v in k.items() if v != 0}


def table_fractions(table):
    d, pairs = table
    return {(i, j): Fraction(n) / Fraction(d) for i, j, n in pairs}


def bernoulli(count):
    """``B_0 .. B_{count-1}`` by ``sum_{k<=m} C(m+1, k) B_k = 0``."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m))
                 / (m + 1))
    return b


class TestSingleSpeedTables:
    @pytest.mark.parametrize("factory", [tableau_rk3, tableau_rk4])
    def test_two_increments_collapse_to_miller(self, factory):
        weights, k = derive(factory, node_map(2))
        assert weights == (0, 1)
        assert k == table_fractions(MILLER) == {(0, 1): Fraction(1, 12)}

    def test_rk4_on_three_increments_gives_its_table(self):
        weights, k = derive(tableau_rk4, node_map(3))
        assert weights == (0, 1, 0)
        assert k == table_fractions(RK4_THETA3) == {
            (0, 1): Fraction(13, 288), (1, 2): Fraction(13, 288),
            (0, 2): Fraction(-1, 288)}

    def test_lower_orders(self):
        assert derive(tableau_explicit_midpoint, node_map(2)) == \
            ((0, 1), {(0, 1): Fraction(1, 8)})
        # One stage has no cross term; w(0) averages the two increments.
        assert derive(tableau_forward_euler, node_map(2)) == \
            ((Fraction(1, 2), Fraction(1, 2)), {})


class TestNodeMaps:
    def test_quadratic_map_is_24_times_the_exact_one(self):
        n = node_map(3)
        assert _QUAD_NODE_MAP.tolist() == \
            [[float(24 * v) for v in n(s)] for s in NODES]

    def test_affine_node_samples_of_unit_increments(self):
        n = node_map(2)
        got = rk_node_samples_affine(MeasurementWindow(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 1.0))
        for sample, s in zip((got.omega0, got.omega_mid, got.omega1),
                             NODES):
            assert sample.tolist() == [float(v) for v in n(s)] + [0.0]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_float_integral_system_agrees(self, q):
        for alignment in range(q):
            n = node_map(q, alignment)
            for i in range(q):
                inc = np.zeros((q, 3))
                inc[i, 0] = 1.0
                model = _fit_integral_system(
                    MeasurementWindow(inc, 1.0, alignment))
                for s in NODES:
                    assert eval_rate(model, float(s))[0] == \
                        pytest.approx(float(n(s)[i]), abs=1e-12)


class TestClosedForms:
    @pytest.mark.parametrize("factory, closed", [
        (tableau_rk3, delta_phi_rk3_closed),
        (tableau_rk4, delta_phi_rk4_closed)])
    def test_expansion_on_the_node_rates(self, factory, closed):
        # With w(0), w(1/2), w(1) = e_x, e_y, e_z each cross term lands in
        # its own component: e_x x e_y = e_z, e_y x e_z = e_x,
        # e_x x e_z = -e_y.  The first-order part scales with dt and the
        # cross term with dt^2, so three step sizes separate them.
        weights, k = derive(factory, identity_map)
        first = np.array([float(v) for v in weights])
        cross = np.array([float(k.get((1, 2), 0)), -float(k.get((0, 2), 0)),
                          float(k.get((0, 1), 0))])
        eye = np.eye(3)
        for dt in (0.5, 1.0, 2.0):
            got = closed(eye[0], eye[1], eye[2], dt)
            want = dt * first + dt * dt * cross
            assert np.abs(got - want).max() <= 4.0 * EPS * dt * dt


class TestJacobianSeries:
    def test_taylor_coefficients_are_rounded_bernoulli_terms(self):
        # c(a) = sum_{n>=1} (-1)^(n+1) B_2n a^(2n-2) / (2n)!
        b = bernoulli(2 * len(_C_TAYLOR) + 1)
        for k, coef in enumerate(_C_TAYLOR):
            n = k + 1
            exact = (-1) ** (n + 1) * b[2 * n] / math.factorial(2 * n)
            assert coef == float(exact), k
