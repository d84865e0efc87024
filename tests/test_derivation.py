"""The typed correction constants, the float node samples and the float
second-order form against their derivation in exact arithmetic.

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
against another typed constant.  In floats the procedure is
``rk.delta_phi_closed(tab, rate_model.rk_node_samples(window, tab.c), dt)``:
the node rows of any window shape at any tableau's own nodes, then the
tableau's expansion on those rows.  Both steps are held to the exact answer
within a few rounding errors.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from coning_kit.coning import MILLER, RK4_THETA3
from coning_kit.kinematics import _C_TAYLOR
from coning_kit.rate_model import (MeasurementWindow, eval_rate,
                                   fit_polynomial, rk_node_samples)
from coning_kit.rk import (delta_phi_closed, tableau_explicit_midpoint,
                           tableau_forward_euler, tableau_rk3, tableau_rk4,
                           tableau_rk6)

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


def node_basis(factory):
    """The tableau's distinct nodes, and the map that takes the rate at
    each of them as an unknown of its own."""
    nodes = sorted(set(exact_tableau(factory)[2]))
    return nodes, lambda s: tuple(Fraction(int(s == node)) for node in nodes)


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
    def test_affine_node_samples_of_unit_increments(self):
        n = node_map(2)
        got = rk_node_samples(MeasurementWindow(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 1.0), NODES)
        for sample, s in zip(got, NODES):
            assert sample.tolist() == [float(v) for v in n(s)] + [0.0]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_float_solve_agrees(self, q):
        # The node samples and the fitted model at the nodes, against the
        # exact rates of the exact increments' binary values.
        rng = np.random.default_rng(100 + q)
        for alignment in range(q):
            n = node_map(q, alignment)
            for dt in (1e-3, 0.1, 1.0):
                window = MeasurementWindow(rng.uniform(-1.0, 1.0, (q, 3)),
                                           dt, alignment)
                theta = [[Fraction(v) for v in row]
                         for row in window.increments.tolist()]
                got = rk_node_samples(window, NODES)
                model = fit_polynomial(window)
                scale = np.abs(window.increments).max() / dt
                for sample, s in zip(got, NODES):
                    want = np.array([float(sum(ni * row[k] for ni, row
                                               in zip(n(s), theta))
                                           / Fraction(dt))
                                     for k in range(3)])
                    assert np.abs(sample - want).max() <= 1e-13 * scale
                    fitted = eval_rate(model, float(s) * dt)
                    assert np.abs(fitted - want).max() <= 1e-12 * scale


ALL_TABLEAUX = [tableau_forward_euler, tableau_explicit_midpoint,
                tableau_rk3, tableau_rk4, tableau_rk6]


class TestClosedForms:
    @pytest.mark.parametrize("factory", ALL_TABLEAUX)
    def test_expansion_on_the_node_rates(self, factory):
        # One random rate per distinct node; the first-order part scales
        # with dt and the cross term with dt^2.
        nodes, basis = node_basis(factory)
        weights, k = derive(factory, basis)
        tab = factory()
        rng = np.random.default_rng(31)
        stage_node = np.searchsorted(np.array(nodes, dtype=float), tab.c)
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, (len(nodes), 3))
            for dt in (0.5, 1.0, 2.0):
                got = delta_phi_closed(tab, u[stage_node], dt)
                first = sum(float(w) * row for w, row in zip(weights, u))
                cross = sum(float(v) * np.cross(u[i], u[j])
                            for (i, j), v in k.items())
                want = dt * first + dt * dt * cross
                scale = (dt * sum(abs(float(w)) for w in weights)
                         + dt * dt * sum(abs(float(v)) for v in k.values()))
                assert np.abs(got - want).max() <= 8.0 * EPS * scale


class TestProcedureAtTheTableausNodes:
    @pytest.mark.parametrize("alignment", [2, 3])
    def test_rk6_on_four_increments_gives_the_derived_table(self, alignment):
        # rk6's nodes 1/3 and 2/3 are fed from the window like 0, 1/2, 1.
        weights, k = derive(tableau_rk6, node_map(4, alignment))
        assert weights == tuple(int(i == alignment) for i in range(4))
        tab = tableau_rk6()
        rng = np.random.default_rng(415 + alignment)
        for _ in range(200):
            theta = rng.uniform(-1.0, 1.0, (4, 3)) * 10.0 ** rng.uniform(-4, 0)
            dt = 10.0 ** rng.uniform(-3, 0)
            window = MeasurementWindow(theta, dt, alignment)
            got = delta_phi_closed(tab, rk_node_samples(window, tab.c), dt)
            want = theta[alignment] + sum(
                float(v) * np.cross(theta[i], theta[j])
                for (i, j), v in k.items())
            assert np.abs(got - want).max() <= 8.0 * EPS * np.abs(theta).max()


class TestJacobianSeries:
    def test_taylor_coefficients_are_rounded_bernoulli_terms(self):
        # c(a) = sum_{n>=1} (-1)^(n+1) B_2n a^(2n-2) / (2n)!
        b = bernoulli(2 * len(_C_TAYLOR) + 1)
        for k, coef in enumerate(_C_TAYLOR):
            n = k + 1
            exact = (-1) ** (n + 1) * b[2 * n] / math.factorial(2 * n)
            assert coef == float(exact), k
