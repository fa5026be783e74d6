"""Quadrature-layer tests: the kink-graded panel rule and the G12/K25 table."""

import math

import mpmath
import numpy as np
import pytest

from hyperex.quadrature import (
    _G12_WEIGHTS, _GK25_NODES, _GK25_WEIGHTS, GL_ORDER_BUDGET, NODE_BUDGET, BudgetError,
    QuadResult, QuadSpec, _leggauss, check_budget, doubling_edges, gk_panels, gl_panels,
    gl_panels_to_inf, gl_sqrt_panels, two_resolution,
)


def _gauss_kronrod_table(n=12, dps=50):
    """Half of the G_n/K_(2n+1) rule for even n, as quadrature stores it: nodes
    in [0, 1] largest first, their Kronrod weights, and the Gauss weights.

    The Kronrod-only nodes are the roots of the Stieltjes polynomial E_(n+1),
    monic, odd, and orthogonal to x^k P_n(x) for k <= n; the weights are the
    interpolatory ones, from the moments of x^k on [-1, 1].
    """
    with mpmath.workdps(dps):
        def moment(k):
            return mpmath.mpf(0) if k % 2 else mpmath.mpf(2) / (k + 1)

        legendre = mpmath.taylor(lambda x: mpmath.legendre(n, x), 0, n)

        def against_legendre(j):  # int P_n(x) x^j dx
            return mpmath.fsum(c * moment(i + j) for i, c in enumerate(legendre))

        odd = range(1, n + 1, 2)  # E_(n+1) = x^(n+1) + sum_j e_j x^j, j odd
        e = mpmath.lu_solve(
            mpmath.matrix([[against_legendre(k + j) for j in odd] for k in odd]),
            mpmath.matrix([-against_legendre(k + n + 1) for k in odd]))
        stieltjes = [mpmath.mpf(0)] * (n + 2)
        stieltjes[n + 1] = mpmath.mpf(1)
        for j, c in zip(odd, e):
            stieltjes[j] = c

        def roots(coefficients):
            found = mpmath.polyroots(coefficients[::-1], maxsteps=200, extraprec=2 * dps)
            return sorted(mpmath.re(r) for r in found)

        gauss, kronrod = roots(legendre), roots(stieltjes)
        nodes = sorted(gauss + kronrod)

        def interpolatory(x):
            return mpmath.lu_solve(mpmath.matrix([[v**k for v in x] for k in range(len(x))]),
                                   mpmath.matrix([moment(k) for k in range(len(x))]))

        w_kronrod, w_gauss = interpolatory(nodes), interpolatory(gauss)
        half = [(x, w) for x, w in zip(nodes, w_kronrod) if x >= 0][::-1]
        return ([x for x, _ in half], [w for _, w in half],
                [w for x, w in zip(gauss, w_gauss) if x > 0][::-1])


def test_gauss_kronrod_table_matches_its_generator_to_one_ulp():
    nodes, w_kronrod, w_gauss = _gauss_kronrod_table()
    for table, exact in ((_GK25_NODES, nodes), (_GK25_WEIGHTS, w_kronrod),
                         (_G12_WEIGHTS, w_gauss)):
        assert len(table) == len(exact)
        for got, want in zip(table, exact):
            assert abs(got - float(want)) <= math.ulp(float(want)), (got, want)


def test_gauss_kronrod_rule_degrees_signs_and_gauss_nodes():
    x, w_kronrod, w_gauss = gk_panels(np.array([-1.0, 1.0]))
    assert x.size == 25 and np.all(np.diff(x) > 0.0)
    # Exact for x^k up to degree 37 (K25) and 23 (G12), and not at 38 and 24.
    def error(w, k):
        return abs(np.dot(w, x**k) - (0.0 if k % 2 else 2.0 / (k + 1)))

    assert all(error(w_kronrod, k) <= 1e-15 for k in range(38)) and error(w_kronrod, 38) > 1e-14
    assert all(error(w_gauss, k) <= 1e-15 for k in range(24)) and error(w_gauss, 24) > 1e-8
    is_gauss = w_gauss != 0.0
    assert np.all(w_kronrod > 0.0) and is_gauss.sum() == 12
    assert np.all(w_gauss[is_gauss] > 0.0) and np.all(is_gauss[1::2])
    # The table's Gauss nodes are numpy's 12-point nodes, largest first; numpy's
    # weights are good to about 1e-14.
    ref_x, ref_w = (v[6:][::-1] for v in _leggauss(12))
    assert np.all(np.abs(np.array(_GK25_NODES[1::2]) - ref_x) <= np.spacing(ref_x))
    assert np.allclose(_G12_WEIGHTS, ref_w, rtol=2e-14, atol=0.0)


def test_gk_panels_embed_gl_panels():
    # Over several rows of panels the embedded Gauss part is gl_panels' 12-point
    # rule to the ulp, and both weight rows sum to each row's length.
    edges = np.array([[0.0, 0.5, 2.0, 3.5], [1.0, 1.25, 1.5, 9.0]])
    x, w_kronrod, w_gauss = gk_panels(edges)
    gl_x, gl_w = gl_panels(edges, 12)
    assert x.shape == w_kronrod.shape == w_gauss.shape == (2, 75)
    is_gauss = w_gauss[0] != 0.0
    assert np.all(np.abs(x[:, is_gauss] - gl_x) <= np.spacing(edges[:, -1:]))
    assert np.allclose(w_gauss[:, is_gauss], gl_w, rtol=1e-14, atol=0.0)
    for w in (w_kronrod, w_gauss):
        assert np.allclose(w.sum(axis=1), edges[:, -1] - edges[:, 0], rtol=1e-15)


@pytest.mark.parametrize("a", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [4, 8, 24])
def test_sqrt_panels_integrate_the_kink_exactly(a, n):
    # In x = a + v^2 the first panel's integrand sqrt(x - a) x dx becomes the
    # polynomial 2 v^2 (a + v^2) dv, which n >= 3 Gauss-Legendre nodes integrate
    # exactly; plain Gauss-Legendre on the panel misses by 1e-8 or more.
    edges = [a, a + 1.0, a + 3.0, a + 4.0]
    x, w = gl_sqrt_panels(edges, n)
    x, w = x[:n], w[:n]
    assert np.all((a < x) & (x < a + 1.0))
    exact = 0.4 + a * (2.0 / 3.0)
    got = float(np.sum(w * np.sqrt(x - a) * x))
    assert abs(got - exact) <= 1e-15 * max(1.0, exact)
    xp, wp = gl_panels(np.array(edges[:2]), n)
    assert abs(float(np.sum(wp * np.sqrt(xp - a) * xp)) - exact) > 1e-9


@pytest.mark.parametrize("edges", [[0.0, 1.0, 5.0, 15.0, 60.0], [1.0, 1.25, 2.0], [2.0, 3.0]])
def test_sqrt_panels_equal_gl_panels_past_the_first(edges):
    x, w = gl_sqrt_panels(np.array(edges), 12)
    rest_x, rest_w = gl_panels(np.array(edges[1:]), 12)
    assert x.size == w.size == 12 * (len(edges) - 1)
    assert np.array_equal(x[12:], rest_x) and np.array_equal(w[12:], rest_w)
    assert math.isclose(float(np.sum(w)), edges[-1] - edges[0], rel_tol=1e-15)


@pytest.mark.parametrize("edges", [[1.0, 2.0, 4.0], [[0.5, 3.0], [2.0, 7.0]]])
def test_panels_to_inf_take_the_tail_in_one_over_x(edges):
    # In v = 1/x the tail's x^-4 dx becomes the polynomial v^2 dv, which
    # n >= 2 nodes integrate exactly: int_E^oo x^-4 dx = 1 / (3 E^3).
    edges = np.array(edges)
    x, w = gl_panels_to_inf(edges, 6)
    head_x, head_w = gl_panels(edges, 6)
    n = head_x.shape[-1]
    assert np.array_equal(x[..., :n], head_x) and np.array_equal(w[..., :n], head_w)
    assert x.shape[-1] == n + 6 and np.all(x[..., n:] > edges[..., -1:])
    tail = np.sum(w[..., n:] * x[..., n:] ** -4.0, axis=-1)
    exact = 1.0 / (3.0 * edges[..., -1] ** 3)
    assert np.all(np.abs(tail - exact) <= 1e-15 * exact)


@pytest.mark.parametrize("n", [6, 20, 28])
@pytest.mark.parametrize("edges", [
    [1.0, 2.0, 4.0],
    [[0.0, 0.3, 0.6, 0.6, 0.6], [0.0, 1.0, 1.15, 1.45, 2.05]],
    [[[0.5, 3.0, 3.0], [2.0, 7.0, 1e30]], [[1e-3, 2e-3, 8.0], [0.0, 0.0, 16.6]]],
])
def test_panels_to_inf_keep_the_bits_of_each_panel_on_its_own(edges, n):
    # One array for all panels, zero-width padding included: the head is
    # gl_panels' bits and the tail those of gl_panels on (0, 1/E] in v.
    edges = np.array(edges)
    x, w = gl_panels_to_inf(edges, n)
    head_x, head_w = gl_panels(edges, n)
    v, w_v = gl_panels(np.stack([np.zeros_like(edges[..., -1]), 1.0 / edges[..., -1]], -1), n)
    assert np.array_equal(x, np.concatenate([head_x, 1.0 / v], -1))
    assert np.array_equal(w, np.concatenate([head_w, w_v / (v * v)], -1))
    assert x.flags.c_contiguous and w.flags.c_contiguous


def test_quad_result_is_a_named_pair():
    res = QuadResult(1.5, 0.25)
    value, error = res
    assert (value, error) == (res.value, res.error) == (1.5, 0.25)
    assert two_resolution(lambda n: 1.0 / n, 2, 4) == QuadResult(0.25, 0.25)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (-0.5 * math.pi, 0.5 * math.pi)])
def test_gl_panels_on_one_interval_is_the_affine_map_of_the_rule(lo, hi):
    x, w = _leggauss(24)
    half = 0.5 * (hi - lo)
    got_x, got_w = gl_panels([lo, hi], 24)
    assert np.array_equal(got_x, lo + half * (x + 1.0)) and np.array_equal(got_w, half * w)


@pytest.mark.parametrize("first, end, want", [
    (0.25, 16.0, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
    (0.3, 1.0, [0.0, 0.3, 0.6, 1.0]),
    (2.0, 2.0, [0.0, 2.0]),
    (0.0, 0.0, [0.0, 0.0]),
])
def test_doubling_edges(first, end, want):
    assert doubling_edges(first, end).tolist() == want


def test_orders_and_samples_past_the_budget_are_refused():
    with pytest.raises(BudgetError, match="Gauss-Legendre"):
        gl_panels([0.0, 1.0], 10**12)
    with pytest.raises(BudgetError, match="Gauss-Legendre"):
        gl_panels(np.array([0.0, 1.0]), 10**12)
    with pytest.raises(BudgetError, match="Monte-Carlo samples"):
        QuadSpec(rule="montecarlo", samples=10**12)
    QuadSpec(rule="montecarlo", samples=NODE_BUDGET)
    gl_panels([0.0, 1.0], GL_ORDER_BUDGET)


@pytest.mark.parametrize("count, shown", [
    (NODE_BUDGET + 1, str(NODE_BUDGET + 1)),
    (10**4300 - 1, "9" * 4300),
    (10**4300, "more than 10^4299"),
    (10**6000 + 7, "more than 10^5999"),
], ids=["in-range", "4300-digits", "4301-digits", "6001-digits"])
def test_budget_message_names_counts_past_the_digit_limit(count, shown):
    # A count past Python's 4,300-digit int-to-str limit used to fail in the
    # f-string with a message that names no contract.
    with pytest.raises(BudgetError) as err:
        check_budget(count, "nodes")
    assert str(err.value) == f"{shown} nodes exceed the budget of {NODE_BUDGET}"
