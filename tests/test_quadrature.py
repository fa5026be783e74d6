"""Quadrature-layer tests: the kink-graded panel rule."""

import math

import numpy as np
import pytest

from hyperex.quadrature import (
    GL_ORDER_BUDGET, NODE_BUDGET, BudgetError, QuadResult, QuadSpec, check_budget, gl_nodes,
    gl_panels, gl_panels_to_inf, gl_sqrt_panels, two_resolution,
)


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


def test_quad_result_is_a_named_pair():
    res = QuadResult(1.5, 0.25)
    value, error = res
    assert (value, error) == (res.value, res.error) == (1.5, 0.25)
    assert two_resolution(lambda n: 1.0 / n, 2, 4) == QuadResult(0.25, 0.25)


def test_orders_and_samples_past_the_budget_are_refused():
    with pytest.raises(BudgetError, match="Gauss-Legendre"):
        gl_nodes(0.0, 1.0, 10**12)
    with pytest.raises(BudgetError, match="Gauss-Legendre"):
        gl_panels(np.array([0.0, 1.0]), 10**12)
    with pytest.raises(BudgetError, match="Monte-Carlo samples"):
        QuadSpec(rule="montecarlo", samples=10**12)
    QuadSpec(rule="montecarlo", samples=NODE_BUDGET)
    gl_nodes(0.0, 1.0, GL_ORDER_BUDGET)


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
