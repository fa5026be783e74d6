"""Shared quadrature plumbing: grid specs, results with error estimates.

Everything here is deterministic. Gauss-Legendre nodes come from
numpy.polynomial.legendre and are cached per order, the G12/K25
Gauss-Kronrod rule from a literal table; Monte-Carlo streams are owned by
the callers (they pass an explicit seed through QuadSpec).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Largest number of nodes (or node pairs) one grid may hold and of samples one
# Monte-Carlo estimate may draw, and the largest Gauss-Legendre order, whose
# rule costs O(order^2) memory to build.  Past them a route raises BudgetError
# before it allocates.
NODE_BUDGET = 4_000_000
GL_ORDER_BUDGET = 4096


class BudgetError(RuntimeError):
    """Raised when a requested tolerance cannot be met within the node budget."""


def check_budget(count: int, what: str, budget: int = NODE_BUDGET) -> None:
    """Raise BudgetError when `count` of `what` exceeds `budget`; a count past
    Python's 4,300-digit int-to-str limit is named by a power of ten below it."""
    if count > budget:
        exponent = (count.bit_length() - 1) * 30102 // 100_000  # 0.30102 < log10 2
        shown = count if count < 10**4300 else f"more than 10^{exponent}"
        raise BudgetError(f"{shown} {what} exceed the budget of {budget}")


@dataclass(frozen=True)
class QuadSpec:
    """Resolution knobs for the numerical routes.

    rule        : "tensor" for product Gauss-Legendre grids, "montecarlo"
                  for the importance-sampled estimators.
    radius      : truncation radius in the base (frequency) variable.
    n_radial    : Gauss-Legendre points per radial panel/axis.
    n_angular   : points per angular circle (trapezoid, exact for periodics).
    samples     : Monte-Carlo sample count.
    seed        : Monte-Carlo stream seed; None lets the caller's default win.
    """

    rule: str = "tensor"
    radius: float = 40.0
    n_radial: int = 96
    n_angular: int = 64
    samples: int = 200_000
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.rule not in ("tensor", "montecarlo"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.radius <= 0 or self.n_radial < 2 or self.n_angular < 4:
            raise ValueError("degenerate quadrature spec")
        if self.samples < 100:
            raise ValueError("Monte-Carlo budget too small to estimate an error bar")
        check_budget(self.samples, "Monte-Carlo samples")


class QuadResult(NamedTuple):
    """A numerical value with an error estimate.

    For tensor rules the error is a two-resolution difference; for Monte Carlo
    it is the one-sigma standard error of the mean.
    """

    value: float
    error: float


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    check_budget(n, "Gauss-Legendre nodes in one rule", GL_ORDER_BUDGET)
    return np.polynomial.legendre.leggauss(n)


def gl_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _panels(edges, x: np.ndarray, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """A rule on [-1, 1] (nodes x, one or more weight rows) mapped onto consecutive
    panels along the last axis of `edges`."""
    edges = np.asarray(edges, dtype=float)
    a = edges[..., :-1, None]
    half = 0.5 * (edges[..., 1:, None] - a)
    shape = edges.shape[:-1] + (-1,)
    return ((a + half * (x + 1.0)).reshape(shape),) + tuple((half * w).reshape(shape)
                                                           for w in weights)


def gl_panels(edges: np.ndarray, n_per: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes over consecutive panels along the last axis of `edges`."""
    return _panels(edges, *_leggauss(n_per))


# The 25-node Gauss-Kronrod rule extending 12-point Gauss-Legendre (G12/K25),
# exact for degree 37 (its G12 part for 23), as its half on [0, 1], largest
# node first: the roots of P_12 at odd positions, those of its Stieltjes
# polynomial E_13 at even ones (0 last), with the interpolatory weights.
# Generated offline with mpmath at 50 digits and rounded to double; the
# generator is tests/test_quadrature.py's _gauss_kronrod_table.
_GK25_NODES = (
    0.9969339225295955, 0.9815606342467192, 0.9505377959431213, 0.9041172563704749,
    0.8435581241611533, 0.7699026741943047, 0.6840598954700559, 0.5873179542866175,
    0.48133945047815707, 0.3678314989981802, 0.2485057483204693, 0.1252334085114689, 0.0,
)
_GK25_WEIGHTS = (
    0.008257711433168396, 0.023036084038982232, 0.038915230469299476, 0.05369701760775625,
    0.06725090705083993, 0.0799202753336017, 0.09154946829504922, 0.10164973227906028,
    0.11002260497764407, 0.11671205350175683, 0.12162630352394839, 0.12458416453615608,
    0.12555689390547434,
)
# G12's weights at _GK25_NODES[1::2].
_G12_WEIGHTS = (
    0.04717533638651183, 0.10693932599531843, 0.16007832854334622, 0.20316742672306592,
    0.2334925365383548, 0.24914704581340277,
)
# The whole rule, ascending; built from lists, as a first ufunc call or slice
# assignment at import would cost every process about 0.14 MB of RSS.
_GK25_X = np.array([-x for x in _GK25_NODES[:-1]] + list(_GK25_NODES[::-1]))
_GK25_WK = np.array(_GK25_WEIGHTS + _GK25_WEIGHTS[-2::-1])
_G12_HALF = [w for g in _G12_WEIGHTS for w in (0.0, g)] + [0.0]
_GK25_WG = np.array(_G12_HALF + _G12_HALF[-2::-1])


def gk_panels(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G12/K25 nodes over consecutive panels along the last axis of `edges`, with
    the Kronrod weights and the embedded Gauss weights (0 at the Kronrod-only nodes):
    one set of integrand values gives both sums."""
    return _panels(edges, _GK25_X, _GK25_WK, _GK25_WG)


def gl_sqrt_panels(edges, n_per: int) -> tuple[np.ndarray, np.ndarray]:
    """gl_panels over 1-D `edges`, the first panel taken in v = sqrt(x - edges[0]),
    where a sqrt(x - edges[0]) kink at the left edge is analytic again."""
    v, w_v = gl_nodes(0.0, np.sqrt(edges[1] - edges[0]), n_per)
    x, w = gl_panels(edges[1:], n_per)
    return np.concatenate([edges[0] + v * v, x]), np.concatenate([2.0 * v * w_v, w])


def gl_panels_to_inf(edges, n_per: int) -> tuple[np.ndarray, np.ndarray]:
    """gl_panels along the last axis of `edges`, plus [edges[..., -1], oo) as one
    panel in v = 1/x, where a tail x^(-m) h(1/x) with h analytic is smooth again."""
    edges = np.asarray(edges, dtype=float)
    x, w = gl_panels(edges, n_per)
    v, w_v = gl_panels(np.stack([np.zeros_like(edges[..., -1]), 1.0 / edges[..., -1]], -1), n_per)
    return np.concatenate([x, 1.0 / v], -1), np.concatenate([w, w_v / (v * v)], -1)


def trapezoid_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced angles on [0, 2pi) with equal weights (periodic trapezoid)."""
    theta = np.arange(n) * (2.0 * np.pi / n)
    w = np.full(n, 2.0 * np.pi / n)
    return theta, w


def two_resolution(evaluate, coarse, fine) -> QuadResult:
    """Run `evaluate(coarse)` and `evaluate(fine)`; report the finer value.

    The coarse/fine difference is the (conservative) error estimate.
    """
    lo = evaluate(coarse)
    hi = evaluate(fine)
    return QuadResult(value=hi, error=abs(hi - lo))
