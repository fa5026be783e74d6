"""Functional-layer tests: constants, profile ratios, combiners, concentration.

Closed expressions are compared against their defining arithmetic, the
quadrature ratio against the closed ratio, and every tested ratio against the
strict upper constant.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hyperex.functionals
from hyperex.extension import ExpProfile
from hyperex.functionals import (
    SUPPORTED_PAIRS,
    TWO_SHEET_FACTORS,
    base_constant,
    best_constant,
    combiner_gap,
    constant_expression,
    conv_form_constant,
    expected_monotonicity,
    mass_fraction,
    monotonicity_scan,
    q_ratio,
    q_ratio_closed,
    q_ratio_quadrature,
    scaling_exponent,
    scaling_check,
    sup_norm_bound,
    two_sheeted_combiner_check,
)
from hyperex.geometry import HyperboloidParams
from hyperex.quadrature import BudgetError, QuadResult


def test_one_sheet_constants_closed_values():
    assert best_constant(2, 4).value == pytest.approx(2.0 ** 0.75 * math.pi, rel=1e-15)
    assert best_constant(2, 6).value == pytest.approx(
        (2.0 * math.pi) ** (5.0 / 6.0), rel=1e-15
    )
    assert best_constant(3, 4).value == pytest.approx(
        (2.0 * math.pi) ** 1.25, rel=1e-15
    )


def test_two_sheet_factors():
    assert TWO_SHEET_FACTORS[(2, 4)] == pytest.approx(1.5 ** 0.25, rel=1e-15)
    assert TWO_SHEET_FACTORS[(2, 6)] == pytest.approx(2.5 ** (1.0 / 3.0), rel=1e-15)
    assert TWO_SHEET_FACTORS[(3, 4)] == pytest.approx(1.5 ** 0.25, rel=1e-15)
    # The cube-combiner factor written two ways.
    assert (25.0 / 4.0) ** (1.0 / 6.0) == pytest.approx(
        (5.0 / 2.0) ** (1.0 / 3.0), abs=1e-15
    )
    for d, p in SUPPORTED_PAIRS:
        two = best_constant(d, p, sheet="two").value
        one = best_constant(d, p).value
        assert two == pytest.approx(one * TWO_SHEET_FACTORS[(d, p)], rel=1e-14)


def test_scaling_exponents():
    assert scaling_exponent(2, 4) == pytest.approx(-0.25)
    assert scaling_exponent(2, 6) == pytest.approx(0.0)
    assert scaling_exponent(3, 4) == pytest.approx(0.0)


def test_constant_s_dependence():
    # Only (2, 4) carries an s power: s^{-1/4}.
    for s in (0.25, 1.0, 4.0):
        assert best_constant(2, 4, s).value == pytest.approx(
            2.0 ** 0.75 * math.pi * s ** -0.25, rel=1e-14
        )
        assert best_constant(2, 6, s).value == pytest.approx(
            best_constant(2, 6).value, rel=1e-14
        )
        assert best_constant(3, 4, s).value == pytest.approx(
            best_constant(3, 4).value, rel=1e-14
        )


def test_constant_validation():
    with pytest.raises(ValueError):
        best_constant(2, 5)
    with pytest.raises(ValueError):
        best_constant(3, 6)
    with pytest.raises(ValueError):
        best_constant(2, 4, s=-1.0)
    with pytest.raises(ValueError):
        best_constant(2, 4, sheet="both")


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_constant_refuses_non_finite_s(s):
    # best_constant(2, 4, s=inf) used to return 0.0.
    with pytest.raises(ValueError, match="finite"):
        best_constant(2, 4, s=s)


def test_constant_expressions_evaluate():
    for d, p in SUPPORTED_PAIRS:
        for sheet in ("one", "two"):
            expr = constant_expression(d, p, sheet)
            val = eval(
                expr.replace("^", "**"), {"__builtins__": {}}, {"pi": math.pi}
            )
            assert val == pytest.approx(best_constant(d, p, 1.0, sheet).value,
                                        rel=1e-14)


def test_sup_norm_sandwich_saturates():
    for d, p in SUPPORTED_PAIRS:
        for s in (0.5, 1.0, 2.0):
            assert sup_norm_bound(d, p, s) == pytest.approx(
                best_constant(d, p, s).value, rel=1e-14
            )


def test_conv_form_constants():
    assert conv_form_constant(2, 2) == pytest.approx(math.pi ** 0.25, rel=1e-14)
    assert conv_form_constant(2, 3) == pytest.approx(
        (2.0 * math.pi) ** (1.0 / 3.0), rel=1e-14
    )
    assert conv_form_constant(3, 2) == pytest.approx(
        (2.0 * math.pi) ** 0.25, rel=1e-14
    )


def test_q_ratio_closed_small_a_margin():
    # Q_{2,6}^6/(2 pi)^5 = 1 - 6z - 36 z^2 e^{6z} Ei(-6z), z = a s.
    q = q_ratio_closed(2, 6, 1e-3, 1.0)
    h = best_constant(2, 6).value
    assert q ** 6 / (2.0 * math.pi) ** 5 == pytest.approx(0.9941645963831258,
                                                          rel=1e-12)
    assert 0.997 <= q / h < 1.0


def test_q_ratio_closed_large_a_margin():
    q = q_ratio_closed(2, 4, 100.0, 1.0)
    h = best_constant(2, 4).value
    assert 0.999 <= q / h < 1.0
    # Q^4 s/(8 pi^4) = -4z e^{4z} Ei(-4z) ~ 1 - 1/(4z) + 1/(8 z^2), so the
    # margin is Q/H ~ 1 - 1/(16 z) + 13/(512 z^2).
    z = 100.0
    assert q / h == pytest.approx(1.0 - 1.0 / (16.0 * z), abs=3e-6)


def test_q_ratio_closed_rejects_d3():
    with pytest.raises(ValueError):
        q_ratio_closed(2, 4, 0.0, 1.0)


@pytest.mark.parametrize("d, p, a, s", [
    (2, 6, 1e-200, 1e-200), (2, 4, 1e-200, 1e-200), (3, 4, 1e-200, 1e-200),
    (3, 4, 4e-301, 1.0), (3, 4, 1e10, 1e300), (2, 4, 1e8, 1e300), (2, 6, 3.1e307, 1.0),
])
def test_q_ratio_closed_refuses_an_a_s_outside_the_float_range(d, p, a, s):
    # These named exp_scaled_en or exp_scaled_k1, which the caller never called.
    with pytest.raises(ValueError, match="a s = .* is outside the closed route's float range"):
        q_ratio_closed(d, p, a, s)


@pytest.mark.parametrize("d, p, z", [(2, 6, 5e-324), (2, 4, 5e-324), (3, 4, 5e-301),
                                     (2, 4, 4.4e307), (2, 6, 2.9e307), (3, 4, 4.4e307)])
def test_q_ratio_closed_accepts_the_edges_of_its_range(d, p, z):
    assert 0.0 < q_ratio_closed(d, p, z, 1.0) < math.inf


@pytest.mark.parametrize("a, s", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (-1.0, 1.0)])
def test_q_ratio_closed_refuses_a_or_s_like_the_profile(a, s):
    with pytest.raises(ValueError, match="must be finite and positive"):
        q_ratio_closed(2, 4, a, s)


def _mp_q_ratio(d, p, z):
    # Q at s = 1 from mpmath's E_3 and K_1; a s = z carries all of Q for p = 6
    # and d = 3 (scaling exponent 0).
    z = mpmath.mpf(z)
    if (d, p) == (2, 6):
        return (2 * (2 * mpmath.pi) ** 5 * mpmath.exp(6 * z)
                * mpmath.expint(3, 6 * z)) ** (mpmath.mpf(1) / 6)
    return ((2 * mpmath.pi) ** 5 * mpmath.besselk(1, 4 * z)
            / (z * mpmath.besselk(1, 2 * z) ** 2)) ** (mpmath.mpf(1) / 4)


@pytest.mark.parametrize("d, p, z_min, z_max", [(2, 6, 1e-6, 1e300), (3, 4, 1e-8, 1e3)])
def test_q_ratio_matches_mpmath(d, p, z_min, z_max):
    with mpmath.workdps(50):
        for z in np.geomspace(z_min, z_max, 120):
            want = _mp_q_ratio(d, p, z)
            for s in (1.0, 2.5):
                got = q_ratio(d, p, float(z) / s, s).value
                assert float(abs(got - want) / want) <= 1e-13, (z, s)


def test_q_ratio_quadrature_matches_closed_d2():
    for p in (4, 6):
        closed = q_ratio_closed(2, p, 1.0, 1.0)
        numeric = q_ratio_quadrature(2, p, 1.0, 1.0)
        assert numeric.value == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("d,p", [(2, 4), (2, 6), (3, 4)])
def test_q_ratio_quadrature_refuses_a_vanishing_norm(d, p):
    with pytest.raises(ValueError, match="quadrature norm is 0.0"):
        q_ratio_quadrature(d, p, 1e19, 1.0)


def test_q_ratio_quadrature_refuses_a_non_finite_norm(monkeypatch):
    def conv(*args, **kwargs):
        return QuadResult(value=math.inf, error=0.0)

    monkeypatch.setattr(hyperex.functionals, "conv_power_l2_sq", conv)
    with pytest.raises(ValueError, match="quadrature norm is inf"):
        q_ratio_quadrature(2, 4, 1.0, 1.0)


def test_q_ratio_quadrature_d3_limit():
    q = q_ratio_quadrature(3, 4, 1e-2, 1.0)
    h = best_constant(3, 4).value
    assert 0.95 <= q.value / h < 1.0


def test_q_ratio_routes():
    for p in (4, 6):
        for a in (1e-3, 0.7, 40.0):
            r = q_ratio(2, p, a, 1.3)
            assert r.value == q_ratio_closed(2, p, a, 1.3)
            assert r.error == 0.0
    assert q_ratio(2, 4, 0.7, 1.0, "quadrature") == q_ratio_quadrature(2, 4, 0.7, 1.0)
    r = q_ratio(3, 4, 0.2, 1.5)
    assert (r.value, r.error) == (q_ratio_closed(3, 4, 0.2, 1.5), 0.0)
    assert q_ratio(3, 4, 0.2, 1.5, "quadrature") == q_ratio_quadrature(3, 4, 0.2, 1.5)
    with pytest.raises(ValueError):
        q_ratio(2, 4, 1.0, 1.0, "montecarlo")


def test_q_below_constant_everywhere():
    # The computational face of nonexistence of extremizers: strict gap at
    # every finite rate, beyond the method error (closed ratios: 1e-12).
    for d, p in SUPPORTED_PAIRS:
        h = best_constant(d, p).value
        for a in np.geomspace(1e-3, 1e2, 25):
            r = q_ratio(d, p, float(a), 1.0)
            assert r.value < h - max(r.error, 1e-12)


def test_monotonicity_scans_200_points():
    grid = np.geomspace(1e-3, 1e2, 200)
    pts, verdict = monotonicity_scan(2, 6, 1.0, grid)
    assert verdict == "strictly-decreasing"
    assert expected_monotonicity(2, 6) == "decreasing"
    assert pts[0].q_value < best_constant(2, 6).value
    pts, verdict = monotonicity_scan(2, 4, 1.0, grid)
    assert verdict == "strictly-increasing"
    assert expected_monotonicity(2, 4) == "increasing"


def test_monotonicity_scan_degenerate_grid():
    pts, verdict = monotonicity_scan(2, 4, 1.0, [1.0, 2.0])
    assert len(pts) == 2
    assert verdict == "strictly-increasing"
    assert pts[1].q_value > pts[0].q_value


@pytest.mark.parametrize("d, p", [(2, 4), (2, 6), (3, 4)])
def test_monotonicity_scan_carries_q_ratio_values_and_errors(d, p):
    grid = [0.5, 1.0, 2.0]
    pts, _ = monotonicity_scan(d, p, 1.3, grid, method="quadrature")
    for pt, a in zip(pts, grid):
        r = q_ratio(d, p, a, 1.3, "quadrature")
        assert (pt.a, pt.q_value, pt.error) == (a, r.value, r.error)
        assert pt.error > 0.0
    closed, _ = monotonicity_scan(2, 4, 1.3, grid)
    assert [pt.error for pt in closed] == [0.0] * 3


def test_monotonicity_scan_validation():
    with pytest.raises(ValueError):
        monotonicity_scan(2, 4, 1.0, [1.0])
    with pytest.raises(ValueError):
        monotonicity_scan(2, 4, 1.0, [2.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        monotonicity_scan(2, 4, 1.0, [1.0, 1.0, 1.0000000000000002])


def test_scaling_check_closed_pairs():
    prof = ExpProfile(a=1.3, params=HyperboloidParams(d=2, s=1.0))
    for p in (4, 6):
        for s in (0.5, 2.3):
            assert scaling_check(2, p, s, prof) < 1e-10


def test_scaling_check_d3_quadrature():
    prof = ExpProfile(a=0.2, params=HyperboloidParams(d=3, s=1.0))
    assert scaling_check(3, 4, 2.0, prof) < 1e-8


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.0, 1e6), y=st.floats(0.0, 1e6))
def test_combiner_gap_identity(x, y):
    gap = float(combiner_gap(x, y))
    assert gap == pytest.approx(0.5 * (x - y) ** 2, abs=1e-9 * (1 + x + y) ** 2)
    assert gap >= -1e-12 * (1 + x + y) ** 2


def test_combiner_equality_on_diagonal():
    assert float(combiner_gap(1.0, 1.0)) == 0.0
    # X = Y = 1: both sides equal 6.
    assert 1.0 + 1.0 + 4.0 == pytest.approx(1.5 * 4.0)


def test_combiner_check_million_samples():
    assert two_sheeted_combiner_check(10 ** 6, seed=7) == 0


def _assert_blocked_count(monkeypatch, samples, seed, block):
    # A gap broken on purpose in three ways, so the count is far from zero;
    # the blocked count must equal one pass over the whole sample, drawn in
    # the check's order: x then y per block, the diagonal prefix laid over
    # the whole sample.
    def faulty_gap(x, y):
        gap = combiner_gap(x, y)
        gap[x > 2.0] = 0.0      # equality claimed off the diagonal
        gap[y > 3.0] -= 1.0     # inequality broken
        gap[x < 0.01] += 1e-6   # gap off the identity
        return gap

    monkeypatch.setattr(hyperex.functionals, "combiner_gap", faulty_gap)
    monkeypatch.setattr(hyperex.functionals, "_COMBINER_BLOCK", block)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for lo in range(0, samples, block):
        size = min(block, samples - lo)
        xs.append(rng.exponential(size=size))
        ys.append(rng.exponential(size=size))
    x, y = np.concatenate(xs), np.concatenate(ys)
    x[: samples // 100 + 1] = y[: samples // 100 + 1]
    gap = faulty_gap(x, y)
    scale = (1.0 + x + y) ** 2
    want = np.count_nonzero(
        (gap < -1e-12 * scale)
        | (np.abs(gap - 0.5 * (x - y) ** 2) > 1e-12 * scale)
        | ((np.abs(gap) <= 1e-15 * scale) & (np.abs(x - y) > 1e-7 * (1 + x + y)))
    )
    assert want > samples // 20
    assert two_sheeted_combiner_check(samples, seed=seed) == want


@pytest.mark.parametrize("samples", [1000, 2 * 2**16, 3 * 2**16 + 123])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_combiner_check_counts_every_block(monkeypatch, samples, seed):
    _assert_blocked_count(monkeypatch, samples, seed, hyperex.functionals._COMBINER_BLOCK)


@pytest.mark.parametrize("seed", [0, 5])
def test_combiner_check_keeps_the_diagonal_across_block_edges(monkeypatch, seed):
    # 1,311 diagonal pairs over blocks of 64: the prefix spans 21 blocks.
    _assert_blocked_count(monkeypatch, 2 * 2**16, seed, 64)


def test_combiner_check_deterministic():
    a = two_sheeted_combiner_check(10 ** 4, seed=3)
    b = two_sheeted_combiner_check(10 ** 4, seed=3)
    assert a == b == 0


def test_mass_fraction_worked_value():
    # 1 - e^{-2 a (sqrt(s^2 + R^2) - s)} at d=2, s=1, a=1e-3, R=10.
    got = mass_fraction(2, 1.0, 1e-3, 10.0)
    want = -math.expm1(-2e-3 * (math.sqrt(101.0) - 1.0))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.0179, abs=5e-4)


def test_mass_fraction_closed_vs_quadrature_d2():
    a, s, radius = 0.7, 1.0, 3.0
    u_ball = math.hypot(s, radius)
    inner, _ = quad(lambda u: math.exp(-2 * a * u), s, u_ball)
    outer, _ = quad(lambda u: math.exp(-2 * a * u), s, s + 80.0)
    assert mass_fraction(2, s, a, radius) == pytest.approx(inner / outer, rel=1e-9)


def test_mass_fraction_quadrature_d3():
    # Ball share of e^{-2au} sqrt(u^2 - s^2); the inner integral carries the
    # (u - s)^{1/2} endpoint as an algebraic quadrature weight.
    for s, a, radius in ((1.0, 0.3, 2.0), (1.0, 1e-2, 5.0), (0.5, 1e-4, 50.0),
                         (1.0, 3.0, 1.0)):
        u_ball = math.hypot(s, radius)
        inner, _ = quad(
            lambda u: math.exp(-2 * a * (u - s)) * math.sqrt(u + s), s, u_ball,
            weight="alg", wvar=(0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=400,
        )
        outer, _ = quad(
            lambda u: math.exp(-2 * a * (u - s)) * math.sqrt(u * u - s * s),
            u_ball, u_ball + 60.0 / a, epsabs=0.0, epsrel=1e-13, limit=400,
        )
        got = mass_fraction(3, s, a, radius)
        assert got == pytest.approx(inner / (inner + outer), rel=1e-12)


@pytest.mark.parametrize("a, s, v_max", [(1e-3, 1.0, 3.0), (1.0, 2.5, 0.7), (100.0, 0.5, 0.1)])
def test_d2_radial_mass_is_its_closed_integral(a, s, v_max):
    # e^{2as} int_s^{s + v^2} e^{-2au} du = (1 - e^{-2a v^2}) / (2a).
    want = -math.expm1(-2.0 * a * v_max * v_max) / (2.0 * a)
    assert hyperex.functionals._radial_mass(2, a, s, v_max) == pytest.approx(want, rel=1e-14)


def test_mass_fraction_limits():
    assert mass_fraction(2, 1.0, 100.0, 1.0) > 0.999
    assert mass_fraction(2, 1.0, 1e-6, 1.0) < 1e-5
    assert mass_fraction(3, 1.0, 100.0, 1.0) > 0.999
    assert mass_fraction(3, 1.0, 1e-4, 1.0) < 1e-3


def test_mass_fraction_monotone_in_radius_and_rate():
    radii = np.linspace(0.5, 8.0, 12)
    vals = [mass_fraction(2, 1.0, 0.3, float(r)) for r in radii]
    assert np.all(np.diff(vals) > 0)
    rates = np.geomspace(1e-2, 10.0, 12)
    vals = [mass_fraction(3, 1.0, float(a), 2.0) for a in rates]
    assert np.all(np.diff(vals) > 0)


def test_mass_fraction_validation():
    with pytest.raises(ValueError):
        mass_fraction(4, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mass_fraction(2, 1.0, -1.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_mass_fraction_d3_depends_on_a_s_and_r_over_s():
    # s = 1e-300, a = 1e300 used to divide 0 by 0: sqrt(50 / a) and the radial
    # mass underflowed.  At a s = 1 the ball of radius 1e300 s holds it all.
    assert mass_fraction(3, 1e-300, 1e300, 1.0) == 1.0
    for s, a, radius in ((1e-300, 2e300, 1e-300), (1e300, 3e-300, 5e299), (1e-10, 1.0, 1e290)):
        assert mass_fraction(3, s, a, radius) == mass_fraction(3, 1.0, a * s, radius / s)
    # Powers of two rescale exactly, so the share must not move at all.
    for e in (-300, -2, 3, 350):
        s = 2.0 ** e
        assert mass_fraction(3, s, 0.3 / s, 2.0 * s) == mass_fraction(3, 1.0, 0.3, 2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s, a", [(1.0, 1e-300), (1.0, 1e300), (1e300, 1e300), (1e-300, 1e-300)])
def test_mass_fraction_d3_refuses_a_s_outside_its_range(s, a):
    # a = 1e-300 used to return 0 with numpy's overflow RuntimeWarning.
    with pytest.raises(ValueError, match="d = 3 mass fraction needs 1e-150 <= a s <= 1e"):
        mass_fraction(3, s, a, 1.0)


@pytest.mark.filterwarnings("error")
def test_mass_fraction_d3_is_a_share_across_the_float_range():
    scales = (5e-324, 1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300, 1.7e308)
    for s in scales:
        for a in scales:
            for radius in scales:
                if not 1e-150 <= a * s <= 1e150:
                    continue
                assert 0.0 <= mass_fraction(3, s, a, radius) <= 1.0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("s, a, radius", [
    (1.0, 1.0, math.inf), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
])
def test_mass_fraction_refuses_non_finite_inputs(d, s, a, radius):
    # mass_fraction(3, 1, 1, inf) used to return 0.39: inf/inf is NaN and min drops it.
    with pytest.raises(ValueError, match="finite"):
        mass_fraction(d, s, a, radius)


@pytest.mark.parametrize("d, p", SUPPORTED_PAIRS)
@pytest.mark.parametrize("z", [150.0, 180.0, 200.0, 400.0, 1e4])
def test_q_ratio_quadrature_holds_at_large_rates(d, p, z):
    # The unscaled route lost digits from a s = 118 on, read Q = 0 with error
    # NaN from about 125 (2, 6) and 185 (2, 4), (3, 4), and divided by zero
    # from about 372.
    q = q_ratio_quadrature(d, p, z, 1.0)
    assert math.isfinite(q.error)
    assert abs(q.value - q_ratio_closed(d, p, z, 1.0)) <= q.error + 1e-13 * q.value


def test_combiner_samples_past_the_budget_are_refused():
    with pytest.raises(BudgetError, match="exceed the budget"):
        two_sheeted_combiner_check(10**12)
