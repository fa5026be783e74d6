"""Extension-operator tests: closed form, quadrature, and norm routes.

The package itself integrates with its own Gauss-Legendre rules; scipy is a
test-only oracle here.  The d = 3 reference values are frozen outputs of
scipy.integrate.quad on the defining radial integral; the value at x = 0 also
matches the Bessel-K identity int_1^oo e^{-u} sqrt(u^2 - 1) du = K_1(1), and
||f_a||^2 is checked against K_1 from its own defining integral.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hyperex.extension
from hyperex.extension import (
    ExpProfile,
    conv_power_l2_sq,
    extension_closed,
    extension_quadrature,
    l2_norm_sq,
    lp_norm_extension_direct,
    lp_norm_extension_via_conv,
    _abs_extension_pow,
    _ridge_time_edges,
    _time_integrals,
)
from hyperex.geometry import HyperboloidParams
from hyperex.quadrature import (
    BudgetError, QuadResult, QuadSpec, doubling_edges, gk_panels, gl_panels, gl_panels_to_inf,
)
from hyperex.specfun import bessel_j0, exp_integral_ei

P2 = HyperboloidParams(d=2, s=1.0)
P3 = HyperboloidParams(d=3, s=1.0)
PROF2 = ExpProfile(a=1.0, params=P2)
PROF3 = ExpProfile(a=1.0, params=P3)

# Frozen oracle values for the d = 3 radial integral at a = s = 1,
# (|x|, t) -> T f_a(x e1, t), from adaptive quadrature with epsabs 1e-15.
D3_POINTS = {
    (0.0, 0.0): 7.563789330121625 + 0.0j,
    (1.5, 2.0): -1.6815976669882655 + 0.2791658757933685j,
    (3.0, -1.0): 0.1416861313328303 - 0.07844351789198085j,
    (0.0, 3.0): 0.2791622421961551 - 1.0447507707422348j,
}

# Frozen two-route value of ||(f_1 sigma)^{*2}||_2^2 at d = 3: the in-package
# quadrature route and an independent nested scipy reduction agree to 7e-12.
D3_CONV_POWER_K2 = 3.0965345634948735


def test_profile_validation():
    with pytest.raises(ValueError):
        ExpProfile(a=0.0, params=P2)
    with pytest.raises(ValueError):
        ExpProfile(a=-1.0, params=P2)


@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_profile_refuses_non_finite_rate(a):
    with pytest.raises(ValueError, match="finite"):
        ExpProfile(a=a, params=P2)


@pytest.mark.parametrize("x, t", [
    ([math.inf, 0.0], 0.0), ([math.nan, 0.0], 0.0), ([1.0, 0.0], math.inf),
    ([1.0, 0.0], math.nan),
])
def test_quadrature_refuses_non_finite_point(x, t):
    # Used to raise ZeroDivisionError (inf) or a NaN-to-int conversion error.
    with pytest.raises(ValueError, match="finite"):
        extension_quadrature(PROF2, np.array(x), t)


@pytest.mark.parametrize("x, t", [
    ([math.inf, 0.0], 0.0), ([math.nan, 0.0], 0.0), ([1.0, 0.0], math.inf),
    ([1.0, 0.0], math.nan), ([[1.0, 0.0], [0.0, math.inf]], [0.0, 1.0]),
])
def test_closed_refuses_non_finite_point(x, t):
    # Used to return NaN with a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            extension_closed(PROF2, np.array(x), np.array(t))


def test_closed_at_the_edges_of_the_float_range():
    # (a - i t)^2 + |x|^2 used to leave the normal float range: nan+nanj at
    # t = 1e160, inf+nanj where a^2 underflows, 0 after an overflow warning
    # at |x| = 1e200.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = extension_closed(PROF2, np.zeros(2), 1e160)
        with mpmath.workdps(200):
            w = mpmath.mpc(1, -1e160)
            want = complex(2 * mpmath.pi * mpmath.exp(-w) / w)
        assert abs(got - want) <= 1e-12 * abs(want)
        prof = ExpProfile(a=1e-300, params=HyperboloidParams(d=2, s=1e300))
        got = extension_closed(prof, np.zeros(2), 0.0)
        assert got == pytest.approx(2 * math.pi * math.exp(-1.0) * 1e300, rel=1e-14)
        assert extension_closed(PROF2, np.array([1e200, 0.0]), 0.0) == 0.0
        # Rows in range keep the direct arithmetic beside a redone one.
        x = np.array([[0.3, 0.4], [1e200, 0.0], [-2.0, 1.5]])
        t = np.array([0.7, 0.0, -3.0])
        lam = 1.0 - 1j * t[[0, 2]]
        w = np.sqrt(lam * lam + np.sum(x[[0, 2]] ** 2, axis=-1))
        got = extension_closed(PROF2, x, t)
        assert np.array_equal(got[[0, 2]], 2.0 * np.pi * np.exp(-w) / w)
        # 2 pi / a past the float range is refused, not returned as inf.
        with pytest.raises(ValueError, match="float range"):
            extension_closed(ExpProfile(a=1e-320, params=P2), np.zeros(2), 0.0)


@pytest.mark.parametrize("s", [1e-150, 1e-161])
def test_quadrature_of_a_tiny_sheet_is_its_cone_limit(s):
    # At s -> 0, d = 3, x = e1, t = a = 1: 4 pi / ((1 - i)^2 + 1) = 4 pi (1 + 2i) / 5.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = extension_quadrature(ExpProfile(1.0, HyperboloidParams(3, s)),
                                        np.array([1.0, 0.0, 0.0]), 1.0)
    assert abs(val - 4 * math.pi * (1 + 2j) / 5) <= err + 1e-14


def test_quadrature_of_an_s_whose_square_underflows_is_refused():
    # Used to return (inf+nanj, nan): u = sqrt(r^2 + s^2) read 0 at the first nodes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="underflows"):
            extension_quadrature(ExpProfile(1.0, HyperboloidParams(3, 1e-300)),
                                 np.array([1.0, 0.0, 0.0]), 1.0)


def test_closed_worked_values():
    # At the origin w = a, so T = 2 pi e^{-s a} / a.
    v = extension_closed(PROF2, np.array([0.0, 0.0]), 0.0)
    assert v == pytest.approx(2.0 * math.pi / math.e, rel=1e-14)
    v = extension_closed(PROF2, np.array([2.0, 0.0]), 1.0)
    assert v == pytest.approx(0.2857937573771681 + 0.24949590724401877j, rel=1e-13)


def test_closed_rejects_d3():
    with pytest.raises(ValueError):
        extension_closed(PROF3, np.array([0.0, 0.0, 0.0]), 0.0)


def test_closed_vs_quadrature_grid_d2():
    for xn in (0.0, 1.0, 3.0):
        for t in (0.0, -2.0, 5.0):
            x = np.array([xn, 0.0])
            closed = extension_closed(PROF2, x, t)
            val, err = extension_quadrature(PROF2, x, t)
            assert abs(val - closed) <= max(1e-9, 5.0 * err)


@pytest.mark.parametrize("t", [0.0, -2.0, 5.0])
def test_quadrature_d2_at_the_origin_calls_no_bessel(monkeypatch, t):
    # At x = 0 the kernel is J0(0) = 1, so no J0 is evaluated.
    def no_j0(x):
        raise AssertionError("bessel_j0 called at x = 0")

    monkeypatch.setattr(hyperex.extension, "bessel_j0", no_j0)
    x = np.zeros(2)
    val, err = extension_quadrature(PROF2, x, t)
    floor = 1e-13 * abs(extension_closed(PROF2, x, 0.0))
    assert abs(val - extension_closed(PROF2, x, t)) <= err + floor


def test_quadrature_d2_calls_bessel_once(monkeypatch):
    # The G12/K25 rule takes both sums from one set of J0 values.
    calls = []

    def counting_j0(x):
        calls.append(np.size(x))
        return bessel_j0(x)

    monkeypatch.setattr(hyperex.extension, "bessel_j0", counting_j0)
    x = np.array([1.5, 0.0])
    val, err = extension_quadrature(PROF2, x, 3.0)
    assert len(calls) == 1 and calls[0] % 25 == 0
    floor = 1e-13 * abs(extension_closed(PROF2, np.zeros(2), 0.0))
    assert abs(val - extension_closed(PROF2, x, 3.0)) <= err + floor


@pytest.mark.parametrize("t", [8.0, 0.0])
def test_quadrature_d2_far_field_matches_closed(t):
    # At a = 0.3 and |x| = 8 nearly every J0 argument |x| r lies past the
    # Hankel split at 25 (r runs to 150); the reported error plus the
    # round-off floor of |T f_a(0, 0)| must cover the deviation.
    prof = ExpProfile(a=0.3, params=P2)
    x = np.array([8.0, 0.0])
    val, err = extension_quadrature(prof, x, t)
    floor = 1e-13 * abs(extension_closed(prof, np.zeros(2), 0.0))
    assert abs(val - extension_closed(prof, x, t)) <= err + floor


def test_quadrature_d2_random_points_match_closed():
    # Rates log-uniform over [0.05, 10], s over [0.3, 3], |x| = 0 or up to
    # 30, |t| up to 30: each value within its error plus the round-off floor
    # of |T f_a(0, 0)|, and each error bar itself below that floor.
    rng = np.random.default_rng(20)
    for _ in range(300):
        a = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        s = rng.uniform(0.3, 3.0)
        xn = 0.0 if rng.uniform() < 0.25 else rng.uniform(0.0, 30.0)
        t = rng.uniform(-30.0, 30.0)
        prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=s))
        x = np.array([xn, 0.0])
        val, err = extension_quadrature(prof, x, t)
        floor = 1e-13 * abs(extension_closed(prof, np.zeros(2), 0.0))
        assert abs(val - extension_closed(prof, x, t)) <= err + floor, (a, s, xn, t)
        assert err <= floor, (a, s, xn, t)


@pytest.mark.parametrize("a, s, t", [
    (0.05, 0.3, 0.0), (0.3, 1.0, 8.0), (1.0, 2.5, -3.0), (3.0, 0.5, 30.0), (10.0, 3.0, -0.5),
])
def test_quadrature_d3_origin_matches_bessel_k(a, s, t):
    # At x = 0, T f_a = 4 pi int_s^oo e^{-lam u} sqrt(u^2 - s^2) du
    # = 4 pi s K_1(s lam) / lam with lam = a - i t.
    prof = ExpProfile(a=a, params=HyperboloidParams(d=3, s=s))
    val, err = extension_quadrature(prof, np.zeros(3), t)
    with mpmath.workdps(30):
        lam = mpmath.mpc(a, -t)
        want = complex(4 * mpmath.pi * s * mpmath.besselk(1, s * lam) / lam)
        scale = float(4 * mpmath.pi * s * mpmath.besselk(1, s * a) / a)
    assert abs(val - want) <= err + 1e-13 * scale


def _count_gk_nodes(monkeypatch):
    """Record the node count of every gk_panels call extension.py makes."""
    nodes = []

    def counting(edges):
        x, w_kronrod, w_gauss = gk_panels(edges)
        nodes.append(x.size)
        return x, w_kronrod, w_gauss

    monkeypatch.setattr(hyperex.extension, "gk_panels", counting)
    return nodes


@pytest.mark.parametrize("t", [0.5, 30.0])
@pytest.mark.parametrize("s", [1e-3, 0.1, 1.0, 10.0])
def test_quadrature_panels_keep_off_the_branch_points(monkeypatch, s, t):
    # r / u has branch points at r = +-i s: every panel is no wider than
    # hypot(r, s) at its left edge r, the graded ones from r = 0 included.
    edges = []

    def recording(e):
        edges.append(np.asarray(e))
        return gk_panels(e)

    monkeypatch.setattr(hyperex.extension, "gk_panels", recording)
    prof = ExpProfile(a=0.3, params=HyperboloidParams(d=2, s=s))
    x = np.array([1.0, -2.0])
    val, err = extension_quadrature(prof, x, t)
    (e,) = edges
    assert e[0] == 0.0 and np.all(np.diff(e) > 0.0)
    assert np.all(np.diff(e) <= np.hypot(e[:-1], s))
    floor = 1e-13 * abs(extension_closed(prof, np.zeros(2), 0.0))
    assert abs(val - extension_closed(prof, x, t)) <= err + floor


def test_quadrature_corner_takes_a_quarter_of_the_u_rule_nodes(monkeypatch):
    # The benchmark's largest point, d = 2, a = 0.3, |x| = |t| = 8.  The rule
    # in u = sqrt(r^2 + s^2) took quarter-period panels: 1,528 panels.
    # Full-period panels in r cover a range 0.7 % longer (r_max =
    # sqrt(150 * 152) against u_max - s = 150), so the panel count is a
    # quarter of that to within 1 %, each of 25 G12/K25 nodes.
    nodes = _count_gk_nodes(monkeypatch)
    prof = ExpProfile(a=0.3, params=P2)
    x = np.array([8.0, 0.0])
    val, err = extension_quadrature(prof, x, 8.0)
    assert sum(nodes) <= 0.26 * 1528 * 25
    floor = 1e-13 * abs(extension_closed(prof, np.zeros(2), 0.0))
    assert abs(val - extension_closed(prof, x, 8.0)) <= err + floor


def test_quadrature_d3_random_points_match_bessel_k():
    # Off the origin T f_a = 4 pi s K_1(s w) / w with w = sqrt(lam^2 + |x|^2),
    # lam = a - i t (the d = 3 Laplace-transform table).  Rates log-uniform
    # over [0.05, 10], s over [0.3, 3], 0 < |x| <= 30, |t| <= 30: each value
    # within its error plus 1e-13 |T f_a(0, 0)|, and each error bar below that.
    rng = np.random.default_rng(28)
    for _ in range(40):
        a = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        s = rng.uniform(0.3, 3.0)
        xn = rng.uniform(0.0, 30.0)
        t = rng.uniform(-30.0, 30.0)
        prof = ExpProfile(a=a, params=HyperboloidParams(d=3, s=s))
        val, err = extension_quadrature(prof, np.array([xn, 0.0, 0.0]), t)
        with mpmath.workdps(30):
            w = mpmath.sqrt(mpmath.mpc(a, -t) ** 2 + mpmath.mpf(xn) ** 2)
            want = complex(4 * mpmath.pi * s * mpmath.besselk(1, s * w) / w)
            floor = 1e-13 * float(4 * mpmath.pi * s * mpmath.besselk(1, s * a) / a)
        assert abs(val - want) <= err + floor, (a, s, xn, t)
        assert err <= floor, (a, s, xn, t)


@pytest.mark.parametrize("a", [700.0, 1e12])
def test_quadrature_panel_count_stays_bounded_at_large_rate(monkeypatch, a):
    # At large a s the profile sits in r <~ sqrt(s / a), where u barely
    # moves; the decay cap in u keeps about 30 panels there, where a cap of
    # 3 / a in r would take sqrt(10 a s) of them (a budget error at 1e12).
    nodes = _count_gk_nodes(monkeypatch)
    x = np.array([0.5, 0.0])
    prof = ExpProfile(a=a, params=P2)
    val, err = extension_quadrature(prof, x, 1.0)
    assert sum(nodes) <= 31 * 25
    floor = 1e-13 * abs(extension_closed(prof, np.zeros(2), 0.0))
    assert abs(val - extension_closed(prof, x, 1.0)) <= err + floor


# Time edges of the direct norm at a = 0.3, s = 1, frozen from the edge rule
# that stops at 2 (rho + a): rho <= a/2 takes no split, a/2 < rho <= 4a the
# single split at rho, rho > 4a the four cone edges before it.
RIDGE_EDGES = {
    0.0: [0.0, 0.3, 0.6],
    0.1: [0.0, 0.3, 0.8],
    1.0: [0.0, 1.0, 1.15, 1.45, 2.05, 2.6],
    8.0: [0.0, 4.0, 7.4, 7.85, 8.0, 8.15, 8.450000000000001, 9.05, 10.25,
          12.65, 16.6],
    1e3: [0.0, 500.0, 999.4, 999.85, 1000.0, 1000.15, 1000.4499999999999,
          1001.05, 1002.25, 1004.65, 1009.4499999999999, 1019.05, 1038.25,
          1076.65, 1153.45, 1307.05, 1614.25, 2000.6],
}


def test_ridge_time_edges_match_frozen_rows():
    rho = np.array(list(RIDGE_EDGES))
    edges, count = _ridge_time_edges(rho, 0.3)
    for row, n, ref in zip(edges, count, RIDGE_EDGES.values()):
        assert n == len(ref)
        assert row[:n].tolist() == ref
        # Padding repeats the last edge, so padded panels have zero width.
        assert np.all(row[n:] == ref[-1])


@pytest.mark.parametrize("a, s", [(0.3, 1.0), (3.0, 0.5), (1.0, 2.5)])
def test_ridge_time_edges_of_all_nodes_match_per_panel_calls(a, s):
    # The direct norm builds the edges of every radial node at once, the
    # tail panel's nodes in 1/rho included, on the unit sheet at z = a s;
    # each row's kept prefix must be the row a call on its own panel returns.
    z = a * s
    radial = doubling_edges(0.25 * min(1.0 / z, 1.0), 16.0 * max(1.0 / z, 1.0, z))
    rho, _ = gl_panels_to_inf(radial, 20)
    edges, count = _ridge_time_edges(rho, z)
    for lo in range(0, rho.size, 20):
        part, part_count = _ridge_time_edges(rho[lo:lo + 20], z)
        assert np.array_equal(count[lo:lo + 20], part_count)
        for row, part_row, n in zip(edges[lo:lo + 20], part, part_count):
            assert np.array_equal(row[:n], part_row[:n])


@pytest.mark.parametrize("rho", [0.0, 0.1, 1.0, 8.0])
def test_gl_panels_equals_one_panel_at_a_time(rho):
    edges, count = _ridge_time_edges(np.array([rho]), 0.3)
    edges = edges[0, : count[0]]
    x, w = gl_panels(edges, 20)
    panels = [gl_panels([lo, hi], 20) for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.array_equal(x, np.concatenate([p[0] for p in panels]))
    assert np.array_equal(w, np.concatenate([p[1] for p in panels]))


def test_gl_panels_rows_equal_one_row_at_a_time():
    edges, _ = _ridge_time_edges(np.array([0.0, 1.0, 8.0]), 0.3)
    x, w = gl_panels(edges, 12)
    for i, row in enumerate(edges):
        xi, wi = gl_panels(row, 12)
        assert np.array_equal(x[i], xi) and np.array_equal(w[i], wi)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [0.01, 0.3, 3.0, 30.0])
@pytest.mark.parametrize("s", [0.5, 2.5])
def test_abs_extension_pow_matches_closed(p, a, s):
    # On the unit sheet at z = a s: t << rho, t ~ rho (both sides of the
    # cone) and t >> rho, where Re arg < 0 and Re w comes from the second
    # half-angle branch.
    z = a * s
    rho = np.geomspace(1e-3, 1e3, 13)[:, None]
    t = np.concatenate([rho * np.geomspace(1e-6, 0.5, 5),
                        rho * (1.0 + np.array([-1e-6, 0.0, 1e-6])),
                        rho * np.geomspace(2.0, 1e4, 5),
                        np.broadcast_to([0.0, 1e-3, 7.0], (13, 3))], axis=1)
    rho = np.broadcast_to(rho, t.shape)
    x = np.stack([rho, np.zeros_like(rho)], axis=-1)
    ref = np.abs(extension_closed(ExpProfile(a=z, params=P2), x, t)) ** p
    # The kernel is scaled by e^{p z}.
    scale = math.exp(p * z)
    got = _abs_extension_pow(z, rho, t, p)
    tiny = np.finfo(float).tiny
    live = ref >= tiny
    assert np.max(np.abs(got[live] / (ref[live] * scale) - 1.0)) <= 1e-12
    # Where |T|^p leaves the normal range, the scaled value is finite and no
    # larger than the scaled threshold.
    assert np.all((got[~live] >= 0.0) & (got[~live] <= tiny * scale))


def test_quadrature_d3_frozen_points():
    for (xn, t), ref in D3_POINTS.items():
        val, err = extension_quadrature(PROF3, np.array([xn, 0.0, 0.0]), t)
        assert abs(val - ref) / abs(ref) < 1e-11


def test_quadrature_d3_bessel_k_identity():
    # T f_a(0, 0) = 4 pi K_1(1) at a = s = 1 via the Laplace-transform table.
    k1, _ = quad(
        lambda v: math.exp(-math.cosh(v)) * math.cosh(v), 0.0, 30.0, limit=200
    )
    val, _ = extension_quadrature(PROF3, np.zeros(3), 0.0)
    assert val.real == pytest.approx(4.0 * math.pi * k1, rel=1e-11)
    assert abs(val.imag) < 1e-12


def test_quadrature_frequency_budget():
    with pytest.raises(BudgetError):
        extension_quadrature(PROF2, np.array([0.0, 0.0]), 1.0e6)


@pytest.mark.parametrize("prof", [PROF2, PROF3], ids=["d2", "d3"])
@pytest.mark.parametrize("x_norm, t", [(0.0, 1e308), (1e308, 1.0), (1e308, 1e308)])
def test_quadrature_refuses_frequencies_near_the_float_maximum(prof, x_norm, t):
    # The panel count (r_max - r) / panel is not finite here; it must end in
    # a BudgetError, not an OverflowError from its int conversion.
    x = np.zeros(prof.params.d)
    x[0] = x_norm
    with pytest.raises(BudgetError):
        extension_quadrature(prof, x, t)


@settings(max_examples=60, deadline=None)
@given(
    xn=st.floats(0.0, 8.0),
    t=st.floats(-8.0, 8.0),
    a=st.floats(0.3, 3.0),
    s=st.floats(0.3, 3.0),
)
def test_closed_peak_bound_and_conjugation(xn, t, a, s):
    # |T f(x, t)| <= T f(0, 0) since f >= 0, and T f(x, -t) = conj T f(x, t).
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=s))
    x = np.array([xn, 0.0])
    v = extension_closed(prof, x, t)
    peak = extension_closed(prof, np.zeros(2), 0.0)
    assert abs(v) <= abs(peak) * (1.0 + 1e-12)
    assert extension_closed(prof, x, -t) == pytest.approx(np.conj(v), rel=1e-12)


def test_closed_rotation_invariance():
    theta = 0.7
    x1 = np.array([1.3, 0.0])
    x2 = 1.3 * np.array([math.cos(theta), math.sin(theta)])
    v1 = extension_closed(PROF2, x1, 2.0)
    v2 = extension_closed(PROF2, x2, 2.0)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_l2_norm_sq_closed_d2():
    # ||f_a||^2 = 2 pi int_s^oo e^{-2au} du = (pi / a) e^{-2 a s}.
    for a in (0.5, 1.0, 2.5):
        prof = ExpProfile(a=a, params=P2)
        assert l2_norm_sq(prof) == pytest.approx(
            math.pi / a * math.exp(-2.0 * a), rel=1e-12
        )


def test_l2_norm_sq_quadrature_d3():
    # ||f_a||^2 = 4 pi int_s^oo e^{-2au} sqrt(u^2 - s^2) du = 2 pi s K_1(2as) / a,
    # with K_1(z) = int_0^oo e^{-z cosh v} cosh v dv cut where z cosh v = 800.
    for a in (1e-6, 1e-4, 1e-2, 1.0, 30.0):
        z = 2.0 * a
        k1, _ = quad(
            lambda v: math.exp(-z * math.cosh(v)) * math.cosh(v),
            0.0, math.acosh(1.0 + 800.0 / z), epsabs=0.0, epsrel=1e-13, limit=400,
        )
        prof = ExpProfile(a=a, params=P3)
        assert l2_norm_sq(prof) == pytest.approx(2.0 * math.pi * k1 / a, rel=1e-12)


def test_conv_power_l2_closed_vs_quadrature_d2():
    for k in (2, 3):
        closed = conv_power_l2_sq(PROF2, k, method="closed")
        numeric = conv_power_l2_sq(PROF2, k, method="quadrature")
        assert numeric.value == pytest.approx(closed.value, rel=1e-10)


def test_conv_power_l2_closed_formula_k2():
    # ||(f_a sigma)^{*2}||_2^2 = -(2 pi)^3 Ei(-4 a s) / (2 a) at d = 2.
    for a in (0.5, 1.0, 2.0):
        prof = ExpProfile(a=a, params=P2)
        closed = conv_power_l2_sq(prof, 2, method="closed")
        want = -((2.0 * math.pi) ** 3) * exp_integral_ei(-4.0 * a) / (2.0 * a)
        assert closed.value == pytest.approx(want, rel=1e-14)


def test_conv_power_l2_closed_products_match_mpmath():
    # (2, 3): (2 pi)^5 E_3(6as) / (4a^3);  (3, 2): 8 pi^3 s K_1(4as) / a^3.
    with mpmath.workdps(40):
        for a in np.geomspace(1e-4, 30.0, 25):
            for s in (1.0, 2.5):
                a_mp = mpmath.mpf(a)
                want = {
                    (2, 3): (2 * mpmath.pi) ** 5 / (4 * a_mp**3) * mpmath.expint(3, 6 * a_mp * s),
                    (3, 2): 8 * mpmath.pi**3 * s / a_mp**3 * mpmath.besselk(1, 4 * a_mp * s),
                }
                for (d, k), ref in want.items():
                    prof = ExpProfile(a=float(a), params=HyperboloidParams(d=d, s=s))
                    got = conv_power_l2_sq(prof, k, method="closed")
                    assert got.error == 0.0
                    assert float(abs(got.value - ref) / ref) <= 1e-13, (d, k, a, s)


def test_conv_power_l2_closed_vs_quadrature_d3():
    closed = conv_power_l2_sq(PROF3, 2, method="closed").value
    numeric = conv_power_l2_sq(PROF3, 2, method="quadrature")
    assert abs(numeric.value - closed) <= numeric.error + 1e-13 * closed


def test_conv_power_l2_quadrature_d3_frozen():
    got = conv_power_l2_sq(PROF3, 2, method="quadrature")
    assert got.value == pytest.approx(D3_CONV_POWER_K2, rel=1e-9)


def test_via_conv_routes_agree():
    for p in (4, 6):
        closed = lp_norm_extension_via_conv(PROF2, p, method="closed")
        numeric = lp_norm_extension_via_conv(PROF2, p, method="quadrature")
        assert numeric.value == pytest.approx(closed.value, rel=1e-10)


def test_direct_norm_matches_conv_route_p4():
    direct = lp_norm_extension_direct(PROF2, 4)
    conv = lp_norm_extension_via_conv(PROF2, 4, method="closed")
    rel = abs(direct.value - conv.value) / conv.value
    assert rel < 1e-4
    assert rel < direct.error / conv.value + 1e-6


def test_direct_norm_matches_conv_route_p6():
    direct = lp_norm_extension_direct(PROF2, 6)
    conv = lp_norm_extension_via_conv(PROF2, 6, method="closed")
    assert direct.value == pytest.approx(conv.value, rel=1e-8)


def _assert_direct_error_bounds_deviation(p, a, s):
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=s))
    direct = lp_norm_extension_direct(prof, p)
    closed = lp_norm_extension_via_conv(prof, p, method="closed").value
    assert abs(direct.value - closed) <= direct.error + 1e-13 * closed


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
def test_direct_norm_error_bounds_its_deviation(p, a):
    # Each time row's rest past 2 (rho + a) is integrated in 1/t at the
    # row's own order, so the coarse/fine error covers it; with no time tail
    # at all p = 6 at a s >= 1 missed its estimate.
    _assert_direct_error_bounds_deviation(p, a, 1.0)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 2.5])
def test_direct_norm_error_bounds_its_deviation_off_unit_sheet(p, a, s):
    _assert_direct_error_bounds_deviation(p, a, s)


# (p, a, s) -> (value, error) of lp_norm_extension_direct, frozen (float
# hex) from the rule that integrates each time row past 2 (rho + a) in 1/t
# and the radial rest past 16 max(1/a, 1/s, 1, a, s) in 1/rho.  The errors
# of the s != 1 rows are refrozen from the unit sheet at z = a s, with the
# factor s^(1 - 3/p) applied last; at s = 1 that rule is the same grid.
DIRECT_NORMS = {
    (4, 0.3, 0.5): ('0x1.d626755cf2b48p+3', '0x1.18c054b9ce16fp-31'),
    (4, 0.3, 1.0): ('0x1.6943fadb401adp+3', '0x1.1e5e0381ad902p-43'),
    (4, 0.3, 2.5): ('0x1.831491a3836f4p+2', '0x1.ba709df56b332p-50'),
    (4, 1.0, 0.5): ('0x1.8e95af0ad6fd9p+2', '0x1.6f2be9fa6c34fp-48'),
    (4, 1.0, 1.0): ('0x1.a45111ab925c1p+1', '0x1.0f33936e240b1p-53'),
    (4, 1.0, 2.5): ('0x1.322e03deba8cap-1', '0x1.a1629184b48d4p-54'),
    (4, 3.0, 0.5): ('0x1.62df61708cc91p+0', '0x1.6de75bacfee78p-53'),
    (4, 3.0, 1.0): ('0x1.0e8a03cfbd1c1p-2', '0x1.0605857d6d14ap-54'),
    (4, 3.0, 2.5): ('0x1.353e2093b4072p-9', '0x1.2ada3ebcfde59p-62'),
    (6, 0.3, 0.5): ('0x1.7c84f593881fep+3', '0x1.29a6f24b5df09p-44'),
    (6, 0.3, 1.0): ('0x1.38b446da65793p+3', '0x1.dd353d1a9c2f2p-48'),
    (6, 0.3, 2.5): ('0x1.6de41099afacfp+2', '0x1.3de1b3755c209p-53'),
    (6, 1.0, 0.5): ('0x1.0c42b90dcfd43p+2', '0x1.42ca869494eb6p-51'),
    (6, 1.0, 1.0): ('0x1.2e18db583bdbfp+1', '0x1.1bf2e722ed103p-52'),
    (6, 1.0, 2.5): ('0x1.de7b5c0a0a4f1p-2', '0x1.067ed805360c0p-53'),
    (6, 3.0, 0.5): ('0x1.926610cd31025p-1', '0x1.f775480854beep-54'),
    (6, 3.0, 1.0): ('0x1.467d76b40184dp-3', '0x1.3630da8ac540ep-55'),
    (6, 3.0, 2.5): ('0x1.94286ec8da8c1p-10', '0x1.aeba28130f1a0p-63'),
}


@pytest.mark.parametrize("p, a, s", list(DIRECT_NORMS))
def test_direct_norm_matches_frozen_values(p, a, s):
    # At s = 1 the grid is the frozen one and the factor is 1: every bit
    # holds.  Elsewhere, where the coarse/fine difference is itself round-off
    # (all but the p = 4, a = 0.3 rows), it may move by a fraction of one ulp
    # of the norm; otherwise by at most 1e-6 of itself.
    value, error = (float.fromhex(v) for v in DIRECT_NORMS[p, a, s])
    got = lp_norm_extension_direct(ExpProfile(a=a, params=HyperboloidParams(d=2, s=s)), p)
    if s == 1.0:
        assert (got.value, got.error) == (value, error)
        return
    assert abs(got.value - value) <= 2.0 * math.ulp(value)
    assert abs(got.error - error) <= 1e-6 * error + math.ulp(value)


def _lp_norm_mpmath(p, a, s):
    # ||T f_a||_p^p = (2 pi)^3 ||(f_a sigma)^{*k}||^2 with the closed Ei
    # (k = 2) and E_3 (k = 3) products, in 40 digits.
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        if p == 4:
            conv = -(2 * mpmath.pi) ** 3 * mpmath.ei(-4 * a * s) / (2 * a)
        else:
            conv = (2 * mpmath.pi) ** 5 * mpmath.expint(3, 6 * a * s) / (4 * a**3)
        return float(((2 * mpmath.pi) ** 3 * conv) ** (mpmath.mpf(1) / p))


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [0.05, 0.1, 0.3, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_direct_norm_error_bounds_its_deviation_from_mpmath(p, a, s):
    got = lp_norm_extension_direct(ExpProfile(a=a, params=HyperboloidParams(d=2, s=s)), p)
    ref = _lp_norm_mpmath(p, a, s)
    assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("a", [0.3, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_direct_norm_p4_error_is_not_toothless(a, s):
    # The g ~ C / rho^2 extrapolation of the radial tail it replaces made the
    # p = 4 bar more than 1e8 times the deviation here.
    got = lp_norm_extension_direct(ExpProfile(a=a, params=HyperboloidParams(d=2, s=s)), 4)
    ref = _lp_norm_mpmath(4, a, s)
    assert got.error <= 1e3 * abs(got.value - ref) + 1e-13 * ref


_NORM_ROUTES = (
    lp_norm_extension_direct,
    lambda prof, p: lp_norm_extension_via_conv(prof, p, method="closed"),
    lambda prof, p: lp_norm_extension_via_conv(prof, p, method="quadrature"),
)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("z", [30.0, 100.0, 118.0, 150.0, 180.0, 300.0, 700.0])
def test_norm_routes_stay_within_their_bars_at_large_a_s(p, s, z):
    # The p-th powers are exp-scaled: unscaled, they read 0 with error 0 or
    # NaN, or raised ZeroDivisionError, long before the norm underflows.
    prof = ExpProfile(a=z / s, params=HyperboloidParams(d=2, s=s))
    ref = _lp_norm_mpmath(p, z / s, s)
    for route in _NORM_ROUTES:
        got = route(prof, p)
        assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("z", [745.0, 800.0, 1e4, 1e20])
def test_norm_routes_keep_a_finite_error_where_the_norm_underflows(p, z):
    # Past a s ~ 1e16 even the scaled p-th power is lost to rounding of
    # Re w - a s: that is refused.
    for s in (0.5, 1.0, 2.5):
        prof = ExpProfile(a=z / s, params=HyperboloidParams(d=2, s=s))
        for route in _NORM_ROUTES:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = route(prof, p)
            except ValueError:
                continue
            assert math.isfinite(got.value) and math.isfinite(got.error)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("z", [709.0, 720.0, 740.0, 745.0, 760.0, 800.0, 1000.0])
@pytest.mark.parametrize("s", [1.0, 1e10, 1e100, 1e300])
def test_norm_routes_stay_within_their_bars_where_e_to_the_minus_a_s_is_subnormal(p, z, s):
    # e^{-a s} multiplied the root alone, before the direct route's s^(1 - 3/p):
    # 56 of these 140 norms missed their bars, e.g. the direct p = 4 norm at
    # a s = 800, s = 1e300 read 0 +- 0 for 1.214e-273.
    prof = ExpProfile(a=z / s, params=HyperboloidParams(d=2, s=s))
    ref = _lp_norm_mpmath(p, z / s, s)
    for route in _NORM_ROUTES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = route(prof, p)
            except ValueError:
                continue
        assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [1e75, 1e77, 1e100])
def test_direct_norm_at_huge_rates_is_right_or_refused(p, a):
    # On a grid at rate a, |w^2|^2 passed the float maximum here and the
    # values reached the subnormal range: the norm was off by 1.7e-3 at
    # (4, 1e75) and by 40 % at (4, 1e77), far outside its bar.  The unit
    # sheet at z = a s = 1 keeps every node in range.
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=1.0 / a))
    try:
        got = lp_norm_extension_direct(prof, p)
    except ValueError:
        return
    ref = _lp_norm_mpmath(p, a, 1.0 / a)
    assert abs(got.value - ref) <= got.error + 1e-13 * ref
    if a < 1e100:
        closed = lp_norm_extension_via_conv(prof, p, method="closed")
        assert abs(got.value - closed.value) <= got.error + 1e-13 * closed.value


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("z", [1.0, 30.0])
def test_direct_norm_at_the_edge_of_its_range_is_right(p, z):
    # a = 1e151 was the largest rate the direct norm integrated at a s >= 1
    # on a grid at rate a.
    prof = ExpProfile(a=1e151, params=HyperboloidParams(d=2, s=z / 1e151))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm_extension_direct(prof, p)
    ref = _lp_norm_mpmath(p, 1e151, z / 1e151)
    assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("z", [1e-3, 1.0, 30.0])
def test_direct_norm_past_its_float_range_is_refused_without_warnings(p, a, z):
    # On a grid at rate a the time tails' v^2 underflowed to 0 here, so
    # max(1/a, 1/s, a, s) past 1e151 was refused as leaving the float range.
    # On the unit sheet at z = a s these norms are within their bars; only
    # a s = 1e-3, below the direct norm's range, is still refused.
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=z / a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if z < 1e-2:
            with pytest.raises(ValueError, match=r"needs a s >= 1e-2"):
                lp_norm_extension_direct(prof, p)
            return
        got = lp_norm_extension_direct(prof, p)
    ref = _lp_norm_mpmath(p, a, z / a)
    assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-50])
@pytest.mark.parametrize("z", [1e-2, 1.0, 30.0, 300.0])
def test_direct_norm_at_tiny_rates_is_right_without_warnings(p, a, z):
    # On a grid at rate a, |w^2|^2 underflowed to 0 at a = 1e-100 (a numpy
    # divide-by-zero warning) and a = 1e-300 was refused as leaving the
    # float range; on the unit sheet at z = a s they are within their bars.
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=z / a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm_extension_direct(prof, p)
    ref = _lp_norm_mpmath(p, a, z / a)
    assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("z", [1e17, 1e20, 1e100])
def test_direct_norm_past_a_s_of_1e16_is_refused_without_warnings(p, z):
    # Here the rounding of Re w - a s leaves the scaled p-th power unformable:
    # at a s = 1e20 it was refused as "inf", at 1e17 and 1e100 it read 0 +- 0.
    prof = ExpProfile(a=z, params=P2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"a s <= 1e16, got a s = "):
            lp_norm_extension_direct(prof, p)


@pytest.mark.parametrize("p, a, s", [(4, 1.0, 1e-3), (4, 1e3, 1e-6), (4, 1e20, 1e-23),
                                     (4, 1e70, 1e-73), (6, 1e-5, 1.0), (6, 1e-8, 1.0),
                                     (4, 1e-8, 1.0), (4, 1e-12, 1.0), (4, 1e-20, 1.0),
                                     (6, 1e-100, 1.0), (4, 1e-100, 1.0), (4, 1.0, 1e-100)])
def test_direct_norm_below_a_s_of_1e_2_is_refused_without_warnings(p, a, s):
    # Here the norm was silently wrong: at (4, 1, 1e-3) off by 2.0e-3 with a
    # bar of 8.9e-4, at (4, 1e-12, 1) 15.8 times the norm with a bar of 1e-6 of
    # it; at a s = 1e-100 p = 6 warned 'invalid value' before a NaN refusal.
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"needs a s >= 1e-2"):
            lp_norm_extension_direct(prof, p)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_direct_norm_at_a_s_of_1e_2_stays_within_its_bar(p, a):
    prof = ExpProfile(a=a, params=HyperboloidParams(d=2, s=1e-2 / a))
    got = lp_norm_extension_direct(prof, p)
    ref = _lp_norm_mpmath(p, a, 1e-2 / a)
    assert abs(got.value - ref) <= got.error + 1e-13 * ref


@pytest.mark.parametrize("p, z", [(4, 1e-3), (6, 1e-10)])
def test_abs_extension_pow_keeps_its_bits(p, z):
    # The in-place kernel gives the one-line expression's bits on the unit
    # sheet, out to rho ~ 1e25 and t ~ 1e28, past the direct norm's nodes.
    rng = np.random.default_rng(27)
    rho = 10.0 ** rng.uniform(-2.0, 25.0, (200, 1))
    t = np.concatenate([rho * 10.0 ** rng.uniform(-6.0, 3.0, (200, 12)),
                        rho * (1.0 + rng.uniform(-1e-9, 1e-9, (200, 4)))], axis=1)
    re = (z * z - t * t) + rho * rho
    im = 2.0 * z * t
    m2 = re * re + im * im
    m = np.sqrt(m2)
    big = np.sqrt(0.5 * (m + np.abs(re)))
    re_w = np.where(re >= 0.0, big, np.abs(im) / (2.0 * big))
    denominator = m2 if p == 4 else m2 * m
    one_line = (2.0 * np.pi) ** p * np.exp(-p * (re_w - z)) / denominator
    assert np.all(np.isfinite(denominator))
    assert np.array_equal(_abs_extension_pow(z, rho, t, p), one_line)


@pytest.mark.parametrize("s", [1.0, 1e-110])
@pytest.mark.parametrize("d, p", [(2, 6), (3, 4)])
def test_closed_norms_past_the_cube_overflow_read_zero_or_are_refused(d, p, s):
    # a^3 overflows past a ~ 5.6e102: the closed product reads 0 there, and
    # the norm is refused with ValueError, never OverflowError.
    prof = ExpProfile(a=6e102, params=HyperboloidParams(d=d, s=s))
    for exp_scaled in (False, True):
        assert conv_power_l2_sq(prof, p // 2, "closed", exp_scaled) == QuadResult(0.0, 0.0)
    with pytest.raises(ValueError):
        lp_norm_extension_via_conv(prof, p, method="closed")


@pytest.mark.parametrize("a", [1e-108, 1e-300])
@pytest.mark.parametrize("d, p", [(2, 6), (3, 4)])
def test_closed_norms_past_the_cube_underflow_read_inf_and_are_refused(d, p, a):
    # a^3 underflows to 0 below a ~ 1.7e-108: the closed product reads inf
    # there, and the norm is refused with ValueError, never ZeroDivisionError.
    prof = ExpProfile(a=a, params=P2 if d == 2 else P3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exp_scaled in (False, True):
            got = conv_power_l2_sq(prof, p // 2, "closed", exp_scaled)
            assert got == QuadResult(math.inf, 0.0)
        with pytest.raises(ValueError):
            lp_norm_extension_via_conv(prof, p, method="closed")


@pytest.mark.parametrize("a", [1e-152, 1e-200, 1e-300, 5e-324])
@pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 2)])
def test_quadrature_product_at_tiny_rates_is_refused_without_warnings(d, k, a):
    # The outer nodes tau ~ 30 / a used to overflow the reduction with a
    # RuntimeWarning, and the norm was then refused as "xi and tau must be
    # finite".
    prof = ExpProfile(a=a, params=P2 if d == 2 else P3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: conv_power_l2_sq(prof, k, "quadrature"),
                     lambda: lp_norm_extension_via_conv(prof, 2 * k, "quadrature")):
            with pytest.raises(ValueError, match=r"float range at a s = "):
                call()


@pytest.mark.parametrize("d, k, a, s", [(2, 3, 1e-105, 1.0), (3, 2, 1e-95, 1.0),
                                        (3, 2, 1e-80, 1.0), (2, 2, 1e150, 1e-160)])
def test_quadrature_product_past_the_float_range_is_refused_without_warnings(d, k, a, s):
    # The first three returned QuadResult(inf, nan); the last, where the
    # squared density near the vertex overflows, warned before reading inf.
    prof = ExpProfile(a=a, params=HyperboloidParams(d=d, s=s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: conv_power_l2_sq(prof, k, "quadrature"),
                     lambda: lp_norm_extension_via_conv(prof, 2 * k, "quadrature")):
            with pytest.raises(ValueError, match=r"product is inf at a s = .*closed route"):
                call()


@pytest.mark.parametrize("p, bound", [(4, 1e-11), (6, 1e-13)])
def test_direct_norm_time_tail_is_integrated_not_extrapolated(p, bound):
    # The C / t^p extrapolation of the time tail it replaces was off by
    # 1.6e-9 (p = 4) and 1.4e-12 (p = 6) relative here.
    got = lp_norm_extension_direct(ExpProfile(a=3.0, params=P2), p)
    assert abs(got.value / _lp_norm_mpmath(p, 3.0, 1.0) - 1.0) <= bound


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("a, s", [(0.05, 1.0), (0.3, 1.0), (3.0, 0.5), (10.0, 2.5)])
@pytest.mark.parametrize("n_per", [20, 28])
def test_time_integral_of_the_rho_zero_row(p, a, s, n_per):
    # On the unit sheet at z = a s and rho = 0, |T|^p = (2 pi)^p e^{-p z}
    # (z^2 + t^2)^{-p/2}, and int_0^oo (z^2 + t^2)^{-p/2} dt = pi / (4 z^3)
    # (p = 4), 3 pi / (16 z^5) (p = 6).
    z = a * s
    rho = np.zeros(1)
    edges, _ = _ridge_time_edges(rho, z)
    # The integrals are scaled by e^{p z}.
    got = _time_integrals(z, rho, edges, p, n_per)[0]
    line = math.pi / (4.0 * z**3) if p == 4 else 3.0 * math.pi / (16.0 * z**5)
    assert got == pytest.approx(2.0 * (2.0 * math.pi) ** p * line, rel=1e-14)


def test_direct_norm_memory_stays_bounded():
    # One radial panel per batch keeps the (rho, t) grid small; a batch of
    # the whole norm would hold every panel's grid at once.
    prof = ExpProfile(a=0.3, params=P2)
    tracemalloc.start()
    try:
        lp_norm_extension_direct(prof, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_direct_norm_off_default_profile():
    prof = ExpProfile(a=0.7, params=HyperboloidParams(d=2, s=1.6))
    direct = lp_norm_extension_direct(prof, 4)
    closed = lp_norm_extension_via_conv(prof, 4, method="closed").value
    assert abs(direct.value - closed) <= direct.error + 1e-13 * closed


def test_norm_route_validation():
    with pytest.raises(ValueError):
        lp_norm_extension_direct(PROF3, 4)
    with pytest.raises(ValueError):
        lp_norm_extension_direct(PROF2, 5)
    with pytest.raises(ValueError):
        lp_norm_extension_via_conv(PROF2, 8)
    with pytest.raises(ValueError):
        conv_power_l2_sq(PROF2, 2, method="montecarlo")


def test_quadrature_returns_a_quad_result():
    res = extension_quadrature(PROF2, np.array([0.5, 0.0]), 0.3)
    assert isinstance(res, QuadResult)
    value, error = res
    assert value == pytest.approx(complex(extension_closed(PROF2, [0.5, 0.0], 0.3)), rel=1e-12)
    assert error == res.error < 1e-10


@pytest.mark.parametrize("params, k", [(P2, 2), (P2, 3), (P3, 2)])
@pytest.mark.parametrize("a", [1e-3, 0.7, 30.0])
def test_exp_scaled_norms_carry_the_exponential_factor(params, k, a):
    prof = ExpProfile(a=a, params=params)
    z = a * params.s
    assert l2_norm_sq(prof, exp_scaled=True) * math.exp(-2.0 * z) == pytest.approx(
        l2_norm_sq(prof), rel=1e-14)
    for method in ("closed", "quadrature"):
        plain = conv_power_l2_sq(prof, k, method)
        scaled = conv_power_l2_sq(prof, k, method, exp_scaled=True)
        weight = math.exp(-2.0 * k * z)
        assert scaled.value * weight == pytest.approx(plain.value, rel=1e-14)
        # The error is a coarse/fine difference: equal up to the value's rounding.
        assert abs(scaled.error * weight - plain.error) <= 1e-14 * plain.value


def test_exp_scaled_norms_stay_finite_where_the_norms_underflow():
    prof = ExpProfile(a=500.0, params=P3)
    assert l2_norm_sq(prof) == 0.0
    assert conv_power_l2_sq(prof, 2, "closed").value == 0.0
    scaled = conv_power_l2_sq(prof, 2, "closed", exp_scaled=True).value
    assert scaled == pytest.approx(conv_power_l2_sq(prof, 2, exp_scaled=True).value, rel=1e-12)
    assert 0.0 < l2_norm_sq(prof, exp_scaled=True) < math.inf
