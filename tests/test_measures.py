"""Measure-layer tests: surface integrals, closed convolutions, oracles.

Reference values here come from scipy.integrate.quad applied to the invariant
(radius, height) reductions of the pairing integrals; those reductions use
nothing from the package beyond the definition of the measure itself.  The
reduced tensor pairing is also checked against a direct sum over all node
pairs (d = 2) and against verify's closed-density reduction (d = 3).
"""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hyperex.geometry import (
    HyperboloidParams,
    SpacetimePoint,
    boost,
    compose,
    lift,
    rotation_embed,
    unit_circle,
)
from hyperex.measures import (
    CLOSED_PAIRS,
    SHEETS,
    ConvClosedForm,
    MeasureSpec,
    conv_closed,
    conv_pairing_oracle,
    conv_point_oracle,
    conv_reduced_integral,
    conv_sup_norm,
    conv_support,
    sum_support_predicate,
    surface_integral,
)
from hyperex.measures import _chord_endpoint, _radial_nodes, _sheet_integrals, _sphere_nodes
from hyperex.quadrature import BudgetError, QuadResult, QuadSpec, gl_panels
from hyperex.verify import _reduced_pairing_reference

P2 = HyperboloidParams(d=2, s=1.0)
P3 = HyperboloidParams(d=3, s=1.0)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(P2, sheet="upper")
    assert MeasureSpec(P2).sheet == "plus"


def test_conv_form_validation():
    with pytest.raises(ValueError):
        ConvClosedForm(3, 3, 1.0)
    with pytest.raises(ValueError):
        ConvClosedForm(2, 4, 1.0)
    with pytest.raises(ValueError):
        ConvClosedForm(2, 2, -1.0)


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_conv_form_refuses_non_finite_s(s):
    with pytest.raises(ValueError, match="finite"):
        ConvClosedForm(2, 2, s)


@pytest.mark.parametrize("d, n, s", [(3, 2, 1e200), (2, 3, 1.7e308), (2, 3, 1e-300),
                                     (2, 2, 1e-170), (2, 2, 5e-324)])
def test_conv_form_refuses_n_s_squared_outside_the_float_range(d, n, s):
    # (n s)^2 overflowed in conv_support, or underflowed to 0 and let m^2 = 0
    # into the support, where the density read +-inf.
    with pytest.raises(ValueError, match=r"\(n s\)\^2 .* leaves the float range"):
        ConvClosedForm(d, n, s)


def test_conv_form_keeps_the_smallest_and_largest_in_range_n_s():
    for n, s in ((2, 1e-160), (3, 1e-160), (2, 6e153), (3, 4e153)):
        assert ConvClosedForm(2, n, s).s == s


def test_surface_integral_exponential_profile_d2():
    # int e^{-2 a psi} d(sigma) = (pi / a) e^{-2 a s}: in u = psi the measure
    # is du d(theta) on [s, oo) x [0, 2 pi).
    for a in (0.4, 1.0, 2.5):
        res = surface_integral(MeasureSpec(P2), lambda xi, tau: np.exp(-2 * a * tau))
        assert res.value == pytest.approx(np.pi / a * math.exp(-2 * a), rel=1e-12)
        assert res.error < 1e-10 * res.value


def test_surface_integral_exponential_profile_d3():
    a = 0.7
    ref = 4 * np.pi * quad(
        lambda u: math.exp(-2 * a * u) * math.sqrt(u * u - 1.0), 1.0, np.inf
    )[0]
    res = surface_integral(MeasureSpec(P3), lambda xi, tau: np.exp(-2 * a * tau))
    assert res.value == pytest.approx(ref, rel=1e-10)


def test_surface_integral_lorentz_invariance():
    # The measure is invariant: int f(L p) d(sigma)(p) = int f d(sigma).
    L = compose(boost(2, 0.3), rotation_embed(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def f(xi, tau):
        return np.exp(-tau) * (1.0 + xi[:, 0] ** 2 / (1.0 + tau**2))

    def f_moved(xi, tau):
        vecs = np.column_stack([xi, tau]) @ L.matrix.T
        return f(vecs[:, :2], vecs[:, 2])

    q = QuadSpec(radius=70.0, n_radial=128, n_angular=96)
    base = surface_integral(MeasureSpec(P2), f, q)
    moved = surface_integral(MeasureSpec(P2), f_moved, q)
    assert moved.value == pytest.approx(base.value, rel=1e-9)


def test_surface_integral_non_radial_d3():
    # Over S^2, xi_1^2 + 2 xi_3^2 averages to |xi|^2, and in u = psi the
    # measure |xi|^2 d|xi| / psi is sqrt(u^2 - s^2) du, so the integral is
    # 4 pi int_s^oo (u^2 - s^2)^{3/2} e^{-2au} du.
    a, s = 0.6, 1.3
    ref = 4 * np.pi * quad(
        lambda u: (u * u - s * s) ** 1.5 * math.exp(-2 * a * u), s, np.inf,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )[0]
    res = surface_integral(
        MeasureSpec(HyperboloidParams(d=3, s=s)),
        lambda xi, tau: (xi[:, 0] ** 2 + 2 * xi[:, 2] ** 2) * np.exp(-2 * a * tau),
    )
    assert res.value == pytest.approx(ref, rel=1e-10)


def test_surface_integral_lorentz_invariance_d3():
    # Boost along xi_3 composed with a rotation in the (xi_1, xi_2) plane.
    c, s_ = math.cos(0.8), math.sin(0.8)
    L = compose(
        boost(3, 0.3, axis=2),
        rotation_embed(np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])),
    )

    def f(xi, tau):
        return np.exp(-tau) * (1.0 + (xi[:, 0] + xi[:, 2]) ** 2 / (1.0 + tau**2))

    def f_moved(xi, tau):
        vecs = np.column_stack([xi, tau]) @ L.matrix.T
        return f(vecs[:, :3], vecs[:, 3])

    q = QuadSpec(radius=70.0, n_radial=64, n_angular=48)
    base = surface_integral(MeasureSpec(P3), f, q)
    moved = surface_integral(MeasureSpec(P3), f_moved, q)
    assert moved.value == pytest.approx(base.value, rel=1e-9)


def test_surface_integral_sheets():
    a = 0.7
    plus = surface_integral(MeasureSpec(P2), lambda xi, tau: np.exp(-2 * a * tau))
    minus = surface_integral(MeasureSpec(P2, "minus"), lambda xi, tau: np.exp(2 * a * tau))
    both = surface_integral(
        MeasureSpec(P2, "both"), lambda xi, tau: np.exp(-2 * a * np.abs(tau))
    )
    assert minus.value == pytest.approx(plus.value, rel=1e-13)
    assert both.value == pytest.approx(2 * plus.value, rel=1e-13)


def test_surface_integral_budget_guard():
    with pytest.raises(BudgetError):
        surface_integral(MeasureSpec(P3), lambda xi, tau: 1.0 / tau**2)


def _sheet_nodes(params, quad):
    """The whole sheet grid as flat arrays (xi, tau, w), built in one piece.

    The radial rule of _radial_nodes times the sphere rule of _sphere_nodes,
    radius-major: every direction of one radial node before the next.
    """
    r, wr, psi = _radial_nodes(params, quad)
    omega, wo = _sphere_nodes(params.d, quad.n_angular)
    xi = np.kron(r[:, None], omega)
    w = np.outer(wr, wo).ravel()
    return xi, np.repeat(psi, wo.size), w


def _grid_sum(params, sheet, f, quad):
    """surface_integral's value, error and budget verdict, summed from _sheet_nodes.

    The outer radial half is picked by |xi| > radius / 2, not by position.
    """
    sums = []
    for scale in (1, 2):
        q = replace(quad, n_radial=quad.n_radial * scale, n_angular=quad.n_angular * scale)
        xi, tau, w = _sheet_nodes(params, q)
        outer = np.sqrt(np.sum(xi * xi, axis=-1)) > 0.5 * quad.radius
        total = tail = 0.0
        for sign in {"plus": (1.0,), "minus": (-1.0,), "both": (1.0, -1.0)}[sheet]:
            vals = w * np.asarray(f(xi, sign * tau), dtype=float)
            total += float(np.sum(vals))
            tail += float(np.sum(np.abs(vals[outer])))
        sums.append((total, tail))
    (coarse, _), (fine, tail) = sums
    return QuadResult(fine, abs(fine - coarse)), tail > max(1e-3 * abs(fine), 1e-10)


def _tilted_gaussian(xi, tau):
    return np.exp(-0.3 * np.sum(xi * xi, axis=-1) - 0.2 * np.abs(tau)) * (1.0 + 0.1 * xi[:, 0])


def _slow_tail(xi, tau):
    return 1.0 / tau**2


@pytest.mark.parametrize("f", [_tilted_gaussian, _slow_tail])
@pytest.mark.parametrize("sheet", SHEETS)
@pytest.mark.parametrize("params", [P2, P3], ids=["d2", "d3"])
def test_surface_integral_is_the_grid_sum_bit_for_bit(params, sheet, f):
    # The first grid fits in one block of surface_integral's; at d = 3 the
    # second spans several, the last of them ragged.
    for quad in (QuadSpec(radius=30.0, n_radial=12, n_angular=8),
                 QuadSpec(radius=30.0, n_radial=20, n_angular=24)):
        want, refused = _grid_sum(params, sheet, f, quad)
        assert refused == (f is _slow_tail)
        if refused:
            with pytest.raises(BudgetError, match="outer-half contribution"):
                surface_integral(MeasureSpec(params, sheet), f, quad)
        else:
            assert surface_integral(MeasureSpec(params, sheet), f, quad) == want


@pytest.mark.parametrize("sheet", SHEETS)
@pytest.mark.parametrize("params", [P2, P3], ids=["d2", "d3"])
def test_sheet_integrals_are_the_lone_surface_integrals(params, sheet):
    spec = MeasureSpec(params, sheet)
    quad = QuadSpec(radius=30.0, n_radial=20, n_angular=24)
    fs = (_tilted_gaussian, lambda xi, tau: np.exp(-0.5 * np.sum(xi * xi, axis=-1)))
    assert _sheet_integrals(spec, fs, quad) == [surface_integral(spec, f, quad) for f in fs]
    # A slowly decaying integrand is refused even behind one that decays fast.
    with pytest.raises(BudgetError, match="outer-half contribution"):
        _sheet_integrals(spec, (_tilted_gaussian, _slow_tail), quad)


@pytest.mark.parametrize("rows", [3.5, 1.0, 0.5], ids=["rows", "one-row", "part-row"])
@pytest.mark.parametrize("params", [P2, P3], ids=["d2", "d3"])
def test_surface_integral_in_blocks_of_whole_rows_is_the_grid_sum(monkeypatch, params, rows):
    # Blocks hold several rows, one row, or (less than one row fits) one row
    # each of the fine grid, whose rows hold 48 (d = 2) or 1,152 (d = 3) nodes.
    quad = QuadSpec(radius=30.0, n_radial=20, n_angular=24)
    row = 48 if params.d == 2 else 48 * 24
    monkeypatch.setattr("hyperex.measures._SHEET_BLOCK_NODES", int(rows * row))
    want, refused = _grid_sum(params, "both", _tilted_gaussian, quad)
    assert not refused
    got = surface_integral(MeasureSpec(params, "both"), _tilted_gaussian, quad)
    assert got.value == pytest.approx(want.value, rel=1e-14)
    assert abs(got.error - want.error) <= 1e-14 * abs(want.value)
    # The outer-half tail is every row at or past n_radial, whatever the block.
    with pytest.raises(BudgetError, match="outer-half contribution"):
        surface_integral(MeasureSpec(params, "both"), _slow_tail, quad)


def test_surface_integral_leaves_the_grid_it_passes_unchanged():
    # An integrand may return its tau argument; an in-place multiply of that
    # return value would write the weights into the grid.
    passed = []

    def echo(xi, tau):
        passed.append((tau, tau.copy(), xi, xi.copy()))
        return tau

    messages = []
    for _ in range(2):
        with pytest.raises(BudgetError) as refusal:
            surface_integral(MeasureSpec(P2, "both"), echo, QuadSpec(n_radial=8, n_angular=8))
        messages.append(str(refusal.value))
    assert messages[0] == messages[1]
    assert len(passed) == 8
    for tau, tau_then, xi, xi_then in passed:
        assert np.array_equal(tau, tau_then) and np.array_equal(xi, xi_then)


def test_conv_closed_worked_values():
    s = 1.0
    f22 = ConvClosedForm(2, 2, s)
    # Vertex of the support: the (2, 2) density equals its sup pi/s there.
    assert conv_closed(f22, [0.0, 0.0], 2.0) == pytest.approx(np.pi, rel=1e-14)
    assert conv_closed(f22, [0.0, 0.0], 4.0) == pytest.approx(np.pi / 2, rel=1e-14)
    assert conv_closed(f22, [3.0, 0.0], 5.0) == pytest.approx(np.pi / 2, rel=1e-14)
    # Outside: below the vertex, on the wrong sheet, spacelike.
    assert conv_closed(f22, [0.0, 0.0], 1.999) == 0.0
    assert conv_closed(f22, [0.0, 0.0], -4.0) == 0.0
    assert conv_closed(f22, [5.0, 0.0], 3.0) == 0.0
    f23 = ConvClosedForm(2, 3, s)
    assert conv_closed(f23, [0.0, 0.0], 3.0) == 0.0  # vanishes at its vertex
    assert conv_closed(f23, [0.0, 0.0], 6.0) == pytest.approx(
        (2 * np.pi) ** 2 * 0.5, rel=1e-14
    )
    f32 = ConvClosedForm(3, 2, s)
    assert conv_closed(f32, [0.0, 0.0, 0.0], 2.0) == 0.0
    assert conv_closed(f32, [0.0, 0.0, 0.0], 4.0) == pytest.approx(
        2 * np.pi * math.sqrt(0.75), rel=1e-14
    )


def test_conv_closed_vectorized_and_invariant():
    f22 = ConvClosedForm(2, 2, 1.0)
    xi = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    tau = np.array([4.0, 5.0, -1.0])
    vals = conv_closed(f22, xi, tau)
    assert vals.shape == (3,)
    assert vals[0] == vals[1]  # same invariant m^2 = 16
    assert vals[2] == 0.0


def test_conv_closed_outside_the_support_warns_nothing():
    # An outside point must not feed the d = 3 formula a mass m^2 < 4 s^2,
    # where sqrt(1 - 4 s^2 / m^2) is invalid.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conv_closed(ConvClosedForm(3, 2, 1.0), [5.0, 0.0, 0.0], 1.0) == 0.0


@pytest.mark.parametrize("d, n", CLOSED_PAIRS)
def test_single_point_calls_are_the_vectorized_rows(d, n):
    # Random points, and tau within 3 ulps of +-sqrt((n s)^2 + |xi|^2), where
    # the support verdict is a rounding call: each single-point call must
    # return bit-for-bit the row of the vectorized call, so a value and the
    # support verdict made for it never disagree.
    rng = np.random.default_rng(10 * d + n)
    s = 1.1
    form = ConvClosedForm(d, n, s)
    base = rng.normal(size=(150, d)) * rng.exponential(4.0, size=(150, 1))
    edge = np.sqrt((n * s) ** 2 + np.sum(base * base, axis=-1))
    ulps = np.arange(-3, 4) * np.spacing(edge)[:, None]
    xi = np.concatenate([np.repeat(base, 7, axis=0)] * 2 + [base])
    tau = np.concatenate([(edge[:, None] + ulps).ravel(),
                          (-edge[:, None] + ulps).ravel(),
                          rng.uniform(-10.0, 40.0, size=base.shape[0])])
    inside, m2 = conv_support(form, xi, tau)
    assert inside.any() and not inside[: 7 * edge.size].all()
    singles = [conv_support(form, x, t) for x, t in zip(xi, tau)]
    assert [bool(i) for i, _ in singles] == inside.tolist()
    assert np.array_equal([m for _, m in singles], m2)
    vec = conv_closed(form, xi, tau)
    assert np.array_equal([conv_closed(form, x, t) for x, t in zip(xi, tau)], vec)
    assert not vec[~inside].any()
    for sheets in [("plus",) * n, ("plus",) * (n - 1) + ("minus",), ("minus",) * n]:
        rows = sum_support_predicate(s, sheets, xi, tau)
        assert [sum_support_predicate(s, sheets, x, t)
                for x, t in zip(xi, tau)] == rows.tolist()


@pytest.mark.parametrize("d, n", CLOSED_PAIRS)
def test_all_plus_sheet_sums_are_the_closed_support(d, n):
    # Within 4 ulps of tau = sqrt((n s)^2 + |xi|^2) the all-plus row and
    # conv_support must make the same rounding call: both read m^2 and the
    # sign of tau.  Deciding tau >= sqrt((n s)^2 + |xi|^2) instead disagreed
    # on about 4 % of these points.
    rng = np.random.default_rng(100 * d + n)
    s = 1.1
    form = ConvClosedForm(d, n, s)
    base = rng.normal(size=(12_500, d)) * rng.exponential(4.0, size=(12_500, 1))
    edge = np.sqrt((n * s) ** 2 + np.sum(base * base, axis=-1))
    ulps = np.arange(-4, 5)[None, :] * np.spacing(edge)[:, None]
    xi = np.repeat(base, 9, axis=0)
    tau = (edge[:, None] + ulps).ravel()
    assert tau.size >= 100_000
    inside, _ = conv_support(form, xi, tau)
    assert inside.any() and not inside.all()
    assert np.array_equal(sum_support_predicate(s, ("plus",) * n, xi, tau), inside)


@pytest.mark.parametrize("xi, tau", [
    ([0.0, 0.0], math.nan), ([0.0, 0.0], math.inf), ([0.0, 0.0], -math.inf),
    ([math.inf, 0.0], 5.0), ([0.0, -math.inf], 5.0), ([math.nan, 0.0], 5.0),
])
def test_non_finite_points_are_refused(xi, tau):
    # A NaN tau or an infinite xi used to read as a point outside the support.
    form = ConvClosedForm(2, 2, 1.0)

    def sheet_sum(form, xi, tau):
        return sum_support_predicate(form.s, ("plus", "plus"), xi, tau)

    for call in (conv_support, conv_closed, conv_point_oracle, sheet_sum):
        with pytest.raises(ValueError, match="finite"):
            call(form, xi, tau)
    rows = np.array([[1.0, 0.0], xi])
    with pytest.raises(ValueError, match="finite"):
        conv_closed(form, rows, np.array([4.0, tau]))


@pytest.mark.parametrize("xi", [3.0, np.zeros((4, 0))], ids=["scalar", "no-components"])
def test_sheet_sums_without_components_are_refused(xi):
    with pytest.raises(ValueError, match="components on its last axis"):
        sum_support_predicate(1.0, ("plus", "plus"), xi, 5.0)


def _per_tau_reduction(form, f, tau_nodes, tau_w, n):
    """The reduction one tau node at a time, one conv_closed call per node."""
    total = 0.0
    for tv, tw in zip(tau_nodes, tau_w):
        r_hi = math.sqrt(max(tv * tv - (form.n * form.s) ** 2, 0.0))
        r_nodes, r_w = gl_panels(np.array([0.0, r_hi]), n)
        xi = np.zeros((r_nodes.size, form.d))
        xi[:, 0] = r_nodes
        dens = conv_closed(form, xi, np.full(r_nodes.size, tv))
        vals = dens * f(r_nodes, tv, dens) * r_nodes ** (form.d - 1)
        total += tw * float(np.sum(r_w * vals))
    return total


@pytest.mark.parametrize("d, n", CLOSED_PAIRS)
def test_reduced_integral_matches_the_per_tau_loop(d, n):
    form = ConvClosedForm(d, n, 1.0)
    base = n * form.s
    tau, tau_w = gl_panels(np.array([base, base + 2.0, base + 8.0, 30.0]), 160)
    for f in (lambda r, t, dens: np.exp(-0.4 * r * r - 0.7 * (t - base)),
              lambda r, t, dens: dens * np.exp(-(t - base))):
        ref = _per_tau_reduction(form, f, tau, tau_w, 160)
        got = conv_reduced_integral(form, f, tau, tau_w, 160)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "d,n,expected_sup,expected_where",
    [(2, 2, np.pi, "vertex"), (2, 3, (2 * np.pi) ** 2, "infinity"), (3, 2, 2 * np.pi, "infinity")],
)
def test_conv_sup_norm(d, n, expected_sup, expected_where):
    form = ConvClosedForm(d, n, 1.0)
    value, where = conv_sup_norm(form)
    assert value == pytest.approx(expected_sup, rel=1e-14)
    assert where == expected_where
    # The closed form never exceeds the sup and approaches it where claimed.
    taus = np.linspace(n + 0.01, 400.0, 500)
    zeros = np.zeros((taus.size, d))
    dens = conv_closed(form, zeros, taus)
    assert np.all(dens <= value * (1 + 1e-13))
    if where == "infinity":
        assert dens[-1] > 0.99 * value
        assert np.all(np.diff(dens) > 0)
    else:
        assert conv_closed(form, np.zeros(d), 2.0) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_point_oracle_matches_closed_interior(d):
    params = HyperboloidParams(d=d, s=1.3)
    form = ConvClosedForm(d, 2, 1.3)
    rng = np.random.default_rng(42 + d)
    for _ in range(20):
        xi = rng.uniform(-4, 4, size=d)
        m = rng.uniform(2 * 1.3 + 0.1, 12.0)
        tau = math.sqrt(m * m + float(xi @ xi))
        res = conv_point_oracle(form, xi, tau)
        assert res.value == pytest.approx(conv_closed(form, xi, tau), rel=1e-8)


def test_chord_endpoint_is_the_root_of_the_triangle_conditions():
    # On canonical representatives of the point oracle, with gaps
    # (m^2 - 4 s^2) / m^2 from 1e-6 up, the triangle conditions of the
    # bipolar chord hold just inside t* and fail just outside it.
    rng = np.random.default_rng(17)

    def admissible(s, xq, tq, t):
        u, v = (tq + t) / 2, (tq - t) / 2
        if u < s or v < s:
            return False
        rho, zeta = mpmath.sqrt(u * u - s * s), mpmath.sqrt(v * v - s * s)
        return rho + zeta >= xq and abs(rho - zeta) <= xq

    with mpmath.workdps(40):
        for _ in range(500):
            s = float(rng.uniform(0.3, 3.0))
            gap = 10 ** rng.uniform(math.log10(1.1e-6), math.log10(0.99))
            m = 2.0 * s / math.sqrt(1.0 - gap)
            xq, tq = 0.75 * m, 1.25 * m
            t_star = mpmath.mpf(float(_chord_endpoint(s, xq, tq)))
            s_mp, xq_mp, tq_mp = mpmath.mpf(s), mpmath.mpf(xq), mpmath.mpf(tq)
            assert (tq_mp**2 - xq_mp**2 - 4 * s_mp**2) / (tq_mp**2 - xq_mp**2) >= 1e-6
            assert admissible(s_mp, xq_mp, tq_mp, t_star * (1 - mpmath.mpf(1e-10)))
            assert not admissible(s_mp, xq_mp, tq_mp, t_star * (1 + mpmath.mpf(1e-10)))


@pytest.mark.parametrize("d", [2, 3])
def test_point_oracle_representative_is_the_boost_of_the_normal_form(d):
    # The oracle places m at (0.75 m, 1.25 m) without building the boost of
    # velocity 0.6; its matrix entries are exactly 0.75 and 1.25.
    rng = np.random.default_rng(60 + d)
    lorentz = boost(d, 0.6)
    for m in 10.0 ** rng.uniform(-150.0, 150.0, size=4000):
        rep = lorentz.apply(SpacetimePoint(np.zeros(d), m))
        assert (float(np.linalg.norm(rep.xi)), rep.tau) == (0.75 * m, 1.25 * m)
        assert rep.xi[0] == 0.75 * m and not rep.xi[1:].any()


def test_point_oracle_refuses_or_resolves_points_at_the_boundary():
    # Points within 40 ulps of tau = sqrt(4 + x^2), s = 1, on the first axis:
    # each is outside, refused with a ValueError, or within its error of the
    # density at the input doubles.  The chord integral raised RuntimeError.
    form = ConvClosedForm(2, 2, 1.0)
    rng = np.random.default_rng(23)
    outcomes = {"outside": 0, "refused": 0, "value": 0}
    with mpmath.workdps(40), warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="point is within 1e-8")
        for x in rng.uniform(0.1, 20.0, size=10):
            edge = math.sqrt(4.0 + x * x)
            for tau in edge + np.arange(-20, 20) * np.spacing(edge):
                try:
                    res = conv_point_oracle(form, [x, 0.0], float(tau))
                except ValueError as exc:
                    assert "within rounding of the support boundary" in str(exc)
                    outcomes["refused"] += 1
                    continue
                if res == (0.0, 0.0):
                    outcomes["outside"] += 1
                    continue
                outcomes["value"] += 1
                m2 = mpmath.mpf(float(tau)) ** 2 - mpmath.mpf(x) ** 2
                exact = 2 * mpmath.pi / mpmath.sqrt(m2)
                assert abs(res.value - exact) <= res.error, (x, float(tau))
    assert sum(outcomes.values()) == 400
    assert outcomes["outside"] > 0 and outcomes["refused"] > 0, outcomes


@pytest.mark.parametrize("d", [2, 3])
def test_point_oracle_error_covers_its_deviation_from_mpmath(d):
    # The density at the input doubles, in mpmath, against the oracle's value
    # and error; gaps (m^2 - 4 s^2) / m^2 log-uniform down to 1e-6, so |xi|
    # runs up to and past 0.999 of its largest value sqrt(tau^2 - 4 s^2).
    rng = np.random.default_rng(100 + d)
    near_edge = 0
    with mpmath.workdps(30), warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="point is within 1e-8")
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(2000):
            s = float(rng.uniform(0.3, 3.0))
            tau = float(rng.uniform(2.05 * s, 30.0))
            gap = 10 ** rng.uniform(-6.0, math.log10(1.0 - (2.0 * s / tau) ** 2))
            r = math.sqrt(max(tau * tau - 4.0 * s * s / (1.0 - gap), 0.0))
            direction = rng.normal(size=d)
            xi = r * direction / np.linalg.norm(direction)
            near_edge += r >= 0.999 * math.sqrt(tau * tau - 4.0 * s * s)
            res = conv_point_oracle(ConvClosedForm(d, 2, s), xi, tau)
            m2 = mpmath.mpf(tau) ** 2 - mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in xi)
            if d == 2:
                exact = 2 * mpmath.pi / mpmath.sqrt(m2)
            else:
                exact = 2 * mpmath.pi * mpmath.sqrt(1 - 4 * mpmath.mpf(s) ** 2 / m2)
            assert abs(res.value - exact) <= res.error, (s, list(xi), tau)
    assert near_edge > 100


def test_point_oracle_edge_behavior():
    form = ConvClosedForm(2, 2, 1.0)
    assert conv_point_oracle(form, [0.0, 0.0], 1.5).value == 0.0
    assert conv_point_oracle(form, [9.0, 0.0], 3.0).value == 0.0
    # The vertex, where the density is pi / s: m^2 = 4 s^2 exactly leaves no chord.
    with pytest.raises(ValueError, match="within rounding of the support boundary"):
        conv_point_oracle(form, [0.0, 0.0], 2.0)
    with pytest.warns(UserWarning, match="boundary"):
        res = conv_point_oracle(form, [1.0, 0.0], math.sqrt(1.0 + 4.0 + 1e-9))
    assert res.value > 0
    with pytest.raises(ValueError, match="n = 2"):
        conv_point_oracle(ConvClosedForm(2, 3, 1.0), [0.0, 0.0], 4.0)
    for xi, tau in ((3.0, 4.0), ([[0.5, 0.0]], 4.0), ([0.5, 0.0], [4.0])):
        with pytest.raises(ValueError, match="one point: a 1-D xi and a scalar tau"):
            conv_point_oracle(form, xi, tau)
    # tau^2 fits, but tau^2 + |xi|^2, which scales the round-off floor, does not.
    with pytest.raises(ValueError, match=r"tau\^2 \+ \|xi\|\^2 inside the float range"):
        conv_point_oracle(form, [1.2e154, 0.0], 1.3e154)
    assert conv_point_oracle(form, [0.0, 0.0], 1.3e154).value > 0
    # m^2 = 5 + 8.9e-16 > 4 s^2 + 1, but m rounds to 2 s: no chord is left.
    with pytest.warns(UserWarning, match="boundary"), \
            pytest.raises(ValueError, match="within rounding of the support boundary"):
        conv_point_oracle(form, [1.0, 0.0], 2.23606797749979)


def test_pairing_tensor_22_vs_closed():
    g = lambda r, tau: np.exp(-tau)
    pair = conv_pairing_oracle(
        MeasureSpec(P2), 2, g, QuadSpec(radius=30.0, n_radial=48, n_angular=48)
    )
    inner = lambda eta: quad(
        lambda tau: math.exp(-tau) * 2 * np.pi / math.sqrt(tau * tau - eta * eta),
        math.sqrt(4 + eta * eta), np.inf,
    )[0]
    ref = quad(lambda eta: 2 * np.pi * eta * inner(eta), 0, 40, limit=200)[0]
    assert pair.value == pytest.approx(ref, rel=1e-8)
    assert abs(pair.value - ref) <= max(pair.error, 1e-8 * abs(ref))


def test_pairing_tensor_32_vs_closed():
    g = lambda r, tau: np.exp(-tau)
    pair = conv_pairing_oracle(
        MeasureSpec(P3), 2, g, QuadSpec(radius=25.0, n_radial=20, n_angular=20)
    )
    inner = lambda eta: quad(
        lambda tau: math.exp(-tau) * 2 * np.pi * math.sqrt(1 - 4 / (tau * tau - eta * eta)),
        math.sqrt(4 + eta * eta), np.inf,
    )[0]
    ref = quad(lambda eta: 4 * np.pi * eta * eta * inner(eta), 0, 35, limit=200)[0]
    assert pair.value == pytest.approx(ref, rel=1e-5)


def test_pairing_tensor_d2_equals_the_full_pair_sum():
    # On the full d = 2 grid the trapezoid angles form a group containing the
    # pinned direction, so the sum over all N^2 node pairs is the same sum.
    g = lambda r, tau: np.exp(-0.4 * r * r - 0.7 * (tau - 2.0))
    pair = conv_pairing_oracle(
        MeasureSpec(P2), 2, g, QuadSpec(radius=30.0, n_radial=24, n_angular=16)
    )
    # The oracle reports its fine grid: 24 nodes per radial half, 16 angles.
    x, wx = np.polynomial.legendre.leggauss(24)
    r = np.concatenate([7.5 * (x + 1.0), 15.0 + 7.5 * (x + 1.0)])
    wr = np.concatenate([7.5 * wx, 7.5 * wx])
    psi = np.sqrt(1.0 + r * r)
    theta = np.arange(16) * (2 * np.pi / 16)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    xi = (r[:, None, None] * circle[None]).reshape(-1, 2)
    tau = np.repeat(psi, 16)
    w = np.repeat(r / psi * wr, 16) * (2 * np.pi / 16)
    sx = xi[:, None, :] + xi[None, :, :]
    st = tau[:, None] + tau[None, :]
    full = float(np.sum(w[:, None] * w[None, :] * g(np.linalg.norm(sx, axis=-1), st)))
    assert pair.value == pytest.approx(full, rel=1e-13)


def test_pairing_tensor_d3_vs_reduced_reference():
    g = lambda r, tau: np.exp(-0.4 * r * r - 0.7 * (tau - 2.0))
    ref = _reduced_pairing_reference(ConvClosedForm(3, 2, 1.0), g, tau_hi=30.0)
    pair = conv_pairing_oracle(
        MeasureSpec(P3), 2, g, QuadSpec(radius=25.0, n_radial=40, n_angular=40)
    )
    assert pair.value == pytest.approx(ref, rel=1e-6)


def test_pairing_montecarlo_23_vs_closed():
    g = lambda r, tau: np.exp(-0.9 * tau)
    mc = conv_pairing_oracle(
        MeasureSpec(P2), 3, g, QuadSpec(rule="montecarlo", samples=400_000, seed=7)
    )
    inner = lambda eta: quad(
        lambda tau: math.exp(-0.9 * tau)
        * (2 * np.pi) ** 2 * (1 - 3 / math.sqrt(tau * tau - eta * eta)),
        math.sqrt(9 + eta * eta), np.inf,
    )[0]
    ref = quad(lambda eta: 2 * np.pi * eta * inner(eta), 0, 50, limit=200)[0]
    assert abs(mc.value - ref) < 3 * mc.error
    assert mc.error < 0.005 * abs(ref)


def test_pairing_montecarlo_ei_norm_product():
    # Pairing the triple convolution against e^{-2 a tau} times its own
    # closed density gives the squared L^2 norm of the weighted convolution,
    # whose closed value is the k = 3 Ei product.  The Monte-Carlo route
    # shares no algebra with that product.
    from hyperex.extension import ExpProfile, conv_power_l2_sq

    a = 1.0
    form = ConvClosedForm(2, 3, 1.0)

    def g(r, tau):
        # The closed density is rotation invariant: read it on the xi_1 axis.
        xi = np.column_stack([r, np.zeros_like(r)])
        return np.exp(-2.0 * a * tau) * conv_closed(form, xi, tau)

    mc = conv_pairing_oracle(
        MeasureSpec(P2), 3, g, QuadSpec(rule="montecarlo", samples=400_000, seed=11)
    )
    closed = conv_power_l2_sq(ExpProfile(a=a, params=P2), 3, method="closed").value
    assert abs(mc.value - closed) < 3 * mc.error
    assert mc.error < 0.005 * closed


def test_pairing_montecarlo_determinism_and_sheets():
    # 0.8 < 1 so the importance weights do not cancel exactly and the
    # estimator actually has variance.
    g = lambda r, tau: np.exp(-0.8 * np.abs(tau))
    q = QuadSpec(rule="montecarlo", samples=50_000, seed=3)
    a = conv_pairing_oracle(MeasureSpec(P2), 2, g, q)
    b = conv_pairing_oracle(MeasureSpec(P2), 2, g, q)
    assert a.value == b.value
    assert a.error > 0
    c = conv_pairing_oracle(
        MeasureSpec(P2), 2, g, QuadSpec(rule="montecarlo", samples=50_000, seed=4)
    )
    assert c.value != a.value
    minus = conv_pairing_oracle(MeasureSpec(P2, "minus"), 2, g, q)
    assert minus.value == pytest.approx(a.value, rel=1e-12)


def _whole_array_pairing(n, samples, flip, seed, circle):
    # The Monte-Carlo estimator over whole arrays, step for step, with
    # circle(theta) -> (cos theta, sin theta).
    g = lambda r, tau: np.exp(-0.5 * r * r - 0.8 * (np.abs(tau) - 3.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    sum_xi, sum_tau, log_weight = np.zeros((samples, 2)), np.zeros(samples), np.zeros(samples)
    for _ in range(n):
        u = 1.0 + rng.exponential(size=samples)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=samples)
        r = np.sqrt(u * u - 1.0)
        c, sn = circle(theta)
        sum_xi += np.stack([r * c, r * sn], axis=1)
        sum_tau += u
        log_weight += u - 1.0
    vals = g(np.hypot(sum_xi[:, 0], sum_xi[:, 1]), flip * sum_tau)
    whole = vals * (2.0 * np.pi) ** n * np.exp(log_weight)
    want = (float(np.mean(whole)), float(np.std(whole, ddof=1) / np.sqrt(samples)))
    sheet = "minus" if flip < 0 else "plus"
    got = conv_pairing_oracle(MeasureSpec(P2, sheet), n, g,
                              QuadSpec(rule="montecarlo", samples=samples, seed=seed))
    return got, want


@pytest.mark.parametrize("n, samples, flip", [(3, 50_001, 1.0), (2, 2**14, -1.0), (3, 100, 1.0)])
def test_pairing_montecarlo_blocks_give_the_whole_array_bits(n, samples, flip):
    # The oracle streams the same draws through blocks of samples.
    got, want = _whole_array_pairing(n, samples, flip, 5, unit_circle)
    assert got == want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_pairing_montecarlo_matches_the_libm_estimator(n, seed):
    # unit_circle's cos and sin are within 2 ulp(1) of libm's: the estimate
    # moves by rounding only.
    got, want = _whole_array_pairing(n, 50_001, 1.0, seed, lambda t: (np.cos(t), np.sin(t)))
    assert got.value == pytest.approx(want[0], rel=1e-15, abs=0.0)
    assert got.error == pytest.approx(want[1], rel=1e-12, abs=0.0)


def test_pairing_rejects_unsupported_routes():
    g = lambda r, tau: np.exp(-np.abs(tau))
    with pytest.raises(ValueError, match="one sheet"):
        conv_pairing_oracle(MeasureSpec(P2, "both"), 2, g)
    with pytest.raises(BudgetError):
        conv_pairing_oracle(MeasureSpec(P2), 3, g, QuadSpec(rule="tensor"))
    with pytest.raises(ValueError, match="d = 2"):
        conv_pairing_oracle(MeasureSpec(P3), 2, g, QuadSpec(rule="montecarlo"))
    with pytest.raises(ValueError):
        conv_pairing_oracle(MeasureSpec(P2), 4, g)


def _sheet_samples(rng, d, s, sheet, n):
    pts = []
    for _ in range(n):
        x = rng.uniform(-10, 10, size=d)
        tau = math.sqrt(s * s + float(x @ x))
        pts.append((x, tau if sheet == "plus" else -tau))
    return pts


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "sheets",
    [
        ("plus", "plus"), ("plus", "minus"), ("minus", "plus"), ("minus", "minus"),
        ("plus", "plus", "plus"), ("plus", "plus", "minus"),
        ("plus", "minus", "minus"), ("minus", "minus", "minus"),
        ("minus", "plus", "minus"),
    ],
)
def test_sum_support_contains_sheet_sums(d, sheets):
    s = 1.1
    rng = np.random.default_rng(hash((d, sheets)) % 2**32)
    for _ in range(200):
        total_xi = np.zeros(d)
        total_tau = 0.0
        for sheet in sheets:
            x = rng.uniform(-8, 8, size=d)
            total_xi += x
            tau = math.sqrt(s * s + float(x @ x))
            total_tau += tau if sheet == "plus" else -tau
        assert sum_support_predicate(s, sheets, total_xi, total_tau)


def test_sum_support_excludes_and_separates():
    s = 1.0
    # Pure-plus region starts strictly above the mixed band.
    xi = np.array([1.0, 0.0])
    bound = math.sqrt(4 + 1.0)
    assert not sum_support_predicate(s, ("plus", "plus"), xi, bound - 1e-9)
    assert sum_support_predicate(s, ("plus", "plus"), xi, bound + 1e-9)
    assert not sum_support_predicate(s, ("plus", "minus"), xi, bound + 1e-9)
    assert sum_support_predicate(s, ("plus", "minus"), xi, bound - 1e-9)
    assert not sum_support_predicate(s, ("minus", "minus"), xi, 0.0)
    # Vectorized call.
    taus = np.array([3.0, -3.0, 0.0])
    xis = np.tile(xi, (3, 1))
    out = sum_support_predicate(s, ("plus", "plus"), xis, taus)
    assert out.tolist() == [True, False, False]
    with pytest.raises(ValueError):
        sum_support_predicate(s, ("plus",), xi, 1.0)
    with pytest.raises(ValueError):
        sum_support_predicate(s, ("plus", "up"), xi, 1.0)
    with pytest.raises(ValueError):
        sum_support_predicate(-1.0, ("plus", "plus"), xi, 1.0)


def test_point_oracle_consistent_with_lifted_sum_geometry():
    # A sum of two lifted points lies in the oracle's support and the oracle
    # agrees with the closed density at that exact location.
    rng = np.random.default_rng(11)
    form = ConvClosedForm(2, 2, 1.0)
    for _ in range(5):
        p = lift(P2, rng.uniform(-2, 2, size=2))
        q = lift(P2, rng.uniform(-2, 2, size=2))
        xi = p.xi + q.xi
        tau = p.tau + q.tau
        assert sum_support_predicate(1.0, ("plus", "plus"), xi, tau)
        res = conv_point_oracle(form, xi, tau)
        assert res.value == pytest.approx(conv_closed(form, xi, tau), rel=1e-7)


@pytest.mark.parametrize("d, n, xi", [(2, 2, [1.0, 0.0, 0.0, 0.0]), (2, 3, [1.0]),
                                      (3, 2, [1.0, 0.0])])
def test_wrong_dimension_point_is_refused(d, n, xi):
    # conv_closed(ConvClosedForm(2, 2, 1.0), [1, 0, 0, 0], 5.0) used to return
    # a density, reading xi as a point of R^4.
    form = ConvClosedForm(d, n, 1.0)
    calls = (conv_support, conv_closed) + ((conv_point_oracle,) if n == 2 else ())
    for call in calls:
        with pytest.raises(ValueError, match=f"xi must have {d} components"):
            call(form, xi, 5.0)
    with pytest.raises(ValueError, match="components"):
        conv_closed(form, np.zeros((4, d + 1)), np.full(4, 5.0))


def test_overflowing_rows_are_decided_without_overflow():
    # tau^2 and |xi|^2 overflow past about 1.3e154; the verdict must not.
    xi = np.array([[1e200, 0.0], [0.3, 0.4], [1e200, 0.0], [1e300, -1e300],
                   [2e200, 0.0], [0.0, 0.0]])
    tau = np.array([2e200, 5.0, 0.5e200, 1.5e300, -3e200, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (d, n), want in (((2, 3), [True, True, False, True, False, True]),
                             ((2, 2), [True, True, False, True, False, True])):
            form = ConvClosedForm(d, n, 1.0)
            inside, _ = conv_support(form, xi, tau)
            assert inside.tolist() == want
            rows = conv_closed(form, xi, tau)
            assert rows.tolist() == [conv_closed(form, x, t) for x, t in zip(xi, tau)]
            assert [conv_support(form, x, t)[0] for x, t in zip(xi, tau)] == want
        assert conv_closed(ConvClosedForm(2, 3, 1.0), xi[0], tau[0]) == (2 * math.pi) ** 2
        sheets = ("plus",) * 3
        verdict = sum_support_predicate(1.0, sheets, xi, tau)
        assert verdict.tolist() == [True, True, False, True, False, True]
        assert verdict.tolist() == [sum_support_predicate(1.0, sheets, x, t)
                                    for x, t in zip(xi, tau)]
        assert sum_support_predicate(1.0, ("plus", "minus"), [1e300, 1e300], 1e300)
        assert not sum_support_predicate(1.0, ("plus", "plus"), [1e300, 1e300], 1.4e300)


def test_an_s_whose_square_overflows_is_refused_without_warnings():
    # HyperboloidParams accepts s = 1e200 (constants --s 1e200 runs); these
    # calls used to raise OverflowError, or return QuadResult(nan, nan) after
    # two RuntimeWarnings on the Monte-Carlo route.
    spec = MeasureSpec(HyperboloidParams(2, 1e200))
    g = lambda r, tau: np.exp(-r - np.abs(tau))  # noqa: E731
    calls = [
        lambda: surface_integral(spec, lambda xi, tau: np.exp(-np.sum(xi * xi, axis=-1))),
        lambda: conv_pairing_oracle(spec, 2, g, QuadSpec(n_radial=8, n_angular=8)),
        lambda: conv_pairing_oracle(spec, 2, g, QuadSpec(rule="montecarlo", samples=1000)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="float range"):
                call()
        with pytest.raises(ValueError, match="float range"):
            sum_support_predicate(1e200, ("plus", "plus"), [0.0, 0.0], 1e300)
        # The largest s whose (n s)^2 is finite still decides.
        assert sum_support_predicate(6e153, ("plus", "plus"), [0.0, 0.0], 1.3e154)


def test_in_range_rows_keep_the_direct_arithmetic():
    # Where m^2 is finite the verdict and value are today's tau^2 - |xi|^2 ones.
    rng = np.random.default_rng(5)
    xi = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-3, 100, size=(200, 1))
    tau = np.hypot(xi[:, 0], xi[:, 1]) * rng.uniform(0.5, 2.0, size=200)
    form = ConvClosedForm(2, 3, 1.0)
    inside, m2 = conv_support(form, xi, tau)
    assert np.array_equal(m2, tau**2 - np.sum(xi * xi, axis=-1))
    assert np.array_equal(inside, (tau > 0) & (m2 >= 9.0))


@pytest.mark.parametrize("call", [
    lambda: surface_integral(MeasureSpec(P3), lambda xi, tau: tau,
                             QuadSpec(n_radial=10**6, n_angular=10**6)),
    lambda: surface_integral(MeasureSpec(P2), lambda xi, tau: tau,
                             QuadSpec(n_radial=10**12, n_angular=4)),
    lambda: conv_pairing_oracle(MeasureSpec(P2), 2, lambda r, t: r,
                                QuadSpec(n_radial=10**6, n_angular=10**6)),
    lambda: conv_pairing_oracle(MeasureSpec(P3), 2, lambda r, t: r,
                                QuadSpec(n_radial=10**6, n_angular=8)),
], ids=["sheet-d3", "sheet-radial", "pairing-d2", "pairing-d3"])
def test_grids_past_the_budget_are_refused_before_allocating(call):
    with pytest.raises(BudgetError, match="exceed the budget"):
        call()
