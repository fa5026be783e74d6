"""Check registry for the verification suites.

Each suite bundles the invariants of one layer into named checks that report
a measured discrepancy against a tolerance.  All randomness flows through a
single seeded generator, so a fixed seed reproduces every number exactly.
run_checks runs the suites one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .extension import ExpProfile, conv_power_l2_sq, extension_closed, extension_quadrature
from .functionals import (
    SUPPORTED_PAIRS,
    best_constant,
    conv_form_constant,
    constant_expression,
    expected_monotonicity,
    mass_fraction,
    monotonicity_scan,
    q_ratio,
    scaling_check,
    sup_norm_bound,
    two_sheeted_combiner_check,
    _radial_mass,
)
from .geometry import (
    HyperboloidParams,
    boost,
    compose,
    energy,
    lift,
    normal_form,
    quasi_distance,
    rotation_embed,
    unit_circle,
)
from .measures import (
    SPHERE_AREA,
    ConvClosedForm,
    MeasureSpec,
    conv_closed,
    conv_pairing_oracle,
    conv_point_oracle,
    conv_reduced_integral,
    conv_sup_norm,
    sum_support_predicate,
    _check_pairing_budget,
    _check_sheet_budget,
    _sheet_integrals,
)
from .quadrature import (
    QuadResult, QuadSpec, check_budget, gl_panels, gl_sqrt_panels, two_resolution,
)
from .specfun import bessel_j0, exp_integral_ei, exp_scaled_en

@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    error_estimate is nonzero only for checks whose discrepancy rides on a
    stochastic or quadrature error bar (Monte Carlo sigma, two-resolution
    difference); deterministic identity checks leave it at zero.
    """

    suite: str
    name: str
    passed: bool
    discrepancy: float
    tolerance: float
    note: str = ""
    error_estimate: float = 0.0


def _scaled(spec: QuadSpec, grid: int | None) -> QuadSpec:
    """Rescale a tensor budget; grid is per-axis percent of the default (100).

    Only the node counts change; radius and sampling stay put.
    Shrinking the grid may legitimately fail the affected checks, which is
    the honest outcome of requesting a smaller budget.
    """
    if grid is None:
        return spec
    # Integer rounding: a grid past the float range still reaches the budgets.
    return replace(spec, n_radial=max(8, (spec.n_radial * grid + 50) // 100),
                   n_angular=max(4, (spec.n_angular * grid + 50) // 100))


def _check(suite, name, discrepancy, tolerance, note="", passed=None,
           error_estimate=0.0):
    """Build a CheckResult; no other code makes one.

    The check passes iff discrepancy <= tolerance, unless it gives its own
    `passed` rule.
    """
    discrepancy = float(discrepancy)
    if passed is None:
        passed = discrepancy <= tolerance
    return CheckResult(
        suite=suite,
        name=name,
        passed=bool(passed),
        discrepancy=discrepancy,
        tolerance=float(tolerance),
        note=note,
        error_estimate=float(error_estimate),
    )


def _within_bars(suite, name, rows, tolerance, k, floor, bar_units=False, note=""):
    """Check (reference, oracle value, oracle error) rows; the one oracle-bar rule.

    It passes iff the discrepancy is <= tolerance and every deviation
    |value - reference| is <= k error + floor |value|.  The discrepancy is the
    worst deviation relative to |reference|, with the worst error so relative
    as error_estimate; or, with bar_units, the worst deviation in units of
    error + floor |value|, with the worst absolute error as error_estimate.
    Values may be complex.
    """
    devs = [(abs(v - ref), ref, v, err) for ref, v, err in rows]
    if bar_units:
        worst = max(dev / max(err + floor * abs(v), 1e-300) for dev, _, v, err in devs)
        estimate = max(err for *_, err in devs)
    else:
        worst = max(dev / abs(ref) for dev, ref, _, _ in devs)
        estimate = max(err / abs(ref) for _, ref, _, err in devs)
    inside = all(dev <= k * err + floor * abs(v) for dev, _, v, err in devs)
    return _check(suite, name, worst, tolerance, note=note,
                  passed=worst <= tolerance and inside, error_estimate=estimate)


# ---------------------------------------------------------------- specfun

# (x, t) of the closed-vs-quadrature extension check, d = 2, every t != 0.
_EXTENSION_POINTS = (((0.0, 0.0), 0.7), ((0.5, 0.0), -1.5), ((1.2, -0.9), 3.0),
                     ((0.0, 2.0), -0.4), ((3.0, 4.0), 5.0 * (1.0 + 1e-6)),
                     ((-1.5, 0.0), -1.5 * (1.0 - 1e-6)))


def _suite_specfun(rng, samples, grid=None):
    out = []
    out.append(
        _check(
            "specfun",
            "ei-at-minus-one",
            abs(exp_integral_ei(-1.0) + 0.21938393439552023),
            1e-12,
        )
    )
    out.append(
        _check(
            "specfun",
            "ei-series-cf-seam",
            abs(exp_integral_ei(-6.0) + 0.00036008245216265862)
            / 0.00036008245216265862,
            1e-11,
        )
    )
    x = 1e4
    asym = -(1.0 - 1.0 / x + 2.0 / x ** 2) / x
    out.append(
        _check(
            "specfun",
            "scaled-ei-asymptotic",
            abs(-exp_scaled_en(1, x) - asym),
            1e-11,
        )
    )
    out.append(
        _check(
            "specfun",
            "j0-first-zero",
            abs(float(bessel_j0(2.404825557695773))),
            1e-12,
        )
    )
    # The closed d = 2 extension at t = 0 is 2 pi times the Laplace transform
    # of u -> J0(|x| sqrt(u^2 - s^2)) at lam = a; against direct quadrature.
    lam, bb = 2.0, 1.0
    u, w = gl_panels(np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]), 48)
    direct = float(
        np.sum(w * np.exp(-lam * u) * bessel_j0(bb * np.sqrt(u * u - 1.0)))
    )
    profile = ExpProfile(a=lam, params=HyperboloidParams(d=2, s=1.0))
    kernel = extension_closed(profile, np.array([bb, 0.0]), 0.0) / (2.0 * np.pi)
    out.append(
        _check(
            "specfun",
            "laplace-j0-kernel",
            abs(kernel - direct),
            1e-10,
        )
    )
    # The closed d = 2 extension off t = 0, two points a hair inside and
    # outside the cone |t| = |x|, against radial quadrature.
    profile = ExpProfile(a=1.0, params=HyperboloidParams(d=2, s=1.0))
    rows = [(complex(extension_closed(profile, x, t)), *extension_quadrature(profile, x, t))
            for x, t in _EXTENSION_POINTS]
    out.append(_within_bars("specfun", "extension-closed-vs-quadrature", rows, 1.0, 1.0, 1e-13,
                            bar_units=True, note=f"{len(rows)} points at a = s = 1"))
    return out


# ---------------------------------------------------------------- lorentz

# exp(x) rounds to 0.0 for every x below about -745.13; numpy's exp leaves its
# vector path for such arguments, so below this bound 0.0 is set, not computed.
_EXP_ZERO_BELOW = -746.0


def _exp_in_place(x):
    """np.exp(x, out=x), the same bits, without exponentiating underflowing entries."""
    zero = x < _EXP_ZERO_BELOW
    np.exp(x, out=x, where=~zero)
    np.copyto(x, 0.0, where=zero)
    return x


def _random_map(rng, d):
    t1, t2 = rng.uniform(-0.5, 0.5, size=2)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s_ = math.cos(theta), math.sin(theta)
    # A rotation in the (xi_1, xi_2) plane; for d = 3 it fixes xi_3.
    rot = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])[:d, :d]
    return compose(boost(d, t1, axis=0), rotation_embed(rot), boost(d, t2, axis=d - 1))


def _invariance_pair(params, lmap, alpha, beta):
    """h and, on the sheet, g = exp(-alpha |xi|^2 - beta tau) and g o lmap^-1.

    On the sheet |xi|^2 = tau^2 - s^2, so g is h(tau) with
    h(u) = exp(-alpha (u^2 - s^2) - beta u), and g o lmap^-1 is h of the time
    component of lmap^-1, the inverse's last row applied to (xi, tau).
    """
    s2 = params.s * params.s

    def h(u):
        # Each step in place on one temporary.
        out = u * u
        out -= s2
        out *= -alpha
        out -= beta * u
        return _exp_in_place(out)

    row = lmap.inverse().matrix[-1]
    return h, (lambda xi, tau: h(tau)), (lambda xi, tau: h(xi @ row[:-1] + row[-1] * tau))


def _sheet_reference(params, h) -> QuadResult:
    """int h(tau) d(sigma) = |S^{d-1}| int_s^oo h(u) (u^2 - s^2)^{(d-2)/2} du.

    Gauss-Legendre on s + (0, 1, 3, 8, 20), the first panel in sqrt(u - s)
    for d = 3, at 24 and 48 nodes per panel; the error is their difference
    plus a 1e-14 relative round-off floor.
    """
    s, d = params.s, params.d
    rule = gl_sqrt_panels if d == 3 else gl_panels

    def run(n):
        u, w = rule(s + np.array([0.0, 1.0, 3.0, 8.0, 20.0]), n)
        return float(np.sum(w * h(u) * ((u - s) * (u + s)) ** (0.5 * (d - 2))))

    value, error = two_resolution(run, 24, 48)
    return QuadResult(SPHERE_AREA[d] * value, SPHERE_AREA[d] * (error + 1e-14 * abs(value)))


# The default grids of the lorentz pairs and of the oracle's tensor pairings.
_LORENTZ_QUAD = QuadSpec(radius=60.0, n_radial=24, n_angular=16)
_PAIRING_QUADS = {
    2: QuadSpec(radius=30.0, n_radial=48, n_angular=48),
    3: QuadSpec(radius=25.0, n_radial=40, n_angular=40),
}


def _suite_lorentz(rng, samples, grid=None):
    # Both integrals of a pair equal the 1-D reference of _sheet_reference;
    # the estimate is the larger deviation from it plus its own error.
    n_pairs = 20
    quad = _scaled(_LORENTZ_QUAD, grid)
    worst = estimate = 0.0
    for _ in range(n_pairs):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        lmap = _random_map(rng, d)
        alpha = float(rng.uniform(0.3, 1.0))
        beta = float(rng.uniform(0.1, 0.5))
        h, *pair = _invariance_pair(params, lmap, alpha, beta)
        a_val, b_val = _sheet_integrals(MeasureSpec(params, sheet="plus"), pair, quad)
        ref = _sheet_reference(params, h)
        worst = max(worst, abs(a_val.value - b_val.value))
        estimate = max(estimate, max(abs(a_val.value - ref.value),
                                     abs(b_val.value - ref.value)) + ref.error)
    out = [_check("lorentz", "measure-invariance", worst, 1e-6,
                  note=f"{n_pairs} random (g, L) pairs",
                  passed=max(worst, estimate) <= 1e-6, error_estimate=estimate)]
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        worst = max(worst, _random_map(rng, d).form_defect())
    out.append(_check("lorentz", "form-preservation", worst, 1e-12,
                      note="50 random composite maps"))

    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        x = rng.normal(size=d) * 3.0
        p = lift(params, x)
        lmap, m = normal_form(params, p)
        moved = lmap.apply(p)
        target = np.zeros(d + 1)
        target[-1] = m
        worst = max(worst, float(np.max(np.abs(moved.vector - target))))
        back = lmap.inverse().apply(moved)
        worst = max(worst, float(np.max(np.abs(back.vector - p.vector))))
    out.append(_check("lorentz", "normal-form-roundtrip", worst, 1e-10,
                      note="20 random cone points"))
    return out


# ---------------------------------------------------------------- support

def _random_sheet_points(rng, s, sign, xi, tau):
    """Add one random point of the sheet sign * psi to each sum (xi, tau).

    xi holds the d spatial sums as rows, (d, n); tau is (n,).  Per point the
    draws are its radius r, exponential of mean 2, its angle theta, uniform
    on [0, 2 pi), then, for d = 3, the cosine z of its polar angle, uniform
    on [-1, 1]; cos and sin of theta come from unit_circle.
    """
    n = tau.size
    r = rng.exponential(scale=2.0, size=n)
    c, sn = unit_circle(rng.uniform(0.0, 2.0 * np.pi, size=n))
    tau += sign * energy(HyperboloidParams(xi.shape[0], s), r)
    if xi.shape[0] == 3:
        z = rng.uniform(-1.0, 1.0, size=n)
        xi[2] += r * z
        # r rho with rho = sqrt(1 - z^2), the radius of the circle at height z
        r *= np.sqrt(np.maximum(1.0 - z * z, 0.0))
    c *= r
    sn *= r
    xi[0] += c
    xi[1] += sn


def _suite_support(rng, samples, grid=None):
    total = samples if samples is not None else 1_000_000
    # Every sheet tuple of two and of three factors, in each dimension.
    combos = [("plus", "plus"), ("plus", "minus"), ("minus", "plus"), ("minus", "minus"),
              ("plus",) * 3, ("plus", "plus", "minus"), ("plus", "minus", "minus"),
              ("minus",) * 3]
    per = max(1, total // (len(combos) * 2))
    violations = 0
    tested = 0
    for d in (2, 3):
        s = 1.0
        for sheets in combos:
            xi = np.zeros((d, per))
            tau = np.zeros(per)
            for sheet in sheets:
                _random_sheet_points(rng, s, +1.0 if sheet == "plus" else -1.0, xi, tau)
            # The predicate takes (per, d); the transposed view keeps each
            # coordinate's sums contiguous.
            ok = sum_support_predicate(s, sheets, xi.T, tau)
            violations += int(per - np.count_nonzero(ok))
            tested += per
    out = [
        _check("support", "membership-containment", violations, 0,
               note=f"{tested} random sheet sums across 16 combos")
    ]
    # Points strictly below the two-sheet threshold must be excluded.
    per = max(1, (samples or 100_000) // 4)
    bad = 0
    for d in (2, 3):
        xi = rng.normal(size=(per, d)) * 3.0
        b = energy(HyperboloidParams(d, 2.0), np.linalg.norm(xi, axis=-1))
        tau = b * (1.0 - rng.uniform(0.01, 0.5, size=per))
        inside = sum_support_predicate(1.0, ("plus", "plus"), xi, tau)
        bad += int(np.count_nonzero(inside))
    out.append(
        _check("support", "exterior-exclusion", bad, 0,
               note=f"{2 * per} points below the (plus,plus) threshold")
    )
    return out


# ---------------------------------------------------------------- sharp

def _suite_sharp(rng, samples, grid=None):
    out = []
    worst = 0.0
    for d, p in SUPPORTED_PAIRS:
        for sheet in ("one", "two"):
            expr = constant_expression(d, p, sheet)
            direct = eval(
                expr.replace("^", "**"), {"__builtins__": {}}, {"pi": math.pi}
            )
            got = best_constant(d, p, 1.0, sheet).value
            worst = max(worst, abs(got - direct) / direct)
    out.append(_check("sharp", "constants-table", worst, 1e-14,
                      note="6 rows vs expression evaluation"))

    worst = 0.0
    for d, p in SUPPORTED_PAIRS:
        for s in (0.5, 1.0, 2.0):
            h = best_constant(d, p, s).value
            worst = max(worst, abs(sup_norm_bound(d, p, s) - h) / h)
    out.append(_check("sharp", "sup-norm-sandwich", worst, 1e-14))

    table = {
        (2, 2): math.pi ** 0.25,
        (2, 3): (2.0 * math.pi) ** (1.0 / 3.0),
        (3, 2): (2.0 * math.pi) ** 0.25,
    }
    worst = max(
        abs(conv_form_constant(d, k) - v) / v for (d, k), v in table.items()
    )
    out.append(_check("sharp", "conv-form-constants", worst, 1e-14))

    n = samples if samples is not None else 1_000_000
    seed = int(rng.integers(0, 2 ** 31))
    out.append(
        _check("sharp", "two-sheet-combiner",
               two_sheeted_combiner_check(n, seed=seed), 0,
               note=f"{n} random nonnegative pairs")
    )
    out.append(
        _check("sharp", "combiner-factor-identity",
               abs((25.0 / 4.0) ** (1.0 / 6.0) - (5.0 / 2.0) ** (1.0 / 3.0)),
               1e-15)
    )
    return out


# ---------------------------------------------------------------- metric

def _suite_metric(rng, samples, grid=None):
    out = []
    n = 200
    worst_sym = 0.0
    worst_neg = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        x = rng.normal(size=d) * 4.0
        y = rng.normal(size=d) * 4.0
        q_xy = quasi_distance(params, x, y)
        q_yx = quasi_distance(params, y, x)
        scale = 1.0 + abs(q_xy)
        worst_sym = max(worst_sym, abs(q_xy - q_yx) / scale)
        worst_neg = max(worst_neg, -min(q_xy, 0.0))
    out.append(_check("metric", "symmetry", worst_sym, 1e-12,
                      note=f"{n} random pairs"))
    out.append(_check("metric", "nonnegativity", worst_neg, 0.0))

    worst = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        x = rng.normal(size=d) * 3.0
        worst = max(worst, abs(quasi_distance(params, x, x)))
    out.append(_check("metric", "zero-on-diagonal", worst, 1e-12))

    worst = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        p = lift(params, rng.normal(size=d) * 3.0)
        q = lift(params, rng.normal(size=d) * 3.0)
        base = quasi_distance(params, p.xi, q.xi)
        lmap = _random_map(rng, d)
        moved = quasi_distance(params, lmap.apply(p).xi, lmap.apply(q).xi)
        worst = max(worst, abs(base - moved) / (1.0 + abs(base)))
    out.append(_check("metric", "lorentz-invariance", worst, 1e-9,
                      note="40 random boosted pairs"))
    return out


# ---------------------------------------------------------------- oracle

def _reduced_pairing_reference(form: ConvClosedForm, g_radial, tau_hi, n=160):
    """<closed density, g> by 2-D reduction over (radius, height)."""
    base = form.n * form.s
    tau, tau_w = gl_panels(np.array([base, base + 2.0, base + 8.0, tau_hi]), n)
    total = conv_reduced_integral(form, lambda rho, t, dens: g_radial(rho, t), tau, tau_w, n)
    return SPHERE_AREA[form.d] * total


# Random interior points per dimension for the point oracle; --samples sets
# only the Monte-Carlo pairing's sample count in this suite.
_POINT_ORACLE_POINTS = 15


def _suite_oracle(rng, samples, grid=None):
    out = []
    rows = []
    for d in (2, 3):
        form = ConvClosedForm(d, 2, 1.3)
        for _ in range(_POINT_ORACLE_POINTS):
            tau = float(rng.uniform(2.8, 9.0))
            r_max = math.sqrt(tau * tau - (2 * 1.3) ** 2)
            r = float(rng.uniform(0.05, 0.9) * r_max)
            xi = np.zeros(d)
            xi[0] = r
            rows.append((float(conv_closed(form, xi, tau)), *conv_point_oracle(form, xi, tau)))
    # The floor covers the few operations of the closed density.
    out.append(_within_bars("oracle", "point-oracle-vs-closed", rows, 1e-10, 1.0, 1e-14,
                            note=f"{2 * _POINT_ORACLE_POINTS} random interior points"))

    # Tensor pairing vs the 2-D reduction of the closed density.  The
    # reference's error is its distance from one on half the nodes and twice
    # the height, which takes in the truncation at tau_hi.
    def g_pair(r, tau):
        return np.exp(-0.4 * r * r - 0.7 * (tau - 2.0))

    rows = []
    for d in (2, 3):
        form = ConvClosedForm(d, 2, 1.0)
        ref = _reduced_pairing_reference(form, g_pair, tau_hi=30.0)
        ref_err = abs(ref - _reduced_pairing_reference(form, g_pair, tau_hi=60.0, n=80))
        got = conv_pairing_oracle(MeasureSpec(HyperboloidParams(d=d, s=1.0), sheet="plus"),
                                  2, g_pair, _scaled(_PAIRING_QUADS[d], grid))
        rows.append((ref, got.value, got.error + ref_err))
    # The floor is about sqrt(N) eps for a sum of the budget's N = 4e6 node pairs.
    out.append(_within_bars("oracle", "tensor-pairing-vs-closed", rows, 1e-6, 1.0, 1e-12))

    # Monte Carlo pairing for the triple convolution, d = 2.
    n_mc = samples if samples is not None else 400_000
    params = HyperboloidParams(d=2, s=1.0)
    spec = MeasureSpec(params, sheet="plus")
    form = ConvClosedForm(2, 3, 1.0)

    def g_radial(r, tau):
        return np.exp(-0.5 * r * r - 0.8 * (tau - 3.0))

    ref = _reduced_pairing_reference(form, g_radial, tau_hi=40.0)
    mc = conv_pairing_oracle(
        spec, 3, g_radial,
        QuadSpec(rule="montecarlo", samples=n_mc,
                 seed=int(rng.integers(0, 2 ** 31))),
    )
    out.append(_within_bars("oracle", "montecarlo-pairing-3sigma", [(ref, *mc)], 3.0, 3.0, 0.0,
                            bar_units=True, note=f"{n_mc} samples"))
    return out


# ------------------------------------------------------------- functional

# (d, p, s, a) of the scaling-identity check, one per supported pair.
_SCALING_INPUTS = ((2, 4, 3.1, 0.9), (2, 6, 3.1, 0.9), (3, 4, 3.1, 0.9))

# (a, R, s) of the d = 2 mass-fraction check: escape, middle, vertex, s != 1.
_MASS_FRACTION_INPUTS = ((1e-3, 10.0, 1.0), (1.0, 1.0, 1.0), (100.0, 1.0, 1.0), (0.3, 2.0, 2.5))


def _suite_functional(rng, samples, grid=None):
    out = []
    # Q/H near its concentration limit, inside [lo, 1).
    for d, p, a, lo in ((2, 6, 1e-3, 0.997), (2, 4, 100.0, 0.999), (3, 4, 1e-2, 0.95)):
        ratio = q_ratio(d, p, a, 1.0).value / best_constant(d, p).value
        out.append(_check("functional", f"q-limit-{d}-{p}", 1.0 - ratio, 1.0 - lo,
                          note=f"ratio {ratio:.6f} in [{lo}, 1)",
                          passed=lo <= ratio < 1.0))

    prof = ExpProfile(a=1e-3, params=HyperboloidParams(d=3, s=1.0))
    val = 1e-12 * conv_power_l2_sq(prof, 2, method="quadrature").value
    lim = 2.0 * math.pi ** 3
    out.append(_check("functional", "small-rate-norm-limit",
                      abs(val - lim) / lim, 1e-2))

    a_grid = np.geomspace(1e-3, 1e2, 200)
    verdicts = {pair: monotonicity_scan(*pair, 1.0, a_grid)[1] for pair in SUPPORTED_PAIRS}
    ok = all(v == f"strictly-{expected_monotonicity(*pair)}" for pair, v in verdicts.items())
    out.append(_check("functional", "ratio-monotonicity", 0.0 if ok else 1.0, 0.0,
                      note=", ".join(f"({d},{p}) {v}" for (d, p), v in verdicts.items())
                      + " on 200-point grids"))

    # Each closed ratio against its quadrature oracle, in units of the
    # oracle's error bar (plus round-off).
    for d, p in SUPPORTED_PAIRS:
        rows = [(q_ratio(d, p, a, 1.0).value, *q_ratio(d, p, a, 1.0, "quadrature"))
                for a in (1e-2, 0.1, 1.0, 10.0)]
        out.append(_within_bars("functional", f"closed-vs-quadrature-{d}-{p}", rows, 1.0, 1.0,
                                1e-13, bar_units=True, note="4 rates in [1e-2, 10]"))

    # Strictness of the closed sup bounds and of Q < H.
    strict = True
    for form, tau_lo in ((ConvClosedForm(2, 3, 1.0), 3.01), (ConvClosedForm(3, 2, 1.0), 2.01)):
        taus = np.linspace(tau_lo, 60.0, 300)
        vals = conv_closed(form, np.zeros((taus.size, form.d)), taus)
        strict = strict and bool(np.all(vals < conv_sup_norm(form)[0]))
    gap = 0.0
    for d, p in SUPPORTED_PAIRS:
        h = best_constant(d, p).value
        for pt in monotonicity_scan(d, p, 1.0, np.geomspace(1e-3, 1e2, 15))[0]:
            # Closed ratios carry error 0; they still must clear a 1e-12 margin.
            q, tol = pt.q_value, max(pt.error, 1e-12)
            if not q < h - tol:
                strict = False
                gap = max(gap, q - (h - tol))
    out.append(_check("functional", "strict-inequality", gap, 0.0,
                      note="sup grids and Q < H across 45 rates", passed=strict))

    # (a / s) * s != a for these inputs, so each arm compares two different
    # floating-point rates instead of the same one twice.
    worst = max(
        scaling_check(d, p, s, ExpProfile(a=a, params=HyperboloidParams(d=d, s=1.0)))
        for d, p, s, a in _SCALING_INPUTS
    )
    out.append(_check("functional", "scaling-identity", worst, 1e-8))

    mf = mass_fraction(2, 1.0, 1e-3, 10.0)
    out.append(_check("functional", "mass-fraction-escape",
                      abs(mf - 0.0179), 5e-4))
    out.append(_check("functional", "mass-fraction-vertex",
                      abs(mass_fraction(2, 1.0, 100.0, 1.0) - 1.0), 1e-3))
    # The closed d = 2 share against the radial quadrature in u = s + v^2, the
    # ball out to v^2 = u_ball - s, the sheet truncated at e^{-2a(u - s)} = e^{-100}.
    rows = [(mass_fraction(2, s, a, radius),
             _radial_mass(2, a, s, math.sqrt(radius * radius / (math.hypot(s, radius) + s)))
             / _radial_mass(2, a, s, math.sqrt(50.0 / a)), 0.0)
            for a, radius, s in _MASS_FRACTION_INPUTS]
    out.append(_within_bars("functional", "mass-fraction-vs-quadrature", rows, 1e-12, 1.0,
                            1e-13, note="4 (a, R, s)"))
    return out


_SUITE_RUNNERS = {
    "specfun": _suite_specfun,
    "lorentz": _suite_lorentz,
    "support": _suite_support,
    "sharp": _suite_sharp,
    "metric": _suite_metric,
    "oracle": _suite_oracle,
    "functional": _suite_functional,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_checks(
    suite: str = "all",
    seed: int | None = None,
    samples: int | None = None,
    grid: int | None = None,
) -> list[CheckResult]:
    """Run one suite (or all) and return the individual check results.

    samples overrides the sampling counts of the randomized checks; grid
    rescales the tensor quadrature budgets (percent of default, see _scaled)
    in the suites that use them (lorentz, oracle).  Raises ValueError for
    grid < 1, samples < 1, or, when the oracle suite runs, samples below
    QuadSpec's Monte-Carlo floor, and BudgetError for samples or a grid past
    the node budgets, all before any check runs.

    The suites run one after another on one generator seeded by seed.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    names = SUITES if suite == "all" else (suite,)
    if grid is not None and grid < 1:
        raise ValueError("grid must be a positive percentage")
    if samples is not None:
        if samples < 1:
            raise ValueError("samples must be positive")
        check_budget(samples, "samples")
        if "oracle" in names:
            QuadSpec(rule="montecarlo", samples=samples)  # refuses too few for an error bar
    if grid is not None:
        # The tensor budgets depend on grid and d alone.  The lorentz pairs
        # are checked at d = 3, the larger grid, whatever dimensions they draw.
        if "lorentz" in names:
            _check_sheet_budget(3, _scaled(_LORENTZ_QUAD, grid))
        if "oracle" in names:
            for d in (2, 3):
                _check_pairing_budget(d, _scaled(_PAIRING_QUADS[d], grid))
    rng = np.random.default_rng(0 if seed is None else seed)
    return [check for name in names for check in _SUITE_RUNNERS[name](rng, samples, grid)]
