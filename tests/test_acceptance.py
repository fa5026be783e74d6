"""Acceptance gate: twelve binding criteria, one test (and one verdict line) each.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail lines; `-s` additionally shows the measured margins.  Every
tolerance below is part of the package contract, not a tunable.
"""

import math
import time

import numpy as np
import pytest
from numpy.random import default_rng

from hyperex import (
    ConvClosedForm,
    ExpProfile,
    HyperboloidParams,
    MeasureSpec,
    QuadSpec,
    best_constant,
    conv_closed,
    conv_pairing_oracle,
    conv_point_oracle,
    conv_power_l2_sq,
    exp_integral_ei,
    extension_closed,
    extension_quadrature,
    lift,
    mass_fraction,
    monotonicity_scan,
    normal_form,
    q_ratio_closed,
    q_ratio_quadrature,
    run_checks,
    sup_norm_bound,
    surface_integral,
    two_sheeted_combiner_check,
)
from hyperex.functionals import TWO_SHEET_FACTORS
from hyperex.quadrature import gl_panels
from hyperex.verify import _random_map, _reduced_pairing_reference


def _verdict(num: int, ok: bool, detail: str, started: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {state} ({detail}, {time.time() - started:.1f}s)")


def test_criterion_01_constants_table():
    started = time.time()
    expected = {
        (2, 4): 2.0 ** 0.75 * math.pi,
        (2, 6): (2.0 * math.pi) ** (5.0 / 6.0),
        (3, 4): (2.0 * math.pi) ** 1.25,
    }
    factors = {
        (2, 4): 1.5 ** 0.25,
        (2, 6): 2.5 ** (1.0 / 3.0),
        (3, 4): 1.5 ** 0.25,
    }
    worst = 0.0
    for pair, base in expected.items():
        one = best_constant(*pair).value
        two = best_constant(*pair, sheet="two").value
        worst = max(worst, abs(one - base) / base)
        worst = max(worst, abs(TWO_SHEET_FACTORS[pair] - factors[pair]) / factors[pair])
        worst = max(worst, abs(two - factors[pair] * base) / (factors[pair] * base))
    ok = worst <= 1e-14
    _verdict(1, ok, f"max rel dev {worst:.2e} vs 1e-14", started)
    assert ok


def test_criterion_02_sup_norm_sandwich():
    started = time.time()
    worst = 0.0
    for d, p in ((2, 4), (2, 6), (3, 4)):
        for s in (0.5, 1.0, 2.0):
            h = best_constant(d, p, s).value
            worst = max(worst, abs(sup_norm_bound(d, p, s) - h) / h)
    ok = worst <= 1e-14
    _verdict(2, ok, f"max rel dev {worst:.2e} vs 1e-14", started)
    assert ok


def test_criterion_03_convolution_oracles():
    started = time.time()
    rng = default_rng(2026)
    worst = 0.0
    for d in (2, 3):
        form = ConvClosedForm(d, 2, 1.3)
        for _ in range(50):
            tau = float(rng.uniform(2.8, 9.0))
            r_max = math.sqrt(tau * tau - (2 * 1.3) ** 2)
            xi = np.zeros(d)
            xi[0] = float(rng.uniform(0.05, 0.9) * r_max)
            closed = float(conv_closed(form, xi, tau))
            oracle = conv_point_oracle(form, xi, tau)
            worst = max(worst, abs(oracle.value - closed) / closed)
    points_ok = worst <= 1e-6

    spec = MeasureSpec(HyperboloidParams(d=2, s=1.0), sheet="plus")
    form = ConvClosedForm(2, 3, 1.0)

    def g_radial(r, tau):
        return np.exp(-0.5 * r * r - 0.8 * (tau - 3.0))

    ref = _reduced_pairing_reference(form, g_radial, tau_hi=40.0)
    mc = conv_pairing_oracle(
        spec, 3, g_radial, QuadSpec(rule="montecarlo", samples=1_000_000, seed=2026)
    )
    z_score = abs(mc.value - ref) / mc.error
    mc_ok = z_score <= 3.0
    ok = points_ok and mc_ok
    _verdict(
        3,
        ok,
        f"100-point max rel {worst:.2e} vs 1e-6; pairing z {z_score:.2f} vs 3",
        started,
    )
    assert points_ok
    assert mc_ok


def test_criterion_04_functional_limits():
    started = time.time()
    windows = {
        (2, 6, 1e-3): (0.997, 1.0),
        (2, 4, 1e2): (0.999, 1.0),
        (3, 4, 1e-2): (0.95, 1.0),
    }
    ratios = {}
    ok = True
    for (d, p, a), (lo, hi) in windows.items():
        ratio = q_ratio_quadrature(d, p, a, 1.0).value / best_constant(d, p).value
        ratios[(d, p)] = ratio
        ok = ok and (lo <= ratio < hi)
    detail = ", ".join(f"({d},{p}) {r:.6f}" for (d, p), r in ratios.items())
    _verdict(4, ok, detail, started)
    assert ok


def test_criterion_05_small_rate_norm_limit():
    started = time.time()
    a = 1e-3
    profile = ExpProfile(a=a, params=HyperboloidParams(d=3, s=1.0))
    result = conv_power_l2_sq(profile, 2, method="quadrature")
    scaled = a ** 4 * result.value
    target = 2.0 * math.pi ** 3
    rel = abs(scaled - target) / target
    ok = rel <= 1e-2
    _verdict(5, ok, f"a^4 norm {scaled:.5f} vs 2 pi^3, rel {rel:.2e} vs 1e-2", started)
    assert ok


def test_criterion_06_extension_closed_vs_quadrature():
    started = time.time()
    profile = ExpProfile(a=1.0, params=HyperboloidParams(d=2, s=1.0))
    worst = 0.0
    for x_norm in (0.0, 0.5, 1.2, 2.5, 4.0):
        for t in (0.0, 0.6, 1.5, 3.0, 7.0):
            x = np.array([x_norm, 0.0])
            closed = extension_closed(profile, x, t)
            quad_val, _ = extension_quadrature(profile, x, t)
            worst = max(worst, abs(closed - quad_val))
    ok = worst <= 1e-8
    _verdict(6, ok, f"5x5 grid max abs dev {worst:.2e} vs 1e-8", started)
    assert ok


def test_criterion_07_ei_gates_and_monotonicity():
    started = time.time()
    reference = -0.21938393439552
    dev_lit = abs(exp_integral_ei(-1.0) - reference)
    # Independent oracle: Ei(-1) = -int_1^oo e^-t / t dt by panel quadrature.
    u, w = gl_panels(np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]), 64)
    dev_quad = abs(exp_integral_ei(-1.0) + float(np.sum(w * np.exp(-u) / u)))
    ei_ok = dev_lit <= 1e-12 and dev_quad <= 1e-12

    grid = np.geomspace(1e-3, 1e3, 200)
    _, verdict_64 = monotonicity_scan(2, 6, 1.0, grid)
    _, verdict_44 = monotonicity_scan(2, 4, 1.0, grid)
    mono_ok = verdict_64 == "strictly-decreasing" and verdict_44 == "strictly-increasing"
    ok = ei_ok and mono_ok
    _verdict(
        7,
        ok,
        f"Ei devs {dev_lit:.1e}/{dev_quad:.1e} vs 1e-12; trends "
        f"{verdict_44}/{verdict_64}",
        started,
    )
    assert ei_ok
    assert mono_ok


def test_criterion_08_lorentz_suite():
    started = time.time()
    rng = default_rng(314)
    quad = QuadSpec(radius=45.0, n_radial=48, n_angular=32)
    worst_inv = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        lmap = _random_map(rng, d)
        alpha = float(rng.uniform(0.3, 1.0))
        beta = float(rng.uniform(0.1, 0.5))

        def g(xi, tau, alpha=alpha, beta=beta):
            return np.exp(-alpha * np.sum(xi * xi, axis=-1) - beta * tau)

        inv = lmap.inverse()

        def g_mapped(xi, tau, g=g, inv=inv):
            vec = np.concatenate([xi, tau[..., None]], axis=-1)
            moved = vec @ inv.matrix.T
            return g(moved[..., :-1], moved[..., -1])

        spec = MeasureSpec(params, sheet="plus")
        plain = surface_integral(spec, g, quad)
        mapped = surface_integral(spec, g_mapped, quad)
        worst_inv = max(worst_inv, abs(plain.value - mapped.value))

    worst_form = max(
        _random_map(rng, int(rng.integers(2, 4))).form_defect() for _ in range(20)
    )
    worst_rt = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        point = lift(params, rng.normal(size=d) * 3.0)
        lmap, m = normal_form(params, point)
        moved = lmap.apply(point)
        target = np.zeros(d + 1)
        target[-1] = m
        worst_rt = max(worst_rt, float(np.max(np.abs(moved.vector - target))))
        back = lmap.inverse().apply(moved)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.vector - point.vector))))
    ok = worst_inv <= 1e-6 and worst_form <= 1e-12 and worst_rt <= 1e-10
    _verdict(
        8,
        ok,
        f"invariance {worst_inv:.1e} vs 1e-6; form defect {worst_form:.1e} vs "
        f"1e-12; roundtrip {worst_rt:.1e} vs 1e-10",
        started,
    )
    assert ok


def test_criterion_09_support_and_combiner():
    started = time.time()
    support = run_checks("support", seed=2026, samples=1_000_000)
    violations = sum(int(c.discrepancy) for c in support)
    combiner = two_sheeted_combiner_check(1_000_000, seed=2026)
    ok = violations == 0 and combiner == 0 and all(c.passed for c in support)
    _verdict(
        9,
        ok,
        f"membership violations {violations}, combiner violations {combiner} "
        "over 1e6 samples each",
        started,
    )
    assert ok


def test_criterion_10_strict_inequalities():
    started = time.time()
    tau = np.linspace(3.0 * (1.0 + 1e-9), 80.0, 200)
    sup_23 = (2.0 * math.pi) ** 2
    worst_23 = 0.0
    for tv in tau:
        r = np.linspace(0.0, 0.999 * math.sqrt(tv * tv - 9.0), 60)
        xi = np.zeros((r.size, 2))
        xi[:, 0] = r
        vals = conv_closed(ConvClosedForm(2, 3, 1.0), xi, np.full(r.size, tv))
        worst_23 = max(worst_23, float(np.max(vals)))
    tau = np.linspace(2.0 * (1.0 + 1e-9), 80.0, 200)
    sup_32 = 2.0 * math.pi
    worst_32 = 0.0
    for tv in tau:
        r = np.linspace(0.0, 0.999 * math.sqrt(tv * tv - 4.0), 60)
        xi = np.zeros((r.size, 3))
        xi[:, 0] = r
        vals = conv_closed(ConvClosedForm(3, 2, 1.0), xi, np.full(r.size, tv))
        worst_32 = max(worst_32, float(np.max(vals)))
    grids_ok = worst_23 < sup_23 and worst_32 < sup_32

    q_ok = True
    for d, p in ((2, 4), (2, 6)):
        h = best_constant(d, p).value
        for a in np.geomspace(1e-4, 1e4, 50):
            q_ok = q_ok and q_ratio_closed(d, p, float(a), 1.0) < h - 1e-12 * h
    h = best_constant(3, 4).value
    for a in (1e-2, 1e-1, 1.0, 10.0):
        r = q_ratio_quadrature(3, 4, a, 1.0)
        q_ok = q_ok and (r.value + 3.0 * r.error < h)
    ok = grids_ok and q_ok
    _verdict(
        10,
        ok,
        f"sup margins {sup_23 - worst_23:.2e}, {sup_32 - worst_32:.2e}; "
        f"ratio strictness {q_ok}",
        started,
    )
    assert ok


def test_criterion_11_weighted_pairing_identity():
    started = time.time()
    params = HyperboloidParams(d=2, s=1.0)
    profile = ExpProfile(a=1.0, params=params)
    spec = MeasureSpec(params, sheet="plus")
    form = ConvClosedForm(2, 2, 1.0)
    a = profile.a

    def weighted_window_radial(r, tau):
        # Both profile factors together contribute e^{-a tau} on the
        # convolution's delta constraint, so the weighted pairing is the
        # plain pairing of the window times that exponential.
        return np.exp(-0.3 * r * r - 0.2 * (tau - 2.0)) * np.exp(-a * tau)

    closed_side = _reduced_pairing_reference(form, weighted_window_radial,
                                             tau_hi=30.0, n=220)
    closed_err = abs(
        closed_side
        - _reduced_pairing_reference(form, weighted_window_radial, tau_hi=30.0, n=160)
    )
    oracle_side = conv_pairing_oracle(
        spec, 2, weighted_window_radial,
        QuadSpec(radius=30.0, n_radial=48, n_angular=48),
    )
    gap = abs(closed_side - oracle_side.value)
    bar = 3.0 * (oracle_side.error + closed_err) + 1e-12 * abs(closed_side)
    ok = gap <= bar
    _verdict(11, ok, f"two-side gap {gap:.2e} vs error bar {bar:.2e}", started)
    assert ok


def test_criterion_12_concentration():
    started = time.time()
    closed = mass_fraction(2, 1.0, 1e-3, 10.0)
    window_ok = abs(closed - 0.0179) <= 5e-4

    def quad_fraction(a: float, radius: float) -> float:
        r_hi = math.sqrt((1.0 + 22.0 / a) ** 2 - 1.0)
        num_edges = np.geomspace(1e-3, radius, 8)
        den_edges = np.geomspace(1e-3, max(r_hi, 2.0 * radius), 24)

        def piece(edges):
            r, w = gl_panels(np.concatenate([[0.0], edges]), 64)
            psi = np.sqrt(1.0 + r * r)
            return float(np.sum(w * np.exp(-2.0 * a * psi) * r / psi))

        return piece(num_edges) / piece(den_edges)

    quad_dev = abs(closed - quad_fraction(1e-3, 10.0))
    vertex = mass_fraction(2, 1.0, 100.0, 1.0)
    vertex_ok = abs(vertex - 1.0) <= 1e-3
    ok = window_ok and quad_dev <= 1e-6 and vertex_ok
    _verdict(
        12,
        ok,
        f"escape fraction {closed:.5f} (quad dev {quad_dev:.1e}); "
        f"vertex fraction {vertex:.6f}",
        started,
    )
    assert ok
