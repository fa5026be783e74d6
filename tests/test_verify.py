"""Verify-suite tests: every suite passes at the default seed."""

import dataclasses
import json
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest

import hyperex.functionals
import hyperex.verify
from hyperex.cli import main
from hyperex.extension import extension_closed
from hyperex.functionals import SUPPORTED_PAIRS, best_constant, mass_fraction, q_ratio_closed
from hyperex.geometry import HyperboloidParams
from hyperex.measures import SPHERE_AREA, MeasureSpec, conv_closed
from hyperex.quadrature import BudgetError, QuadResult
from hyperex.verify import (
    _LORENTZ_QUAD, _SCALING_INPUTS, SUITES, _exp_in_place, _invariance_pair, _sheet_reference,
    _random_sheet_points, _suite_support, run_checks,
)


@pytest.mark.parametrize("suite", ["metric", "functional"])
def test_suite_passes_at_default_seed(suite):
    checks = run_checks(suite)
    assert checks
    assert [c.name for c in checks if not c.passed] == []


@pytest.fixture(scope="module")
def all_checks():
    return run_checks("all", seed=0)


def test_all_suites_pass_at_default_seed(all_checks):
    assert len(all_checks) == 36
    assert [f"{c.suite}/{c.name}" for c in all_checks if not c.passed] == []


def _times(fn, eps, pick=lambda *args: True):
    """fn scaled by 1 + eps wherever pick(*args) holds."""
    def scaled(*args):
        value = fn(*args)
        return value * (1.0 + eps) if pick(*args) else value
    return scaled


def _two_sheet_times(eps):
    def scaled(d, p, s=1.0, sheet="one"):
        c = best_constant(d, p, s, sheet)
        return dataclasses.replace(c, value=c.value * (1.0 + eps)) if sheet == "two" else c
    return scaled


_NO_ORACLE = "no independent oracle covers it yet"

# (module, name, replacement, suite, the check that must fail).  Each
# replacement is a closed function scaled by 1 + eps or, for the extension,
# conjugated (t -> -t); the check must not read the closed form it checks.
_PERTURBATIONS = [
    pytest.param(hyperex.verify, "conv_closed", _times(conv_closed, 1e-7),
                 "oracle", "point-oracle-vs-closed", id="conv_closed"),
    *(pytest.param(hyperex.functionals, "q_ratio_closed",
                   _times(q_ratio_closed, 1e-7, lambda d, p, *_, pair=pair: (d, p) == pair),
                   "functional", "closed-vs-quadrature-{}-{}".format(*pair),
                   id="q_ratio_closed-{}-{}".format(*pair))
      for pair in SUPPORTED_PAIRS),
    pytest.param(hyperex.verify, "extension_closed", _times(extension_closed, 1e-7),
                 "specfun", "extension-closed-vs-quadrature", id="extension_closed"),
    pytest.param(hyperex.verify, "extension_closed",
                 lambda profile, x, t: extension_closed(profile, x, -np.asarray(t)),
                 "specfun", "extension-closed-vs-quadrature", id="extension_closed-conjugated"),
    pytest.param(hyperex.verify, "mass_fraction", _times(mass_fraction, 1e-4),
                 "functional", "mass-fraction-vs-quadrature", id="mass_fraction"),
    # Only constants-table fails, and it evaluates the same module's
    # expression strings; the combiner check never reads best_constant, and
    # no check computes a two-sheet norm.
    pytest.param(hyperex.verify, "best_constant", _two_sheet_times(1e-7),
                 "sharp", "two-sheet-combiner", id="best_constant-two-sheet",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_NO_ORACLE)),
]


@pytest.mark.parametrize("module, name, wrong, suite, check", _PERTURBATIONS)
def test_a_wrong_closed_form_fails_its_check(module, name, wrong, suite, check):
    with mock.patch.object(module, name, wrong):
        failed = [c.name for c in run_checks(suite) if not c.passed]
    assert check in failed


def test_tolerances_only_tighten(all_checks):
    # bench/tolerances.json records each check's tolerance; a check may
    # tighten its tolerance below the record but never loosen it.
    table = json.loads((Path(__file__).parents[1] / "bench" / "tolerances.json").read_text())
    got = {f"{c.suite}/{c.name}": c.tolerance for c in all_checks}
    assert set(table) <= set(got)
    assert {k: (got[k], v) for k, v in table.items() if got[k] > v} == {}


def test_scaling_identity_inputs_rescale_inexactly():
    # Where (a / s) * s rounds back to a, both sides of the identity run on
    # the same rate a s, and the check reads exactly 0 by construction.
    assert sorted((d, p) for d, p, _, _ in _SCALING_INPUTS) == sorted(SUPPORTED_PAIRS)
    for _, _, s, a in _SCALING_INPUTS:
        assert (a / s) * s != a
    (check,) = [c for c in run_checks("functional") if c.name == "scaling-identity"]
    assert check.passed and check.discrepancy > 0.0


def test_grid_below_one_percent_is_refused():
    # run_checks("lorentz", grid=0) used to run on an 8-node grid and fail.
    for grid in (0, -5):
        with pytest.raises(ValueError, match="grid must be a positive percentage"):
            run_checks("lorentz", grid=grid)


@pytest.mark.parametrize("suite, samples, message", [
    ("support", 0, "samples must be positive"),
    ("all", -3, "samples must be positive"),
    ("oracle", 99, "too small to estimate an error bar"),
    ("all", 50, "too small to estimate an error bar"),
])
def test_bad_samples_are_refused_before_any_suite_runs(monkeypatch, suite, samples, message):
    # verify --samples 0 and --samples 50 used to run the specfun, lorentz and
    # support suites (about 1.5 s) before sharp or oracle refused the count.
    def unreachable(rng, samples, grid=None):
        raise AssertionError("a suite ran before the samples were refused")

    monkeypatch.setattr(hyperex.verify, "_SUITE_RUNNERS", dict.fromkeys(SUITES, unreachable))
    with pytest.raises(ValueError, match=message):
        run_checks(suite, samples=samples)


@pytest.mark.parametrize("seed", [0, 7, 1007, 2000, 3003])
def test_support_suite_draws_in_its_fixed_order(seed):
    # Per sum and factor: r, theta, then z for d = 3; then the exterior
    # points.  The later suites' random inputs rest on this order.
    rng = np.random.default_rng(seed)
    checks = _suite_support(rng, None)
    assert [(c.name, c.discrepancy) for c in checks] == [
        ("membership-containment", 0), ("exterior-exclusion", 0)]
    replay = np.random.default_rng(seed)
    per = 1_000_000 // 16
    for d in (2, 3):
        for factors in (2,) * 4 + (3,) * 4:
            for _ in range(factors):
                replay.exponential(scale=2.0, size=per)
                replay.uniform(0.0, 2.0 * np.pi, size=per)
                if d == 3:
                    replay.uniform(-1.0, 1.0, size=per)
    for d in (2, 3):
        replay.normal(size=(100_000 // 4, d))
        replay.uniform(0.01, 0.5, size=100_000 // 4)
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("d", [2, 3])
def test_random_sheet_points_add_sheet_points_to_the_sums(d):
    # Two factors, plus then minus, against the same draws lifted with
    # libm's cos and sin.
    rng = np.random.default_rng(d)
    xi, tau = np.zeros((d, 1000)), np.zeros(1000)
    for sign in (1.0, -1.0):
        _random_sheet_points(rng, 1.5, sign, xi, tau)
    replay = np.random.default_rng(d)
    want_xi, want_tau = np.zeros((d, 1000)), np.zeros(1000)
    for sign in (1.0, -1.0):
        r = replay.exponential(scale=2.0, size=1000)
        theta = replay.uniform(0.0, 2.0 * np.pi, size=1000)
        z = replay.uniform(-1.0, 1.0, size=1000) if d == 3 else np.zeros(1000)
        rho = r * np.sqrt(1.0 - z * z)
        want_xi += np.stack([rho * np.cos(theta), rho * np.sin(theta), r * z][:d])
        want_tau += sign * np.sqrt(1.5**2 + r * r)
    assert np.array_equal(tau, want_tau)
    assert np.max(np.abs(xi - want_xi)) <= 1e-14 * np.max(np.abs(want_xi))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_few_samples_run_where_no_monte_carlo_needs_them():
    assert len(run_checks("support", samples=50)) == 2


@pytest.mark.parametrize("suite", ["support", "sharp", "oracle"])
def test_samples_past_the_budget_are_refused(suite):
    with pytest.raises(BudgetError, match="exceed the budget"):
        run_checks(suite, samples=10**12)


def test_grid_past_the_budget_is_refused():
    with pytest.raises(BudgetError, match="sheet nodes"):
        run_checks("lorentz", grid=10**7)


@pytest.mark.parametrize("suite, budget", [("lorentz", "sheet nodes"),
                                           ("oracle", "tensor-pairing node pairs")])
def test_grid_past_the_float_range_is_refused(suite, budget):
    # grid / 100.0 used to raise OverflowError here.
    with pytest.raises(BudgetError, match=budget):
        run_checks(suite, grid=10**400)


def test_exp_in_place_is_np_exp_bit_for_bit():
    # Across [-800, 0], densely through the band [-745.2, -708] where exp is
    # subnormal, and at the bound where it stops being computed.
    edge = np.nextafter(-746.0, [-np.inf, np.inf])
    x = np.concatenate([np.linspace(-800.0, 0.0, 100_001),
                        np.linspace(-745.2, -708.0, 100_001), edge, [-746.0, -745.14]])
    got = x.copy()
    assert _exp_in_place(got) is got
    assert np.array_equal(got.view(np.int64), np.exp(x).view(np.int64))


@pytest.mark.parametrize("seed", [0, 7, 1000, 1007, 2000])
def test_lorentz_pairs_draw_their_dimension_first(monkeypatch, seed):
    # Per measure pair the suite draws integers(2, 4) for d, then six uniforms
    # (s, two rapidities, the angle, alpha, beta) before its surface
    # integrals; replaying that order predicts how many pairs are d = 3.
    dims = []

    def record(spec, fs, quad):
        dims.extend([spec.params.d] * len(fs))
        return [QuadResult(0.0, 0.0)] * len(fs)

    monkeypatch.setattr(hyperex.verify, "_sheet_integrals", record)
    hyperex.verify._suite_lorentz(np.random.default_rng(seed), None)
    replay = np.random.default_rng(seed)
    want = []
    for _ in range(20):
        want.append(int(replay.integers(2, 4)))
        replay.uniform(size=6)
    assert dims == [d for d in want for _ in range(2)]


def test_specfun_suite_draws_nothing():
    # The lorentz suite's draws, and every later suite's, start where the
    # generator was seeded; bench/workloads.py replays them on that ground.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    hyperex.verify._suite_specfun(rng, None)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [7, 1007])
def test_run_checks_is_the_suites_called_in_turn(seed):
    rng = np.random.default_rng(seed)
    in_turn = [check for name in SUITES
               for check in hyperex.verify._SUITE_RUNNERS[name](rng, None)]
    assert in_turn == run_checks("all", seed=seed)


def _mp_sheet_integral(params, alpha, beta):
    """|S^{d-1}| int_s^oo exp(-alpha (u^2 - s^2) - beta u) (u^2 - s^2)^{(d-2)/2} du
    by mpmath at 30 digits."""
    s = mpmath.mpf(params.s)

    def f(u):
        return (mpmath.exp(-alpha * (u * u - s * s) - beta * u)
                * (u * u - s * s) ** (mpmath.mpf(params.d - 2) / 2))

    with mpmath.workdps(30):
        return float(SPHERE_AREA[params.d] * mpmath.quad(f, [s, s + 1, s + 3, s + 8, mpmath.inf]))


def _lorentz_draws(seed):
    """The suite's (params, map, alpha, beta) draws, replayed."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        params = HyperboloidParams(d=d, s=float(rng.uniform(0.5, 2.0)))
        lmap = hyperex.verify._random_map(rng, d)
        yield params, lmap, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.1, 0.5))


def test_sheet_reference_matches_mpmath():
    for params, lmap, alpha, beta in _lorentz_draws(0):
        h, _, _ = _invariance_pair(params, lmap, alpha, beta)
        ref = _sheet_reference(params, h)
        want = _mp_sheet_integral(params, alpha, beta)
        assert abs(ref.value - want) <= 1e-14
        assert ref.error < 1e-13 * abs(want)


@pytest.mark.parametrize("seed", [0, 7, 1007, 2000, 3003])
def test_lorentz_estimate_bounds_the_deviation_from_mpmath(seed):
    # Both integrals of a pair equal the mpmath integral; the check's
    # estimate must bound each one's deviation from it, at every pair.
    worst = 0.0
    for params, lmap, alpha, beta in _lorentz_draws(seed):
        _, g, g_mapped = _invariance_pair(params, lmap, alpha, beta)
        a_val, b_val = hyperex.verify._sheet_integrals(
            MeasureSpec(params), (g, g_mapped), _LORENTZ_QUAD)
        want = _mp_sheet_integral(params, alpha, beta)
        worst = max(worst, abs(a_val.value - want), abs(b_val.value - want))
    (check,) = [c for c in run_checks("lorentz", seed=seed) if c.name == "measure-invariance"]
    assert check.passed and 0.0 < worst <= check.error_estimate <= 1e-6


@pytest.mark.parametrize("grid", ["40", "80"])
def test_a_coarse_lorentz_grid_fails_honestly(capsys, grid):
    # At --grid 80 (seed 0) the discrepancy, 9.2e-7, is inside the 1e-6
    # tolerance; the estimate, 2.9e-6, is not, and fails the check.
    assert main(["verify", "--suite", "lorentz", "--grid", grid, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    (check,) = [c for c in report["outputs"]["checks"] if c["name"] == "measure-invariance"]
    assert not check["passed"]
    assert report["error_estimates"]["lorentz/measure-invariance"] > 1e-6


def _unreachable(rng, samples, grid=None):
    raise AssertionError("a suite ran before the grid was refused")


_SHEET_REFUSAL = "hyperex: 4076800 sheet nodes exceed the budget of 4000000\n"
_PAIRING_REFUSAL = "hyperex: 4244832 tensor-pairing node pairs exceed the budget of 4000000\n"
_ALL_REFUSAL = "hyperex: 4499456 tensor-pairing node pairs exceed the budget of 4000000\n"


# verify --suite all --grid 212 used to run the lorentz pairs at that grid and
# the support, sharp and metric suites, about 4 s, before the oracle refused.
@pytest.mark.parametrize("suite, grid, message", [("all", "218", _ALL_REFUSAL),
                                                  ("lorentz", "435", _SHEET_REFUSAL),
                                                  ("all", "212", _PAIRING_REFUSAL),
                                                  ("oracle", "212", _PAIRING_REFUSAL)])
def test_grids_past_the_budgets_are_refused_before_any_suite_runs(monkeypatch, capsys, suite,
                                                                   grid, message):
    monkeypatch.setattr(hyperex.verify, "_SUITE_RUNNERS", dict.fromkeys(SUITES, _unreachable))
    assert main(["verify", "--suite", suite, "--grid", grid]) == 2
    assert capsys.readouterr() == ("", message)


def test_the_largest_oracle_grid_is_not_refused():
    assert len(run_checks("oracle", grid=211, samples=1000)) == 3


@pytest.mark.parametrize("grid", [None, 211])
def test_oracle_checks_pass_within_their_error_bars(grid):
    # At --grid 211 the d = 3 tensor pairing's own two-resolution error,
    # 8.7e-9, is below its distance from the reference, 2.7e-8; the
    # reference's error, taken into the estimate, covers the rest.
    checks = {c.name: c for c in run_checks("oracle", grid=grid, samples=1000)}
    for name in ("point-oracle-vs-closed", "tensor-pairing-vs-closed"):
        check = checks[name]
        assert check.passed and 0.0 < check.discrepancy <= check.error_estimate
