"""Verify-suite tests: every suite passes at the default seed."""

import json
from pathlib import Path

import numpy as np
import pytest

import hyperex.verify
from hyperex.functionals import SUPPORTED_PAIRS
from hyperex.quadrature import BudgetError, QuadResult, QuadSpec
from hyperex.verify import _SCALING_INPUTS, SUITES, run_checks


@pytest.mark.parametrize("suite", ["metric", "functional"])
def test_suite_passes_at_default_seed(suite):
    checks = run_checks(suite)
    assert checks
    assert [c.name for c in checks if not c.passed] == []


@pytest.fixture(scope="module")
def all_checks():
    return run_checks("all", seed=0)


def test_all_suites_pass_at_default_seed(all_checks):
    assert len(all_checks) == 32
    assert [f"{c.suite}/{c.name}" for c in all_checks if not c.passed] == []


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


@pytest.mark.parametrize("seed", [0, 7, 1000, 1007, 2000])
def test_lorentz_pairs_draw_their_dimension_first(monkeypatch, seed):
    # Per measure pair the suite draws integers(2, 4) for d, then six uniforms
    # (s, two rapidities, the angle, alpha, beta) before its surface
    # integrals; replaying that order predicts how many pairs are d = 3.
    dims = []

    def record(spec, f, quad=QuadSpec()):
        dims.append(spec.params.d)
        return QuadResult(0.0, 0.0)

    monkeypatch.setattr(hyperex.verify, "surface_integral", record)
    hyperex.verify._suite_lorentz(np.random.default_rng(seed), None)
    replay = np.random.default_rng(seed)
    want = []
    for _ in range(20):
        want.append(int(replay.integers(2, 4)))
        replay.uniform(size=6)
    assert dims == [d for d in want for _ in range(2)]
