"""Verify-suite tests: every suite passes at the default seed."""

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hyperex.verify
from hyperex.cli import main
from hyperex.functionals import SUPPORTED_PAIRS
from hyperex.quadrature import BudgetError, QuadResult
from hyperex.verify import _SCALING_INPUTS, SUITES, _exp_in_place, run_checks


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


def _thread_names_of_sheet_integrals(monkeypatch):
    """Record the thread of every lorentz pair integral run by verify."""
    names = []
    integrals = hyperex.verify._sheet_integrals

    def record(*args):
        names.append(threading.current_thread().name)
        return integrals(*args)

    monkeypatch.setattr(hyperex.verify, "_sheet_integrals", record)
    return names


@pytest.mark.parametrize("seed", [7, 1007])
def test_background_thread_gives_the_checks_of_the_suites_run_in_turn(monkeypatch, seed):
    # A suite called directly runs its tasks at once, on the calling thread.
    names = _thread_names_of_sheet_integrals(monkeypatch)
    threaded = run_checks("all", seed=seed)
    assert len(names) == 20 and threading.main_thread().name not in names
    names.clear()
    rng = np.random.default_rng(seed)
    in_turn = [check for name in SUITES
               for check in hyperex.verify._SUITE_RUNNERS[name](rng, None)]
    assert in_turn == threaded
    assert names == [threading.main_thread().name] * 20


def _unreachable(rng, samples, grid=None, tasks=None):
    raise AssertionError("a suite ran before the grid was refused")


_SHEET_REFUSAL = "hyperex: 4116000 sheet nodes exceed the budget of 4000000\n"
_PAIRING_REFUSAL = "hyperex: 4244832 tensor-pairing node pairs exceed the budget of 4000000\n"


# verify --suite all --grid 212 used to run the lorentz pairs at that grid and
# the support, sharp and metric suites, about 4 s, before the oracle refused.
@pytest.mark.parametrize("suite, grid, message", [("all", "218", _SHEET_REFUSAL),
                                                  ("lorentz", "218", _SHEET_REFUSAL),
                                                  ("all", "212", _PAIRING_REFUSAL),
                                                  ("oracle", "212", _PAIRING_REFUSAL)])
def test_grids_past_the_budgets_are_refused_before_any_suite_runs(monkeypatch, capsys, suite,
                                                                   grid, message):
    monkeypatch.setattr(hyperex.verify, "_SUITE_RUNNERS", dict.fromkeys(SUITES, _unreachable))
    assert main(["verify", "--suite", suite, "--grid", grid]) == 2
    assert capsys.readouterr() == ("", message)


def test_the_largest_oracle_grid_is_not_refused():
    assert len(run_checks("oracle", grid=211, samples=1000)) == 3


def _failing_sheet_integrals(monkeypatch, delay):
    def fail(*args):
        time.sleep(delay)
        raise BudgetError("queued work failed")

    monkeypatch.setattr(hyperex.verify, "_sheet_integrals", fail)


def test_the_background_thread_is_joined_on_every_return(monkeypatch):
    start = threading.active_count()
    assert run_checks("oracle", samples=1000)
    assert threading.active_count() == start
    _failing_sheet_integrals(monkeypatch, 0.0)
    with pytest.raises(BudgetError, match="queued work failed"):
        run_checks("lorentz")
    assert threading.active_count() == start


def test_a_queued_failure_precedes_a_later_suites_failure(monkeypatch):
    # Run in turn, the lorentz pairs fail before the support suite runs;
    # queued, they have not failed yet when it fails, and must still win.
    def fails(rng, samples, grid=None, tasks=None):
        raise ValueError("support failed")

    monkeypatch.setitem(hyperex.verify._SUITE_RUNNERS, "support", fails)
    start = threading.active_count()
    with pytest.raises(ValueError, match="support failed"):
        run_checks("all", grid=50)
    _failing_sheet_integrals(monkeypatch, 0.2)
    with pytest.raises(BudgetError, match="queued work failed"):
        run_checks("all", grid=50)
    assert threading.active_count() == start
