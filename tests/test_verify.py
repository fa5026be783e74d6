"""Verify-suite tests: every suite passes at the default seed."""

import pytest

from hyperex.verify import run_checks


@pytest.mark.parametrize("suite", ["metric", "functional"])
def test_suite_passes_at_default_seed(suite):
    checks = run_checks(suite)
    assert checks
    assert [c.name for c in checks if not c.passed] == []


def test_all_suites_pass_at_default_seed():
    checks = run_checks("all")
    assert len(checks) == 32
    assert [f"{c.suite}/{c.name}" for c in checks if not c.passed] == []
