"""Verify-suite tests: the suites no other test runs pass at the default seed."""

import pytest

from hyperex.verify import run_checks


@pytest.mark.parametrize("suite", ["metric", "functional"])
def test_suite_passes_at_default_seed(suite):
    checks = run_checks(suite)
    assert checks
    assert [c.name for c in checks if not c.passed] == []
