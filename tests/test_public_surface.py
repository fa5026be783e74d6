"""The top-level surface of the package: its entry points and nothing more.

`hyperex.__all__` is exactly what the tests and the benchmark import from
`hyperex`, the entry points README.md lists, and the result and exception
types those return and raise.  Every other public name is imported from its
own module.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import hyperex

ROOT = Path(__file__).resolve().parents[1]

# Public names that left the top level; each stays in its module.
MODULE_ONLY = {
    "hyperex.extension": ("l2_norm_sq",),
    "hyperex.functionals": ("SharpConstant", "combiner_gap", "conv_form_constant",
                            "scaling_check"),
    "hyperex.geometry": ("LorentzMap", "SpacetimePoint", "boost", "compose",
                         "quasi_distance", "rotation_embed"),
    "hyperex.measures": ("conv_sup_norm", "conv_support", "sum_support_predicate"),
    "hyperex.specfun": ("bessel_j0",),
    "hyperex.verify": ("CheckResult",),
}


def _top_level_imports() -> set[str]:
    """Names of every `from hyperex import ...` under tests/ and bench/."""
    names = set()
    for path in sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "hyperex" and not node.level:
                names.update(alias.name for alias in node.names)
    return names


def _readme_entry_points() -> set[str]:
    """Function names of README.md's entry-point block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("The main numerical entry points", 1)[1]
    block = block.split("```text", 1)[1].split("```", 1)[0]
    return set(re.findall(r"(?:^|/ )(\w+)\(", block, flags=re.MULTILINE))


def test_every_top_level_import_is_exported():
    imported = _top_level_imports()
    assert "ExpProfile" in imported and "run_checks" in imported
    assert imported <= set(hyperex.__all__)


def test_exports_are_the_imports_and_the_entry_points():
    entry_points = _readme_entry_points()
    assert {"q_ratio", "lp_norm_extension_direct", "conv_pairing_oracle"} <= entry_points
    expected = _top_level_imports() | entry_points | {"QuadResult", "BudgetError"}
    assert sorted(hyperex.__all__) == sorted(expected)
    assert all(hasattr(hyperex, name) for name in hyperex.__all__)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_dropped_names_import_from_their_module(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert name not in hyperex.__all__ and not hasattr(hyperex, name)
