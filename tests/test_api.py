"""The public API: exported names are pinned, so growth shows in a diff."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import switchmc

MODULES = ("model", "filtering", "simulate", "regress", "dp", "oracle", "benchmarks", "cli")


def test_package_exports_are_pinned():
    assert sorted(switchmc.__all__) == sorted([
        "__version__",
        "ModelSpec", "ModeSet", "PayoffSpec", "TimeGrid", "ValidationReport",
        "as_payoff", "load_problem", "payoff_from_registry", "switch_count_bound",
        "validate",
        "CovarianceSchedule", "EvaluationError", "IntegrationError", "QuadratureRule",
        "build_quadrature", "psd_sqrt", "solve_riccati",
        "CalibrationError", "Domain", "NoiseSource", "PathEnsemble", "SimulationError",
        "build_ensemble", "calibrate_domain", "derive_seed", "payoff_sup_on_domain",
        "simulate_paths",
        "CoefficientVector", "HypercubeBasis", "IndexingError", "PminEstimate",
        "empirical_coefficients", "estimate_pmin", "regress_eval",
        "Policy", "PolicyEvaluation", "ValueSurface", "backward_induction",
        "simulate_policy", "value_at_origin",
        "OracleRefusal", "TreeSpec", "no_switch_value", "riccati_reference",
        "tree_oracle_value",
    ])


@pytest.mark.parametrize("name", ("switchmc",) + tuple(f"switchmc.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def unused_imports(source: str) -> list:
    """Names a module imports but never reads or re-exports in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(Path(switchmc.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
