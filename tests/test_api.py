"""The public API: exported names and source size are pinned, so growth
shows in a diff."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

import switchmc
from switchmc.cli import RunConfig, SolverParams

MODULES = ("model", "filtering", "simulate", "regress", "dp", "oracle", "benchmarks", "cli")


def test_package_exports_are_pinned():
    assert sorted(switchmc.__all__) == sorted([
        "__version__",
        "ModelSpec", "ModeSet", "PayoffSpec", "TimeGrid", "ValidationReport",
        "as_payoff", "load_problem", "payoff_from_registry", "switch_count_bound",
        "validate",
        "CovarianceSchedule", "EvaluationError", "IntegrationError", "QuadratureRule",
        "build_quadrature", "psd_sqrt", "solve_riccati",
        "Domain", "PathEnsemble", "SimulationError",
        "build_ensemble", "calibrate_domain", "derive_seed", "payoff_sup_on_domain",
        "simulate_paths",
        "CoefficientVector", "HypercubeBasis", "IndexingError", "PminEstimate",
        "empirical_coefficients", "estimate_pmin", "regress_eval",
        "PolicyEvaluation", "ValueSurface", "backward_induction",
        "simulate_policy", "value_at_origin",
        "OracleRefusal", "tree_oracle_value",
    ])


def test_public_dataclass_fields_are_pinned():
    # Each field is a settable value; a new one shows in this diff.
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in (
        switchmc.ModelSpec, switchmc.ModeSet, switchmc.TimeGrid, RunConfig, SolverParams)}
    assert fields == {
        "ModelSpec": ["n1", "m1", "n2", "T", "n_steps", "F", "C", "G", "m0", "theta0", "y0"],
        "ModeSet": ["payoffs", "costs", "nu"],
        "TimeGrid": ["T", "n_steps"],
        "RunConfig": ["problem", "solver", "output"],
        "SolverParams": [
            "M", "n_steps", "epsilon", "cells_per_dim", "quad_order", "seed", "replications",
        ],
    }


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


def names_read(source: str) -> set:
    """Every name a module reads: loaded names, attributes, imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unreferenced_private_names(source: str, read: set) -> list:
    """Module-level private names (``_x``, not dunders) of a module that are
    not in ``read``, the names read anywhere in the package."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


SOURCES = sorted(Path(switchmc.__file__).parent.glob("*.py"))

# Total lines of src/switchmc/*.py.  Lower it when code is removed; raising
# it is a decision that shows in the diff, like a new exported name.
SOURCE_LINES_MAX = 2335


def test_source_size_is_pinned():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SOURCES)
    assert lines <= SOURCE_LINES_MAX


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """No module imports a name it never uses, or defines a module-level
    private helper or constant that no module of the package reads."""
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source) == []
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in SOURCES))
    assert unreferenced_private_names(source, read) == []


def third_party_imports(source: str) -> set:
    """Top-level names of the modules a source file imports, at any depth
    (function bodies too), other than the standard library's."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in declared}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8")) for p in SOURCES))
    assert imported == names == {"numpy"}
