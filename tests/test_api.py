"""The public API: exported names are pinned, so growth shows in a diff."""

from __future__ import annotations

import importlib

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
