"""Finite-horizon multi-mode optimal switching under partial information.

The solver filters a hidden linear signal from noisy observations
(Kalman-Bucy), simulates the filtered state forward, and runs a regression
Monte Carlo backward dynamic program over the operating modes.  An exact
small-instance oracle supports validation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (
    ModelSpec,
    ModeSet,
    PayoffSpec,
    TimeGrid,
    ValidationReport,
    as_payoff,
    load_problem,
    payoff_from_registry,
    switch_count_bound,
    validate,
)
from .filtering import (
    CovarianceSchedule,
    EvaluationError,
    IntegrationError,
    QuadratureRule,
    build_quadrature,
    psd_sqrt,
    solve_riccati,
)
from .simulate import (
    Domain,
    PathEnsemble,
    SimulationError,
    build_ensemble,
    calibrate_domain,
    derive_seed,
    payoff_sup_on_domain,
    simulate_paths,
)
from .regress import (
    CoefficientVector,
    HypercubeBasis,
    IndexingError,
    PminEstimate,
    empirical_coefficients,
    estimate_pmin,
    regress_eval,
)
from .dp import (
    PolicyEvaluation,
    ValueSurface,
    backward_induction,
    simulate_policy,
    value_at_origin,
)
from .oracle import (
    OracleRefusal,
    tree_oracle_value,
)

__all__ = [
    "__version__",
    "ModelSpec", "ModeSet", "PayoffSpec", "TimeGrid",
    "ValidationReport", "as_payoff", "load_problem",
    "payoff_from_registry", "switch_count_bound", "validate",
    "CovarianceSchedule", "EvaluationError",
    "IntegrationError", "QuadratureRule", "build_quadrature", "psd_sqrt",
    "solve_riccati",
    "Domain", "PathEnsemble", "SimulationError", "build_ensemble",
    "calibrate_domain", "derive_seed", "payoff_sup_on_domain", "simulate_paths",
    "CoefficientVector", "HypercubeBasis", "IndexingError", "PminEstimate",
    "empirical_coefficients", "estimate_pmin", "regress_eval",
    "PolicyEvaluation", "ValueSurface", "backward_induction",
    "simulate_policy", "value_at_origin",
    "OracleRefusal", "tree_oracle_value",
]
