"""Frozen reference values and convergence of the solver toward them.

The dense-grid dynamic program in oracles.py is the independent yardstick
for the standard scalar problem.  Its own discretization error is measured
by refining its knobs; the Monte Carlo solver is then required to approach
the converged value as the regression partition refines.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import make_benchmark, reduced_reference_values

from switchmc import build_quadrature, solve_riccati, tree_oracle_value
from switchmc.benchmarks import PDE_REFERENCE, benchmark_problem, default_solver_params
from switchmc.cli import RunConfig, run_solve

# Dense-grid values at the default oracle knobs (2401 grid points,
# half-width 6, 32 quadrature nodes).  Regression guards: any change in
# these indicates a change in the oracle itself, not in the solver.
FROZEN_DEFAULT_KNOBS = {
    -0.5: (0.004598624954282404, 0.003598624954282404),
    0.0: (0.06891744910943916, 0.07341744696516775),
    0.5: (0.4957610779718955, 0.5057610779718955),
}

# Knob-refinement study (computed once, grid x half-width x quadrature):
#   grid  2401, hw  6, q 32: earning value at 0  = 0.07341745
#   grid  4801, hw  6, q 32: 0.07233552
#   grid  9601, hw  6, q 32: 0.07205398
#   grid 19201, hw 10, q 64: 0.07202555
# The sequence is monotone with vanishing increments; the converged values
# below carry about +-3e-5.
CONVERGED = {
    -0.5: {"idle": 0.00443683, "earn": 0.00343683},
    0.0: {"idle": 0.06752555, "earn": 0.07202555},
    0.5: {"idle": 0.49558398, "earn": 0.50558398},
}

# Ten times the earning value at costs (0.001, 0.0001), at the default knobs:
# the built-in problem with earning payoff 10 x and its configured costs,
# since the value is 1-homogeneous in (payoff, costs).
TEN_X_PAYOFF_DEFAULT_KNOBS = {-0.5: 0.06417, 0.0: 0.82147, 0.5: 5.06652}

# Exhaustive two-point innovation tree on the 4-step benchmark, 16-node quadrature.
FROZEN_TREE_N4 = (0.03643973872898242, 0.04093973872898242)


class TestFrozenOracleValues:
    @pytest.mark.parametrize("m0", [-0.5, 0.0, 0.5])
    def test_dense_grid_reproduces_frozen_values(self, m0):
        vi, ve = reduced_reference_values(m0)
        frozen_vi, frozen_ve = FROZEN_DEFAULT_KNOBS[m0]
        assert vi == pytest.approx(frozen_vi, abs=1e-9)
        assert ve == pytest.approx(frozen_ve, abs=1e-9)

    def test_knob_refinement_moves_toward_converged_value(self):
        coarse = reduced_reference_values(0.0)[1]
        medium = reduced_reference_values(0.0, n_grid=4801)[1]
        target = CONVERGED[0.0]["earn"]
        assert abs(medium - target) < abs(coarse - target)
        assert abs(medium - target) < 5e-4

    def test_switch_boundary_identities(self):
        # At m0 = -0.5 the earning mode switches off at once, so its value
        # is the idle value minus the off cost; at +0.5 the idle mode
        # switches on at once.
        vi_lo, ve_lo = FROZEN_DEFAULT_KNOBS[-0.5]
        assert vi_lo - ve_lo == pytest.approx(0.001, abs=1e-12)
        vi_hi, ve_hi = FROZEN_DEFAULT_KNOBS[0.5]
        assert ve_hi - vi_hi == pytest.approx(0.01, abs=1e-12)

    @pytest.mark.parametrize("m0", [-0.5, 0.0, 0.5])
    def test_transcribed_table_fits_a_ten_times_earning_payoff(self, m0):
        # The table criterion 1 reproduces lies within that criterion's
        # tolerance of the problem with a 10x earning payoff (the configured
        # problem gives 0.0720 at m0 = 0 against the table's 0.7897).
        value = 10 * reduced_reference_values(m0, c01=0.001, c10=0.0001)[1]
        assert value == pytest.approx(TEN_X_PAYOFF_DEFAULT_KNOBS[m0], abs=5e-6)
        reference = PDE_REFERENCE[m0]
        assert abs(value - reference) <= max(0.01, 0.05 * reference)

    def test_tree_oracle_reproduces_frozen_values(self):
        model, modes = make_benchmark(n_steps=4)
        schedule = solve_riccati(model, model.grid)
        rule = build_quadrature(1, 16)
        values = tree_oracle_value(model, modes, schedule, rule)
        assert values[0] == pytest.approx(FROZEN_TREE_N4[0], abs=1e-12)
        assert values[1] == pytest.approx(FROZEN_TREE_N4[1], abs=1e-12)


class TestSolverApproachesReference:
    def test_partition_refinement_closes_the_gap(self):
        # One replication per resolution at the benchmark scale; the
        # piecewise-constant regression is biased low on coarse partitions
        # and the bias must shrink as cells refine.
        target = CONVERGED[0.0]["earn"]
        gaps = []
        for cells in (10, 14, 20, 28):
            solver = default_solver_params()
            solver["cells_per_dim"] = cells
            solver["replications"] = 1
            config = RunConfig(
                problem=benchmark_problem(0.0), solver=solver, output=None
            )
            result = run_solve(config)
            v1 = result["v"][1]
            assert v1 > 0
            gaps.append(target - v1)
        assert all(g > 0 for g in gaps), f"estimates should sit below {target}: {gaps}"
        assert all(a > b for a, b in zip(gaps, gaps[1:])), f"gaps must shrink: {gaps}"
        assert gaps[-1] < 0.01
