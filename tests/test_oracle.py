"""Exhaustive tree valuation, and the closed-form no-switch reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import make_benchmark, no_switch_value, tiny_tree_value

from switchmc import (
    ModeSet,
    ModelSpec,
    OracleRefusal,
    as_payoff,
    build_quadrature,
    solve_riccati,
    tree_oracle_value,
)
from switchmc.oracle import _tree_paths


@pytest.fixture(scope="module")
def rule8():
    return build_quadrature(1, 8)


class TestTreePaths:
    def test_two_point_enumerates_all_sign_patterns(self):
        model, _ = make_benchmark(n_steps=3)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        n_paths = 2 ** 3
        z = _tree_paths(model, schedule, range(n_paths))
        root = math.sqrt(grid.delta)
        # Observation increments at step 0 are G m0 delta + dI = +-sqrt(delta)
        # exactly, since m0 = 0.
        first = np.unique(z[1, :, 1])
        assert np.array_equal(first, [-root, root])
        # Every sign pattern must be realized exactly once; the last
        # innovation reaches the observation, so the state paths differ.
        assert np.unique(np.hstack(z), axis=0).shape[0] == n_paths

    def test_two_point_signs_are_the_path_index_bits(self):
        # Loop reference: bit k of the path id is the sign of the innovation
        # at step k.  With G = 0 the observation steps are the signed
        # innovations themselves.
        model, _ = make_benchmark(n_steps=3, G=0.0)
        schedule = solve_riccati(model, model.grid)
        ids = [0, 5, 6, 7, 2 ** 40 + 9]
        z = _tree_paths(model, schedule, ids)
        steps = np.diff(z[..., 1], axis=0)
        for ell, pid in enumerate(ids):
            for k in range(3):
                expected = 1.0 if (pid >> k) & 1 else -1.0
                assert np.sign(steps[k, ell]) == expected

    def test_two_point_starts_signal_at_the_mean(self):
        # The filter starts every path at (m0, y0): its estimate of the
        # signal is the prior mean.
        model, _ = make_benchmark(n_steps=2, m0=0.3, y0=-0.2)
        z = _tree_paths(model, solve_riccati(model, model.grid), range(4))
        assert np.array_equal(z[0], np.tile([0.3, -0.2], (4, 1)))


class TestTreeOracleValue:
    def test_multivariate_problems_refused(self, rule8):
        model = ModelSpec(
            n1=2, m1=2, n2=1, T=1.0, n_steps=2,
            F=np.zeros((2, 2)), C=np.eye(2), G=[[1.0, 0.0]],
            m0=[0.0, 0.0], theta0=np.eye(2), y0=[0.0],
        )
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.0, 0.01], [0.001, 0.0]], nu=0.001,
        )
        with pytest.raises(OracleRefusal):
            tree_oracle_value(model, modes, solve_riccati(model, model.grid), rule8)

    def test_deep_trees_refused(self, rule8):
        model, modes = make_benchmark(n_steps=17)
        with pytest.raises(OracleRefusal, match=r"limited to 16 steps \(2\^17 leaves requested\)$"):
            tree_oracle_value(model, modes, solve_riccati(model, model.grid), rule8)

    def test_single_constant_mode_integrates_the_clock(self, rule8):
        kappa = 0.75
        model, _ = make_benchmark(n_steps=4)
        modes = ModeSet(
            payoffs=(as_payoff({"name": "affine", "a": 0.0, "b": kappa}),),
            costs=[[0.0]], nu=0.001,
        )
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(model, modes, schedule, rule8)
        assert values.shape == (1,)
        assert values[0] == pytest.approx(kappa * model.T, rel=1e-12)

    def test_zero_payoffs_give_zero(self, rule8):
        model, _ = make_benchmark(n_steps=4)
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("zero")),
            costs=[[0.0, 0.01], [0.001, 0.0]], nu=0.001,
        )
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(model, modes, schedule, rule8)
        assert np.array_equal(values, [0.0, 0.0])

    def test_switching_dominates_never_switching(self, rule8):
        model, modes = make_benchmark(n_steps=4, m0=0.3)
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(model, modes, schedule, rule8)
        assert values[1] >= no_switch_value(model, modes, 1) - 1e-12
        assert values[0] >= -1e-12

    def test_prohibitive_costs_reduce_to_never_switching(self, rule8):
        model, _ = make_benchmark(n_steps=4, m0=0.3)
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.0, 1e6], [1e6, 0.0]], nu=0.001,
        )
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(model, modes, schedule, rule8)
        assert values[1] == pytest.approx(no_switch_value(model, modes, 1), abs=1e-12)
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_dictionary_tree(self, rule8):
        for n, change in (
            (2, {}), (3, {}), (6, {}), (4, {"F": -0.5, "m0": 0.3}), (4, {"G": 0.0}),
            (5, {"F": 1.0, "G": 3.0}),
        ):
            model, modes = make_benchmark(n_steps=n, **change)
            schedule = solve_riccati(model, model.grid)
            mine = tiny_tree_value(model, modes, schedule, rule8)
            theirs = tree_oracle_value(model, modes, schedule, rule8)
            assert np.allclose(theirs, mine, atol=1e-12)

    def test_deterministic(self, rule8):
        model, modes = make_benchmark(n_steps=4)
        schedule = solve_riccati(model, model.grid)
        a = tree_oracle_value(model, modes, schedule, rule8)
        b = tree_oracle_value(model, modes, schedule, rule8)
        assert np.array_equal(a, b)


class TestNoSwitchValue:
    def test_linear_payoff_earns_the_mean(self):
        model, modes = make_benchmark(n_steps=10, m0=0.4)
        assert no_switch_value(model, modes, 1) == pytest.approx(0.4 * model.T, rel=1e-12)

    def test_zero_payoff_earns_nothing(self):
        model, modes = make_benchmark(n_steps=10, m0=0.4)
        assert no_switch_value(model, modes, 0) == 0.0

    def test_refuses_drifting_signal(self):
        model, modes = make_benchmark(n_steps=10, F=0.5)
        with pytest.raises(OracleRefusal):
            no_switch_value(model, modes, 1)

    def test_refuses_unknown_payoff(self):
        model, _ = make_benchmark(n_steps=10)
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff(lambda x, y, t: x[..., 0] ** 2)),
            costs=[[0.0, 0.01], [0.001, 0.0]], nu=0.001,
        )
        with pytest.raises(OracleRefusal):
            no_switch_value(model, modes, 1)
