"""Exhaustive tree valuation, and the closed-form no-switch reference."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import make_benchmark, no_switch_value, tiny_tree_value

from switchmc import (
    ModeSet,
    ModelSpec,
    OracleRefusal,
    TreeSpec,
    as_payoff,
    build_quadrature,
    solve_riccati,
    tree_oracle_value,
)


@pytest.fixture(scope="module")
def rule8():
    return build_quadrature(1, 8)


class TestTreeSpec:
    def test_multivariate_problems_refused(self):
        model = ModelSpec(
            n1=2, m1=2, n2=1, m2=1, T=1.0, n_steps=2,
            F=np.zeros((2, 2)), C=np.eye(2), G=[[1.0, 0.0]],
            m0=[0.0, 0.0], theta0=np.eye(2), y0=[0.0],
        )
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.0, 0.01], [0.001, 0.0]], nu=0.001,
        )
        with pytest.raises(OracleRefusal):
            TreeSpec(model, modes)

    def test_deep_trees_refused(self):
        model, modes = make_benchmark(n_steps=9)
        with pytest.raises(OracleRefusal):
            TreeSpec(model, modes)

    def test_leaf_count(self):
        model, modes = make_benchmark(n_steps=4)
        spec = TreeSpec(model, modes)
        assert spec.n_leaves == 256


class TestTreeOracleValue:
    def test_single_constant_mode_integrates_the_clock(self, rule8):
        kappa = 0.75
        model, _ = make_benchmark(n_steps=4)
        modes = ModeSet(
            payoffs=(as_payoff({"name": "affine", "a": 0.0, "b": kappa}),),
            costs=[[0.0]], nu=0.001,
        )
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
        assert values.shape == (1,)
        assert values[0] == pytest.approx(kappa * model.T, rel=1e-12)

    def test_zero_payoffs_give_zero(self, rule8):
        model, _ = make_benchmark(n_steps=4)
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("zero")),
            costs=[[0.0, 0.01], [0.001, 0.0]], nu=0.001,
        )
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
        assert np.array_equal(values, [0.0, 0.0])

    def test_switching_dominates_never_switching(self, rule8):
        model, modes = make_benchmark(n_steps=4, m0=0.3)
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
        assert values[1] >= no_switch_value(model, modes, 1) - 1e-12
        assert values[0] >= -1e-12

    def test_prohibitive_costs_reduce_to_never_switching(self, rule8):
        model, _ = make_benchmark(n_steps=4, m0=0.3)
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.0, 1e6], [1e6, 0.0]], nu=0.001,
        )
        schedule = solve_riccati(model, model.grid)
        values = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
        assert values[1] == pytest.approx(no_switch_value(model, modes, 1), abs=1e-12)
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_dictionary_tree(self, rule8):
        for n in (2, 3):
            model, modes = make_benchmark(n_steps=n)
            schedule = solve_riccati(model, model.grid)
            mine = tiny_tree_value(model, modes, schedule, rule8)
            theirs = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
            assert np.allclose(theirs, mine, atol=1e-12)

    def test_deterministic(self, rule8):
        model, modes = make_benchmark(n_steps=4)
        schedule = solve_riccati(model, model.grid)
        a = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
        b = tree_oracle_value(TreeSpec(model, modes), schedule, rule8)
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
