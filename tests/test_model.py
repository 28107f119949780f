"""Problem-specification layer: grids, coercion, payoffs, validation."""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SIGNAL2D, cost_violation, make_benchmark

from switchmc import (
    ModeSet,
    ModelSpec,
    PayoffSpec,
    TimeGrid,
    as_payoff,
    load_problem,
    payoff_from_registry,
    switch_count_bound,
    validate,
)
from switchmc.benchmarks import benchmark_problem
from switchmc.cli import main

NU = 0.001
# Entries that each break one cost assumption wherever they land: not
# finite, negative, below NU, large enough to break the triangle inequality
# (off the diagonal, d >= 3) or nonzero on the diagonal; 1e-12 and 0.0 are
# within the diagonal's tolerance.
ODD_COSTS = (math.nan, math.inf, -math.inf, -0.01, 0.0, 0.0005, 1e-12, 0.05, 0.1, 0.3, 0.5)


@st.composite
def cost_matrices(draw):
    """A d x d cost matrix, d = 1..4: valid costs with up to two odd entries."""
    d = draw(st.integers(1, 4))
    # Off-diagonal costs within a factor 2 of each other satisfy the triangle
    # inequality, so the matrix is valid before the odd entries go in.
    valid = st.sampled_from((0.01, 0.012, 0.015, 0.02))
    c = [[0.0 if i == j else draw(valid) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 2))):
        c[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(st.sampled_from(ODD_COSTS))
    return c


class TestTimeGrid:
    def test_delta_and_times(self):
        grid = TimeGrid(T=1.0, n_steps=4)
        assert grid.delta == 0.25
        assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.times[-1] == 1.0

    def test_bad_construction(self):
        for T in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TimeGrid(T=T, n_steps=4)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, n_steps=0)


class TestModelSpec:
    def test_scalar_coefficients_become_schedules(self):
        model, _ = make_benchmark(n_steps=5)
        assert np.asarray(model.F).shape == (6, 1, 1)
        assert np.asarray(model.C).shape == (6, 1, 1)
        assert np.asarray(model.G).shape == (6, 1, 1)
        assert np.asarray(model.m0).shape == (1,)
        assert np.asarray(model.theta0).shape == (1, 1)

    def test_matrix_coefficients_are_tiled(self):
        model = ModelSpec(
            n1=2, m1=2, n2=1, m2=1, T=1.0, n_steps=3,
            F=[[0.0, 1.0], [0.0, 0.0]], C=np.eye(2), G=[[1.0, 0.0]],
            m0=[0.0, 0.0], theta0=np.eye(2), y0=[0.0],
        )
        F = np.asarray(model.F)
        assert F.shape == (4, 2, 2)
        assert np.all(F == F[0])

    def test_per_step_table_accepted(self):
        table = np.arange(4, dtype=float).reshape(4, 1, 1)
        model = ModelSpec(
            n1=1, m1=1, n2=1, m2=1, T=1.0, n_steps=3,
            F=table, C=1.0, G=1.0, m0=[0.0], theta0=[[0.0]], y0=[0.0],
        )
        assert np.array_equal(np.asarray(model.F), table)

    def test_wrong_table_length_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                n1=1, m1=1, n2=1, m2=1, T=1.0, n_steps=3,
                F=np.zeros((7, 1, 1)), C=1.0, G=1.0,
                m0=[0.0], theta0=[[0.0]], y0=[0.0],
            )

    def test_wrong_matrix_shape_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                n1=2, m1=1, n2=1, m2=1, T=1.0, n_steps=2,
                F=np.zeros((2, 2)), C=np.zeros((2, 2)), G=[[1.0, 0.0]],
                m0=[0.0, 0.0], theta0=np.eye(2), y0=[0.0],
            )

    def test_grid_property(self):
        model, _ = make_benchmark(n_steps=8)
        assert model.grid.n_steps == 8
        assert model.grid.delta == pytest.approx(0.125)


class TestPayoffs:
    def test_registry_zero_and_linear(self):
        zero = payoff_from_registry("zero")
        linear = payoff_from_registry("linear")
        x = np.array([[1.5], [-2.0]])
        y = np.zeros((2, 1))
        assert np.array_equal(zero.fn(x, y, 0.3), np.zeros(2))
        assert np.array_equal(linear.fn(x, y, 0.3), [1.5, -2.0])

    def test_registry_affine(self):
        affine = payoff_from_registry("affine", a=2.0, b=-1.0)
        x = np.array([[3.0]])
        assert affine.fn(x, np.zeros((1, 1)), 0.0) == pytest.approx(5.0)

    def test_registry_unknown_name(self):
        with pytest.raises(ValueError):
            payoff_from_registry("no-such-payoff")

    def test_as_payoff_accepts_callable_and_mapping(self):
        direct = as_payoff(lambda x, y, t: x[..., 0] ** 2)
        assert direct.name == "custom"
        named = as_payoff("zero")
        assert named.name == "zero"
        mapped = as_payoff({"name": "affine", "a": 1.0, "b": 0.5})
        assert mapped.fn(np.array([[2.0]]), np.zeros((1, 1)), 0.0) == pytest.approx(2.5)
        spec = PayoffSpec("custom", lambda x, y, t: x[..., 0])
        assert as_payoff(spec) is spec
        # Only registry payoffs are known to be affine in x.
        assert [p.is_affine for p in (named, mapped, direct, spec)] == [True, True, False, False]


class TestModeSet:
    def test_matrix_costs_wrapped(self, small_problem):
        _, modes = small_problem
        assert modes.d == 2
        cost = modes.costs
        assert cost.shape == (2, 2)
        assert cost[0, 1] == pytest.approx(0.01)
        assert cost[1, 0] == pytest.approx(0.001)
        assert cost[0, 0] == 0.0

    def test_needs_at_least_one_mode(self):
        with pytest.raises(ValueError):
            ModeSet(payoffs=(), costs=np.zeros((0, 0)), nu=0.001)

    def test_costs_are_a_read_only_copy(self):
        given_costs = np.array([[0.0, 0.01], [0.001, 0.0]])
        modes = ModeSet(payoffs=("zero", "linear"), costs=given_costs, nu=0.001)
        given_costs[0, 1] = 1.0
        assert modes.costs[0, 1] == 0.01
        assert modes.costs.dtype == np.float64
        assert not modes.costs.flags.writeable
        with pytest.raises(ValueError):
            modes.costs[0, 1] = 1.0

    @pytest.mark.parametrize("costs", (
        lambda i, j, t: 0.0, "cheap", [[0.0, "x"], [0.001, 0.0]], [[0.0, 0.01], [0.001]],
        [0.0, 0.01], None,
    ), ids=("callable", "string", "non-numeric-entry", "ragged", "vector", "none"))
    def test_costs_other_than_a_matrix_rejected(self, costs):
        with pytest.raises(ValueError, match=r"costs must be a \(2, 2\) matrix"):
            ModeSet(payoffs=("zero", "linear"), costs=costs, nu=0.001)

    def test_cost_shape_must_match_mode_count(self):
        with pytest.raises(ValueError):
            ModeSet(
                payoffs=(as_payoff("zero"), as_payoff("linear")),
                costs=np.zeros((3, 3)), nu=0.001,
            )


class TestValidate:
    def test_benchmark_passes(self, small_problem):
        model, modes = small_problem
        report = validate(model, modes, model.grid)
        assert report.ok
        assert str(report) == "pass"

    def test_nonzero_diagonal_cost_flagged(self, small_problem):
        model, _ = small_problem
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.5, 0.01], [0.001, 0.0]], nu=0.001,
        )
        report = validate(model, modes, model.grid)
        assert not report.ok
        assert any("diagonal" in v for v in report.violations)

    def test_cost_below_floor_flagged(self, small_problem):
        model, _ = small_problem
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.0, 0.01], [0.0001, 0.0]], nu=0.001,
        )
        report = validate(model, modes, model.grid)
        assert not report.ok

    def test_triangle_inequality_flagged(self, small_problem):
        model, _ = small_problem
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear"), as_payoff("zero")),
            costs=[[0.0, 0.01, 0.5], [0.01, 0.0, 0.01], [0.5, 0.01, 0.0]],
            nu=0.001,
        )
        report = validate(model, modes, model.grid)
        assert not report.ok
        assert any("triangle" in v for v in report.violations)

    def test_triangle_report_names_the_first_violation(self, small_problem):
        # Two violations, (0, 1, 2) and (2, 1, 0); only the first in
        # (i1, i2, i3) order is reported.
        model, _ = small_problem
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear"), as_payoff("zero")),
            costs=[[0.0, 0.01, 0.5], [0.01, 0.0, 0.02], [0.3, 0.01, 0.0]],
            nu=0.001,
        )
        report = validate(model, modes, model.grid)
        assert report.violations == [
            "triangle inequality violated: c(0,1) + c(1,2) = 0.03 < c(0,2) = 0.5"
        ]

    def test_indefinite_theta0_flagged(self, small_problem):
        _, modes = small_problem
        model, _ = make_benchmark(n_steps=20, theta0=-1.0)
        report = validate(model, modes, model.grid)
        assert not report.ok

    @pytest.mark.parametrize("key, value, violation", [
        ("costs", [[0.0, math.nan], [0.001, 0.0]], "switching cost not finite"),
        ("m0", math.nan, "m0 has non-finite entries"),
        ("y0", math.nan, "y0 has non-finite entries"),
        ("theta0", math.nan, "theta0 has non-finite entries"),
    ])
    def test_non_finite_entry_flagged(self, key, value, violation):
        # NaN compares false, so each of these passed every check before
        # finiteness was tested first.
        model, modes = make_benchmark(n_steps=20, **{key: value})
        assert validate(model, modes, model.grid).violations == [violation]

    @settings(max_examples=100, deadline=None)
    @given(costs=cost_matrices())
    def test_cost_violation_matches_the_reference_loop(self, tmp_path_factory, costs):
        # validate and the CLI report what per-entry loops predict, and the
        # CLI exits 0 or 1 with nothing on stderr, never 2.
        expected = cost_violation(costs, NU)
        problem = {
            **benchmark_problem(), "n_steps": 10,
            "modes": ["zero", "linear", "zero", "linear"][:len(costs)], "costs": costs, "nu": NU,
        }
        model, modes = load_problem(problem)
        assert validate(model, modes, model.grid).violations == ([] if expected is None else [expected])
        path = tmp_path_factory.getbasetemp() / "costs.json"
        path.write_text(json.dumps(problem))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--problem", str(path)])
        assert (code, err.getvalue()) == (int(expected is not None), "")
        assert out.getvalue() == ("pass" if expected is None else f"violation: {expected}") + "\n"

    def test_grid_mismatch_flagged(self, small_problem):
        model, modes = small_problem
        report = validate(model, modes, TimeGrid(T=1.0, n_steps=7))
        assert not report.ok

    def test_horizon_mismatch_flagged(self, small_problem):
        model, modes = small_problem
        report = validate(model, modes, TimeGrid(T=2.0, n_steps=model.n_steps))
        assert report.violations == ["grid horizon 2.0 does not match model horizon 1.0"]

    def test_asymmetric_theta0_flagged(self):
        model, modes = load_problem({**SIGNAL2D, "theta0": [[1.0, 0.5], [0.0, 1.0]]})
        assert validate(model, modes, model.grid).violations == ["theta0 is not symmetric"]

    @pytest.mark.parametrize("nu", (0.0, -0.001))
    def test_non_positive_nu_flagged(self, nu):
        # Costs above nu still pass, so nu is the only violation.
        model, modes = make_benchmark(n_steps=20, nu=nu)
        assert validate(model, modes, model.grid).violations == [f"nu must be positive, got {nu}"]
        with pytest.raises(ValueError, match="nu must be > 0"):
            switch_count_bound(modes, f_sup=1.0, T=1.0)


class TestSwitchCountBound:
    def test_values(self, small_problem):
        _, modes = small_problem
        assert switch_count_bound(modes, f_sup=2.0, T=1.0) == pytest.approx(4000.0)
        assert switch_count_bound(modes, f_sup=0.0, T=1.0) == 0.0
        big_nu = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("linear")),
            costs=[[0.0, 1.0], [1.0, 0.0]], nu=1.0,
        )
        assert switch_count_bound(big_nu, f_sup=4.0, T=1.0) == pytest.approx(8.0)

    def test_negative_inputs_rejected(self, small_problem):
        _, modes = small_problem
        with pytest.raises(ValueError):
            switch_count_bound(modes, f_sup=-1.0, T=1.0)
        with pytest.raises(ValueError):
            switch_count_bound(modes, f_sup=1.0, T=-1.0)


class TestLoadProblem:
    def test_round_trip_through_file(self, tmp_path):
        problem = benchmark_problem(m0=0.25)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        model, modes = load_problem(str(path))
        assert model.n_steps == 730
        assert float(np.asarray(model.m0)[0]) == 0.25
        assert modes.d == 2

    def test_file_object_refused(self):
        # A problem comes as a path or a mapping; an open file is neither.
        with pytest.raises(TypeError):
            load_problem(io.StringIO(json.dumps(benchmark_problem())))

    def test_missing_key_rejected(self):
        problem = benchmark_problem()
        del problem["nu"]
        with pytest.raises(ValueError):
            load_problem(problem)

    def test_benchmark_validates(self):
        model, modes = load_problem(benchmark_problem())
        assert validate(model, modes, model.grid).ok

    def test_costs_respect_nu_floor(self):
        problem = benchmark_problem()
        assert problem["nu"] <= min(problem["costs"][0][1], problem["costs"][1][0])
        assert math.isfinite(problem["nu"])
