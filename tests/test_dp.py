"""Backward induction, value surfaces, policies, replay."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from oracles import READ_PEAK_MB, make_benchmark, run_child

from switchmc import (
    Domain,
    HypercubeBasis,
    IndexingError,
    ModeSet,
    NoiseSource,
    SimulationError,
    as_payoff,
    backward_induction,
    build_ensemble,
    build_quadrature,
    calibrate_domain,
    simulate_paths,
    simulate_policy,
    solve_riccati,
    value_at_origin,
)
from switchmc.dp import _action_values, _stay_biased_argmax
from switchmc.regress import memberships


@pytest.fixture(scope="module")
def solved_benchmark():
    """A coarse but complete solve of the standard two-mode problem."""
    model, modes = make_benchmark(n_steps=20)
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 16)
    domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=400, seed=21)
    ensemble = build_ensemble(
        model, grid, schedule, domain, 500, NoiseSource("gaussian"), seed=22
    )
    basis = HypercubeBasis(domain, (8, 8))
    surface, policy = backward_induction(
        ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
    )
    return model, modes, schedule, rule, ensemble, basis, surface, policy


def train_surface(model, modes):
    """Rule, surface and policy of a 200-path solve of ``model``."""
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 16)
    domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=200, seed=71)
    ensemble = build_ensemble(model, grid, schedule, domain, 200, NoiseSource("gaussian"), seed=72)
    basis = HypercubeBasis(domain, (8, 8))
    surface, policy = backward_induction(
        ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
    )
    return rule, surface, policy


def replay_over_ensemble(model, modes, schedule, surface, policy, rule, start_mode, M, seed,
                         pointwise_policy):
    """The policy replay over a stored ensemble: all M paths are simulated
    and clamped by ``build_ensemble`` first, then walked with 2-D gathers.
    Returns the per-path rewards and switch counts."""
    grid, basis, cost = surface.grid, surface.basis, modes.costs
    ensemble = build_ensemble(
        model, grid, schedule, basis.domain, M, NoiseSource("gaussian"), seed
    )
    mode = np.full(M, start_mode, dtype=np.int64)
    total, switches, rows = np.zeros(M), np.zeros(M, dtype=np.int64), np.arange(M)
    for k in range(grid.n_steps):
        pts = ensemble.state(k)
        ids = basis.cell_index(pts)
        cand, fbars = _action_values(
            modes, rule, schedule.sqrt_thetas[k], float(grid.times[k]), grid.delta, pts,
            surface.coeffs[k], ids,
        )
        if pointwise_policy:
            jstar = _stay_biased_argmax(cand - cost[mode].T, mode)[1]
        else:
            jstar = policy.choice[k][mode, ids]
        total -= cost[mode, jstar]
        total += grid.delta * fbars[jstar, rows]
        switches += jstar != mode
        mode = jstar
    return total, switches


def single_mode_setup(kappa, n_steps=16, M=200):
    model, _ = make_benchmark(n_steps=n_steps)
    modes = ModeSet(
        payoffs=(as_payoff({"name": "affine", "a": 0.0, "b": kappa}),),
        costs=[[0.0]], nu=0.001,
    )
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 8)
    domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=300, seed=31)
    ensemble = build_ensemble(
        model, grid, schedule, domain, M, NoiseSource("gaussian"), seed=32
    )
    basis = HypercubeBasis(domain, (5, 5))
    return model, modes, grid, schedule, rule, ensemble, basis


class TestSingleMode:
    def test_constant_payoff_value_is_remaining_time(self):
        kappa = 2.5
        model, modes, grid, schedule, rule, ensemble, basis = single_mode_setup(kappa)
        surface, policy = backward_induction(
            ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
        )
        for k in range(grid.n_steps + 1):
            expected = kappa * (grid.T - grid.times[k])
            assert np.allclose(surface.values[k, 0, :], expected, rtol=1e-12, atol=1e-12)
        origin = value_at_origin(surface, model, modes, schedule, rule)
        assert origin.shape == (1,)
        assert origin[0] == pytest.approx(kappa * grid.T, rel=1e-12)

    def test_single_mode_never_switches(self):
        model, modes, grid, schedule, rule, ensemble, basis = single_mode_setup(1.0)
        surface, policy = backward_induction(
            ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
        )
        assert np.all(policy.choice == 0)
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule,
            start_mode=0, M=100, seed=7,
        )
        assert ev.mean_switches == 0.0


@pytest.fixture(scope="module")
def zero_setup():
    model, _ = make_benchmark(n_steps=12)
    modes = ModeSet(
        payoffs=(as_payoff("zero"), as_payoff("zero"), as_payoff("zero")),
        costs=[[0.0, 0.01, 0.01], [0.01, 0.0, 0.01], [0.01, 0.01, 0.0]],
        nu=0.01,
    )
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 8)
    domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=300, seed=41)
    ensemble = build_ensemble(
        model, grid, schedule, domain, 300, NoiseSource("gaussian"), seed=42
    )
    basis = HypercubeBasis(domain, (5, 5))
    surface, policy = backward_induction(
        ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
    )
    return model, modes, schedule, rule, surface, policy


class TestZeroPayoffs:
    def test_values_are_exactly_zero(self, zero_setup):
        _, _, _, _, surface, _ = zero_setup
        assert np.all(surface.values == 0.0)

    def test_policy_stays_everywhere(self, zero_setup):
        _, _, _, _, _, policy = zero_setup
        n_steps, d, R = policy.choice.shape
        for i in range(d):
            assert np.all(policy.choice[:, i, :] == i)

    def test_replay_is_exactly_zero(self, zero_setup):
        model, modes, schedule, rule, surface, policy = zero_setup
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule,
            start_mode=1, M=200, seed=8,
        )
        assert ev.mean == 0.0
        assert ev.stderr == 0.0
        assert ev.mean_switches == 0.0


class TestTwoModeInvariants:
    def test_value_surface_shapes(self, solved_benchmark):
        model, modes, _, _, ensemble, basis, surface, policy = solved_benchmark
        N = model.grid.n_steps
        assert surface.values.shape == (N + 1, modes.d, ensemble.M)
        assert policy.choice.shape == (N, modes.d, basis.R)
        assert np.all(surface.values[N] == 0.0)

    def test_pairwise_switching_inequality(self, solved_benchmark):
        # v_i >= v_j - c(i, j) pointwise: switching to j and following its
        # optimal continuation is one admissible candidate for mode i.
        model, modes, _, _, _, _, surface, _ = solved_benchmark
        cost = modes.costs
        for k in range(model.grid.n_steps + 1):
            for i in range(modes.d):
                for j in range(modes.d):
                    lhs = surface.values[k, i, :]
                    rhs = surface.values[k, j, :] - cost[i, j]
                    assert np.all(lhs >= rhs - 1e-12)

    def test_mode_values_differ_by_at_most_the_switching_costs(self, solved_benchmark):
        # The pairwise inequality pins v1 - v0 into [-c(1,0), c(0,1)].
        _, modes, _, _, _, _, surface, _ = solved_benchmark
        gap = surface.values[0, 1, :] - surface.values[0, 0, :]
        assert np.all(gap <= 0.01 + 1e-12)
        assert np.all(gap >= -0.001 - 1e-12)

    def test_backward_induction_is_deterministic(self, solved_benchmark):
        _, modes, schedule, rule, ensemble, basis, surface, policy = solved_benchmark
        surface2, policy2 = backward_induction(
            ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
        )
        assert np.array_equal(surface.values, surface2.values)
        assert np.array_equal(policy.choice, policy2.choice)

    def test_value_at_origin_matches_initial_column(self, solved_benchmark):
        # Every training path starts at the exact origin, so the re-evaluated
        # origin value must agree with the k = 0 surface column.
        model, modes, schedule, rule, _, _, surface, _ = solved_benchmark
        origin = value_at_origin(surface, model, modes, schedule, rule)
        assert origin.shape == (modes.d,)
        for i in range(modes.d):
            assert origin[i] == pytest.approx(surface.values[0, i, 0], rel=1e-12, abs=1e-12)
            assert np.allclose(surface.values[0, i, :], origin[i], rtol=1e-12, atol=1e-12)


def test_cell_ids_must_cover_every_path_and_time(solved_benchmark):
    _, modes, schedule, rule, ensemble, basis, _, _ = solved_benchmark
    ids = memberships(ensemble, basis)
    with pytest.raises(ValueError, match="cell_ids"):
        backward_induction(ensemble, basis, ids[:-1], modes, schedule, rule)


@pytest.mark.parametrize("k", (0, 9, 20), ids=("first-step", "mid-step", "last-step"))
@pytest.mark.parametrize("bad", ("R", -1))
def test_cell_ids_out_of_range_are_an_indexing_error(solved_benchmark, k, bad):
    # The id range is checked once for the whole table, including the row
    # of the last grid time, which no regression step reads.
    _, modes, schedule, rule, ensemble, basis, _, _ = solved_benchmark
    ids = memberships(ensemble, basis).copy()
    ids[k, 17] = basis.R if bad == "R" else bad
    with pytest.raises(IndexingError, match=rf"outside \[0, {basis.R}\)"):
        backward_induction(ensemble, basis, ids, modes, schedule, rule)


class TestTieBreaking:
    def test_all_equal_candidates_keep_the_current_mode(self):
        # Zero payoffs with zero switching costs make every action value
        # equal; the tie must resolve to staying put.
        model, _ = make_benchmark(n_steps=6)
        modes = ModeSet(
            payoffs=(as_payoff("zero"), as_payoff("zero"), as_payoff("zero")),
            costs=np.zeros((3, 3)), nu=0.001,
        )
        grid = model.grid
        schedule = solve_riccati(model, grid)
        rule = build_quadrature(1, 4)
        domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=200, seed=51)
        ensemble = build_ensemble(
            model, grid, schedule, domain, 100, NoiseSource("gaussian"), seed=52
        )
        basis = HypercubeBasis(domain, (4, 4))
        _, policy = backward_induction(
            ensemble, basis, memberships(ensemble, basis), modes, schedule, rule
        )
        for i in range(3):
            assert np.all(policy.choice[:, i, :] == i)


    def test_three_mode_tie_rule(self):
        # Columns: the current mode tied for the max; two non-current modes
        # tied (the smaller index wins, in either order); the current mode
        # tied with a smaller index; a unique max.
        values = np.array([
            [1.0, 0.0, 5.0, 5.0, 1.0],
            [2.0, 5.0, 1.0, 5.0, 3.0],
            [2.0, 5.0, 5.0, 0.0, 2.0],
        ])
        best, choice = _stay_biased_argmax(values, np.array([2, 0, 1, 1, 0]))
        assert best.tolist() == [2.0, 5.0, 5.0, 5.0, 3.0]
        assert choice.tolist() == [2, 1, 0, 1, 1]


def reference_choice(action_values, current):
    """The tie rule written with argmax over the tie mask."""
    best = action_values.max(axis=0)
    smallest = np.argmax(action_values == best[None, :], axis=0)
    cur_vals = action_values[current, np.arange(action_values.shape[1])]
    return np.where(cur_vals == best, current, smallest)


def test_policy_table_takes_each_cell_from_its_first_path():
    # Three modes whose payoffs are x, -x and 0: paths of one cell on either
    # side of x = 0 choose differently.
    model, _ = make_benchmark(n_steps=8)
    modes = ModeSet(
        payoffs=(
            as_payoff("zero"),
            as_payoff({"name": "affine", "a": 1.0, "b": 0.0}),
            as_payoff({"name": "affine", "a": -1.0, "b": 0.0}),
        ),
        costs=[[0.0, 0.001, 0.001], [0.001, 0.0, 0.001], [0.001, 0.001, 0.0]],
        nu=0.001,
    )
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 4)
    domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=200, seed=61)
    ensemble = build_ensemble(model, grid, schedule, domain, 200, NoiseSource("gaussian"), seed=62)
    basis = HypercubeBasis(domain, (6, 6))
    cell_ids = memberships(ensemble, basis)
    surface, policy = backward_induction(ensemble, basis, cell_ids, modes, schedule, rule)
    M = ensemble.M
    unvisited = first_last_differ = 0
    for k in range(grid.n_steps):
        t = float(grid.times[k])
        ids = cell_ids[k]
        cand, _ = _action_values(
            modes, rule, schedule.sqrt_thetas[k], t, grid.delta, ensemble.state(k),
            surface.coeffs[k], ids,
        )
        cells, first = np.unique(ids, return_index=True)
        last = M - 1 - np.unique(ids[::-1], return_index=True)[1]
        unvisited += basis.R - cells.size
        for i in range(modes.d):
            jstar = reference_choice(cand - modes.costs[i][:, None], np.full(M, i))
            expected = np.full(basis.R, i)
            expected[cells] = jstar[first]
            assert np.array_equal(policy.choice[k, i], expected)
            first_last_differ += np.count_nonzero(jstar[first] != jstar[last])
    # Both kinds of cell occur, so a table that defaulted visited cells or
    # took the last visitor's choice would fail above.
    assert unvisited > 0
    assert first_last_differ > 0


class TestSimulatePolicy:
    def test_deterministic_in_seed(self, solved_benchmark):
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        a = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=300, seed=9
        )
        b = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=300, seed=9
        )
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.mean_switches == b.mean_switches
        c = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=300, seed=10
        )
        assert a.mean != c.mean

    def test_reports_path_count_and_positive_spread(self, solved_benchmark):
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=250, seed=11
        )
        assert ev.n_paths == 250
        assert ev.stderr > 0
        assert np.isfinite(ev.mean)
        assert 0 <= ev.mean_switches

    def test_cell_policy_mode_runs(self, solved_benchmark):
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule,
            start_mode=0, M=150, seed=12, pointwise_policy=False,
        )
        assert np.isfinite(ev.mean)

    @pytest.mark.parametrize("start_mode", (-1, 2), ids=("negative", "d"))
    def test_start_mode_outside_the_modes_is_rejected(self, solved_benchmark, start_mode):
        # A negative mode used to wrap silently: -1 replayed mode 1.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            simulate_policy(
                model, modes, schedule, surface, policy, rule, start_mode=start_mode, M=10, seed=13
            )

    @pytest.mark.parametrize("pointwise_policy", (True, False), ids=("pointwise", "cell-table"))
    def test_streamed_replay_matches_a_replay_over_the_ensemble(
        self, solved_benchmark, pointwise_policy
    ):
        # The replay simulates one step at a time and stores no path; it must
        # give the numbers of a replay over the whole clamped ensemble.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        args = (model, modes, schedule, surface, policy, rule)
        ev = simulate_policy(
            *args, start_mode=1, M=300, seed=14, pointwise_policy=pointwise_policy
        )
        total, switches = replay_over_ensemble(*args, 1, 300, 14, pointwise_policy)
        assert ev.mean == float(total.mean())
        assert ev.stderr == float(total.std(ddof=1) / np.sqrt(300))
        assert ev.mean_switches == float(switches.mean())
        assert ev.mean_switches > 0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "n_steps, m0, step", ((20, 1e300, 5), (2, 1e303, 2)), ids=("mid-replay", "final-step")
    )
    def test_blowing_up_model_raises_simulation_error(self, n_steps, m0, step):
        # The surface is trained on the sane problem on the same grid.  The
        # signal grows by 1 + F * delta a step; with two steps only the last
        # overflows, a step no decision reads.
        sane, modes = make_benchmark(n_steps=n_steps)
        rule, surface, policy = train_surface(sane, modes)
        model, _ = make_benchmark(n_steps=n_steps, m0=m0, F=1000.0)
        schedule = solve_riccati(model, model.grid)
        with pytest.raises(SimulationError) as paths_err:
            simulate_paths(
                model, model.grid, schedule, NoiseSource("gaussian"), seed=15, path_ids=range(50)
            )
        assert f"step {step} " in str(paths_err.value)
        with pytest.raises(SimulationError) as replay_err:
            simulate_policy(
                model, modes, schedule, surface, policy, rule, start_mode=0, M=50, seed=15
            )
        assert str(replay_err.value) == str(paths_err.value)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_replay_memory_holds_no_paths(self):
        # A 20 000-path replay at N = 365 used to store the clamped state and
        # the signal of every path, a peak of about 320 MB; streamed, only
        # the noise draws (about 117 MB) scale with the path count.
        script = """
import json
from switchmc import (HypercubeBasis, NoiseSource, backward_induction, build_ensemble,
                      build_quadrature, calibrate_domain, load_problem, simulate_policy,
                      solve_riccati)
from switchmc.benchmarks import benchmark_problem
from switchmc.regress import memberships
model, modes = load_problem({**benchmark_problem(), "n_steps": 365})
grid = model.grid
schedule, rule = solve_riccati(model, grid), build_quadrature(1, 16)
domain = calibrate_domain(model, grid, schedule, 0.01, pilot_M=200, seed=1)
ensemble = build_ensemble(model, grid, schedule, domain, 200, NoiseSource("gaussian"), seed=2)
basis = HypercubeBasis(domain, (10, 10))
surface, policy = backward_induction(
    ensemble, basis, memberships(ensemble, basis), modes, schedule, rule)
replay = simulate_policy(
    model, modes, schedule, surface, policy, rule, start_mode=0, M=20000, seed=3)
""" + READ_PEAK_MB + """
print(json.dumps({"peak_mb": peak_mb, "n_paths": replay.n_paths}))
"""
        report = run_child(script)
        assert report["n_paths"] == 20000
        assert report["peak_mb"] <= 220.0
