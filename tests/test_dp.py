"""Backward induction, value surfaces, policies, replay."""

from __future__ import annotations

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import READ_PEAK_MB, make_benchmark, pathwise_values, run_child

from switchmc import (
    Domain,
    HypercubeBasis,
    ModeSet,
    PathEnsemble,
    SimulationError,
    as_payoff,
    backward_induction,
    build_ensemble,
    build_quadrature,
    calibrate_domain,
    empirical_coefficients,
    simulate_paths,
    simulate_policy,
    solve_riccati,
    value_at_origin,
)
from switchmc import dp, simulate
from switchmc.benchmarks import benchmark_problem, default_solver_params
from switchmc.cli import RunConfig, run_pipeline
from switchmc.dp import _action_values, _stay_biased_argmax
from switchmc.regress import memberships


@pytest.fixture(scope="module")
def solved_benchmark():
    """A coarse but complete solve of the standard two-mode problem."""
    model, modes = make_benchmark(n_steps=20)
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 16)
    ensemble = build_ensemble(model, grid, schedule, 500, seed=22)
    domain = calibrate_domain(ensemble, 0.01)
    basis = HypercubeBasis(domain, (8, 8))
    surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
    return model, modes, schedule, rule, ensemble, basis, surface, policy


def train_surface(model, modes):
    """Rule, surface and (None) policy of a 200-path solve of ``model``."""
    grid = model.grid
    schedule = solve_riccati(model, grid)
    rule = build_quadrature(1, 16)
    ensemble = build_ensemble(model, grid, schedule, 200, seed=72)
    domain = calibrate_domain(ensemble, 0.01)
    basis = HypercubeBasis(domain, (8, 8))
    surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
    return rule, surface, policy


def replay_over_ensemble(model, modes, schedule, surface, rule, start_mode, M, seed):
    """The policy replay over a stored ensemble: all M paths are simulated
    by ``build_ensemble`` first, then walked with 2-D gathers.
    Returns the per-path rewards and switch counts."""
    grid, basis, cost = surface.grid, surface.basis, modes.costs
    ensemble = build_ensemble(model, grid, schedule, M, seed)
    mode = np.full(M, start_mode, dtype=np.int64)
    total, switches, rows = np.zeros(M), np.zeros(M, dtype=np.int64), np.arange(M)
    for k in range(grid.n_steps):
        pts = ensemble.z_paths[k]
        ids = basis.cell_index(pts)
        cand, fbars = surface.coeffs[k].lambdas[:, ids], np.empty((modes.d, M))
        _action_values(
            modes, rule, schedule.sqrt_thetas[k], float(grid.times[k]), grid.delta, pts, cand, fbars,
        )
        jstar = _stay_biased_argmax(cand - cost[mode].T, mode)
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
    ensemble = build_ensemble(model, grid, schedule, M, seed=32)
    domain = calibrate_domain(ensemble, 0.01)
    basis = HypercubeBasis(domain, (5, 5))
    return model, modes, grid, schedule, rule, ensemble, basis


class TestSingleMode:
    def test_constant_payoff_value_is_remaining_time(self):
        kappa = 2.5
        model, modes, grid, schedule, rule, ensemble, basis = single_mode_setup(kappa)
        surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
        for k in range(grid.n_steps + 1):
            expected = kappa * (grid.T - grid.times[k])
            values = pathwise_values(surface, ensemble, modes, schedule, rule, k)
            assert np.allclose(values[0], expected, rtol=1e-12, atol=1e-12)
        origin = value_at_origin(surface)
        assert origin.shape == (1,)
        assert origin[0] == pytest.approx(kappa * grid.T, rel=1e-12)

    def test_single_mode_never_switches(self):
        model, modes, grid, schedule, rule, ensemble, basis = single_mode_setup(1.0)
        surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule,
            start_mode=0, M=100, seed=7,
        )
        assert ev.mean_switches == 0.0


def linear_one_cell(n_steps=10):
    """One linear mode, free to stay, on a one-cell basis whose box, +-0.05
    on both axes, many paths leave."""
    model, _ = make_benchmark(n_steps=n_steps)
    modes = ModeSet(payoffs=(as_payoff("linear"),), costs=[[0.0]], nu=0.001)
    schedule = solve_riccati(model, model.grid)
    basis = HypercubeBasis(Domain(lows=np.full(2, -0.05), highs=np.full(2, 0.05)), 1)
    return model, modes, schedule, basis, build_quadrature(1, 4)


class TestRewardsAtTheFilterState:
    # A linear payoff's belief average is the conditional mean m, and one
    # cell's continuation is the mean over every path, so both figures are
    # delta sum_{k<N} m_k averaged over paths.  Read at the box edge
    # instead, they were -0.000355 (against -0.012062) and 0.002151
    # (against 0.008765).
    def test_one_cell_induction_value(self):
        model, modes, schedule, basis, rule = linear_one_cell()
        ensemble = build_ensemble(model, model.grid, schedule, 200, 3)
        surface, _ = backward_induction(ensemble, basis, modes, schedule, rule)
        m = simulate_paths(model, model.grid, schedule, 3, range(200))[:-1, :, 0]
        expected = model.grid.delta * m.mean(axis=1).sum()
        assert surface.values[0] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_replay_mean(self):
        model, modes, schedule, basis, rule = linear_one_cell()
        ensemble = build_ensemble(model, model.grid, schedule, 200, 3)
        surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=0, M=300, seed=9
        )
        m = simulate_paths(model, model.grid, schedule, 9, range(300))[:-1, :, 0]
        expected = model.grid.delta * m.sum(axis=0).mean()
        assert ev.mean == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    ensemble = build_ensemble(model, grid, schedule, 300, seed=42)
    domain = calibrate_domain(ensemble, 0.01)
    basis = HypercubeBasis(domain, (5, 5))
    surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
    return model, modes, schedule, rule, surface, policy, ensemble


class TestZeroPayoffs:
    def test_values_are_exactly_zero(self, zero_setup):
        _, modes, schedule, rule, surface, _, ensemble = zero_setup
        assert np.all(surface.values == 0.0)
        for k in range(surface.grid.n_steps + 1):
            assert np.all(pathwise_values(surface, ensemble, modes, schedule, rule, k) == 0.0)

    def test_policy_stays_everywhere(self, zero_setup):
        # Switching only costs, so a replay from any mode never leaves it.
        model, modes, schedule, rule, surface, policy, _ = zero_setup
        for start_mode in range(modes.d):
            ev = simulate_policy(
                model, modes, schedule, surface, policy, rule,
                start_mode=start_mode, M=100, seed=8,
            )
            assert ev.mean_switches == 0.0

    def test_replay_is_exactly_zero(self, zero_setup):
        model, modes, schedule, rule, surface, policy, _ = zero_setup
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule,
            start_mode=1, M=200, seed=8,
        )
        assert ev.mean == 0.0
        assert ev.stderr == 0.0
        assert ev.mean_switches == 0.0


class TestTwoModeInvariants:
    def test_value_surface_shapes(self, solved_benchmark):
        model, modes, schedule, rule, ensemble, basis, surface, _ = solved_benchmark
        N = model.grid.n_steps
        assert surface.values.shape == (modes.d,)
        assert surface.M == ensemble.M
        assert len(surface.coeffs) == N
        assert all(level.lambdas.shape == (modes.d, basis.R) for level in surface.coeffs)
        # The last level regresses the zero terminal values.
        assert np.all(surface.coeffs[N - 1].lambdas == 0.0)
        values = pathwise_values(surface, ensemble, modes, schedule, rule, N - 1)
        assert values.shape == (modes.d, ensemble.M)

    def test_pairwise_switching_inequality(self, solved_benchmark):
        # v_i >= v_j - c(i, j) pointwise: switching to j and following its
        # optimal continuation is one admissible candidate for mode i.
        model, modes, schedule, rule, ensemble, _, surface, _ = solved_benchmark
        cost = modes.costs
        for k in range(model.grid.n_steps + 1):
            values = pathwise_values(surface, ensemble, modes, schedule, rule, k)
            for i in range(modes.d):
                for j in range(modes.d):
                    lhs = values[i]
                    rhs = values[j] - cost[i, j]
                    assert np.all(lhs >= rhs - 1e-12)

    def test_mode_values_differ_by_at_most_the_switching_costs(self, solved_benchmark):
        # The pairwise inequality pins v1 - v0 into [-c(1,0), c(0,1)].
        _, modes, schedule, rule, ensemble, _, surface, _ = solved_benchmark
        values = pathwise_values(surface, ensemble, modes, schedule, rule, 0)
        gap = values[1] - values[0]
        assert np.all(gap <= 0.01 + 1e-12)
        assert np.all(gap >= -0.001 - 1e-12)

    def test_backward_induction_is_deterministic(self, solved_benchmark):
        model, modes, schedule, rule, ensemble, basis, surface, policy = solved_benchmark
        surface2, policy2 = backward_induction(ensemble, basis, modes, schedule, rule)
        assert np.array_equal(surface.values, surface2.values)
        for level, level2 in zip(surface.coeffs, surface2.coeffs, strict=True):
            assert np.array_equal(level.lambdas, level2.lambdas)
            assert np.array_equal(level.counts, level2.counts)
        # Decisions are re-made from the surface, so the replays agree too.
        replays = [
            simulate_policy(model, modes, schedule, s, p, rule, start_mode=1, M=100, seed=9)
            for s, p in ((surface, policy), (surface2, policy2))
        ]
        assert replays[0] == replays[1]

    def test_value_at_origin_matches_initial_column(self, solved_benchmark):
        # Every training path starts at the exact origin, so the time-zero
        # recursion formula applied at the origin itself must give the stored
        # value, and every path's k = 0 column, bit for bit.
        model, modes, schedule, rule, ensemble, basis, surface, _ = solved_benchmark
        origin_point = np.concatenate([model.m0, model.y0])[None, :]
        assert np.all((basis.domain.lows <= origin_point) & (origin_point <= basis.domain.highs))
        cand = surface.coeffs[0].lambdas[:, basis.cell_index(origin_point)]
        _action_values(modes, rule, schedule.sqrt_thetas[0], 0.0, surface.grid.delta, origin_point, cand)
        expected = (cand[:, 0] - modes.costs).max(axis=1)
        origin = value_at_origin(surface)
        assert origin.shape == (modes.d,)
        assert np.array_equal(origin, expected)
        values = pathwise_values(surface, ensemble, modes, schedule, rule, 0)
        assert np.array_equal(values, np.repeat(expected[:, None], ensemble.M, axis=1))
        origin[:] = np.nan  # a copy: the surface keeps its values
        assert np.array_equal(surface.values, expected)


@pytest.mark.parametrize("schedule_steps, grid_steps", ((20, 10), (10, 20)))
def test_induction_refuses_the_schedule_of_another_grid(schedule_steps, grid_steps):
    # A longer schedule used to be read on the wrong times without a word,
    # and a shorter one ended in a bare IndexError.
    model, modes = make_benchmark(n_steps=grid_steps)
    other, _ = make_benchmark(n_steps=schedule_steps)
    domain = Domain(lows=np.array([-1.0, -1.0]), highs=np.array([1.0, 1.0]))
    ensemble = PathEnsemble(model.grid, np.zeros((grid_steps + 1, 5, 2)), n1=1)
    with pytest.raises(
        ValueError, match=f"^covariance schedule has {schedule_steps} steps but grid has {grid_steps}$"
    ):
        backward_induction(
            ensemble, HypercubeBasis(domain, (4, 4)), modes, solve_riccati(other, other.grid),
            build_quadrature(1, 4),
        )


def test_induction_keeps_two_value_levels():
    # At bench1d size (N = 730, M = 5 000) a per-path value history of all
    # N + 1 levels is 58 MB, and with it the induction's allocation peak was
    # 87 MB.  Two (d, M) levels leave the 14.6 MB int32 cell-id table (29 MB
    # as int64, a 31.6 MB peak) and per-step temporaries: about 17.6 MB.
    script = """
import json, tracemalloc
from switchmc import (HypercubeBasis, backward_induction, build_ensemble,
                      build_quadrature, calibrate_domain, load_problem, solve_riccati)
from switchmc.benchmarks import benchmark_problem
model, modes = load_problem({**benchmark_problem(), "n_steps": 730})
grid = model.grid
schedule, rule = solve_riccati(model, grid), build_quadrature(1, 16)
ensemble = build_ensemble(model, grid, schedule, 5000, seed=2)
domain = calibrate_domain(ensemble, 0.01)
basis = HypercubeBasis(domain, (10, 10))
tracemalloc.start()
surface, _ = backward_induction(ensemble, basis, modes, schedule, rule)
peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
print(json.dumps({"peak_mb": peak_mb, "M": surface.M}))
"""
    report = run_child(script)
    assert report["M"] == 5000
    assert report["peak_mb"] <= 25.0


def test_induction_levels_are_the_public_cell_means():
    # The induction writes each level's cell means straight into the
    # surface's blocks; rebuilt from the surface, every level is
    # empirical_coefficients of the values one step later, bit for bit.
    model, modes = make_benchmark(n_steps=20)
    grid = model.grid
    schedule, rule = solve_riccati(model, grid), build_quadrature(1, 16)
    ensemble = build_ensemble(model, grid, schedule, 300, seed=5)
    basis = HypercubeBasis(calibrate_domain(ensemble, 0.01), (6, 6))
    surface, _ = backward_induction(ensemble, basis, modes, schedule, rule)
    ids = memberships(ensemble, basis)
    assert modes.d == 2
    for k in range(grid.n_steps):
        above = pathwise_values(surface, ensemble, modes, schedule, rule, k + 1)
        level = empirical_coefficients(above, ids[k], basis.R)
        assert surface.coeffs[k].lambdas.tobytes() == level.lambdas.tobytes()
        assert surface.coeffs[k].counts.tobytes() == level.counts.tobytes()


def test_surface_levels_share_one_block(solved_benchmark):
    # Each level's coefficients are views of two arrays, so a surface kept
    # through a replay holds two allocations, not 2N strewn over the heap.
    surface = solved_benchmark[6]
    for name in ("lambdas", "counts"):
        block = getattr(surface.coeffs[0], name).base
        assert block is not None and all(getattr(c, name).base is block for c in surface.coeffs)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_solve_memory_per_path():
    # A bench1d solve (N = 730) stores 731 * 2 floats of filter state (11.4
    # KiB) and 731 int32 cell ids (2.9 KiB) a path, 14.3 KiB in all; its 730
    # innovation draws a path are drawn a step at a time into one buffer of
    # one draw a path, so they take no room of their own.  Three fresh
    # pairs of runs peaked at 115 944-116 436 and 332 288-332 392 KiB and
    # grew by 14.40-14.43 KiB a path from M = 5 000 to M = 20 000, as when
    # the draws went into the observation slots of the paths (14.40-14.41
    # in runs alternated with these; 14.45-14.46 in a 16 MB buffer of their
    # own).  With every draw held in a buffer at once and int64 ids, the
    # peak grew by 22.8 KiB a path.
    script = """
import contextlib, io, json, sys
from switchmc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["solve", "--seed", "1", "--n-steps", "730", "--threads", "1", "--M", sys.argv[1]])
""" + READ_PEAK_MB + """
print(json.dumps({"code": code, "peak_kib": peak_mb * 1024}))
"""
    peaks = {}
    for M in (5000, 20000):
        report = run_child(script, str(M))
        assert report["code"] == 0
        peaks[M] = report["peak_kib"]
    assert (peaks[20000] - peaks[5000]) / 15000 <= 15.0


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
        ensemble = build_ensemble(model, grid, schedule, 100, seed=52)
        domain = calibrate_domain(ensemble, 0.01)
        basis = HypercubeBasis(domain, (4, 4))
        surface, policy = backward_induction(ensemble, basis, modes, schedule, rule)
        for start_mode in range(3):
            ev = simulate_policy(
                model, modes, schedule, surface, policy, rule,
                start_mode=start_mode, M=100, seed=53,
            )
            assert ev.mean_switches == 0.0


    def test_three_mode_tie_rule(self):
        # Columns: the current mode tied for the max; two non-current modes
        # tied (the smaller index wins, in either order); the current mode
        # tied with a smaller index; a unique max.
        values = np.array([
            [1.0, 0.0, 5.0, 5.0, 1.0],
            [2.0, 5.0, 1.0, 5.0, 3.0],
            [2.0, 5.0, 5.0, 0.0, 2.0],
        ])
        choice = _stay_biased_argmax(values, np.array([2, 0, 1, 1, 0]))
        assert choice.tolist() == [2, 1, 0, 1, 1]


    @pytest.mark.parametrize("d", (2, 3, 5))
    def test_mode_loop_matches_the_mask_argmax(self, d):
        # The smallest maximiser is found a mode at a time; it must be the
        # first True of the (d, P) equality mask.  Values drawn from a few
        # levels force ties of every pattern, and -0.0 ties with 0.0; +inf
        # and -inf tie with themselves, and a column holding a NaN has a NaN
        # max that no mode equals, so it takes mode 0.
        rng = np.random.default_rng(d)
        levels = [-0.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]
        values = rng.choice(levels, size=(d, 4000), p=[0.24, 0.24, 0.2, 0.2, 0.05, 0.05, 0.02])
        assert np.isnan(values.max(axis=0)).any() and np.isinf(values.max(axis=0)).any()
        current = rng.integers(0, d, size=4000)
        best = values.max(axis=0)
        smallest = (values == best).argmax(axis=0)
        expected = np.where(values[current, np.arange(4000)] == best, current, smallest)
        choice = _stay_biased_argmax(values, current)
        assert choice.dtype == expected.dtype and np.array_equal(choice, expected)


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

    def test_reports_a_positive_spread(self, solved_benchmark):
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=250, seed=11
        )
        assert ev.stderr > 0
        assert np.isfinite(ev.mean)
        assert 0 <= ev.mean_switches

    @pytest.mark.parametrize("start_mode", (-1, 2), ids=("negative", "d"))
    def test_start_mode_outside_the_modes_is_rejected(self, solved_benchmark, start_mode):
        # A negative mode used to wrap silently: -1 replayed mode 1.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            simulate_policy(
                model, modes, schedule, surface, policy, rule, start_mode=start_mode, M=10, seed=13
            )

    @pytest.mark.parametrize("M", (0, -3))
    def test_path_count_below_one_is_rejected(self, solved_benchmark, M):
        # M = 0 used to give a NaN mean with two RuntimeWarnings, and M = -3
        # numpy's "negative dimensions are not allowed".
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^M must be >= 1, got {M}$"):
                simulate_policy(
                    model, modes, schedule, surface, policy, rule, start_mode=0, M=M, seed=13
                )

    def test_streamed_replay_matches_a_replay_over_the_ensemble(self, solved_benchmark):
        # The replay simulates one step at a time and stores no path; it must
        # give the numbers of a replay over the whole ensemble.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=300, seed=14
        )
        total, switches = replay_over_ensemble(model, modes, schedule, surface, rule, 1, 300, 14)
        assert ev.mean == float(total.mean())
        assert ev.stderr == float(total.std(ddof=1) / np.sqrt(300))
        assert ev.mean_switches == float(switches.mean())
        assert ev.mean_switches > 0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "n_steps, m0, F, step", ((20, 1e306, 20.0, 6), (2, 5e307, 2.0, 2)),
        ids=("mid-replay", "final-step"),
    )
    def test_blowing_up_model_raises_simulation_error(self, n_steps, m0, F, step):
        # The surface is trained on the sane problem on the same grid.  The
        # conditional mean grows by exp(F delta) = e a step (the innovation
        # adds next to nothing), so 1e306 e^6 is the first to overflow; with
        # two steps only the last overflows, a step no decision reads.
        sane, modes = make_benchmark(n_steps=n_steps)
        rule, surface, policy = train_surface(sane, modes)
        model, _ = make_benchmark(n_steps=n_steps, m0=m0, F=F)
        schedule = solve_riccati(model, model.grid)
        with pytest.raises(SimulationError) as paths_err:
            simulate_paths(model, model.grid, schedule, seed=15, path_ids=range(50))
        assert f"step {step} " in str(paths_err.value)
        with pytest.raises(SimulationError) as replay_err:
            simulate_policy(
                model, modes, schedule, surface, policy, rule, start_mode=0, M=50, seed=15
            )
        assert str(replay_err.value) == str(paths_err.value)

    def test_replay_is_the_same_across_chunk_seams(self, solved_benchmark, monkeypatch):
        # 300 replay paths in blocks of 64 ids, the last one ragged, stepped
        # at once, against the replay over the ensemble of those paths.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        monkeypatch.setattr(simulate, "_PATH_BLOCK", 64)
        ev = simulate_policy(
            model, modes, schedule, surface, policy, rule, start_mode=1, M=300, seed=14
        )
        total, switches = replay_over_ensemble(model, modes, schedule, surface, rule, 1, 300, 14)
        assert (ev.mean, ev.mean_switches) == (float(total.mean()), float(switches.mean()))

    def test_non_finite_step_is_the_first_failing_chunks(self, solved_benchmark, monkeypatch):
        # The replay, like simulate_paths, steps every path at once, so both
        # name the earliest failing step over all paths, whether paths 0 and
        # 64 share a block of draws or not.  Path 0's innovation is infinite
        # at step index 8 and path 64's at 3, and an innovation reaches m
        # and y in the step it drives.
        # Chunks of two steps put step index 3 in the first chunk the
        # helper thread draws; no helper outlives either error.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        draws = simulate._step_draws
        monkeypatch.setattr(simulate, "_CHUNK", 2 * 65)
        threads = threading.active_count()

        def poisoned(seed, path_ids, n_steps, n2):
            rows = {pid: row for row, pid in enumerate(path_ids)}
            for k, buf in enumerate(draws(seed, path_ids, n_steps, n2)):
                for pid, bad in ((0, 8), (64, 3)):
                    if k == bad and pid in rows:
                        buf[rows[pid]] = np.inf
                yield buf

        monkeypatch.setattr(simulate, "_step_draws", poisoned)
        runs = (
            lambda: simulate_paths(model, model.grid, schedule, seed=0, path_ids=range(65)),
            lambda: simulate_policy(
                model, modes, schedule, surface, policy, rule, start_mode=0, M=65, seed=0
            ),
        )
        for block in (simulate._PATH_BLOCK, 64):
            monkeypatch.setattr(simulate, "_PATH_BLOCK", block)
            for run in runs:
                with pytest.raises(SimulationError) as err:
                    run()
                assert str(err.value).startswith("non-finite path value at step 4 (")
                assert threading.active_count() == threads

    def test_replay_allocates_a_few_numbers_a_path(self):
        # At N = 365 the 5 000-path replay drew all its innovations before
        # its first step, into a buffer of 14.6 MB, and peaked at 14.7 MiB
        # under tracemalloc.  Drawn a step at a time, it holds each path's
        # state, totals and action values for one step, and peaked at
        # 1.0 MiB; with two chunks of draws ahead (0.5 MiB) and contiguous
        # work arrays it peaks at 1.6 MiB.  A 64-path replay first imports
        # what the first replay imports.
        model, modes = make_benchmark(n_steps=365)
        rule, surface, policy = train_surface(model, modes)
        schedule = solve_riccati(model, model.grid)
        args = (model, modes, schedule, surface, policy, rule)
        simulate_policy(*args, start_mode=0, M=64, seed=3)
        tracemalloc.start()
        try:
            simulate_policy(*args, start_mode=0, M=5000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_replay_memory_holds_no_paths(self):
        # A 20 000-path replay at N = 365 used to store the clamped state and
        # the signal of every path, a peak of about 320 MB.  Streamed, it
        # peaked at 157 MB with every path's noise drawn at once (about
        # 117 MB), and at 56 MB with it drawn one chunk of paths at a time
        # into a 16 MB buffer.  Drawn a step at a time, no stored array
        # grows with the path count by more than a few numbers a path, and
        # it peaks near 46 MB (45.7 MB, against 55.7 MB chunked, in one
        # fresh pair of runs).
        script = """
import json
from switchmc import (HypercubeBasis, backward_induction, build_ensemble,
                      build_quadrature, calibrate_domain, load_problem, simulate_policy,
                      solve_riccati)
from switchmc.benchmarks import benchmark_problem
model, modes = load_problem({**benchmark_problem(), "n_steps": 365})
grid = model.grid
schedule, rule = solve_riccati(model, grid), build_quadrature(1, 16)
ensemble = build_ensemble(model, grid, schedule, 200, seed=2)
domain = calibrate_domain(ensemble, 0.01)
basis = HypercubeBasis(domain, (10, 10))
surface, policy = backward_induction(
    ensemble, basis, modes, schedule, rule)
replay = simulate_policy(
    model, modes, schedule, surface, policy, rule, start_mode=0, M=20000, seed=3)
""" + READ_PEAK_MB + """
print(json.dumps({"peak_mb": peak_mb}))
"""
        report = run_child(script)
        assert report["peak_mb"] <= 100.0


def serial_step_draws(seed, path_ids, n_steps, n2):
    """The reference for ``simulate._step_draws``: the same streams drawn a
    step at a time in the caller's thread, into one (M, n2) buffer."""
    ids = np.array([int(p) % 2 ** 64 for p in path_ids], dtype=np.uint64)
    blocks, positions = np.divmod(ids, np.uint64(simulate._PATH_BLOCK))
    buf = np.empty((len(ids), n2))
    bitgen = np.random.Philox(key=np.array([int(seed) % 2 ** 64, 0], dtype=np.uint64))
    gen, state = np.random.Generator(bitgen), bitgen.state
    for k in range(n_steps):
        state["state"]["key"][1] = k
        for block in np.unique(blocks):
            rows = np.flatnonzero(blocks == block)
            state["state"]["counter"][3] = block
            bitgen.state = state
            buf[rows] = gen.standard_normal((int(positions[rows].max()) + 1, n2))[positions[rows]]
        yield buf


class TestDrawAhead:
    """Each simulation draws its innovations a chunk of steps ahead on one
    helper thread (``simulate._step_draws``)."""

    def test_chunk_sizes_keep_the_serial_bytes(self, solved_benchmark, monkeypatch):
        # 300 paths a step over 20 steps, in blocks of 64 ids: chunks below
        # one step, of one step, of three (which do not divide 20), of every
        # step and of the default size give the serial reference's bytes,
        # paths and replay, also with the threads switched every microsecond.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        monkeypatch.setattr(simulate, "_PATH_BLOCK", 64)

        def run():
            z = simulate_paths(model, model.grid, schedule, seed=9, path_ids=range(5, 305))
            ev = simulate_policy(model, modes, schedule, surface, policy, rule, start_mode=1, M=300, seed=9)
            return z.tobytes(), np.array([ev.mean, ev.stderr, ev.mean_switches]).tobytes()

        with monkeypatch.context() as serial:
            serial.setattr(simulate, "_step_draws", serial_step_draws)
            expected = run()
        interval = sys.getswitchinterval()
        try:
            for switch in (interval, 1e-6):
                sys.setswitchinterval(switch)
                for chunk in (1, 300, 3 * 300, 20 * 300, simulate._CHUNK):
                    monkeypatch.setattr(simulate, "_CHUNK", chunk)
                    assert run() == expected
        finally:
            sys.setswitchinterval(interval)

    def test_an_error_in_the_helper_reaches_the_caller(self, monkeypatch):
        # A stream that fails off the caller's thread: the caller takes the
        # first chunk, drawn inline, then gets the helper's error with its
        # type, from the generator and through simulate_paths.
        caller, philox = threading.get_ident(), np.random.Philox

        class HelperFails(philox):
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                if threading.get_ident() != caller:
                    raise KeyError("drawn off the caller's thread")
                philox.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", HelperFails)
        monkeypatch.setattr(simulate, "_CHUNK", 2 * 10)
        threads = threading.active_count()
        taken = []
        with pytest.raises(KeyError, match="off the caller's thread"):
            for buf in simulate._step_draws(3, range(10), 7, 1):
                taken.append(buf.copy())
        assert len(taken) == 2
        model, _ = make_benchmark(n_steps=7)
        schedule = solve_riccati(model, model.grid)
        with pytest.raises(KeyError):
            simulate_paths(model, model.grid, schedule, seed=3, path_ids=range(10))
        assert threading.active_count() == threads

    def test_closing_the_draws_early_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", 2 * 10)
        threads = threading.active_count()
        draws = simulate._step_draws(3, range(10), 50, 1)
        for _ in range(3):
            next(draws)
        assert threading.active_count() == threads + 1
        draws.close()
        assert threading.active_count() == threads

    def test_a_replay_that_raises_joins_the_helper(self, solved_benchmark, monkeypatch):
        # A decision that fails mid-replay, with the states still open: the
        # error's traceback holds the replay's frame, but not its helper.
        model, modes, schedule, rule, _, _, surface, policy = solved_benchmark
        monkeypatch.setattr(simulate, "_CHUNK", 2 * 300)
        threads, calls = threading.active_count(), []

        def fails_at_step_5(*args):
            calls.append(threading.active_count())
            if len(calls) == 5:
                raise ArithmeticError("step 5")
            _action_values(*args)

        monkeypatch.setattr(dp, "_action_values", fails_at_step_5)
        with pytest.raises(ArithmeticError) as err:
            simulate_policy(model, modes, schedule, surface, policy, rule, start_mode=0, M=300, seed=9)
        assert calls[-1] == threads + 1
        assert threading.active_count() == threads
        assert str(err.value) == "step 5"

    def test_no_helper_outlives_a_solve(self, monkeypatch):
        # The pipeline's pilot and training paths and a replay, each drawn
        # by a helper in chunks of 4 steps.
        monkeypatch.setattr(simulate, "_CHUNK", 4 * 300)
        threads, seen = threading.active_count(), []
        draws = simulate._step_draws

        def counted(*args):
            for buf in draws(*args):
                seen.append(threading.active_count())
                yield buf

        monkeypatch.setattr(simulate, "_step_draws", counted)
        solver = {**default_solver_params(), "M": 300, "n_steps": 20, "cells_per_dim": 4}
        res = run_pipeline(RunConfig(benchmark_problem(), solver), 0)
        simulate_policy(res.model, res.modes, res.schedule, res.surface, None, res.rule,
                        start_mode=0, M=300, seed=res.eval_seed)
        assert max(seen) == threads + 1
        assert threading.active_count() == threads
