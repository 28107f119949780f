"""Path simulation, seeding, domain calibration."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import READ_PEAK_MB, SIGNAL2D, clip_error_reference, make_benchmark, run_child

from switchmc import (
    CovarianceSchedule,
    Domain,
    EvaluationError,
    HypercubeBasis,
    ModeSet,
    PathEnsemble,
    SimulationError,
    as_payoff,
    build_ensemble,
    build_quadrature,
    calibrate_domain,
    derive_seed,
    load_problem,
    payoff_sup_on_domain,
    simulate_paths,
    solve_riccati,
)
from switchmc import simulate
from switchmc.regress import memberships
from switchmc.simulate import _DRAW_BLOCK, _chunked_states, _clip_error, _gaussian_draws


@pytest.fixture(scope="module")
def bench20():
    model, modes = make_benchmark(n_steps=20)
    schedule = solve_riccati(model, model.grid)
    return model, modes, schedule


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert derive_seed(7) != derive_seed(8)

    def test_within_uint64(self):
        s = derive_seed(123456789, 4, 5)
        assert 0 <= s < 2 ** 64


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            Domain(lows=np.array([0.0, 1.0]), highs=np.array([1.0, 1.0]))

    def test_contains(self):
        dom = Domain(lows=np.array([0.0]), highs=np.array([2.0]))
        assert np.all((dom.lows <= 1.0) & (1.0 <= dom.highs))
        assert not np.all((dom.lows <= 2.5) & (2.5 <= dom.highs))


class TestSimulatePaths:
    def test_path_is_a_function_of_seed_and_id_alone(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        z_all = simulate_paths(model, grid, schedule, seed=42, path_ids=range(64))
        z_one = simulate_paths(model, grid, schedule, seed=42, path_ids=[17])
        assert np.array_equal(z_all[:, 17], z_one[:, 0])
        z_sub = simulate_paths(model, grid, schedule, seed=42, path_ids=[17, 3, 99])
        assert np.array_equal(z_sub[:, 0], z_one[:, 0])

    def test_rows_agree_across_draw_block_seams(self, bench20):
        # Gaussian streams are drawn a block of paths at a time; the paths on
        # either side of each block boundary must match one-path calls.
        model, _, schedule = bench20
        grid = model.grid
        ids = range(3, 3 + 2 * _DRAW_BLOCK + 7)
        z_all = simulate_paths(model, grid, schedule, seed=9, path_ids=ids)
        for row in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, 2 * _DRAW_BLOCK - 1, 2 * _DRAW_BLOCK, len(ids) - 1):
            z_one = simulate_paths(model, grid, schedule, seed=9, path_ids=[ids[row]])
            assert np.array_equal(z_all[:, row], z_one[:, 0])

    def test_each_draw_row_is_a_fresh_philox_stream(self, bench20):
        # One generator serves every path by resetting its state; each row
        # must still be the stream a new Philox keyed (seed, path id) draws,
        # on both sides of a block seam and for an id beyond 32 bits.
        model = bench20[0]
        n_steps, seed = 7, 2 ** 40 + 3
        ids = list(range(5, 5 + _DRAW_BLOCK + 2)) + [2 ** 32 + 9, 2 ** 64 - 1]
        n_draws = n_steps * model.n2
        di = _gaussian_draws(seed, ids, np.empty((n_steps, len(ids), model.n2)))
        for row in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, len(ids) - 2, len(ids) - 1):
            key = np.array([seed, ids[row]], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_draws)
            assert np.array_equal(di[:, row].ravel(), expected)

    def test_draws_of_two_observations_are_read_a_step_at_a_time(self):
        # With n2 = 2 a path's stream holds its steps in order, each step's
        # two normals side by side: di[k, ell] is draws 2k and 2k + 1.
        model, _ = make_benchmark(n_steps=5, n2=2, m2=2, G=[[1.0], [0.5]], y0=[0.0, 0.0])
        ids = list(range(3, 3 + _DRAW_BLOCK + 5))
        di = _gaussian_draws(11, ids, np.empty((5, len(ids), 2)))
        for ell in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, len(ids) - 1):
            key = np.array([11, ids[ell]], dtype=np.uint64)
            stream = np.random.Generator(np.random.Philox(key=key)).standard_normal(10)
            assert np.array_equal(di[:, ell], stream.reshape(5, 2))

    def test_draws_fill_the_observation_slots_they_are_given(self):
        # simulate_paths draws step k into the observation slots of z[k + 1],
        # a strided view: those slots hold the streams and no other slot is
        # written.
        model, _ = make_benchmark(n_steps=5, n2=2, m2=2, G=[[1.0], [0.5]], y0=[0.0, 0.0])
        ids = list(range(_DRAW_BLOCK + 5))
        z = np.full((6, len(ids), model.n1 + model.n2), np.nan)
        di = _gaussian_draws(11, ids, z[1:, :, model.n1:])
        assert np.shares_memory(di, z)
        assert np.array_equal(di, _gaussian_draws(11, ids, np.empty((5, len(ids), 2))))
        assert np.isnan(z[0]).all() and np.isnan(z[..., :model.n1]).all()

    def test_different_seeds_differ(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        a = simulate_paths(model, grid, schedule, seed=1, path_ids=range(4))
        b = simulate_paths(model, grid, schedule, seed=2, path_ids=range(4))
        assert not np.array_equal(a[..., :1], b[..., :1])

    def test_initial_conditions(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        z = simulate_paths(model, grid, schedule, seed=3, path_ids=range(8))
        assert np.array_equal(z[0], np.zeros((8, 2)))

    def test_shapes(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        z = simulate_paths(model, grid, schedule, seed=3, path_ids=range(5))
        assert z.shape == (21, 5, 2)

    @pytest.mark.parametrize("problem", ("bench", "signal2d", "two_observations"))
    def test_returns_its_time_major_storage(self, problem):
        # The paths come back as the array they were stepped into: grid
        # time first, so one grid time is one contiguous block.
        if problem == "bench":
            model, _ = make_benchmark(n_steps=6)
        elif problem == "signal2d":
            model, _ = load_problem(dict(SIGNAL2D, n_steps=6))
        else:
            model, _ = make_benchmark(n_steps=6, n2=2, m2=2, G=[[1.0], [0.5]], y0=[0.0, 0.0])
        schedule = solve_riccati(model, model.grid)
        z = simulate_paths(model, model.grid, schedule, seed=3, path_ids=range(130))
        assert z.shape == (7, 130, model.n1 + model.n2)
        assert z.flags.c_contiguous and z.base is None

    def test_terminal_signal_variance_matches_theory(self):
        # The filter's estimate of the signal at T: with F = 0 and G = 1 the
        # mean is m_T = sum_k theta_k dI_k, a sum of independent Gaussian
        # innovation steps, so Var m_T = delta sum_k theta_k^2 = 0.238009
        # exactly for the scheme (1 - tanh 1 = 0.238406 in the limit).
        # Check the sample variance of 100000 paths.
        model, _ = make_benchmark(n_steps=730)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        expected = grid.delta * float(np.sum(schedule.thetas[:-1, 0, 0] ** 2))
        assert expected == pytest.approx(1.0 - math.tanh(1.0), abs=4e-4)
        n_total = 100_000
        chunk = 20_000
        terminal = np.empty(n_total)
        for start in range(0, n_total, chunk):
            ens = build_ensemble(model, grid, schedule, chunk, seed=derive_seed(2026, start))
            terminal[start:start + chunk] = ens.m_paths[-1, :, 0]
        var = float(np.var(terminal))
        # The variance of the sample variance of a Gaussian is 2 var^2 / n.
        stderr = math.sqrt(2.0 / n_total) * expected
        assert abs(var - expected) <= 3 * stderr

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_step_reported(self):
        # F = 4 grows the conditional mean by exp(4 delta) a step.
        model, _ = make_benchmark(n_steps=5, m0=1e307, F=4.0)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        with pytest.raises(SimulationError) as err:
            simulate_paths(model, grid, schedule, seed=0, path_ids=range(2))
        assert "non-finite path value at step" in str(err.value)

    @pytest.mark.parametrize("n_steps, change", (
        (100, {"F": -250.0}), (100, {"F": -1500.0}), (10, {"G": 100.0}),
        (10, {"G": 30.0}), (100, {"F": -150.0}), (10, {"G": 16.0}),
    ), ids=("F-250", "F-1500", "G100", "G30", "F-150", "G16"))
    def test_stiff_grids_step_stably(self, n_steps, change):
        # An explicit Euler step of the signal or of the conditional mean
        # multiplies a mode of eigenvalue mu by 1 + delta mu: 1.5, 14, 9,
        # 1.99, 0.5 and 0.6 here.  The first four grids used to be refused;
        # before that, F = -250, G = 100 and G = 30 solved to v = 5.1e11,
        # 6.6e5 and 8.1.  The innovation step multiplies the mean by
        # exp(F delta), which damps at any delta, and the observation feeds
        # nothing back.
        model, _ = make_benchmark(n_steps=n_steps, **change)
        schedule = solve_riccati(model, model.grid)
        z = simulate_paths(model, model.grid, schedule, seed=1, path_ids=range(300))
        assert np.isfinite(z).all() and np.abs(z[..., 0]).max() < 10.0


def chunk_sizes(model, schedule, n_paths):
    """Path counts of the chunks ``_chunked_states`` cuts n_paths into, in order."""
    slices = [sl for sl, _ in _chunked_states(model, model.grid, schedule, 0, range(n_paths))]
    assert [sl.start for sl in slices] == [0] + [sl.stop for sl in slices[:-1]]
    return [sl.stop - sl.start for sl in slices]


def streamed_paths(model, schedule, seed, path_ids):
    """The states ``_chunked_states`` streams, stacked as ``simulate_paths`` stores them."""
    z = np.empty((model.grid.n_steps + 1, len(path_ids), model.n1 + model.n2))
    for sl, states in _chunked_states(model, model.grid, schedule, seed, path_ids):
        for k, zk in enumerate(states):
            z[k, sl] = zk
    return z


class TestPathChunks:
    def test_chunks_are_whole_draw_blocks_within_the_budget(self, monkeypatch):
        # 2**21 floats hold the draws of 2 872 paths at N = 730 (730 draws a
        # path, one innovation a step) and 5 745 at N = 365, rounded down to
        # whole blocks of 64: 2 816 and 5 696.  The fewest chunks within
        # that share the paths, rounded up to whole blocks.
        model, _ = make_benchmark(n_steps=730)
        schedule = solve_riccati(model, model.grid)
        assert chunk_sizes(model, schedule, 5000) == [2560, 2440]
        half, _ = make_benchmark(n_steps=365)
        assert chunk_sizes(half, solve_riccati(half, half.grid), 12000) == [4032, 4032, 3936]
        signal, _ = load_problem(SIGNAL2D)
        assert chunk_sizes(signal, solve_riccati(signal, signal.grid), 1500) == [1500]
        # One block of paths is the floor, whatever the budget.
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 1)
        assert chunk_sizes(model, schedule, 150) == [64, 64, 22]

    @pytest.mark.parametrize("budget", (1, 20 * 128 + 19), ids=("64-path", "128-path"))
    def test_paths_are_the_same_across_chunk_seams(self, bench20, monkeypatch, budget):
        # The replay streams paths a chunk at a time; at N = 20 a path draws
        # 20 numbers, so 300 paths span several chunks and the last one is
        # ragged.  Each chunk's states are the rows of one simulate_paths call.
        model, _, schedule = bench20
        whole = simulate_paths(model, model.grid, schedule, seed=9, path_ids=range(5, 305))
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", budget)
        assert len(chunk_sizes(model, schedule, 300)) >= 3
        assert np.array_equal(streamed_paths(model, schedule, 9, range(5, 305)), whole)

    def test_ensemble_is_the_same_across_chunk_seams(self, monkeypatch):
        # The ensemble draws into its own observation slots, the replay into
        # a separate buffer a chunk of 64 paths at a time: the two drivers
        # of the one recursion give the same states, with one observation
        # axis or two.
        monkeypatch.setattr(simulate, "_DRAW_BUDGET", 1)
        for change in ({}, dict(n2=2, m2=2, G=[[1.0], [0.5]], y0=[0.0, 0.0])):
            model, _ = make_benchmark(n_steps=20, **change)
            schedule = solve_riccati(model, model.grid)
            ensemble = build_ensemble(model, model.grid, schedule, 300, 4)
            assert np.array_equal(streamed_paths(model, schedule, 4, range(300)), ensemble.z_paths)
            assert ensemble.x_paths is None


class TestPathEnsemble:
    def test_the_paths_are_its_only_large_allocation(self):
        # The innovations are drawn into the ensemble's own observation
        # slots.  At N = 200 and M = 5 000 the paths take 15.3 MiB; drawing
        # them into a buffer of their own, 7.6 MiB for one chunk of every
        # path, peaked at 23.2 MiB.  A one-path run first imports what the
        # first draw imports (about 0.7 MiB of module objects).
        model, _ = make_benchmark(n_steps=200)
        schedule = solve_riccati(model, model.grid)
        build_ensemble(model, model.grid, schedule, 1, seed=1)
        tracemalloc.start()
        try:
            ensemble = build_ensemble(model, model.grid, schedule, 5000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ensemble.z_paths.nbytes + 2 ** 20

    def test_off_box_paths_take_the_cells_of_their_clipped_points(self, bench20):
        # The outer cells extend past the box: the observation 0.5 lies in
        # the top cell of its axis, and the mean -0.3 of path 1 in the bottom.
        model, _, schedule = bench20
        dom = Domain(lows=np.array([-0.001, -0.001]), highs=np.array([0.001, 0.001]))
        z = np.zeros((21, 3, 2))
        z[..., 1] = 0.5
        z[:, 1, 0] = -0.3
        ensemble = PathEnsemble(grid=model.grid, z_paths=z, n1=1)
        basis = HypercubeBasis(dom, 4)
        ids = memberships(ensemble, basis)
        assert np.array_equal(ids, basis.cell_index(np.clip(z, dom.lows, dom.highs)))
        assert np.array_equal(ids, np.tile([2 * 4 + 3, 0 * 4 + 3, 2 * 4 + 3], (21, 1)))

    def test_state_concatenates_mean_and_observation(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        ens = build_ensemble(model, grid, schedule, 6, seed=5)
        st = ens.z_paths[3]
        assert st.shape == (6, 2)
        assert np.array_equal(st[:, 0], ens.m_paths[3, :, 0])
        assert np.array_equal(st[:, 1], ens.y_paths[3, :, 0])

    def test_storage_is_time_major(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        ens = build_ensemble(model, grid, schedule, 6, seed=5)
        assert ens.z_paths.shape == (21, 6, 2)
        assert ens.z_paths.flags.c_contiguous
        for k in (0, 3, 20):
            assert ens.z_paths[k].flags.c_contiguous

    def test_paths_are_read_only_views_of_the_state(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        ens = build_ensemble(model, grid, schedule, 6, seed=5)
        for view in (ens.m_paths, ens.y_paths, ens.z_paths[3]):
            assert np.shares_memory(view, ens.z_paths)
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_build_ensemble_stores_the_simulated_paths(self, bench20):
        # No point is clamped: the ensemble holds the filter states of
        # simulate_paths bit for bit, some well beyond 0.05 of the origin.
        model, _, schedule = bench20
        grid = model.grid
        ens = build_ensemble(model, grid, schedule, 50, seed=6)
        assert np.array_equal(ens.z_paths, simulate_paths(model, grid, schedule, 6, range(50)))
        assert np.abs(ens.z_paths).max() > 0.5


class TestCalibrateDomain:
    def test_clamp_distortion_within_budget_on_fresh_paths(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        epsilon = 0.01
        dom = calibrate_domain(build_ensemble(model, grid, schedule, 500, seed=11), epsilon)
        # Measure the mean clamp distortion on a second, unrelated sample.
        st = simulate_paths(model, grid, schedule, seed=987654, path_ids=range(2000))
        clipped = np.clip(st, dom.lows, dom.highs)
        worst = float(
            np.max(np.mean(np.linalg.norm(st - clipped, axis=2), axis=1))
        )
        assert worst <= epsilon

    def test_degenerate_coordinates_get_positive_width(self):
        model, _ = make_benchmark(n_steps=10, G=0.0)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        dom = calibrate_domain(build_ensemble(model, grid, schedule, 200, seed=1), 0.01)
        # G = 0 freezes the conditional mean at m0 = 0; its axis must still
        # be a nonempty interval.
        assert dom.highs[0] > dom.lows[0]
        origin = np.array([[0.0, 0.0]])
        assert np.all((dom.lows <= origin) & (origin <= dom.highs))

    def test_bad_arguments_rejected(self, bench20):
        model, _, schedule = bench20
        ensemble = build_ensemble(model, model.grid, schedule, 10, seed=1)
        with pytest.raises(ValueError):
            calibrate_domain(ensemble, epsilon=0.0)

    @pytest.mark.parametrize("seed", (1, 4))
    def test_a_vanishing_epsilon_gets_a_box_holding_every_path(self, bench20, seed):
        # The ladder ends at q = 0, whose box holds every training path, so
        # no epsilon is too small.  At seed 4 rounding leaves the highest
        # mean an ulp beyond center + half, and the box is stretched to it.
        model, _, schedule = bench20
        ensemble = build_ensemble(model, model.grid, schedule, 500, seed=seed)
        dom = calibrate_domain(ensemble, 1e-300)
        z = ensemble.z_paths
        assert np.all((dom.lows <= z) & (z <= dom.highs))

    def test_deterministic_in_seed(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        a = calibrate_domain(build_ensemble(model, grid, schedule, 300, seed=4), 0.01)
        b = calibrate_domain(build_ensemble(model, grid, schedule, 300, seed=4), 0.01)
        assert np.array_equal(a.lows, b.lows)
        assert np.array_equal(a.highs, b.highs)


def clip_error(state, domain):
    """``_clip_error`` of the paths ``state`` (N+1, M, dim)."""
    return _clip_error(state, state.min(axis=0), state.max(axis=0), domain)


@pytest.mark.parametrize("problem", ("bench", "signal2d"), ids=("dim2", "dim3"))
def test_clip_error_matches_the_all_axes_formula(problem, bench20, monkeypatch):
    # Only the paths that leave the box are read, a block of grid times at a
    # time; the result is the all-paths formula's bit for bit, with one
    # grid time a block and with several, the last one ragged.
    if problem == "bench":
        model, _, schedule = bench20
    else:
        model, _ = load_problem(dict(SIGNAL2D, n_steps=20))
        schedule = solve_riccati(model, model.grid)
    state = simulate_paths(model, model.grid, schedule, seed=21, path_ids=range(400))
    lo, hi = state.min(axis=(0, 1)), state.max(axis=(0, 1))
    # From a box that clamps most points to one that clamps none; the last
    # two have the lowest or the highest point of each axis on their edge.
    boxes = [
        Domain(lows=lo + shrink * (hi - lo), highs=hi - shrink * (hi - lo) + 1e-9)
        for shrink in (0.05, 0.3, 0.45, 0.5)
    ] + [Domain(lows=lo, highs=hi - 0.3 * (hi - lo)), Domain(lows=lo + 0.3 * (hi - lo), highs=hi)]
    for block in (simulate._CLIP_BLOCK, 1, 2 ** 12):
        monkeypatch.setattr(simulate, "_CLIP_BLOCK", block)
        for dom in boxes:
            expected = clip_error_reference(state, dom.lows, dom.highs)
            assert expected > 0.0
            assert clip_error(state, dom) == expected
        assert clip_error(state, Domain(lows=lo - 1.0, highs=hi + 1.0)) == 0.0
        assert clip_error(state, Domain(lows=lo, highs=hi)) == 0.0


class TestPayoffSup:
    def test_linear_payoff_sup_is_corner_value(self, bench20):
        _, modes, _ = bench20
        model, _ = make_benchmark(n_steps=10)
        grid = model.grid
        # Degenerate covariance: quadrature nodes collapse onto the corner
        # points, so the sup is exactly the largest |m| corner.
        thetas = np.zeros((11, 1, 1))
        schedule = CovarianceSchedule.from_thetas(thetas)
        dom = Domain(lows=np.array([-2.0, -5.0]), highs=np.array([1.5, 5.0]))
        rule = build_quadrature(1, 8)
        sup = payoff_sup_on_domain(modes, dom, schedule, rule, grid)
        assert sup == pytest.approx(2.0, rel=1e-12)
        # A linear payoff averages over any belief to its value at the mean,
        # so dispersion (theta > 0) leaves the sup at the corner value.
        model20, _, schedule20 = bench20
        sup = payoff_sup_on_domain(modes, dom, schedule20, rule, model20.grid)
        assert sup == pytest.approx(2.0, rel=1e-12)

    def test_dispersion_increases_sup(self, bench20):
        # For the convex max(x, 0) - 0.05 Jensen's inequality puts the belief
        # average above the value at the mean: the sup is 1.45, at the corner
        # m = 1.5, at zero covariance and more under the benchmark's beliefs.
        model, _, schedule = bench20
        modes = ModeSet(
            payoffs=(lambda x, y, t: np.maximum(x[..., 0], 0.0) - 0.05,),
            costs=[[0.0]], nu=1.0,
        )
        dom = Domain(lows=np.array([-2.0, -5.0]), highs=np.array([1.5, 5.0]))
        rule = build_quadrature(1, 8)
        point = CovarianceSchedule.from_thetas(np.zeros((21, 1, 1)))
        assert payoff_sup_on_domain(modes, dom, point, rule, model.grid) == 1.45
        assert payoff_sup_on_domain(modes, dom, schedule, rule, model.grid) > 1.45

    @pytest.mark.parametrize("bad", (np.nan, np.inf), ids=("nan", "inf"))
    def test_non_finite_payoff_names_the_mode(self, bench20, bad):
        # The nodes of the belief reach past x = 3 from the box's top edge.
        # A NaN there used to drop out of the max (2.84 here) and an inf
        # became the sup, and so a switch bound that is not strict JSON.
        model, _, schedule = bench20
        modes = ModeSet(
            payoffs=(
                as_payoff("zero"),
                lambda x, y, t: np.where(x[..., 0] > 3.0, bad, x[..., 0]),
            ),
            costs=[[0.0, 0.01], [0.001, 0.0]], nu=0.001,
        )
        dom = Domain(lows=np.array([-1.0, -2.0]), highs=np.array([1.0, 2.0]))
        rule = build_quadrature(1, 8)
        with pytest.raises(EvaluationError, match="^payoff of mode 1 not finite at some quadrature node$"):
            payoff_sup_on_domain(modes, dom, schedule, rule, model.grid)

    def test_refuses_the_schedule_of_another_grid(self, bench20):
        # A 10-step schedule on a 20-step grid used to reuse its last
        # covariance for the later times and return 7.2554.
        model, modes, _ = bench20
        short, _ = make_benchmark(n_steps=10)
        dom = Domain(lows=np.array([-2.0, -5.0]), highs=np.array([1.5, 5.0]))
        with pytest.raises(ValueError, match="^covariance schedule has 10 steps but grid has 20$"):
            payoff_sup_on_domain(
                modes, dom, solve_riccati(short, short.grid), build_quadrature(1, 8), model.grid
            )

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_sup_memory_is_bounded_by_corner_blocks(self):
        # At n1 = 10 the 2 049 corner and center points times 1 024 nodes
        # used to be one array, a peak of about 380 MB; the row blocks of
        # effective_payoff_batch keep it near 80 MB.  The unblocked
        # evaluation runs after the peak is read, and blocked rows average
        # to the same bits.
        script = """
import json
import numpy as np
from switchmc import CovarianceSchedule, Domain, ModeSet, TimeGrid, build_quadrature
from switchmc import filtering, simulate
n1 = 10
modes = ModeSet(payoffs=(lambda x, y, t: np.sin(x).sum(axis=-1) * y[..., 0],), costs=[[0.0]], nu=1.0)
schedule = CovarianceSchedule.from_thetas(np.stack([0.09 * np.eye(n1)] * 2))
domain = Domain(lows=-np.ones(n1 + 1), highs=np.ones(n1 + 1))
rule, grid = build_quadrature(n1, 8), TimeGrid(1.0, 1)
blocked = simulate.payoff_sup_on_domain(modes, domain, schedule, rule, grid)
""" + READ_PEAK_MB + """
filtering._MAX_CHUNK_POINTS = 2 ** 62
whole = simulate.payoff_sup_on_domain(modes, domain, schedule, rule, grid)
print(json.dumps({"peak_mb": peak_mb, "nodes": rule.n_nodes, "equal": blocked == whole}))
"""
        report = run_child(script)
        assert report["nodes"] == 1024
        assert report["equal"]
        assert report["peak_mb"] <= 150.0
