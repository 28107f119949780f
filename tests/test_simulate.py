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
from switchmc.simulate import _PATH_BLOCK, _clip_error, _path_states, _step_draws


def philox_normals(seed, k, block, n):
    """The first n normals of a new Philox keyed (seed, k) from counter (0, 0, 0, block)."""
    key, counter = np.array([seed, k], dtype=np.uint64), np.array([0, 0, 0, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal(n)


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
        # Each step's Gaussian streams are keyed a block of path ids at a
        # time; the paths on either side of each block boundary must match
        # one-path calls.
        model, _, schedule = bench20
        grid = model.grid
        B = _PATH_BLOCK
        ids = range(3, 2 * B + 10)
        z_all = simulate_paths(model, grid, schedule, seed=9, path_ids=ids)
        for pid in (3, B - 1, B, 2 * B - 1, 2 * B, ids[-1]):
            z_one = simulate_paths(model, grid, schedule, seed=9, path_ids=[pid])
            assert np.array_equal(z_all[:, pid - 3], z_one[:, 0])

    def test_each_draw_row_is_a_fresh_philox_stream(self, bench20):
        # One generator serves every block of every step by resetting its
        # state; path ell's draws at step k must still be the normal at
        # position ell % B of the stream a new Philox keyed (seed, k) draws
        # from counter (0, 0, 0, ell // B), on both sides of block seams and
        # for ids beyond 32 bits.
        model = bench20[0]
        n_steps, seed, B = 7, 2 ** 40 + 3, _PATH_BLOCK
        ids = [2 ** 64 - 1, B + 1, B - 1, 2 * B, 2 ** 32 + 9, B, 5]
        draws = [buf.copy() for buf in _step_draws(seed, ids, n_steps, model.n2)]
        for k in range(n_steps):
            for row, pid in enumerate(ids):
                expected = philox_normals(seed, k, pid // B, pid % B + 1)[-1]
                assert draws[k][row, 0] == expected

    def test_draws_of_two_observations_are_read_a_step_at_a_time(self):
        # With n2 = 2 a step's stream holds its paths in order, each path's
        # two normals side by side: path ell's draws at step k are normals
        # 2p and 2p + 1 of stream (seed, k, ell // B), p = ell % B.
        B = _PATH_BLOCK
        ids = list(range(B - 4, B + 3)) + [3 * B + 2]
        draws = [buf.copy() for buf in _step_draws(11, ids, 5, 2)]
        for k in range(5):
            for row, pid in enumerate(ids):
                pos = pid % B
                expected = philox_normals(11, k, pid // B, 2 * pos + 2)[2 * pos:]
                assert np.array_equal(draws[k][row], expected)

    def test_draws_fill_a_ring_of_two_buffers(self, monkeypatch):
        # Steps are drawn L = min(N, _CHUNK // (M n2)) at a time into one of
        # min(2, chunks) fixed C-contiguous (L, M, n2) buffers, the same two
        # whatever N beyond one chunk, and step k's draws are row k % 2L of
        # them: ids from a block's start are drawn straight in, a block's
        # tail beside it and gathered.  One chunk (N = 2 at 3 steps a chunk,
        # every N at the default) takes one buffer of N steps.
        for chunk in (3 * 70 * 2, simulate._CHUNK):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            for start in (0, _PATH_BLOCK - 30):
                ids = range(start, start + 70)
                for n_steps in (2, 7, 20):
                    steps = min(n_steps, chunk // 140)
                    slots = min(2, -(-n_steps // steps))
                    bufs = list(_step_draws(11, ids, n_steps, 2))
                    ring = bufs[0].base
                    assert ring.shape == (slots, steps, 70, 2) and ring.flags.c_contiguous
                    assert all(buf.base is ring and buf.flags.c_contiguous for buf in bufs)
                    rows = [(buf.ctypes.data - ring.ctypes.data) / buf.nbytes for buf in bufs]
                    assert rows == [k % (slots * steps) for k in range(n_steps)]
                    fresh = [buf.copy() for buf in _step_draws(11, ids, n_steps, 2)]
                    assert not np.array_equal(fresh[0], fresh[1])

    def test_draws_are_the_same_in_any_id_set(self):
        # Step k's draws for path ell depend on (seed, k, ell) alone: in any
        # id set, in any order, with repeats, around the block positions
        # B - 1, B and 2B and for ids 2**32 + 9 and 2**64 - 1.
        B = _PATH_BLOCK
        probes = [B - 1, B, 2 * B, 2 ** 32 + 9, 2 ** 64 - 1]
        alone = {pid: np.stack([b.copy() for b in _step_draws(7, [pid], 6, 2)]) for pid in probes}
        for ids in (range(2 * B + 1), probes[::-1] + [B, 3], [3] + list(range(B - 5, B + 5))):
            draws = np.stack([b.copy() for b in _step_draws(7, ids, 6, 2)])
            for row, pid in enumerate(ids):
                if pid in alone:
                    assert np.array_equal(draws[:, row], alone[pid][:, 0])

    def test_range_ids_draw_as_the_same_ids_listed(self):
        # A range's ids are built without a loop over them, wrapping mod
        # 2**64 as listed ids do; its draws must be the listed ids', bit for
        # bit: from above 0 across a block seam, with a step up or down,
        # across 2**64, and empty.
        B = _PATH_BLOCK
        for ids in (range(B - 37, B + 50), range(5, 3 * B, 97), range(2 * B + 3, B - 9, -5),
                    range(2 ** 64 - 3, 2 ** 64 + 2), range(B, B)):
            by_range = [b.copy() for b in _step_draws(7, ids, 4, 2)]
            by_list = [b.copy() for b in _step_draws(7, list(ids), 4, 2)]
            assert len(by_range) == len(by_list) == 4
            assert all(a.tobytes() == b.tobytes() for a, b in zip(by_range, by_list))
            assert by_range[0].shape == (len(ids), 2)

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


def streamed_paths(model, schedule, seed, path_ids):
    """The states ``_path_states`` steps, which the replay acts on, stacked as
    ``simulate_paths`` stores them."""
    ring = np.empty((2, len(path_ids), model.n1 + model.n2))
    return np.stack([zk.copy() for zk in _path_states(model, model.grid, schedule, seed, path_ids, ring)])


class TestPathChunks:
    @pytest.mark.parametrize("block", (64, 128), ids=("64-path", "128-path"))
    def test_paths_are_the_same_across_chunk_seams(self, bench20, monkeypatch, block):
        # The replay steps all its paths at once, each step's draws keyed a
        # block of path ids at a time.  With blocks of 64 or 128 paths, 300
        # paths from id 5 start mid-block and span several blocks; the
        # states stepped are the rows of simulate_paths calls on any split
        # of the ids, one observation axis.
        model, _, schedule = bench20
        monkeypatch.setattr(simulate, "_PATH_BLOCK", block)
        ids = range(5, 305)
        pieces = [simulate_paths(model, model.grid, schedule, seed=9, path_ids=ids[a:b])
                  for a, b in ((0, 100), (100, 101), (101, 300))]
        assert np.array_equal(streamed_paths(model, schedule, 9, ids), np.concatenate(pieces, axis=1))

    def test_ensemble_is_the_same_across_chunk_seams(self, monkeypatch):
        # The ensemble and the replay step paths through the one recursion
        # from the same per-step streams: with blocks of 64 paths the states
        # the replay steps are the ensemble's, whose first 150 paths are a
        # 150-path ensemble's, with one observation axis or two.
        monkeypatch.setattr(simulate, "_PATH_BLOCK", 64)
        for change in ({}, dict(n2=2, m2=2, G=[[1.0], [0.5]], y0=[0.0, 0.0])):
            model, _ = make_benchmark(n_steps=20, **change)
            schedule = solve_riccati(model, model.grid)
            ensemble = build_ensemble(model, model.grid, schedule, 300, 4)
            assert np.array_equal(streamed_paths(model, schedule, 4, range(300)), ensemble.z_paths)
            head = build_ensemble(model, model.grid, schedule, 150, 4).z_paths
            assert np.array_equal(ensemble.z_paths[:, :150], head)
            assert ensemble.x_paths is None


class TestPathEnsemble:
    def test_the_paths_are_its_only_large_allocation(self):
        # The innovations are drawn a chunk of steps at a time into two
        # buffers of _CHUNK floats.  At N = 200 and M = 5 000 the paths
        # take 15.3 MiB; drawing them into a buffer of their own, 7.6 MiB
        # for one chunk of every path, peaked at 23.2 MiB.  A one-path run
        # first imports what the first draw imports (about 0.7 MiB of
        # module objects).
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

    def test_one_chunk_of_draws_takes_one_buffer_of_its_steps(self):
        # A one-path ensemble at N = 200 is 3.2 KB of paths, and its 200
        # steps are one chunk, drawn into one (200, 1, 1) buffer.  Two
        # buffers of _CHUNK // (M n2) = 32 768 steps each peaked at 535 KiB.
        model, _ = make_benchmark(n_steps=200)
        schedule = solve_riccati(model, model.grid)
        build_ensemble(model, model.grid, schedule, 1, seed=1)
        tracemalloc.start()
        try:
            build_ensemble(model, model.grid, schedule, 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

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
