"""Path simulation, seeding, domain calibration."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from oracles import READ_PEAK_MB, SIGNAL2D, clip_error_reference, make_benchmark, run_child

from switchmc import (
    Domain,
    HypercubeBasis,
    NoiseSource,
    PathEnsemble,
    SimulationError,
    build_ensemble,
    build_quadrature,
    calibrate_domain,
    derive_seed,
    load_problem,
    payoff_sup_on_domain,
    simulate_paths,
    solve_riccati,
)
from switchmc.regress import memberships
from switchmc.simulate import _DRAW_BLOCK, _clip_error, _gaussian_draws


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

    def test_project_is_clipping(self):
        dom = Domain(lows=np.array([-1.0, 0.0]), highs=np.array([1.0, 2.0]))
        pts = np.array([[0.5, 1.0], [-3.0, 5.0]])
        proj = dom.project(pts)
        assert np.array_equal(proj[0], pts[0])
        assert np.array_equal(proj[1], [-1.0, 2.0])
        assert np.array_equal(dom.project(proj), proj)

    def test_project_is_nonexpansive(self):
        dom = Domain(lows=np.array([-1.0, 0.0]), highs=np.array([1.0, 2.0]))
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 2)) * 3
        b = rng.standard_normal((200, 2)) * 3
        da = dom.project(a)
        db = dom.project(b)
        assert np.all(
            np.linalg.norm(da - db, axis=1) <= np.linalg.norm(a - b, axis=1) + 1e-12
        )

    def test_contains_and_widened(self):
        # A box contains a point exactly when projecting leaves it unchanged.
        dom = Domain(lows=np.array([0.0]), highs=np.array([2.0]))
        inside, outside = np.array([[1.0]]), np.array([[2.5]])
        assert np.array_equal(dom.project(inside), inside)
        assert not np.array_equal(dom.project(outside), outside)
        wide = dom.widened(1.5)
        assert wide.lows[0] < 0.0 and wide.highs[0] > 2.0
        assert np.array_equal(wide.project(np.array([[2.4]])), np.array([[2.4]]))


class TestNoiseSource:
    def test_kinds(self):
        assert NoiseSource("gaussian").kind == "gaussian"
        assert NoiseSource("two_point").kind == "two_point"
        with pytest.raises(ValueError):
            NoiseSource("bernoulli")


class TestSimulatePaths:
    def test_path_is_a_function_of_seed_and_id_alone(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        noise = NoiseSource("gaussian")
        z_all, x_all = simulate_paths(model, grid, schedule, noise, seed=42, path_ids=range(64))
        z_one, x_one = simulate_paths(model, grid, schedule, noise, seed=42, path_ids=[17])
        assert np.array_equal(z_all[17], z_one[0])
        assert np.array_equal(x_all[17], x_one[0])
        z_sub, _ = simulate_paths(
            model, grid, schedule, noise, seed=42, path_ids=[17, 3, 99]
        )
        assert np.array_equal(z_sub[0], z_one[0])

    @pytest.mark.parametrize("kind", ("gaussian", "two_point"))
    def test_rows_agree_across_draw_block_seams(self, bench20, kind):
        # Gaussian streams are drawn a block of paths at a time; the rows on
        # either side of each block boundary must match one-path calls.
        model, _, schedule = bench20
        grid = model.grid
        noise = NoiseSource(kind)
        ids = range(3, 3 + 2 * _DRAW_BLOCK + 7)
        z_all, x_all = simulate_paths(model, grid, schedule, noise, seed=9, path_ids=ids)
        for row in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, 2 * _DRAW_BLOCK - 1, 2 * _DRAW_BLOCK, len(ids) - 1):
            z_one, x_one = simulate_paths(model, grid, schedule, noise, seed=9, path_ids=[ids[row]])
            assert np.array_equal(z_all[row], z_one[0])
            assert np.array_equal(x_all[row], x_one[0])

    def test_each_draw_row_is_a_fresh_philox_stream(self, bench20):
        # One generator serves every path by resetting its state; each row
        # must still be the stream a new Philox keyed (seed, path id) draws,
        # on both sides of a block seam and for an id beyond 32 bits.
        model = bench20[0]
        n_steps, seed = 7, 2 ** 40 + 3
        ids = list(range(5, 5 + _DRAW_BLOCK + 2)) + [2 ** 32 + 9, 2 ** 64 - 1]
        z0, dw, du = _gaussian_draws(model, n_steps, seed, ids)
        n_draws = model.n1 + n_steps * (model.m1 + model.n2)
        for row in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, len(ids) - 2, len(ids) - 1):
            key = np.array([seed, ids[row]], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_draws)
            drawn = np.concatenate([z0[row], dw[:, row].ravel(), du[:, row].ravel()])
            assert np.array_equal(drawn, expected)

    def test_different_seeds_differ(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        noise = NoiseSource("gaussian")
        a, _ = simulate_paths(model, grid, schedule, noise, seed=1, path_ids=range(4))
        b, _ = simulate_paths(model, grid, schedule, noise, seed=2, path_ids=range(4))
        assert not np.array_equal(a[..., :1], b[..., :1])

    def test_initial_conditions(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        z, _ = simulate_paths(
            model, grid, schedule, NoiseSource("gaussian"), seed=3, path_ids=range(8)
        )
        assert np.array_equal(z[:, 0, :], np.zeros((8, 2)))

    def test_shapes(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        z, x = simulate_paths(
            model, grid, schedule, NoiseSource("gaussian"), seed=3, path_ids=range(5)
        )
        assert z.shape == (5, 21, 2)
        assert x.shape == (5, 21, 1)

    def test_two_point_enumerates_all_sign_patterns(self):
        model, _ = make_benchmark(n_steps=3)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        n_paths = 4 ** 3
        z, x = simulate_paths(
            model, grid, schedule, NoiseSource("two_point"), seed=0,
            path_ids=range(n_paths),
        )
        root = math.sqrt(grid.delta)
        # Observation increments at step 0 are G x0 delta + dU = +-sqrt(delta)
        # exactly, since x0 = m0 = 0 under two-point noise.
        first = np.unique(z[:, 1, 1])
        assert np.array_equal(first, [-root, root])
        # Every sign pattern must be realized exactly once.  The final signal
        # increment never reaches the observations, so distinctness needs the
        # signal path included.
        flat = np.concatenate([z.reshape(n_paths, -1), x.reshape(n_paths, -1)], axis=1)
        assert np.unique(flat, axis=0).shape[0] == n_paths

    def test_two_point_signs_are_the_path_index_bits(self):
        # Loop reference: bit k*(m1+m2)+c of the path id is the sign of noise
        # component c at step k.  With F = 0, C = 1 and G = 0 the signal and
        # observation steps are the signed increments themselves.
        model, _ = make_benchmark(n_steps=3, G=0.0)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        ids = [0, 5, 37, 63, 2 ** 40 + 9]
        z, x = simulate_paths(
            model, grid, schedule, NoiseSource("two_point"), seed=0, path_ids=ids
        )
        steps = np.stack([np.diff(x[..., 0], axis=1), np.diff(z[..., 1], axis=1)], axis=-1)
        for row, pid in enumerate(ids):
            for k in range(3):
                for c in range(2):
                    expected = 1.0 if (pid >> (k * 2 + c)) & 1 else -1.0
                    assert np.sign(steps[row, k, c]) == expected

    def test_two_point_starts_signal_at_the_mean(self):
        model, _ = make_benchmark(n_steps=2)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        noise = NoiseSource("two_point")
        dom = Domain(lows=np.array([-9.0, -9.0]), highs=np.array([9.0, 9.0]))
        ens = build_ensemble(model, grid, schedule, dom, 16, noise, seed=0, store_signal=True)
        assert np.array_equal(ens.x_paths[:, 0, 0], np.zeros(16))

    def test_terminal_signal_variance_matches_theory(self):
        # With F = 0 and C = 1 the signal is a Brownian motion plus its
        # Gaussian start, so Var X_T = theta0 + T = 1 for the benchmark.
        # The Euler scheme adds independent increments, so this is exact in
        # distribution; check the sample variance of 100000 paths.
        model, _ = make_benchmark(n_steps=730)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        dom = Domain(lows=np.array([-50.0, -50.0]), highs=np.array([50.0, 50.0]))
        n_total = 100_000
        chunk = 20_000
        noise = NoiseSource("gaussian")
        terminal = np.empty(n_total)
        for start in range(0, n_total, chunk):
            ens = build_ensemble(
                model, grid, schedule, dom, chunk, noise,
                seed=derive_seed(2026, start), store_signal=True,
            )
            terminal[start:start + chunk] = ens.x_paths[:, -1, 0]
        var = float(np.var(terminal))
        stderr = math.sqrt(2.0 / n_total)  # variance of the sample variance of a Gaussian
        assert abs(var - 1.0) <= 3 * stderr

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_step_reported(self):
        model, _ = make_benchmark(n_steps=5, m0=1e300, F=1000.0)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        with pytest.raises(SimulationError) as err:
            simulate_paths(model, grid, schedule, NoiseSource("gaussian"), seed=0, path_ids=range(2))
        assert "step" in str(err.value)


class TestPathEnsemble:
    def test_rejects_out_of_domain_paths(self, bench20):
        # The ensemble does not re-scan its paths; indexing them into cells
        # rejects the first off-domain point (IndexingError is a ValueError).
        model, _, schedule = bench20
        grid = model.grid
        dom = Domain(lows=np.array([-0.001, -0.001]), highs=np.array([0.001, 0.001]))
        z = np.zeros((3, 21, 2))
        z[..., 1] = 0.5
        ensemble = PathEnsemble(grid=grid, domain=dom, z_paths=z, n1=1)
        with pytest.raises(ValueError, match="outside the domain"):
            memberships(ensemble, HypercubeBasis(dom, 4))

    def test_state_concatenates_mean_and_observation(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        dom = Domain(lows=np.array([-9.0, -9.0]), highs=np.array([9.0, 9.0]))
        ens = build_ensemble(model, grid, schedule, dom, 6, NoiseSource("gaussian"), seed=5)
        st = ens.state(3)
        assert st.shape == (6, 2)
        assert np.array_equal(st[:, 0], ens.m_paths[:, 3, 0])
        assert np.array_equal(st[:, 1], ens.y_paths[:, 3, 0])

    def test_storage_is_time_major(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        dom = Domain(lows=np.array([-9.0, -9.0]), highs=np.array([9.0, 9.0]))
        ens = build_ensemble(model, grid, schedule, dom, 6, NoiseSource("gaussian"), seed=5)
        assert ens.z_paths.shape == (6, 21, 2)
        for k in (0, 3, 20):
            assert ens.state(k).flags.c_contiguous

    def test_paths_are_read_only_views_of_the_state(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        dom = Domain(lows=np.array([-9.0, -9.0]), highs=np.array([9.0, 9.0]))
        ens = build_ensemble(model, grid, schedule, dom, 6, NoiseSource("gaussian"), seed=5)
        for view in (ens.m_paths, ens.y_paths, ens.state(3)):
            assert np.shares_memory(view, ens.z_paths)
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_build_ensemble_projects_into_domain(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        dom = Domain(lows=np.array([-0.05, -0.05]), highs=np.array([0.05, 0.05]))
        ens = build_ensemble(model, grid, schedule, dom, 50, NoiseSource("gaussian"), seed=6)
        for k in range(grid.n_steps + 1):
            assert np.array_equal(dom.project(ens.state(k)), ens.state(k))


class TestCalibrateDomain:
    def test_clamp_distortion_within_budget_on_fresh_paths(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        epsilon = 0.01
        dom = calibrate_domain(model, grid, schedule, epsilon, pilot_M=500, seed=11)
        # Measure the mean clamp distortion on a third, unrelated sample.
        st, _ = simulate_paths(
            model, grid, schedule, NoiseSource("gaussian"), seed=987654,
            path_ids=range(2000),
        )
        clipped = np.clip(st, dom.lows, dom.highs)
        worst = float(
            np.max(np.mean(np.linalg.norm(st - clipped, axis=2), axis=0))
        )
        assert worst <= epsilon

    def test_degenerate_coordinates_get_positive_width(self):
        model, _ = make_benchmark(n_steps=10, G=0.0)
        grid = model.grid
        schedule = solve_riccati(model, grid)
        dom = calibrate_domain(model, grid, schedule, 0.01, pilot_M=200, seed=1)
        # G = 0 freezes the conditional mean at m0 = 0; its axis must still
        # be a nonempty interval.
        assert dom.highs[0] > dom.lows[0]
        origin = np.array([[0.0, 0.0]])
        assert np.array_equal(dom.project(origin), origin)

    def test_bad_arguments_rejected(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        with pytest.raises(ValueError):
            calibrate_domain(model, grid, schedule, epsilon=0.0)
        with pytest.raises(ValueError):
            calibrate_domain(model, grid, schedule, epsilon=0.01, pilot_M=10)

    def test_deterministic_in_seed(self, bench20):
        model, _, schedule = bench20
        grid = model.grid
        a = calibrate_domain(model, grid, schedule, 0.01, pilot_M=300, seed=4)
        b = calibrate_domain(model, grid, schedule, 0.01, pilot_M=300, seed=4)
        assert np.array_equal(a.lows, b.lows)
        assert np.array_equal(a.highs, b.highs)


@pytest.mark.parametrize("problem", ("bench", "signal2d"), ids=("dim2", "dim3"))
def test_clip_error_matches_the_all_axes_formula(problem, bench20):
    if problem == "bench":
        model, _, schedule = bench20
    else:
        model, _ = load_problem(dict(SIGNAL2D, n_steps=20))
        schedule = solve_riccati(model, model.grid)
    state, _ = simulate_paths(
        model, model.grid, schedule, NoiseSource("gaussian"), seed=21, path_ids=range(400)
    )
    lo, hi = state.min(axis=(0, 1)), state.max(axis=(0, 1))
    # From a box that clamps most points to one that clamps none.
    for shrink in (0.05, 0.3, 0.45, 0.5):
        dom = Domain(lows=lo + shrink * (hi - lo), highs=hi - shrink * (hi - lo) + 1e-9)
        expected = clip_error_reference(state, dom.lows, dom.highs)
        assert _clip_error(state.transpose(2, 1, 0), dom) == expected
    dom = Domain(lows=lo - 1.0, highs=hi + 1.0)
    assert _clip_error(state.transpose(2, 1, 0), dom) == 0.0


class TestPayoffSup:
    def test_linear_payoff_sup_is_corner_value(self, bench20):
        _, modes, _ = bench20
        model, _ = make_benchmark(n_steps=10)
        grid = model.grid
        # Degenerate covariance: quadrature nodes collapse onto the corner
        # points, so the sup is exactly the largest |m| corner.
        from switchmc.filtering import CovarianceSchedule

        thetas = np.zeros((11, 1, 1))
        schedule = CovarianceSchedule.from_thetas(thetas)
        dom = Domain(lows=np.array([-2.0, -5.0]), highs=np.array([1.5, 5.0]))
        rule = build_quadrature(1, 8)
        sup = payoff_sup_on_domain(modes, dom, schedule, rule, grid)
        assert sup == pytest.approx(2.0, rel=1e-12)

    def test_dispersion_increases_sup(self, bench20):
        model, modes, schedule = bench20
        grid = model.grid
        dom = Domain(lows=np.array([-2.0, -5.0]), highs=np.array([1.5, 5.0]))
        rule = build_quadrature(1, 8)
        sup = payoff_sup_on_domain(modes, dom, schedule, rule, grid)
        assert sup >= 2.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_sup_memory_is_bounded_by_corner_blocks(self):
        # At n1 = 10 the 2 049 corner and center points times 1 024 nodes
        # used to be one array, a peak of about 380 MB; blocks of corners
        # keep it near 80 MB.  The unblocked evaluation runs after the peak
        # is read, and a max over blocks is the same max.
        script = """
import json
import numpy as np
from switchmc import CovarianceSchedule, Domain, ModeSet, TimeGrid, build_quadrature
from switchmc import simulate
n1 = 10
modes = ModeSet(payoffs=(lambda x, y, t: np.sin(x).sum(axis=-1) * y[..., 0],), costs=[[0.0]], nu=1.0)
schedule = CovarianceSchedule.from_thetas(np.stack([0.09 * np.eye(n1)] * 2))
domain = Domain(lows=-np.ones(n1 + 1), highs=np.ones(n1 + 1))
rule, grid = build_quadrature(n1, 8), TimeGrid(1.0, 1)
blocked = simulate.payoff_sup_on_domain(modes, domain, schedule, rule, grid)
""" + READ_PEAK_MB + """
simulate._MAX_CHUNK_POINTS = 2 ** 62
whole = simulate.payoff_sup_on_domain(modes, domain, schedule, rule, grid)
print(json.dumps({"peak_mb": peak_mb, "nodes": rule.n_nodes, "equal": blocked == whole}))
"""
        report = run_child(script)
        assert report["nodes"] == 1024
        assert report["equal"]
        assert report["peak_mb"] <= 150.0
