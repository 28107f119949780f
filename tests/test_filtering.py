"""Covariance integration, quadrature, and conditional-payoff evaluation."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from oracles import (
    READ_PEAK_MB, SIGNAL2D, belief_average, gaussian_monomial_moment, make_benchmark, run_child,
)

from switchmc import (
    EvaluationError,
    IntegrationError,
    ModelSpec,
    ModeSet,
    QuadratureRule,
    TimeGrid,
    build_quadrature,
    payoff_from_registry,
    psd_sqrt,
    solve_riccati,
)
from switchmc.benchmarks import default_solver_params
from switchmc.cli import RunConfig, StageError, main, run_pipeline
from switchmc.filtering import (
    CovarianceSchedule,
    default_substeps,
    effective_payoff_batch,
    mean_step,
    rowwise_matvec,
)


def signal_problem(n1: int) -> dict:
    """SIGNAL2D with ``n1`` independent signal axes, all observed through one sum."""
    return {
        **SIGNAL2D, "n1": n1, "m1": n1, "F": np.zeros((n1, n1)).tolist(),
        "C": np.eye(n1).tolist(), "G": [[1.0] * n1], "m0": [0.0] * n1,
        "theta0": np.zeros((n1, n1)).tolist(),
    }


class TestPsdSqrt:
    def test_square_reproduces_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        theta = a @ a.T
        s = psd_sqrt(theta)
        assert np.allclose(s @ s.T, theta, atol=1e-12)

    def test_tiny_negative_eigenvalues_clipped(self):
        theta = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        s = psd_sqrt(theta)
        assert np.all(np.isfinite(s))
        assert np.allclose(s @ s.T, theta, atol=1e-10)


class TestRowwiseMatvec:
    def test_matches_matmul(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((3, 4))
        vecs = rng.standard_normal((100, 4))
        out = rowwise_matvec(mat, vecs)
        assert np.allclose(out, vecs @ mat.T, atol=1e-13)

    def test_batch_invariance_bitwise(self):
        # The same row must produce bit-identical output regardless of which
        # other rows share the batch; this is what makes path simulation
        # deterministic per path id.
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((2, 2))
        vecs = rng.standard_normal((50, 2))
        full = rowwise_matvec(mat, vecs)
        some = rowwise_matvec(mat, vecs[10:20])
        assert np.array_equal(full[10:20], some)


class TestRiccati:
    def test_tanh_closed_form(self):
        model, _ = make_benchmark(n_steps=730)
        schedule = solve_riccati(model, model.grid)
        expected = np.tanh(model.grid.times)
        got = np.array([schedule.thetas[k][0, 0] for k in range(731)])
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_linear_growth_when_unobserved(self):
        # G = 0 removes the quadratic term: theta(t) = theta0 + C C' t.
        model, _ = make_benchmark(n_steps=100, G=0.0)
        schedule = solve_riccati(model, model.grid)
        got = np.array([schedule.thetas[k][0, 0] for k in range(101)])
        assert np.allclose(got, model.grid.times, atol=1e-12)

    def test_constant_when_static(self):
        model = ModelSpec(
            n1=2, m1=2, n2=1, T=1.0, n_steps=50,
            F=np.zeros((2, 2)), C=np.zeros((2, 2)), G=[[0.0, 0.0]],
            m0=[0.0, 0.0], theta0=np.eye(2), y0=[0.0],
        )
        schedule = solve_riccati(model, model.grid)
        for k in (0, 25, 50):
            assert np.array_equal(schedule.thetas[k], np.eye(2))

    def test_symmetric_and_psd_along_the_way(self):
        model = ModelSpec(
            n1=2, m1=2, n2=2, T=1.0, n_steps=40,
            F=[[0.1, 0.5], [-0.5, 0.1]], C=[[1.0, 0.2], [0.0, 0.7]],
            G=np.eye(2), m0=[0.0, 0.0],
            theta0=[[0.5, 0.1], [0.1, 0.5]], y0=[0.0, 0.0],
        )
        schedule = solve_riccati(model, model.grid)
        for k in range(41):
            theta = schedule.thetas[k]
            assert np.allclose(theta, theta.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(theta)) >= -1e-12

    def test_blow_up_detected(self):
        model, _ = make_benchmark(n_steps=10, F=50.0, G=0.0, theta0=1.0)
        with pytest.raises(IntegrationError) as err:
            solve_riccati(model, model.grid)
        assert "interval" in str(err.value)

    def test_substeps_validation(self):
        model, _ = make_benchmark(n_steps=10)
        with pytest.raises(ValueError):
            solve_riccati(model, model.grid, substeps=0)

    def test_default_substeps(self):
        assert default_substeps(TimeGrid(T=1.0, n_steps=730)) == 2
        assert default_substeps(TimeGrid(T=1.0, n_steps=2)) == 500
        assert default_substeps(TimeGrid(T=1.0, n_steps=2000)) == 1

    def test_schedule_square_roots_consistent(self):
        model, _ = make_benchmark(n_steps=50)
        schedule = solve_riccati(model, model.grid)
        for k in (0, 17, 50):
            s = schedule.sqrt_thetas[k]
            assert np.allclose(s @ s.T, schedule.thetas[k], atol=1e-12)

    def test_corrupted_square_root_rejected(self):
        thetas = np.ones((3, 1, 1))
        bad = np.full((3, 1, 1), 2.0)
        with pytest.raises(ValueError):
            CovarianceSchedule(thetas=thetas, sqrt_thetas=bad)

    def test_from_thetas(self):
        thetas = np.array([np.eye(2) * v for v in (0.0, 0.5, 1.0)])
        schedule = CovarianceSchedule.from_thetas(thetas)
        assert np.allclose(schedule.sqrt_thetas[2] @ schedule.sqrt_thetas[2].T, np.eye(2))


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for dim in (1, 2, 3):
            for order in (2, 8, 16):
                rule = build_quadrature(dim, order)
                assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
                assert rule.nodes.shape == (rule.n_nodes, dim)

    def test_dimension_above_12_refused(self):
        assert build_quadrature(12).n_nodes == 4096
        with pytest.raises(ValueError, match="dim 13 .* 4096 nodes"):
            build_quadrature(13)
        # One node per axis, the mean, fits at any dimension.
        assert np.array_equal(build_quadrature(13, 1).nodes, np.zeros((1, 13)))

    def test_custom_payoff_above_dim_12_is_a_quadrature_error(self):
        problem = {**signal_problem(13), "modes": ["zero", lambda x, y, t: np.tanh(x[..., 0])]}
        solver = {**default_solver_params(), "M": 100, "n_steps": 4, "cells_per_dim": 1}
        with pytest.raises(StageError, match="dim 13 too large") as info:
            run_pipeline(RunConfig(problem=problem, solver=solver))
        assert info.value.stage == "quadrature"

    def test_registry_payoffs_above_dim_12_solve(self, tmp_path, capsys):
        # Affine payoffs average at the mean, so they need no rule wider
        # than its one node; such a problem is not refused.
        path = tmp_path / "signal13.json"
        path.write_text(json.dumps(signal_problem(13)))
        argv = ["solve", "--problem", str(path), "--M", "100", "--n-steps", "4", "--cells-per-dim", "2"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert np.all(np.isfinite(json.loads(out)["v"]))

    def test_node_set_is_sign_symmetric(self):
        # Tensor order puts the exact reflection of node q at index n-1-q,
        # the layout weighted_sum pairs by.
        for dim in (1, 2, 3, 4, 5, 6):
            for order in (1, 4, 5, 16):
                rule = build_quadrature(dim, order)
                assert np.array_equal(rule.nodes[::-1], -rule.nodes)
                assert np.array_equal(rule.weights[::-1], rule.weights)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_quadrature(1, 0)
        with pytest.raises(ValueError):
            build_quadrature(0, 4)

    @staticmethod
    def assert_exact_on_monomials(rule, m, theta, order, rng):
        """Six random monomials of total degree <= 2 * order - 1 average to
        their exact moments under ``rule``."""
        dim = len(m)
        for _ in range(6):
            total = int(rng.integers(0, 2 * order))
            cuts = np.sort(rng.integers(0, total + 1, size=dim - 1))
            parts = np.diff(np.concatenate(([0], cuts, [total])))
            alpha = tuple(int(v) for v in parts)
            exact = gaussian_monomial_moment(m, theta, alpha)

            def phi(x, alpha=alpha):
                out = np.ones(x.shape[:-1])
                for i, a_i in enumerate(alpha):
                    out = out * x[..., i] ** a_i
                return out

            got = belief_average(phi, m, theta, rule)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_monomial_exactness_matches_moment_oracle(self):
        # Under the change of variables x = m + S z a monomial of total
        # degree D stays a polynomial of total degree D, so tensor
        # Gauss-Hermite with Q nodes per axis is exact whenever D <= 2Q - 1
        # even for correlated covariances.  Compare against rational
        # arithmetic.
        rng = np.random.default_rng(3)
        for dim in (1, 2):
            a = rng.standard_normal((dim, dim))
            theta = a @ a.T
            m = rng.standard_normal(dim)
            for order in (2, 8):
                self.assert_exact_on_monomials(build_quadrature(dim, order), m, theta, order, rng)

    @pytest.mark.parametrize("dim, order, n_nodes", ((4, 8, 4096), (5, 5, 3125), (6, 4, 4096)))
    def test_capped_rule_matches_moment_oracle(self, dim, order, n_nodes):
        # The rule of the default order 16 is capped to ``order`` nodes per
        # axis, so it is exact up to total degree 2 * order - 1.
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        theta = a @ a.T
        m = rng.standard_normal(dim)
        rule = build_quadrature(dim, 16)
        assert rule.n_nodes == order ** dim == n_nodes
        self.assert_exact_on_monomials(rule, m, theta, order, rng)

    def test_odd_moments_vanish_exactly_at_zero_mean(self):
        # Mirror-paired summation makes antisymmetric integrands cancel in
        # floating point, not just approximately.
        # Order 5 has a centre node, added after the pairs.
        for dim in (1, 2, 3, 4, 5, 6):
            for order in (5, 16):
                rule = build_quadrature(dim, order)
                got = belief_average(lambda x: x[..., 0], np.zeros(dim), np.eye(dim), rule)
                assert got == 0.0

    def test_weighted_sum_matches_plain_dot(self):
        # Even and odd Gauss-Hermite rules.
        rng = np.random.default_rng(4)
        for dim, order in ((2, 8), (2, 5), (4, 16)):
            rule = build_quadrature(dim, order)
            vals = rng.standard_normal((5, rule.n_nodes))
            assert np.allclose(rule.weighted_sum(vals), vals @ rule.weights, atol=1e-14)


class TestGaussExpectation:
    """Gaussian expectations through ``effective_payoff_batch``, the solver's
    belief average (see ``oracles.belief_average``)."""

    def test_constant_and_mean(self):
        rule = build_quadrature(1, 8)
        m, theta = np.array([0.7]), np.array([[2.0]])
        assert belief_average(lambda x: np.ones(x.shape[:-1]), m, theta, rule) == pytest.approx(1.0)
        assert belief_average(lambda x: x[..., 0], m, theta, rule) == pytest.approx(0.7, rel=1e-12)

    def test_degenerate_covariance_short_circuits(self):
        rule = build_quadrature(1, 8)
        calls = []

        def phi(x):
            calls.append(x.shape)
            return x[..., 0]

        assert belief_average(phi, np.array([1.25]), np.array([[0.0]]), rule) == 1.25
        assert len(calls) == 1

    def test_non_finite_integrand_reported(self):
        rule = build_quadrature(1, 8)

        def phi(x):
            return np.where(x[..., 0] > 0, np.inf, 0.0)

        with pytest.raises(EvaluationError) as err:
            belief_average(phi, np.array([0.0]), np.array([[1.0]]), rule)
        assert "node" in str(err.value)

    def test_linear_in_integrand(self):
        rule = build_quadrature(2, 8)
        m = np.array([0.3, -0.2])
        theta = np.array([[1.0, 0.4], [0.4, 2.0]])

        def phi1(x):
            return np.sin(x[..., 0])

        def phi2(x):
            return x[..., 1] ** 2

        e1 = belief_average(phi1, m, theta, rule)
        e2 = belief_average(phi2, m, theta, rule)
        combined = belief_average(
            lambda x: 2.5 * phi1(x) - 0.75 * phi2(x), m, theta, rule
        )
        assert combined == pytest.approx(2.5 * e1 - 0.75 * e2, rel=1e-12, abs=1e-12)

    def test_monotone_in_integrand(self):
        # All weights are positive, so pointwise dominance at the nodes
        # carries over to the expectations.
        rule = build_quadrature(1, 16)
        assert np.all(rule.weights > 0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = rng.standard_normal(1)
            theta = np.array([[0.7]])

            def low(x):
                return np.tanh(x[..., 0])

            def high(x):
                return np.tanh(x[..., 0]) + 0.01 * x[..., 0] ** 2

            assert belief_average(low, m, theta, rule) <= belief_average(high, m, theta, rule)


class TestMeanStep:
    def test_scalar_example(self):
        m = np.array([1.0])
        dy = np.array([0.3])
        theta = np.array([[2.0]])
        F = np.array([[0.0]])
        G = np.array([[1.0]])
        got = mean_step(m, dy, theta, F, G, delta=0.1)
        # gain = theta G' = 2; innovation = 0.3 - 1 * 0.1 = 0.2; m + 2 * 0.2
        assert got[0] == pytest.approx(1.4)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        theta = np.array([[0.5, 0.1], [0.1, 0.3]])
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = np.array([[1.0, 0.0]])
        ms = rng.standard_normal((20, 2))
        dys = rng.standard_normal((20, 1)) * 0.1
        batch = mean_step(ms, dys, theta, F, G, delta=0.05)
        for i in range(20):
            single = mean_step(ms[i], dys[i], theta, F, G, delta=0.05)
            assert np.array_equal(batch[i], single)

    def test_matches_closed_formula(self):
        rng = np.random.default_rng(6)
        theta = np.array([[0.5, 0.1], [0.1, 0.3]])
        F = rng.standard_normal((2, 2))
        G = rng.standard_normal((1, 2))
        m = rng.standard_normal(2)
        dy = rng.standard_normal(1) * 0.1
        delta = 0.02
        expected = m + F @ m * delta + theta @ G.T @ (dy - G @ m * delta)
        assert np.allclose(mean_step(m, dy, theta, F, G, delta), expected, atol=1e-14)

    def test_unobserved_mean_ignores_observations(self):
        # With G = 0 the gain vanishes, so any two observation paths give
        # bit-identical conditional-mean sequences.
        theta = np.array([[0.8]])
        F = np.array([[0.3]])
        G = np.array([[0.0]])
        rng = np.random.default_rng(9)
        m_a = np.array([0.5])
        m_b = np.array([0.5])
        for _ in range(25):
            m_a = mean_step(m_a, rng.standard_normal(1), theta, F, G, delta=0.04)
            m_b = mean_step(m_b, rng.standard_normal(1), theta, F, G, delta=0.04)
        assert np.array_equal(m_a, m_b)


class TestEffectivePayoff:
    def test_linear_payoff_integrates_to_mean(self, small_problem, small_schedule, rule16):
        _, modes = small_problem
        sqrt_theta = psd_sqrt(small_schedule.thetas[10])
        got = effective_payoff_batch(modes, 1, [[0.4]], sqrt_theta, [[0.0]], 0.5, rule16)
        assert got[0] == pytest.approx(0.4, rel=1e-12)

    def test_zero_payoff_is_zero(self, small_problem, small_schedule, rule16):
        _, modes = small_problem
        sqrt_theta = psd_sqrt(small_schedule.thetas[10])
        got = effective_payoff_batch(modes, 0, [[0.4]], sqrt_theta, [[0.0]], 0.5, rule16)
        assert got[0] == 0.0

    def test_batch_matches_pointwise(self, small_problem, small_schedule, rule16):
        # Each row's belief average is independent of how rows are batched.
        _, modes = small_problem
        rng = np.random.default_rng(7)
        ms = rng.standard_normal((15, 1))
        ys = rng.standard_normal((15, 1))
        sqrt_theta = psd_sqrt(small_schedule.thetas[5])
        batch = effective_payoff_batch(modes, 1, ms, sqrt_theta, ys, 0.25, rule16)
        for i in range(15):
            single = effective_payoff_batch(
                modes, 1, ms[i:i + 1], sqrt_theta, ys[i:i + 1], 0.25, rule16
            )
            assert batch[i] == single[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_quadrature_memory_is_bounded_by_row_blocks(self):
        # All (M, 4 096, 4) points at once used to peak at about 600 MB for
        # M = 2 000; blocks of rows keep the peak near the interpreter's own.
        # The unblocked evaluation runs after the peak is read.
        script = """
import json
import numpy as np
from switchmc import ModeSet, build_quadrature
from switchmc import filtering
rng = np.random.default_rng(3)
m, y = rng.standard_normal((2000, 4)), rng.standard_normal((2000, 1))
modes = ModeSet(payoffs=(lambda x, y, t: np.sin(x).sum(axis=-1) * y[..., 0],), costs=[[0.0]], nu=1.0)
rule, sqrt_theta = build_quadrature(4, 8), 0.3 * np.eye(4)
blocked = filtering.effective_payoff_batch(modes, 0, m, sqrt_theta, y, 0.5, rule)
""" + READ_PEAK_MB + """
filtering._MAX_CHUNK_POINTS = 2 ** 62
whole = filtering.effective_payoff_batch(modes, 0, m, sqrt_theta, y, 0.5, rule)
print(json.dumps({"peak_mb": peak_mb, "equal": bool(np.array_equal(blocked, whole))}))
"""
        report = run_child(script)
        assert report["equal"]
        assert report["peak_mb"] <= 150.0

    @pytest.mark.parametrize("theta", (0.0, 0.5), ids=("mean-point", "quadrature"))
    def test_payoff_of_wrong_shape_rejected(self, theta, rule16):
        # The payoff returns x itself, (..., n1) instead of (...), whichever
        # branch averages it.
        modes = ModeSet(payoffs=(lambda x, y, t: x,), costs=[[0.0]], nu=1.0)
        sqrt_theta = psd_sqrt(np.array([[theta]]))
        points = np.zeros((3, 1))
        with pytest.raises(ValueError, match="payoff of mode 0 returned shape"):
            effective_payoff_batch(modes, 0, points, sqrt_theta, points, 0.0, rule16)

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_affine_closed_form_matches_quadrature(self, dim):
        # Registry payoffs are averaged at the mean; the same functions as
        # custom callables go through the quadrature rule.
        rng = np.random.default_rng(10 + dim)
        rule = build_quadrature(dim, 16)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        specs = [payoff_from_registry("zero"), payoff_from_registry("linear"),
                 payoff_from_registry("affine", a=a, b=b)]
        closed_modes = ModeSet(payoffs=tuple(specs), costs=np.zeros((3, 3)), nu=1.0)
        quad_modes = ModeSet(payoffs=tuple(s.fn for s in specs), costs=np.zeros((3, 3)), nu=1.0)
        assert [p.is_affine for p in closed_modes.payoffs] == [True] * 3
        assert [p.is_affine for p in quad_modes.payoffs] == [False] * 3
        for _ in range(5):
            ms = rng.uniform(-5.0, 5.0, size=(40, dim))
            ys = rng.standard_normal((40, 1))
            factor = rng.standard_normal((dim, dim))
            sqrt_theta = psd_sqrt(factor @ factor.T)
            for j in range(3):
                closed = effective_payoff_batch(closed_modes, j, ms, sqrt_theta, ys, 0.3, rule)
                quad = effective_payoff_batch(quad_modes, j, ms, sqrt_theta, ys, 0.3, rule)
                assert np.all(np.abs(closed - quad) <= 1e-14 * (1.0 + np.abs(closed)))

    @pytest.mark.parametrize(
        "modes, expect_quadrature",
        ((["zero", "linear"], False), (["zero", lambda x, y, t: np.tanh(x[..., 0])], True)),
        ids=("registry", "custom"),
    )
    def test_only_custom_payoffs_reach_quadrature(self, monkeypatch, modes, expect_quadrature):
        calls = []
        weighted_sum = QuadratureRule.weighted_sum

        def counting(rule, vals):
            calls.append(vals.shape)
            return weighted_sum(rule, vals)

        monkeypatch.setattr(QuadratureRule, "weighted_sum", counting)
        solver = {**default_solver_params(), "M": 200, "n_steps": 10, "seed": 3}
        # run_pipeline is one replication of run_solve; a callable payoff
        # does not serialize into run_solve's manifest.
        result = run_pipeline(RunConfig(problem={**SIGNAL2D, "modes": modes}, solver=solver))
        assert np.all(np.isfinite(result.values))
        assert (len(calls) > 0) == expect_quadrature

    def test_custom_payoff_in_dim_4_needs_only_numpy(self, monkeypatch):
        # The quadrature of a custom payoff at n1 = 4 is the capped tensor
        # rule, built without scipy.
        # Submodules an earlier import left loaded are blocked too.
        for name in {"scipy"} | {n for n in sys.modules if n.startswith("scipy.")}:
            monkeypatch.setitem(sys.modules, name, None)
        solver = {**default_solver_params(), "M": 300, "n_steps": 10, "seed": 3, "cells_per_dim": 2}
        problem = {**signal_problem(4), "modes": ["zero", lambda x, y, t: np.tanh(x[..., 0])]}
        result = run_pipeline(RunConfig(problem=problem, solver=solver))
        assert result.rule.n_nodes == 4096
        assert np.all(np.isfinite(result.values))
