"""Hypercube partition, empirical coefficients, cell occupancy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import make_benchmark

from switchmc import (
    CoefficientVector,
    Domain,
    HypercubeBasis,
    IndexingError,
    PathEnsemble,
    TimeGrid,
    backward_induction,
    build_ensemble,
    build_quadrature,
    empirical_coefficients,
    estimate_pmin,
    regress_eval,
    solve_riccati,
)
from switchmc.benchmarks import benchmark_problem, default_solver_params
from switchmc.cli import RunConfig, run_pipeline
from switchmc.regress import memberships


def unit_basis(cells) -> HypercubeBasis:
    dim = len(cells) if isinstance(cells, (tuple, list)) else 1
    dom = Domain(lows=np.zeros(dim), highs=np.ones(dim))
    return HypercubeBasis(dom, cells)


class TestHypercubeBasis:
    def test_unit_interval_ten_cells(self):
        basis = unit_basis(10)
        assert basis.cell_index(np.array([[0.05]]))[0] == 0
        assert basis.cell_index(np.array([[0.95]]))[0] == 9
        # The top edge belongs to the last cell.
        assert basis.cell_index(np.array([[1.0]]))[0] == 9

    def test_interior_edges_are_half_open(self):
        # Four cells on [0, 1] have exactly representable edges, so the
        # half-open convention is observable without float fuzz.
        basis = unit_basis(4)
        assert basis.cell_index(np.array([[0.5]]))[0] == 2
        assert basis.cell_index(np.array([[np.nextafter(0.5, 0.0)]]))[0] == 1

    def test_two_by_two_grid(self):
        basis = unit_basis((2, 2))
        # Row-major flattening: (1, 1) -> 3.
        assert basis.cell_index(np.array([[0.5, 0.5]]))[0] == 3
        assert basis.cell_index(np.array([[0.1, 0.9]]))[0] == 1

    def test_off_domain_point_named_in_error(self):
        # Only a non-finite coordinate has no cell; a finite point beyond
        # the box lies in an outer cell.
        basis = unit_basis(4)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(IndexingError) as err:
                basis.cell_index(np.array([[0.5], [bad]]))
            assert str(np.array([bad])) in str(err.value)

    def test_refuses_more_cells_than_int32_ids_can_name(self):
        # memberships stores int32 ids, so R may be at most 2**31 - 1:
        # 46 340 x 46 341 cells fit and 46 341 x 46 341 do not.
        dom = Domain(lows=np.zeros(2), highs=np.ones(2))
        assert HypercubeBasis(dom, (46340, 46341)).R == 2147441940
        with pytest.raises(ValueError, match=r"^cells_per_dim \(46341, 46341\) makes 2147488281 "):
            HypercubeBasis(dom, (46341, 46341))

    def test_r_and_delta_side(self):
        dom = Domain(lows=np.array([0.0, -1.0]), highs=np.array([2.0, 1.0]))
        basis = HypercubeBasis(dom, (4, 5))
        assert basis.R == 20
        assert np.allclose(basis.delta_side, [0.5, 0.4])

    def test_cells_per_dim_validation(self):
        with pytest.raises(ValueError):
            unit_basis(0)
        dom = Domain(lows=np.zeros(2), highs=np.ones(2))
        with pytest.raises(ValueError):
            HypercubeBasis(dom, (4,))


def reference_cell_index(points, lows, highs, cells) -> np.ndarray:
    """Row-major flat cell index from a per-axis searchsorted over the full
    edge vector, the top edge folded into the last cell."""
    coords = [
        np.minimum(np.searchsorted(np.linspace(lo, hi, n + 1), points[:, c], side="right") - 1, n - 1)
        for c, (lo, hi, n) in enumerate(zip(lows, highs, cells))
    ]
    return np.ravel_multi_index(coords, cells)


@st.composite
def basis_and_points(draw, max_cells=12, max_dim=3):
    """A box with 1 to ``max_dim`` axes and 1 to ``max_cells`` cells per
    axis, and points on and around it: random in-domain points, every edge,
    each edge's float neighbours, half a width beyond either end and
    +-1e300.  These coordinates are set on one axis, the other axes keep a
    random in-domain value."""
    dim = draw(st.integers(1, max_dim))
    lows, highs, cells = [], [], []
    for _ in range(dim):
        lo = draw(st.floats(-1e3, 1e3))
        width = draw(st.floats(1e-6, 1e3))
        lows.append(lo)
        highs.append(lo + width)
        cells.append(draw(st.integers(1, max_cells)))
    lows, highs = np.array(lows), np.array(highs)
    if not np.all(lows < highs):  # lo + width rounded back onto lo
        highs = np.nextafter(lows, np.inf)
    n_random = draw(st.integers(1, 20))
    unit = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_random * dim, max_size=n_random * dim)))
    random_pts = np.clip(lows + unit.reshape(n_random, dim) * (highs - lows), lows, highs)
    rows = [random_pts]
    for c in range(dim):
        edges = np.linspace(lows[c], highs[c], cells[c] + 1)
        half = 0.5 * (highs[c] - lows[c])
        neighbours = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        beyond = [lows[c] - half, highs[c] + half, -1e300, 1e300]
        for coord in np.concatenate([edges, *neighbours, beyond]):
            pt = random_pts[0].copy()
            pt[c] = coord
            rows.append(pt[None, :])
    return Domain(lows=lows, highs=highs), tuple(cells), np.vstack(rows)


def assert_matches_reference(domain, cells, points):
    # The outer cells extend past the box: a point beyond it lies in the
    # cell of its clipped point.
    basis = HypercubeBasis(domain, cells)
    clipped = np.clip(points, domain.lows, domain.highs)
    assert np.any(clipped != points)
    expected = reference_cell_index(clipped, domain.lows, domain.highs, cells)
    assert np.array_equal(basis.cell_index(points), expected)


class TestCellIndexProperty:
    @settings(max_examples=150, deadline=None)
    @given(basis_and_points())
    def test_matches_per_axis_searchsorted(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=60, deadline=None)
    @given(basis_and_points(max_cells=300, max_dim=2))
    def test_counting_and_binary_search_sides_match(self, case):
        # cell_index counts the edges a point reaches on an axis of at most
        # _COUNT_EDGES_MAX inner edges and searches above it; up to 300
        # cells an axis runs on either side of that crossover.
        assert_matches_reference(*case)

    @settings(max_examples=60, deadline=None)
    @given(basis_and_points(), st.data())
    def test_off_domain_or_nan_coordinate_is_named(self, case, data):
        domain, cells, points = case
        basis = HypercubeBasis(domain, cells)
        row = data.draw(st.integers(0, points.shape[0] - 1))
        axis = data.draw(st.integers(0, domain.dim - 1))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        points = points.copy()
        points[row, axis] = bad
        with pytest.raises(IndexingError) as err:
            basis.cell_index(points)
        assert str(points[row]) in str(err.value)


class TestEmpiricalCoefficients:
    def test_per_cell_means(self):
        values = np.array([1.0, 3.0, 10.0, 20.0])
        cells = np.array([0, 0, 1, 1])
        coeffs = empirical_coefficients(values, cells, R=3)
        assert np.array_equal(coeffs.lambdas, [2.0, 15.0, 0.0])
        assert np.array_equal(coeffs.counts, [2, 2, 0])

    def test_rows_match_one_bincount_per_row(self):
        # Every row of a (d, M) call must equal its own weighted bincount bit
        # for bit: the shared bincount may not reorder any cell's sum.
        rng = np.random.default_rng(4)
        values = rng.normal(size=(3, 500)) * 10.0 ** rng.integers(-8, 8, size=(3, 500))
        cells = rng.integers(0, 7, size=500)  # cells 7, 8 and 9 stay empty
        coeffs = empirical_coefficients(values, cells, R=10)
        counts = np.bincount(cells, minlength=10)
        assert np.array_equal(coeffs.counts, counts)
        for j in range(3):
            sums = np.bincount(cells, weights=values[j], minlength=10)
            expected = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            assert np.array_equal(coeffs.lambdas[j], expected)
        assert np.array_equal(regress_eval(coeffs, cells), coeffs.lambdas[:, cells])

    def test_iterating_a_vector_yields_its_rows(self):
        # perfbench's surface-bytes count iterates each (d, R) level.
        coeffs = empirical_coefficients(np.arange(6.0).reshape(2, 3), np.array([0, 2, 2]), R=4)
        rows = list(coeffs)
        assert len(rows) == 2
        for row, lambdas in zip(rows, coeffs.lambdas):
            assert np.array_equal(row.lambdas, lambdas)
            assert np.array_equal(row.counts, coeffs.counts)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            empirical_coefficients(np.ones(3), np.zeros(4, dtype=int), R=2)

    def test_out_of_range_cells_rejected(self):
        with pytest.raises(ValueError):
            empirical_coefficients(np.ones(2), np.array([0, 5]), R=3)

    def test_empty_cells_must_carry_zero(self):
        counts = np.array([3, 0])
        for lambdas in ([1.0, 2.0], [1.0, np.nan], [[1.0, 0.0], [1.0, 2.0]]):
            with pytest.raises(ValueError, match="^empty cells must carry a zero coefficient$"):
                CoefficientVector(lambdas=np.array(lambdas), counts=counts)
        CoefficientVector(lambdas=np.array([1.0, 0.0]), counts=counts)
        CoefficientVector(lambdas=np.array([[np.nan, 0.0], [1.0, -0.0]]), counts=counts)

    def test_regress_eval_is_lookup(self):
        coeffs = CoefficientVector(
            lambdas=np.array([5.0, -1.0, 0.0]), counts=np.array([2, 1, 0])
        )
        out = regress_eval(coeffs, np.array([1, 0, 0, 2]))
        assert np.array_equal(out, [-1.0, 5.0, 5.0, 0.0])
        with pytest.raises(ValueError):
            regress_eval(coeffs, np.array([3]))


@pytest.fixture(scope="module")
def small_ensemble():
    model, _ = make_benchmark(n_steps=12)
    grid = model.grid
    schedule = solve_riccati(model, grid)
    dom = Domain(lows=np.array([-4.0, -4.0]), highs=np.array([4.0, 4.0]))
    ens = build_ensemble(model, grid, schedule, 300, seed=3)
    basis = HypercubeBasis(dom, (6, 6))
    return ens, basis


class TestMemberships:
    def test_shape_and_range(self, small_ensemble):
        ens, basis = small_ensemble
        ids = memberships(ens, basis)
        assert ids.shape == (13, 300)
        assert ids.min() >= 0 and ids.max() < basis.R

    def test_matches_pointwise_lookup(self, small_ensemble):
        ens, basis = small_ensemble
        ids = memberships(ens, basis)
        for k in (0, 7, 12):
            assert np.array_equal(ids[k], basis.cell_index(ens.z_paths[k]))

    def test_ids_are_int32(self, small_ensemble):
        # Half the bytes of int64 ids, for the (N+1, M) table the induction holds.
        ens, basis = small_ensemble
        ids = memberships(ens, basis)
        assert ids.dtype == np.int32
        assert all(np.array_equal(ids[k], basis.cell_index(ens.z_paths[k])) for k in range(13))


def synthetic_ensemble(M, n_steps, time_major, seed=0):
    """Gaussian points (n_steps + 1, M, 2), some beyond the unit box,
    stored time-major like build_ensemble's or as a transposed view of a
    C-contiguous path-major array."""
    rng = np.random.default_rng(seed)
    if time_major:
        z = rng.normal(0.5, 0.5, size=(n_steps + 1, M, 2))
    else:
        z = rng.normal(0.5, 0.5, size=(M, n_steps + 1, 2)).transpose(1, 0, 2)
    return PathEnsemble(grid=TimeGrid(T=1.0, n_steps=n_steps), z_paths=z, n1=1)


class TestBlockedMemberships:
    # memberships indexes about 2**15 points a call: 5 000 paths take 6 grid
    # times a block (the last block has 1), 40 000 paths one time a block.
    @pytest.mark.parametrize("time_major", (True, False), ids=("time_major", "path_major"))
    @pytest.mark.parametrize("M", (5000, 40000))
    def test_equals_a_per_step_lookup(self, M, time_major):
        ens = synthetic_ensemble(M, 12, time_major)
        basis = unit_basis((6, 7))
        ids = memberships(ens, basis)
        assert ids.shape == (13, M) and ids.dtype == np.int32
        for k in range(13):
            assert np.array_equal(ids[k], basis.cell_index(ens.z_paths[k]))

    def test_nan_at_a_middle_grid_time_is_named(self):
        z = synthetic_ensemble(5000, 12, time_major=True).z_paths.copy()
        z[7, 1234, 1] = np.nan
        ens = PathEnsemble(grid=TimeGrid(T=1.0, n_steps=12), z_paths=z, n1=1)
        with pytest.raises(IndexingError) as err:
            memberships(ens, unit_basis((6, 7)))
        assert str(err.value) == f"point {z[7, 1234]} has a non-finite coordinate"


def test_one_solve_indexes_each_training_step_once(monkeypatch):
    # Backward induction indexes the N+1 grid times through memberships, a
    # block of grid times a call (one call for 200 paths), and value_at_origin
    # the origin; estimate_pmin reads the induction's counts.
    calls = []
    cell_index = HypercubeBasis.cell_index

    def counted(self, points):
        calls.append(np.shape(points))
        return cell_index(self, points)

    monkeypatch.setattr(HypercubeBasis, "cell_index", counted)
    solver = {**default_solver_params(), "M": 200, "n_steps": 20, "seed": 3}
    run_pipeline(RunConfig(problem=benchmark_problem(), solver=solver))
    assert len(calls) <= 20 + 2


def induction_pmin(ens, basis):
    """``estimate_pmin`` of a benchmark-mode induction on ``ens``."""
    model, modes = make_benchmark(n_steps=ens.grid.n_steps)
    schedule = solve_riccati(model, ens.grid)
    surface, _ = backward_induction(ens, basis, modes, schedule, build_quadrature(1, 4))
    return estimate_pmin(surface.coeffs)


class TestEstimatePmin:
    def test_known_counts(self):
        model, _ = make_benchmark(n_steps=1)
        grid = model.grid
        dom = Domain(lows=np.zeros(2), highs=np.ones(2))
        basis = HypercubeBasis(dom, (2, 1))
        # Two grid points, four paths; at k = 0 three paths sit in cell 0 and
        # one in cell 1, at k = 1 (terminal, excluded) all sit in cell 1.
        m = np.array([[[0.1], [0.2], [0.3], [0.8]], [[0.9], [0.9], [0.9], [0.9]]])
        y = np.full((2, 4, 1), 0.5)
        ens = PathEnsemble(
            grid=grid, z_paths=np.concatenate([m, y], axis=-1), n1=1
        )
        est = induction_pmin(ens, basis)
        assert est.raw_min == pytest.approx(0.25)
        assert est.occupied_min == pytest.approx(0.25)

    def test_empty_cell_drives_raw_to_zero(self):
        model, _ = make_benchmark(n_steps=1)
        grid = model.grid
        dom = Domain(lows=np.zeros(2), highs=np.ones(2))
        basis = HypercubeBasis(dom, (3, 1))
        m = np.array([[[0.1], [0.9]], [[0.9], [0.9]]])
        y = np.full((2, 2, 1), 0.5)
        ens = PathEnsemble(
            grid=grid, z_paths=np.concatenate([m, y], axis=-1), n1=1
        )
        est = induction_pmin(ens, basis)
        assert est.raw_min == 0.0
        assert est.occupied_min == pytest.approx(0.5)

    def test_reads_the_per_step_counts_of_the_induction(self, small_ensemble):
        ens, basis = small_ensemble
        counts = [np.bincount(ids, minlength=basis.R) for ids in memberships(ens, basis)[:-1]]
        est = induction_pmin(ens, basis)
        assert est.raw_min == min(c.min() for c in counts) / ens.M
        assert est.occupied_min == min(c[c > 0].min() for c in counts) / ens.M
