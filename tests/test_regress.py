"""Hypercube partition, empirical coefficients, cell occupancy."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import make_benchmark

from switchmc import (
    CoefficientVector,
    Domain,
    HypercubeBasis,
    IndexingError,
    NoiseSource,
    build_ensemble,
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
    dom = Domain(lows=np.zeros(dim), highs=np.ones(dim), epsilon=0.01)
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
        coords = basis.cell_coords(np.array([[0.5, 0.5]]))
        assert np.array_equal(coords[0], [1, 1])
        # Row-major flattening: (1, 1) -> 3.
        assert basis.cell_index(np.array([[0.5, 0.5]]))[0] == 3
        assert basis.cell_index(np.array([[0.1, 0.9]]))[0] == 1

    def test_off_domain_point_named_in_error(self):
        basis = unit_basis(4)
        with pytest.raises(IndexingError) as err:
            basis.cell_index(np.array([[1.5]]))
        assert "1.5" in str(err.value)
        with pytest.raises(IndexingError, match="nan"):
            basis.cell_index(np.array([[0.5], [np.nan]]))

    def test_r_and_delta_side(self):
        dom = Domain(lows=np.array([0.0, -1.0]), highs=np.array([2.0, 1.0]), epsilon=0.01)
        basis = HypercubeBasis(dom, (4, 5))
        assert basis.R == 20
        assert np.allclose(basis.delta_side, [0.5, 0.4])

    def test_cells_per_dim_validation(self):
        with pytest.raises(ValueError):
            unit_basis(0)
        dom = Domain(lows=np.zeros(2), highs=np.ones(2), epsilon=0.01)
        with pytest.raises(ValueError):
            HypercubeBasis(dom, (4,))


class TestEmpiricalCoefficients:
    def test_per_cell_means(self):
        values = np.array([1.0, 3.0, 10.0, 20.0])
        cells = np.array([0, 0, 1, 1])
        coeffs = empirical_coefficients(values, cells, R=3)
        assert np.array_equal(coeffs.lambdas, [2.0, 15.0, 0.0])
        assert np.array_equal(coeffs.counts, [2, 2, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            empirical_coefficients(np.ones(3), np.zeros(4, dtype=int), R=2)

    def test_out_of_range_cells_rejected(self):
        with pytest.raises(ValueError):
            empirical_coefficients(np.ones(2), np.array([0, 5]), R=3)

    def test_empty_cells_must_carry_zero(self):
        with pytest.raises(ValueError):
            CoefficientVector(lambdas=np.array([1.0, 2.0]), counts=np.array([3, 0]))
        CoefficientVector(lambdas=np.array([1.0, 0.0]), counts=np.array([3, 0]))

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
    dom = Domain(lows=np.array([-4.0, -4.0]), highs=np.array([4.0, 4.0]), epsilon=0.01)
    ens = build_ensemble(model, grid, schedule, dom, 300, NoiseSource("gaussian"), seed=3)
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
            assert np.array_equal(ids[k], basis.cell_index(ens.state(k)))


def test_one_solve_indexes_each_training_step_once(monkeypatch):
    # memberships indexes the N+1 grid times and value_at_origin the origin;
    # backward induction and estimate_pmin reuse the memberships table.
    calls = []
    cell_index = HypercubeBasis.cell_index

    def counted(self, points):
        calls.append(np.shape(points))
        return cell_index(self, points)

    monkeypatch.setattr(HypercubeBasis, "cell_index", counted)
    solver = {**default_solver_params(), "M": 200, "n_steps": 20, "seed": 3}
    run_pipeline(RunConfig(problem=benchmark_problem(), solver=solver))
    assert len(calls) <= 20 + 2


class TestEstimatePmin:
    def test_known_counts(self):
        model, _ = make_benchmark(n_steps=1)
        grid = model.grid
        dom = Domain(lows=np.zeros(2), highs=np.ones(2), epsilon=0.01)
        basis = HypercubeBasis(dom, (2, 1))
        from switchmc import PathEnsemble

        # Four paths, two grid points; at k = 0 three paths sit in cell 0 and
        # one in cell 1, at k = 1 (terminal, excluded) all sit in cell 1.
        m = np.array([[[0.1], [0.9]], [[0.2], [0.9]], [[0.3], [0.9]], [[0.8], [0.9]]])
        y = np.full((4, 2, 1), 0.5)
        ens = PathEnsemble(
            grid=grid, domain=dom, z_paths=np.concatenate([m, y], axis=-1), n1=1
        )
        est = estimate_pmin(memberships(ens, basis), basis.R)
        assert est.raw_min == pytest.approx(0.25)
        assert est.occupied_min == pytest.approx(0.25)

    def test_empty_cell_drives_raw_to_zero(self):
        model, _ = make_benchmark(n_steps=1)
        grid = model.grid
        dom = Domain(lows=np.zeros(2), highs=np.ones(2), epsilon=0.01)
        basis = HypercubeBasis(dom, (3, 1))
        from switchmc import PathEnsemble

        m = np.array([[[0.1], [0.9]], [[0.9], [0.9]]])
        y = np.full((2, 2, 1), 0.5)
        ens = PathEnsemble(
            grid=grid, domain=dom, z_paths=np.concatenate([m, y], axis=-1), n1=1
        )
        est = estimate_pmin(memberships(ens, basis), basis.R)
        assert est.raw_min == 0.0
        assert est.occupied_min == pytest.approx(0.5)
