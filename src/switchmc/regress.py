"""Piecewise-constant regression on a hypercube partition of the domain.

Conditional expectations are estimated by averaging next-step values within
each cell of a regular grid over the regression state.  Cells are half-open
(closed on top at the domain boundary) so every in-domain point belongs to
exactly one cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import Domain, PathEnsemble

__all__ = [
    "IndexingError",
    "HypercubeBasis",
    "CoefficientVector",
    "PminEstimate",
    "empirical_coefficients",
    "regress_eval",
    "memberships",
    "estimate_pmin",
]


class IndexingError(ValueError):
    """A point fell outside the domain; it should have been projected first."""


@dataclass(frozen=True, eq=False)
class HypercubeBasis:
    """Regular partition of ``domain`` into cells_per_dim pieces per axis.

    Cell r along an axis is [edge_r, edge_{r+1}), except the topmost cell
    which also contains the upper boundary.  ``delta_side`` holds the nominal
    side lengths (width / cells); ``R`` is the total number of cells.
    """

    domain: Domain
    cells_per_dim: tuple

    def __post_init__(self) -> None:
        dim = self.domain.dim
        cells = self.cells_per_dim
        if isinstance(cells, (int, np.integer)):
            cells = (int(cells),) * dim
        else:
            cells = tuple(int(c) for c in cells)
        if len(cells) != dim:
            raise ValueError(
                f"cells_per_dim has {len(cells)} entries but domain has dimension {dim}"
            )
        if any(c < 1 for c in cells):
            raise ValueError(f"cells_per_dim entries must be >= 1, got {cells}")
        object.__setattr__(self, "cells_per_dim", cells)
        edges = tuple(
            np.linspace(self.domain.lows[c], self.domain.highs[c], cells[c] + 1)
            for c in range(dim)
        )
        object.__setattr__(self, "_edges", edges)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def R(self) -> int:
        return int(np.prod(self.cells_per_dim))

    @property
    def delta_side(self) -> np.ndarray:
        return self.domain.widths / np.asarray(self.cells_per_dim, dtype=float)

    def cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Per-axis cell indices, shape (..., dim).  Errors off-domain."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[-1]}, expected {self.dim}")
        flat = pts.reshape(-1, self.dim)
        below = flat < self.domain.lows
        above = flat > self.domain.highs
        if below.any() or above.any():
            bad = int(np.argmax(np.any(below | above, axis=1)))
            raise IndexingError(
                f"point {flat[bad]} lies outside the domain "
                f"[{self.domain.lows}, {self.domain.highs}]; project before indexing"
            )
        coords = np.empty(flat.shape, dtype=np.int64)
        edges = self._edges
        for c in range(self.dim):
            idx = np.searchsorted(edges[c], flat[:, c], side="right") - 1
            np.clip(idx, 0, self.cells_per_dim[c] - 1, out=idx)
            coords[:, c] = idx
        return coords.reshape(pts.shape)

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index in row-major order, shape (...).  Errors off-domain."""
        coords = self.cell_coords(points)
        flat = coords.reshape(-1, self.dim)
        idx = np.ravel_multi_index(tuple(flat[:, c] for c in range(self.dim)), self.cells_per_dim)
        out = idx.reshape(coords.shape[:-1])
        if out.ndim == 0:
            return int(out)
        return out


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Per-cell empirical means with occupancy counts; empty cells carry 0."""

    lambdas: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        lambdas = np.asarray(self.lambdas, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if lambdas.shape != counts.shape or lambdas.ndim != 1:
            raise ValueError(
                f"lambdas and counts must be equal-length vectors, got {lambdas.shape} and {counts.shape}"
            )
        if np.any(lambdas[counts == 0] != 0.0):
            raise ValueError("empty cells must carry a zero coefficient")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "counts", counts)

    @property
    def R(self) -> int:
        return self.lambdas.shape[0]


def empirical_coefficients(next_values: np.ndarray, cell_ids: np.ndarray, R: int) -> CoefficientVector:
    """Average ``next_values`` within each cell (accumulated in path order).

    Cells with no member paths get coefficient 0.
    """
    vals = np.asarray(next_values, dtype=float).reshape(-1)
    ids = np.asarray(cell_ids, dtype=np.int64).reshape(-1)
    if vals.shape != ids.shape:
        raise ValueError(f"value/cell shapes disagree: {vals.shape} vs {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= R):
        raise IndexingError(f"cell ids must lie in [0, {R}), got range [{ids.min()}, {ids.max()}]")
    counts = np.bincount(ids, minlength=R)
    sums = np.bincount(ids, weights=vals, minlength=R)
    lambdas = np.zeros(R)
    occupied = counts > 0
    lambdas[occupied] = sums[occupied] / counts[occupied]
    return CoefficientVector(lambdas=lambdas, counts=counts)


def regress_eval(coeffs: CoefficientVector, cell_ids: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-constant regression at the given cells."""
    ids = np.asarray(cell_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= coeffs.R):
        raise IndexingError(
            f"cell ids must lie in [0, {coeffs.R}), got range [{ids.min()}, {ids.max()}]"
        )
    return coeffs.lambdas[ids]


def memberships(ensemble: PathEnsemble, basis: HypercubeBasis) -> np.ndarray:
    """Flat cell index of every path at every grid time, shape (N+1, M)."""
    n_steps = ensemble.grid.n_steps
    out = np.empty((n_steps + 1, ensemble.M), dtype=np.int64)
    for k in range(n_steps + 1):
        out[k] = basis.cell_index(ensemble.state(k))
    return out


@dataclass(frozen=True)
class PminEstimate:
    """Smallest cell occupancy fraction over regression times k = 0..N-1.

    ``raw_min`` counts every cell (0 whenever some cell is empty);
    ``occupied_min`` restricts to cells hit at least once at that time.
    """

    raw_min: float
    occupied_min: float


def estimate_pmin(cell_ids: np.ndarray, R: int) -> PminEstimate:
    """Empirical minimum cell probability over training times 0..N-1, from
    the (N+1, M) cell ids of ``memberships`` on an R-cell basis."""
    M = cell_ids.shape[1]
    raw_min = np.inf
    occ_min = np.inf
    for ids in cell_ids[:-1]:
        counts = np.bincount(ids, minlength=R)
        raw_min = min(raw_min, counts.min() / M)
        occ_min = min(occ_min, counts[counts > 0].min() / M)
    return PminEstimate(raw_min=float(raw_min), occupied_min=float(occ_min))
