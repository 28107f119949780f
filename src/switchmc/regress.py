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
        # Interior edges: a right searchsorted over them is the cell; the top edge is in the last.
        edges = tuple(
            np.linspace(self.domain.lows[c], self.domain.highs[c], cells[c] + 1)[1:-1]
            for c in range(dim)
        )
        object.__setattr__(self, "_inner_edges", edges)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def R(self) -> int:
        return int(np.prod(self.cells_per_dim))

    @property
    def delta_side(self) -> np.ndarray:
        return (self.domain.highs - self.domain.lows) / np.asarray(self.cells_per_dim, dtype=float)

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index in row-major order, shape (...).  Errors off-domain."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[-1]}, expected {self.dim}")
        flat = pts.reshape(-1, self.dim)
        idx = np.zeros(flat.shape[0], dtype=np.int64)
        for c in range(self.dim):
            col, lo, hi = flat[:, c], self.domain.lows[c], self.domain.highs[c]
            # Written as "not inside" so that a NaN coordinate is rejected too.
            if col.size and not (lo <= col.min() and col.max() <= hi):
                raise IndexingError(
                    f"point {flat[np.argmax(~((col >= lo) & (col <= hi)))]} lies outside the "
                    f"domain [{self.domain.lows}, {self.domain.highs}]; project before indexing"
                )
            idx *= self.cells_per_dim[c]
            idx += np.searchsorted(self._inner_edges[c], col, side="right")
        return idx.reshape(pts.shape[:-1])


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Per-cell empirical means (..., R), one row per value series, with the
    occupancy counts (R,); empty cells carry 0.  ``vector[j]`` is row j."""

    lambdas: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        lambdas = np.asarray(self.lambdas, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or lambdas.shape[-1:] != counts.shape:
            raise ValueError(
                f"lambdas (..., R) and counts (R,) disagree: {lambdas.shape} and {counts.shape}"
            )
        if np.any(lambdas[..., counts == 0] != 0.0):
            raise ValueError("empty cells must carry a zero coefficient")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, j) -> "CoefficientVector":
        return CoefficientVector(lambdas=self.lambdas[j], counts=self.counts)

    @property
    def R(self) -> int:
        return self.counts.shape[0]


def empirical_coefficients(next_values: np.ndarray, cell_ids: np.ndarray, R: int) -> CoefficientVector:
    """Average each row of ``next_values`` (M,) or (d, M) within each cell;
    empty cells get 0.  One weighted bincount serves every row, row j's cells
    offset by j*R, so each cell still sums its paths in path order."""
    vals = np.asarray(next_values, dtype=float)
    ids = np.asarray(cell_ids, dtype=np.int64)
    if vals.ndim not in (1, 2) or ids.shape != vals.shape[-1:]:
        raise ValueError(f"value/cell shapes disagree: {vals.shape} vs {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= R):
        raise IndexingError(f"cell ids must lie in [0, {R}), got range [{ids.min()}, {ids.max()}]")
    rows = np.atleast_2d(vals)
    offset_ids = ids + R * np.arange(rows.shape[0])[:, None]
    sums = np.bincount(offset_ids.ravel(), weights=rows.ravel(), minlength=rows.shape[0] * R)
    counts = np.bincount(ids, minlength=R)
    occupied = counts > 0
    lambdas = np.zeros(vals.shape[:-1] + (R,))
    lambdas[..., occupied] = sums.reshape(lambdas.shape)[..., occupied] / counts[occupied]
    return CoefficientVector(lambdas=lambdas, counts=counts)


def regress_eval(coeffs: CoefficientVector, cell_ids: np.ndarray) -> np.ndarray:
    """Piecewise-constant regression (..., R) evaluated at P cells: (..., P)."""
    ids = np.asarray(cell_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= coeffs.R):
        raise IndexingError(
            f"cell ids must lie in [0, {coeffs.R}), got range [{ids.min()}, {ids.max()}]"
        )
    return coeffs.lambdas.take(ids, axis=-1)


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
