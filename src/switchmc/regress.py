"""Piecewise-constant regression on a hypercube partition placed by a box.

Conditional expectations are estimated by averaging next-step values within
each cell of a regular grid over the regression state.  Cells are half-open,
and the outer cells of each axis extend past the box, so every finite point
belongs to exactly one cell: the cell that its clipped point lies in.  A
point's cell along an axis is the number of inner edges it reaches (x >=
edge), counted with one vectorized comparison per edge; an axis with more
inner edges than ``_COUNT_EDGES_MAX`` takes a binary search instead, which
gives the same ids.
"""

from __future__ import annotations

import math
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


# Most inner edges of an axis whose cells are counted; above it a binary
# search is cheaper (on 5 000 points the two cost the same at 65-80 cells, on
# 2**15 points counting still wins at 300).  Under 256, so a uint8 holds a count.
_COUNT_EDGES_MAX = 64
# Points memberships indexes in one call, a block of grid times: 2**15.
_MEMBERSHIP_BLOCK = 2 ** 15


class IndexingError(ValueError):
    """A point has a non-finite coordinate, or a cell id is out of range."""


@dataclass(frozen=True, eq=False)
class HypercubeBasis:
    """Regular partition of ``domain`` into cells_per_dim pieces per axis.

    Cell r along an axis is [edge_r, edge_{r+1}), except the outer cells:
    the first takes every value below edge_1 and the last every value from
    its lower edge up, the box's top edge and beyond included.  So r is the
    count of inner edges x reaches; ``cell_index`` counts them, or on an
    axis of more than ``_COUNT_EDGES_MAX`` inner edges takes a right
    ``searchsorted``, which equals the count.  ``delta_side`` holds the
    nominal side lengths (width / cells); ``R`` is the total number of cells.
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
        if math.prod(cells) > np.iinfo(np.int32).max:  # memberships stores int32 ids
            raise ValueError(f"cells_per_dim {cells} makes {math.prod(cells)} cells, more than int32 ids can name")
        object.__setattr__(self, "cells_per_dim", cells)
        # Inner edges: the count a point reaches is its cell; the top edge is in the last.
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
        """Flat cell index in row-major order, shape (...).  Errors on a
        non-finite coordinate, naming the first point that has one."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[-1]}, expected {self.dim}")
        flat = pts.reshape(-1, self.dim)
        idx = np.zeros(flat.shape[0], dtype=np.int64)
        for c, edges in enumerate(self._inner_edges):
            count = edges.size <= _COUNT_EDGES_MAX
            # Counting passes over the column once an edge, so it reads a contiguous copy.
            col = np.ascontiguousarray(flat[:, c]) if count else flat[:, c]
            # A NaN would land in an outer cell; it makes both extremes NaN.
            if col.size and not (math.isfinite(col.min()) and math.isfinite(col.max())):
                bad = np.argmax(~np.isfinite(flat).all(axis=1))
                raise IndexingError(f"point {flat[bad]} has a non-finite coordinate")
            idx *= self.cells_per_dim[c]
            if count:
                cell = np.zeros(flat.shape[0], dtype=np.uint8)
                reached = np.empty(flat.shape[0], dtype=bool)
                for e in edges:
                    cell += np.greater_equal(col, e, out=reached).view(np.uint8)
                idx += cell
            else:
                idx += np.searchsorted(edges, col, side="right")
            del col  # the next axis's copy may then reuse its memory
        return idx.reshape(pts.shape[:-1])


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Per-cell empirical means (..., R), one row per value series, with the
    occupancy counts (R,); empty cells carry 0.  ``vector[j]`` is row j, so
    iterating a (d, R) vector yields its d rows."""

    lambdas: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        lambdas = np.asarray(self.lambdas, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or lambdas.shape[-1:] != counts.shape:
            raise ValueError(
                f"lambdas (..., R) and counts (R,) disagree: {lambdas.shape} and {counts.shape}"
            )
        if np.any((lambdas != 0.0) & (counts == 0)):
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
    """Flat int32 cell index of every path at every grid time, shape (N+1, M),
    indexed a block of grid times (about ``_MEMBERSHIP_BLOCK`` points) a call."""
    z = ensemble.z_paths
    out = np.empty(z.shape[:2], dtype=np.int32)
    steps = max(1, _MEMBERSHIP_BLOCK // max(1, ensemble.M))
    for k in range(0, z.shape[0], steps):
        out[k:k + steps] = basis.cell_index(z[k:k + steps])
    return out


@dataclass(frozen=True)
class PminEstimate:
    """Smallest cell occupancy fraction over regression times k = 0..N-1.

    ``raw_min`` counts every cell (0 whenever some cell is empty);
    ``occupied_min`` restricts to cells hit at least once at that time.
    """

    raw_min: float
    occupied_min: float


def estimate_pmin(coeffs) -> PminEstimate:
    """Empirical minimum cell probability over training times 0..N-1, from
    the per-cell path counts of the N coefficient levels ``surface.coeffs``
    that ``backward_induction`` returns: each figure is the smallest integer
    count divided by the path count M."""
    counts = np.stack([level.counts for level in coeffs])
    M = counts[0].sum()
    return PminEstimate(
        raw_min=float(counts.min() / M), occupied_min=float(counts[counts > 0].min() / M)
    )
