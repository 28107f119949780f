"""Exact small-instance oracles used to validate the Monte Carlo solver.

For scalar models driven by two-point noise the full noise tree (4 branches
per step) can be enumerated, so the dynamic program can be solved with exact
conditional expectations: paths are grouped by their observation-increment
history and continuation values are averaged within each group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import CovarianceSchedule, QuadratureRule, effective_payoff_batch
from .model import ModelSpec, ModeSet
from .simulate import NoiseSource, simulate_paths

__all__ = [
    "OracleRefusal",
    "TreeSpec",
    "tree_oracle_value",
]

_MAX_TREE_STEPS = 8


class OracleRefusal(ValueError):
    """The oracle does not cover the requested configuration."""


@dataclass(frozen=True, eq=False)
class TreeSpec:
    """A scalar problem small enough for exhaustive two-point enumeration.

    Requires n1 = m1 = n2 = 1 and at most 8 steps, so the full tree has
    4^n_steps <= 65536 leaves.
    """

    model: ModelSpec
    modes: ModeSet

    def __post_init__(self) -> None:
        m = self.model
        if (m.n1, m.m1, m.n2) != (1, 1, 1):
            raise OracleRefusal(
                f"tree oracle requires a scalar model, got dimensions "
                f"(n1, m1, n2) = ({m.n1}, {m.m1}, {m.n2})"
            )
        if m.n_steps > _MAX_TREE_STEPS:
            raise OracleRefusal(
                f"tree oracle limited to {_MAX_TREE_STEPS} steps "
                f"(4^{m.n_steps} leaves requested)"
            )

    @property
    def n_leaves(self) -> int:
        return 4 ** self.model.n_steps


def tree_oracle_value(
    spec: TreeSpec,
    schedule: CovarianceSchedule,
    rule: QuadratureRule,
) -> np.ndarray:
    """Value per starting mode from the exhaustive two-point noise tree.

    All 4^N sign patterns are simulated with the solver's own recursions;
    the backward induction then uses exact conditional expectations, grouping
    paths by their observation-increment history and averaging continuation
    values within each group (every pattern is equally likely).
    """
    model, modes = spec.model, spec.modes
    grid = model.grid
    n_steps, delta = grid.n_steps, grid.delta
    d = modes.d
    M = spec.n_leaves
    times = grid.times

    n1 = model.n1
    state, _ = simulate_paths(
        model, grid, schedule, NoiseSource("two_point"), seed=0, path_ids=range(M)
    )
    dy = np.diff(state[:, :, n1], axis=1)  # (M, N)

    # labels[k][ell]: group of path ell under equality of its first k
    # observation increments.  k = 0 puts every path in one group.
    labels = [np.zeros(M, dtype=np.int64)]
    for k in range(n_steps):
        pairs = np.stack([labels[k].astype(float), dy[:, k]], axis=1)
        _, inverse = np.unique(pairs, axis=0, return_inverse=True)
        labels.append(inverse.astype(np.int64))

    values, cost = np.zeros((d, M)), modes.costs
    for k in range(n_steps - 1, -1, -1):
        t = float(times[k])
        lab = labels[k]
        n_groups = int(lab.max()) + 1
        counts = np.bincount(lab, minlength=n_groups)
        m_k = state[:, k, :n1]
        y_k = state[:, k, n1:]
        sqrt_theta = schedule.sqrt_thetas[k]

        cand = np.empty((d, M))
        for j in range(d):
            sums = np.bincount(lab, weights=values[j], minlength=n_groups)
            cont = (sums / counts)[lab]
            fbar = effective_payoff_batch(modes, j, m_k, sqrt_theta, y_k, t, rule)
            cand[j] = delta * fbar + cont

        values = (cand[None] - cost[:, :, None]).max(axis=1)

    # At time zero every path shares the initial state and group.
    return values[:, 0].copy()
