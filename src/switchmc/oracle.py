"""Exact small-instance oracles used to validate the Monte Carlo solver.

For scalar models driven by two-point innovations (increments of
+-sqrt(delta)) the full noise tree (2 branches per step) can be enumerated
through the solver's own Euler recursion, so the dynamic program can be
solved with exact conditional expectations: paths are grouped by their
observation-increment history and continuation values are averaged within
each group.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dp import _action_values
from .filtering import CovarianceSchedule, QuadratureRule
from .model import ModelSpec, ModeSet
from .simulate import _euler_states

__all__ = [
    "OracleRefusal",
    "tree_oracle_value",
]

_MAX_TREE_STEPS = 16


class OracleRefusal(ValueError):
    """The oracle does not cover the requested configuration."""


def _two_point_draws(n_steps: int, path_ids: Sequence[int]) -> np.ndarray:
    """Innovation signs +-1 read from the base-2 digits of each path index,
    time-major: di (N, M, 1).

    Bit k of the path index selects the sign of the innovation at step k.
    With M = 2^N consecutive indices from 0 the ensemble enumerates every
    pattern exactly once.
    """
    ids = np.asarray(path_ids, dtype=np.int64)
    return np.where((ids[None, :, None] >> np.arange(n_steps)[:, None, None]) & 1, 1.0, -1.0)


def _tree_paths(model: ModelSpec, schedule: CovarianceSchedule, path_ids: Sequence[int]) -> np.ndarray:
    """Two-point paths of the given indices on the grid of a scalar
    ``model``, with the shape ``simulate_paths`` returns."""
    di = _two_point_draws(model.n_steps, path_ids)
    z = np.empty((model.n_steps + 1, di.shape[1], model.n1 + model.n2))
    for _ in _euler_states(model, model.grid, schedule, di, z):
        pass
    return z


def tree_oracle_value(
    model: ModelSpec,
    modes: ModeSet,
    schedule: CovarianceSchedule,
    rule: QuadratureRule,
) -> np.ndarray:
    """Value per starting mode from the exhaustive two-point noise tree.

    All 2^N sign patterns are simulated with the solver's own recursions;
    the backward induction then uses exact conditional expectations, grouping
    paths by their observation-increment history and averaging continuation
    values within each group (every pattern is equally likely, so a group at
    step k holds 2^(N-k) paths).  A problem that is not scalar
    (n1 = m1 = n2 = 1) or has over 16 steps is refused.
    """
    if (model.n1, model.m1, model.n2) != (1, 1, 1):
        raise OracleRefusal(
            f"tree oracle requires a scalar model, got dimensions "
            f"(n1, m1, n2) = ({model.n1}, {model.m1}, {model.n2})"
        )
    if model.n_steps > _MAX_TREE_STEPS:
        raise OracleRefusal(
            f"tree oracle limited to {_MAX_TREE_STEPS} steps "
            f"(2^{model.n_steps} leaves requested)"
        )
    grid = model.grid
    n_steps, delta, d = grid.n_steps, grid.delta, modes.d
    M = 2 ** n_steps
    state = _tree_paths(model, schedule, range(M))
    paths = np.arange(M)

    values, cost = np.zeros((d, M)), modes.costs
    for k in range(n_steps - 1, -1, -1):
        # Paths share their first k observation increments exactly when they
        # share their first k innovation signs: bits 0..k-1 of the index.
        lab = paths & (2 ** k - 1)
        cand = np.empty((d, M))
        for j in range(d):
            sums = np.bincount(lab, weights=values[j], minlength=2 ** k)
            cand[j] = (sums / 2 ** (n_steps - k))[lab]
        # The solver's step adds delta * fbar_j to each continuation.
        _action_values(modes, rule, schedule.sqrt_thetas[k], float(grid.times[k]), delta, state[k], cand)
        values = (cand[None] - cost[:, :, None]).max(axis=1)

    # At time zero every path shares the initial state and group.
    return values[:, 0].copy()
