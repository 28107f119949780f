"""Backward dynamic programming over simulated paths.

The value of running the system from grid time t_k in mode i is approximated
on the training ensemble by

    v_i(t_k, Z_ell) = max_j [ delta * fbar_j(Z_ell, t_k)
                              + E[v_j(t_{k+1}) | cell(Z_ell)] - c_ij ]

with terminal value zero, where the conditional expectation is the empirical
cell average of next-step values and fbar_j is the belief-averaged payoff at
the exact path point.  Ties prefer staying in the current mode, then the
smallest mode index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import CovarianceSchedule, QuadratureRule, effective_payoff_batch
from .model import ModelSpec, ModeSet, TimeGrid
from .regress import HypercubeBasis, IndexingError, empirical_coefficients, regress_eval
from .simulate import NoiseSource, PathEnsemble, _euler_states

__all__ = [
    "ValueSurface",
    "Policy",
    "PolicyEvaluation",
    "backward_induction",
    "value_at_origin",
    "simulate_policy",
]


@dataclass(frozen=True, eq=False)
class ValueSurface:
    """Pathwise value estimates and per-time regression coefficients.

    ``values`` has shape (N+1, d, M): values[k, i, ell] estimates the value
    at grid time t_k in mode i at training path ell.  ``coeffs[k]`` is the
    (d, R) CoefficientVector regressing values at t_{k+1} on cells at t_k,
    for k = 0..N-1; ``coeffs[k][j]`` is mode j's row.
    """

    grid: TimeGrid
    basis: HypercubeBasis
    values: np.ndarray
    coeffs: tuple

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        n_steps = self.grid.n_steps
        if values.ndim != 3 or values.shape[0] != n_steps + 1:
            raise ValueError(
                f"values must have shape (N+1, d, M) with N={n_steps}, got {values.shape}"
            )
        if len(self.coeffs) != n_steps:
            raise ValueError(f"need {n_steps} coefficient levels, got {len(self.coeffs)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def M(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class Policy:
    """Per-cell switching decisions: choice[k, i, r] is the mode to hold over
    [t_k, t_{k+1}) when sitting in mode i within cell r.  Cells no training
    path visited default to staying."""

    grid: TimeGrid
    basis: HypercubeBasis
    choice: np.ndarray

    def __post_init__(self) -> None:
        choice = np.asarray(self.choice, dtype=np.int64)
        expected = (self.grid.n_steps, choice.shape[1], self.basis.R)
        if choice.ndim != 3 or choice.shape != expected:
            raise ValueError(f"choice must have shape {expected}, got {choice.shape}")
        d = choice.shape[1]
        if choice.size and (choice.min() < 0 or choice.max() >= d):
            raise ValueError(f"choice entries must be modes in [0, {d})")
        object.__setattr__(self, "choice", choice)


@dataclass(frozen=True)
class PolicyEvaluation:
    """Out-of-sample replay summary: mean reward, its standard error, and the
    mean number of switches per path."""

    mean: float
    stderr: float
    mean_switches: float
    n_paths: int


def _stay_biased_argmax(action_values: np.ndarray, current: np.ndarray | int):
    """Column-wise argmax of (d, P) action values where ties keep the current
    mode (per column, or one for all) if it attains the max, else the smallest."""
    d, P = action_values.shape
    best = action_values.max(axis=0)
    smallest = np.zeros(P, dtype=np.int64)
    for j in range(d - 1, -1, -1):
        smallest[action_values[j] == best] = j
    cur_vals = action_values.ravel().take(current * P + np.arange(P))
    return best, np.where(cur_vals == best, current, smallest)


def _action_values(modes, rule, sqrt_theta, t, delta, points, level, ids):
    """Step-k action values at ``points`` (P, n1 + n2) lying in cells ``ids``.

    Returns (cand, fbars), both (d, P): fbars[j] is the belief-averaged
    payoff of mode j and cand[j] = delta * fbars[j] + the continuation of
    mode j read from the (d, R) step-k coefficients ``level``.
    """
    n1 = sqrt_theta.shape[0]
    m, y = points[:, :n1], points[:, n1:]
    fbars = np.stack([
        effective_payoff_batch(modes, j, m, sqrt_theta, y, t, rule) for j in range(modes.d)
    ])
    return delta * fbars + regress_eval(level, ids), fbars


def backward_induction(
    ensemble: PathEnsemble,
    basis: HypercubeBasis,
    cell_ids: np.ndarray,
    modes: ModeSet,
    schedule: CovarianceSchedule,
    rule: QuadratureRule,
):
    """Run the backward recursion on the training ensemble, whose paths sit
    in the cells ``cell_ids`` = ``memberships(ensemble, basis)``.

    Returns (ValueSurface, Policy).  Terminal values are zero; at each time
    the continuation is the per-cell empirical average of next-step values,
    the running payoff is integrated against the belief at the exact path
    point, and ties prefer staying then the smallest mode index.
    """
    grid = ensemble.grid
    n_steps = grid.n_steps
    d, M, R = modes.d, ensemble.M, basis.R
    if cell_ids.shape != (n_steps + 1, M):
        raise ValueError(f"cell_ids must have shape {(n_steps + 1, M)}, got {cell_ids.shape}")
    if cell_ids.min() < 0 or cell_ids.max() >= R:
        raise IndexingError(f"cell ids outside [0, {R}): {cell_ids.min()} to {cell_ids.max()}")

    values = np.zeros((n_steps + 1, d, M))
    coeffs: list = [None] * n_steps
    choice = np.empty((n_steps, d, R), dtype=np.int64)
    path_order, times, cost = np.arange(M), grid.times, modes.costs

    for k in range(n_steps - 1, -1, -1):
        t = float(times[k])
        ids = cell_ids[k]
        coeffs[k] = empirical_coefficients(values[k + 1], ids, R)
        cand, _ = _action_values(
            modes, rule, schedule.sqrt_thetas[k], t, grid.delta, ensemble.state(k), coeffs[k], ids
        )
        np.max(cand[None] - cost[:, :, None], axis=1, out=values[k])
        # A cell's policy entry is its first visitor's choice, so only those run the tie rule.
        first = np.full(R, M)
        np.minimum.at(first, ids, path_order)
        cells = np.flatnonzero(first < M)
        visitors = cand[:, first[cells]]
        for i in range(d):
            choice[k, i, :] = i
            choice[k, i, cells] = _stay_biased_argmax(visitors - cost[i, :, None], i)[1]

    surface = ValueSurface(grid=grid, basis=basis, values=values, coeffs=tuple(coeffs))
    policy = Policy(grid=grid, basis=basis, choice=choice)
    return surface, policy


def value_at_origin(
    surface: ValueSurface,
    model: ModelSpec,
    modes: ModeSet,
    schedule: CovarianceSchedule,
    rule: QuadratureRule,
) -> np.ndarray:
    """Value estimate per starting mode at the exact initial state (m0, y0).

    Applies the time-zero recursion formula at the origin point itself: the
    belief-averaged payoffs are evaluated at (m0, y0) and the continuation is
    read from the time-zero regression coefficients at the origin's cell.
    """
    basis = surface.basis
    origin = basis.domain.project(np.concatenate([model.m0, model.y0]))[None, :]
    cand, _ = _action_values(
        modes, rule, schedule.sqrt_thetas[0], 0.0, surface.grid.delta, origin,
        surface.coeffs[0], basis.cell_index(origin),
    )
    return (cand[:, 0] - modes.costs).max(axis=1)


def simulate_policy(
    model: ModelSpec,
    modes: ModeSet,
    schedule: CovarianceSchedule,
    surface: ValueSurface,
    policy: Policy,
    rule: QuadratureRule,
    start_mode: int,
    M: int,
    seed: int,
    pointwise_policy: bool = True,
) -> PolicyEvaluation:
    """Replay the estimated policy on fresh paths and average the reward.

    Fresh paths come from the given seed, which callers must keep disjoint
    from the training seed; each step is clamped into the regression domain
    and dropped once acted on.  With ``pointwise_policy`` (default) decisions
    re-run the time-k maximization at the fresh path's exact point, using the
    stored regression coefficients for continuations; otherwise decisions are
    looked up from the per-cell policy table.
    """
    if not 0 <= start_mode < modes.d:
        raise ValueError(f"start_mode must lie in [0, {modes.d}), got {start_mode}")
    grid = surface.grid
    basis = surface.basis
    states = _euler_states(model, grid, schedule, NoiseSource("gaussian"), seed, range(M))

    mode = np.full(M, int(start_mode), dtype=np.int64)
    total = np.zeros(M)
    switches = np.zeros(M, dtype=np.int64)
    rows, times, cost, d = np.arange(M), grid.times, modes.costs, modes.d

    for k in range(grid.n_steps):
        t = float(times[k])
        pts = basis.domain.project(next(states)[1])
        ids = basis.cell_index(pts)
        cand, fbars = _action_values(
            modes, rule, schedule.sqrt_thetas[k], t, grid.delta, pts, surface.coeffs[k], ids
        )
        if pointwise_policy:
            _, jstar = _stay_biased_argmax(cand - cost.T.take(mode, axis=1), mode)
        else:
            jstar = policy.choice[k].take(mode * basis.R + ids)

        total -= cost.take(mode * d + jstar)
        total += grid.delta * fbars.take(jstar * M + rows)
        switches += jstar != mode
        mode = jstar
    next(states)  # step N is never acted on, but a non-finite one still raises

    mean = float(total.mean())
    stderr = float(total.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return PolicyEvaluation(
        mean=mean,
        stderr=stderr,
        mean_switches=float(switches.mean()),
        n_paths=M,
    )
