"""Backward dynamic programming over simulated paths.

The value of running the system from grid time t_k in mode i is approximated
on the training ensemble by

    v_i(t_k, Z_ell) = max_j [ delta * fbar_j(Z_ell, t_k)
                              + E[v_j(t_{k+1}) | cell(Z_ell)] - c_ij ]

with terminal value zero, where the conditional expectation is the empirical
cell average of next-step values and fbar_j is the belief-averaged payoff at
the exact path point.  The replay re-makes each decision at the fresh
state; ties prefer staying in the current mode, then the smallest mode index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import CovarianceSchedule, QuadratureRule, effective_payoff_batch
from .model import ModelSpec, ModeSet, TimeGrid
from .regress import HypercubeBasis, empirical_coefficients, memberships, regress_eval
from .simulate import PathEnsemble, _check_schedule, _chunked_states

__all__ = [
    "ValueSurface",
    "PolicyEvaluation",
    "backward_induction",
    "value_at_origin",
    "simulate_policy",
]


@dataclass(frozen=True, eq=False)
class ValueSurface:
    """The estimate at the origin and per-time regression coefficients.

    ``values`` has shape (d,): values[i] estimates the time-0 value in mode i
    at the initial state, where every training path starts.  ``coeffs[k]`` is
    the (d, R) CoefficientVector regressing values at t_{k+1} on cells at
    t_k, for k = 0..N-1; ``coeffs[k].lambdas[j]`` is mode j's row.
    """

    grid: TimeGrid
    basis: HypercubeBasis
    values: np.ndarray
    coeffs: tuple

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"values must have shape (d,), got {values.shape}")
        n_steps = self.grid.n_steps
        if len(self.coeffs) != n_steps:
            raise ValueError(f"need {n_steps} coefficient levels, got {len(self.coeffs)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def M(self) -> int:
        """Training path count: every path sits in one cell at time 0."""
        return int(self.coeffs[0].counts.sum())


@dataclass(frozen=True)
class PolicyEvaluation:
    """Out-of-sample replay summary: mean reward, its standard error, and the
    mean number of switches per path."""

    mean: float
    stderr: float
    mean_switches: float


def _stay_biased_argmax(action_values: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Column-wise argmax of (d, P) action values where ties keep the column's
    current mode if it attains the max, else the smallest."""
    d, P = action_values.shape
    best = action_values.max(axis=0)
    smallest = np.zeros(P, dtype=np.int64)
    for j in range(d - 1, -1, -1):
        smallest[action_values[j] == best] = j
    cur_vals = action_values.ravel().take(current * P + np.arange(P))
    return np.where(cur_vals == best, current, smallest)


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
    modes: ModeSet,
    schedule: CovarianceSchedule,
    rule: QuadratureRule,
):
    """Run the backward recursion on the training ensemble, regressing on
    the cells of ``basis`` that ``memberships`` assigns to its paths.

    Returns (ValueSurface, None).  Terminal values are zero; at each time
    the continuation is the per-cell empirical average of next-step values
    (``surface.coeffs[k].counts``, the cell counts, give ``estimate_pmin``)
    and the running payoff is integrated against the belief at the exact
    path point.  Decisions are not stored: ``simulate_policy`` re-makes them.
    """
    grid = ensemble.grid
    _check_schedule(schedule, grid)
    n_steps = grid.n_steps
    d, M, R = modes.d, ensemble.M, basis.R
    cell_ids = memberships(ensemble, basis)

    # Values at t_{k+1} and at t_k; the recursion reads only the level above.
    above, values = np.zeros((d, M)), np.empty((d, M))
    coeffs: list = [None] * n_steps
    times, cost = grid.times, modes.costs

    for k in range(n_steps - 1, -1, -1):
        t = float(times[k])
        ids = cell_ids[k]
        coeffs[k] = empirical_coefficients(above, ids, R)
        cand, _ = _action_values(
            modes, rule, schedule.sqrt_thetas[k], t, grid.delta, ensemble.state(k), coeffs[k], ids
        )
        np.max(cand[None] - cost[:, :, None], axis=1, out=values)
        above, values = values, above

    # Every path starts at the origin, so each column of level 0 is its value.
    surface = ValueSurface(grid=grid, basis=basis, values=above[:, 0].copy(), coeffs=tuple(coeffs))
    # A pair only because perfbench/spans.py:61 reads the surface as result[0].
    return surface, None


def value_at_origin(surface: ValueSurface) -> np.ndarray:
    """Value estimate per starting mode at the exact initial state (m0, y0):
    the time-zero level of the backward induction, shape (d,)."""
    return surface.values.copy()


def simulate_policy(
    model: ModelSpec,
    modes: ModeSet,
    schedule: CovarianceSchedule,
    surface: ValueSurface,
    policy,  # ignored; kept because perfbench/workloads.py:121 passes res.policy here
    rule: QuadratureRule,
    start_mode: int,
    M: int,
    seed: int,
) -> PolicyEvaluation:
    """Replay the estimated policy on fresh paths and average the reward.

    Fresh paths come from the given seed, which callers must keep disjoint
    from the training seed; each step is acted on, and paid at, the filter
    state as simulated, then dropped.  Each decision re-runs the time-k
    maximization at the fresh path's exact point, with continuations read
    from the surface's regression coefficients; ties keep the current mode,
    else take the smallest.  ``policy`` is ignored.  Paths are replayed a
    chunk at a time, so a SimulationError is reported as ``simulate_paths``
    reports it.
    """
    if not 0 <= start_mode < modes.d:
        raise ValueError(f"start_mode must lie in [0, {modes.d}), got {start_mode}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    grid = surface.grid
    basis = surface.basis
    total = np.zeros(M)
    switches = np.zeros(M, dtype=np.int64)
    times, cost, d = grid.times, modes.costs, modes.d

    for sl, states in _chunked_states(model, grid, schedule, seed, range(M)):
        P = sl.stop - sl.start
        mode, rows = np.full(P, int(start_mode), dtype=np.int64), np.arange(P)
        for k in range(grid.n_steps):
            t = float(times[k])
            pts = next(states)
            ids = basis.cell_index(pts)
            cand, fbars = _action_values(
                modes, rule, schedule.sqrt_thetas[k], t, grid.delta, pts, surface.coeffs[k], ids
            )
            jstar = _stay_biased_argmax(cand - cost.T.take(mode, axis=1), mode)
            total[sl] -= cost.take(mode * d + jstar)
            total[sl] += grid.delta * fbars.take(jstar * P + rows)
            switches[sl] += jstar != mode
            mode = jstar
        next(states)  # step N is never acted on, but a non-finite one still raises

    mean = float(total.mean())
    stderr = float(total.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return PolicyEvaluation(
        mean=mean,
        stderr=stderr,
        mean_switches=float(switches.mean()),
    )
