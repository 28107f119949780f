"""Path simulation: an Euler scheme for the filter state (conditional mean
and observation) driven by its innovation, plus the calibrated box that
places the regression cells.

The regression state is the pair (conditional mean, observation) in
R^{n1 + n2}.  Training and replay paths are the filter states as simulated;
no point is moved.  The box only places the edges of the hypercube
partition, whose outer cells extend past it.  It is calibrated so that the
mean distance from a path point to the box stays below a tolerance, which
is the projection error of the regression: a point beyond the box reads
the continuation of the cell that its clipped point lies in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filtering import (
    CovarianceSchedule, _expm_minus_identity, effective_payoff_batch, rowwise_matvec,
)
from .model import ModelSpec, TimeGrid

__all__ = [
    "SimulationError",
    "CalibrationError",
    "Domain",
    "PathEnsemble",
    "derive_seed",
    "simulate_paths",
    "build_ensemble",
    "calibrate_domain",
    "payoff_sup_on_domain",
]

# Padding for coordinates that never move during the calibration pilot.
_DEGENERATE_PAD = 1e-9
# Quantile ladder tried during calibration, tightest box first.
_Q_LADDER = (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0)
# Fraction of epsilon targeted on the calibration sample itself, leaving
# headroom for the verification sample.
_CALIBRATION_MARGIN = 0.8
_WIDEN_FACTOR = 1.1
_MAX_WIDENINGS = 10
# Paths whose Gaussian streams are drawn before one transposed copy.
_DRAW_BLOCK = 64
# Noise draws one chunk of paths may hold at once: 2**21 floats, 16 MB.
_DRAW_BUDGET = 2 ** 21


class SimulationError(RuntimeError):
    """A path recursion produced a non-finite value."""


class CalibrationError(RuntimeError):
    """Domain calibration could not meet the clip-distortion tolerance."""


def derive_seed(master: int, *labels: int) -> int:
    """Stable derived seed for an auxiliary stream (pilot, evaluation, ...)."""
    ss = np.random.SeedSequence(entropy=(int(master),) + tuple(int(x) for x in labels))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class Domain:
    """Axis-aligned box for the regression state."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise ValueError(f"lows/highs must be equal-length vectors, got {lows.shape} and {highs.shape}")
        if not np.all(lows < highs):
            bad = int(np.argmax(~(lows < highs)))
            raise ValueError(f"domain must have lows < highs, violated at coordinate {bad}")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self) -> int:
        return self.lows.shape[0]

    def widened(self, factor: float) -> "Domain":
        center = 0.5 * (self.lows + self.highs)
        half = 0.5 * (self.highs - self.lows) * factor
        return Domain(lows=center - half, highs=center + half)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Training paths for regression: the regression state (conditional mean,
    observation) on the grid.  Row ell depends only on the simulation seed
    and ell.

    ``z_paths`` has shape (M, N+1, n1 + n2), conditional mean first; from
    ``build_ensemble`` it is a transposed view of time-major storage, so
    ``state(k)`` is one contiguous block.  It is stored read-only;
    ``m_paths``, ``y_paths`` and ``state(k)`` are views of it.  A
    non-finite point is not looked for here: ``HypercubeBasis.cell_index``
    rejects it when the ensemble is indexed.  No signal is simulated, so
    ``x_paths`` is always None; the field stays for callers that read it.
    """

    grid: TimeGrid
    z_paths: np.ndarray
    n1: int
    x_paths: np.ndarray | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z_paths, dtype=float)
        if z.ndim != 3:
            raise ValueError(f"z_paths must have shape (M, N+1, dim), got {z.shape}")
        if z.shape[1] != self.grid.n_steps + 1:
            raise ValueError(
                f"paths have {z.shape[1]} points but grid has {self.grid.n_steps + 1}"
            )
        if not 0 < self.n1 < z.shape[2]:
            raise ValueError(f"n1 must lie in [1, {z.shape[2]}), got {self.n1}")
        z = z.view()
        z.flags.writeable = False
        object.__setattr__(self, "z_paths", z)

    @property
    def M(self) -> int:
        return self.z_paths.shape[0]

    @property
    def m_paths(self) -> np.ndarray:
        """Conditional means (M, N+1, n1)."""
        return self.z_paths[..., : self.n1]

    @property
    def y_paths(self) -> np.ndarray:
        """Observations (M, N+1, n2)."""
        return self.z_paths[..., self.n1:]

    def state(self, k: int) -> np.ndarray:
        """Regression state (M, n1 + n2) at grid index k."""
        return self.z_paths[:, k, :]


def _gaussian_draws(model: ModelSpec, n_steps: int, seed: int, path_ids: Sequence[int],
                    buf: np.ndarray) -> np.ndarray:
    """Per-path innovation draws, each path keyed by (seed, path_id) alone.

    Returns di (N, M, n2) of standard normals: a view of one (draw, path)
    array at the head of the flat ``buf``, filled a block of paths at a time.
    """
    M, rows = len(path_ids), n_steps * model.n2
    draws = buf[:rows * M].reshape(rows, M)
    block = np.empty((min(M, _DRAW_BLOCK), rows))
    # Philox is counter-based: a fresh state under a path's key gives its stream.
    bitgen = np.random.Philox(key=np.array([int(seed) % 2 ** 64, 0], dtype=np.uint64))
    gen, fresh = np.random.Generator(bitgen), bitgen.state
    for start in range(0, M, _DRAW_BLOCK):
        ids = path_ids[start:start + _DRAW_BLOCK]
        for row, pid in zip(block, ids):
            fresh["state"]["key"][1] = int(pid) % 2 ** 64
            bitgen.state = fresh
            gen.standard_normal(out=row)
        draws[:, start:start + len(ids)] = block[:len(ids)].T
    return draws.reshape(n_steps, model.n2, M).transpose(0, 2, 1)


def _chunked_states(model: ModelSpec, grid: TimeGrid, schedule: CovarianceSchedule,
                    seed: int, path_ids: Sequence[int]):
    """``path_ids`` a chunk at a time: yields (sl, states), ``states`` being
    ``_euler_states`` of the paths path_ids[sl], for consecutive slices sl.

    A chunk is the most paths (whole blocks of _DRAW_BLOCK, at least one)
    whose N n2 innovation draws fit in _DRAW_BUDGET floats.  Every chunk
    draws into one buffer, so a caller steps each chunk to its end before
    taking the next.
    """
    per_path = grid.n_steps * model.n2
    size = max(1, _DRAW_BUDGET // (per_path * _DRAW_BLOCK)) * _DRAW_BLOCK
    n_paths = len(path_ids)
    buf = np.empty(per_path * min(size, n_paths))
    for start in range(0, n_paths, size):
        sl = slice(start, min(start + size, n_paths))
        di = _gaussian_draws(model, grid.n_steps, seed, path_ids[sl], buf)
        yield sl, _euler_states(model, grid, schedule, di)


def _check_schedule(schedule: CovarianceSchedule, grid: TimeGrid) -> None:
    """A covariance schedule is read on the grid it was propagated on."""
    if schedule.n_steps != grid.n_steps:
        raise ValueError(
            f"covariance schedule has {schedule.n_steps} steps but grid has {grid.n_steps}"
        )


def _euler_states(model: ModelSpec, grid: TimeGrid, schedule: CovarianceSchedule,
                  di: np.ndarray):
    """The recursion of ``simulate_paths`` one step at a time, from the
    unit-variance innovation draws di (N, M, n2), which it scales by
    sqrt(delta) in place: yields fresh z_k (M, n1 + n2), k = 0..N.
    A non-finite step raises before it is yielded."""
    _check_schedule(schedule, grid)
    n_steps, delta = grid.n_steps, grid.delta
    di *= math.sqrt(delta)
    G = model.G
    exp_f = np.eye(model.n1) + _expm_minus_identity(model.F * delta)
    gains = schedule.thetas[:-1] @ G.T  # theta_k G^T, (N, n1, n2)
    m = np.tile(model.m0, (di.shape[1], 1))
    y = np.tile(model.y0, (di.shape[1], 1))
    yield np.hstack([m, y])

    for k in range(n_steps):
        y = y + rowwise_matvec(G, m) * delta + di[k]
        m = rowwise_matvec(exp_f, m + rowwise_matvec(gains[k], di[k]))
        z = np.hstack([m, y])
        if not np.isfinite(z).all():
            raise SimulationError(
                f"non-finite path value at step {k + 1} (t = {grid.times[k + 1]:g})"
            )
        yield z


def simulate_paths(
    model: ModelSpec,
    grid: TimeGrid,
    schedule: CovarianceSchedule,
    seed: int,
    path_ids: Sequence[int],
) -> np.ndarray:
    """Simulate Gaussian paths of the filter for the given path indices.

    The filter state (m, y) is stepped from its innovation dI = dY - G m dt,
    a Brownian motion of the observation filtration: y_{k+1} = y_k + G m_k
    delta + dI_k and m_{k+1} = exp(F delta) (m_k + theta_k G^T dI_k), from
    (m0, y0), with N n2 normals a path and no signal.  Returns the
    regression state (conditional mean, then observation), shape (M, N+1,
    n1 + n2), as a transposed view of a time-major array, so one grid time
    is one contiguous block.  Path row ell is a function of (seed,
    path_ids[ell]) only, so ensembles of different sizes agree pathwise.
    Paths run a chunk at a time, so a SimulationError names the first
    non-finite step of the first chunk that has one (a later chunk may have
    failed at an earlier step).
    """
    z = np.empty((grid.n_steps + 1, len(path_ids), model.n1 + model.n2))
    for sl, states in _chunked_states(model, grid, schedule, seed, path_ids):
        for k, zk in enumerate(states):
            z[k, sl] = zk
    return z.transpose(1, 0, 2)


def build_ensemble(
    model: ModelSpec,
    grid: TimeGrid,
    schedule: CovarianceSchedule,
    M: int,
    seed: int,
) -> PathEnsemble:
    """The M paths of ``simulate_paths`` (indices 0..M-1) as a PathEnsemble."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    z = simulate_paths(model, grid, schedule, seed, range(M))
    return PathEnsemble(grid=grid, z_paths=z, n1=model.n1)


def _clip_error(cols: np.ndarray, domain: Domain) -> float:
    """Worst mean Euclidean distance to the box over grid times, from one
    time-major (N+1, M) array per regression axis in ``cols``."""
    gaps = (col - np.clip(col, lo, hi) for col, lo, hi in zip(cols, domain.lows, domain.highs))
    # Axes add left to right and paths in index order, so the sums are fixed.
    dist = np.sqrt(sum(gap * gap for gap in gaps))
    return float((np.add.accumulate(dist, axis=1)[:, -1] / dist.shape[1]).max())


def calibrate_domain(
    model: ModelSpec,
    grid: TimeGrid,
    schedule: CovarianceSchedule,
    epsilon: float,
    pilot_M: int = 1000,
    seed: int = 0,
) -> Domain:
    """Choose a box for the regression state with clip distortion <= epsilon.

    A pilot ensemble picks per-coordinate half-widths from a quantile ladder
    (tightest box whose pilot distortion is at most 0.8 * epsilon; the last,
    q = 0, holds every pilot path), then a fresh verification ensemble must
    show distortion <= epsilon at every grid time; the box is widened by 10%
    at most 10 times before giving up with CalibrationError.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if pilot_M < 100:
        raise ValueError(f"pilot_M must be >= 100, got {pilot_M}")
    pilot_seed = derive_seed(seed, 101)
    verify_seed = derive_seed(seed, 102)
    state = simulate_paths(model, grid, schedule, pilot_seed, range(pilot_M))
    cols = state.transpose(2, 1, 0)  # (dim, N+1, M) views of time-major storage
    center = 0.5 * (np.array([col.min() for col in cols]) + np.array([col.max() for col in cols]))
    # (M, dim): per-path sup over time of the distance to the center.
    dev = np.stack([np.abs(col - mid).max(axis=0) for col, mid in zip(cols, center)], axis=1)

    for q in _Q_LADDER:
        half = np.maximum(np.quantile(dev, 1.0 - q, axis=0), _DEGENERATE_PAD)
        domain = Domain(lows=center - half, highs=center + half)
        if _clip_error(cols, domain) <= _CALIBRATION_MARGIN * epsilon:
            break

    verify_state = simulate_paths(model, grid, schedule, verify_seed, range(pilot_M))
    for _ in range(_MAX_WIDENINGS + 1):
        if _clip_error(verify_state.transpose(2, 1, 0), domain) <= epsilon:
            return domain
        domain = domain.widened(_WIDEN_FACTOR)
    raise CalibrationError(
        f"verification distortion still above epsilon={epsilon:g} after "
        f"{_MAX_WIDENINGS} widenings"
    )


def payoff_sup_on_domain(modes, domain: Domain, schedule: CovarianceSchedule, rule, grid: TimeGrid) -> float:
    """Bound on sup |f̄_i| over the box's corners and center at every grid
    time, f̄_i being mode i's belief-averaged payoff from
    ``effective_payoff_batch``.

    Used for the switch-count bound; it bounds |f̄_i| on the box for
    payoffs whose belief averages are monotone in each coordinate (affine
    payoffs among them) and is reported as the working constant otherwise.
    A payoff value that is not finite is an EvaluationError naming the mode.
    """
    _check_schedule(schedule, grid)
    n1 = schedule.thetas.shape[1]
    # Corner r takes the high end of axis c where bit c of r is set.
    high = (np.arange(2 ** domain.dim)[:, None] >> np.arange(domain.dim)) & 1
    center = 0.5 * (domain.lows + domain.highs)
    points = np.vstack([np.where(high, domain.highs, domain.lows), center])  # (P, dim)
    m_pts, y_pts = points[:, :n1], points[:, n1:]

    f_sup = 0.0
    for sqrt_theta, t in zip(schedule.sqrt_thetas, grid.times.tolist()):
        for j in range(len(modes.payoffs)):
            vals = effective_payoff_batch(modes, j, m_pts, sqrt_theta, y_pts, t, rule)
            f_sup = max(f_sup, float(np.abs(vals).max()))
    return f_sup
