"""Path simulation: an Euler scheme for the filter state (conditional mean
and observation) driven by its innovation, plus the calibrated box that
places the regression cells.

The regression state is the pair (conditional mean, observation) in
R^{n1 + n2}.  Training and replay paths are the filter states as simulated;
no point is moved.  The box only places the edges of the hypercube
partition, whose outer cells extend past it.  It is calibrated on the
training paths so that their mean distance to the box stays below a
tolerance at every grid time, which is the projection error of the
regression: a point beyond the box reads the continuation of the cell that
its clipped point lies in.
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
    "Domain",
    "PathEnsemble",
    "derive_seed",
    "simulate_paths",
    "build_ensemble",
    "calibrate_domain",
    "payoff_sup_on_domain",
]

# Padding for coordinates that never move on the calibration paths.
_DEGENERATE_PAD = 1e-9
# Quantile ladder tried during calibration, tightest box first.
_Q_LADDER = (0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0)
# Floats of off-box path points _clip_error gathers at once: 2**17, 1 MB.
_CLIP_BLOCK = 2 ** 17
# Paths whose Gaussian streams are drawn before one copy into time-major order.
_DRAW_BLOCK = 64
# Noise draws one chunk of replay paths may hold at once: 2**21 floats, 16 MB.
_DRAW_BUDGET = 2 ** 21


class SimulationError(RuntimeError):
    """A path recursion produced a non-finite value."""


def derive_seed(master: int, *labels: int) -> int:
    """Stable derived seed for one random stream (training, evaluation, ...)."""
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


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Training paths for regression: the regression state (conditional mean,
    observation) on the grid.  Path ell, ``z_paths[:, ell]``, depends only
    on the simulation seed and ell.

    ``z_paths`` has shape (N+1, M, n1 + n2), grid time first and conditional
    mean first, so ``z_paths[k]``, the M points at grid time k, is one
    contiguous block of ``build_ensemble``'s storage.  It is stored
    read-only; ``m_paths`` and ``y_paths`` are views of it.  A non-finite
    point is not looked for here: ``HypercubeBasis.cell_index`` rejects it
    when the ensemble is indexed.  No signal is simulated, so ``x_paths`` is
    always None; the field stays for callers that read it.
    """

    grid: TimeGrid
    z_paths: np.ndarray
    n1: int
    x_paths: np.ndarray | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z_paths, dtype=float)
        if z.ndim != 3:
            raise ValueError(f"z_paths must have shape (N+1, M, dim), got {z.shape}")
        if z.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"paths have {z.shape[0]} points but grid has {self.grid.n_steps + 1}"
            )
        if not 0 < self.n1 < z.shape[2]:
            raise ValueError(f"n1 must lie in [1, {z.shape[2]}), got {self.n1}")
        z = z.view()
        z.flags.writeable = False
        object.__setattr__(self, "z_paths", z)

    @property
    def M(self) -> int:
        return self.z_paths.shape[1]

    @property
    def m_paths(self) -> np.ndarray:
        """Conditional means (N+1, M, n1)."""
        return self.z_paths[..., : self.n1]

    @property
    def y_paths(self) -> np.ndarray:
        """Observations (N+1, M, n2)."""
        return self.z_paths[..., self.n1:]


def _gaussian_draws(seed: int, path_ids: Sequence[int], draws: np.ndarray) -> np.ndarray:
    """Fills and returns ``draws`` (N, M, n2), any view, with per-path
    standard normal innovation draws, path ell keyed by (seed, path_ids[ell])
    alone, a block of paths at a time."""
    n_steps, M, n2 = draws.shape
    block = np.empty((min(M, _DRAW_BLOCK), n_steps, n2))
    # Philox is counter-based: a fresh state under a path's key gives its stream.
    bitgen = np.random.Philox(key=np.array([int(seed) % 2 ** 64, 0], dtype=np.uint64))
    gen, fresh = np.random.Generator(bitgen), bitgen.state
    for start in range(0, M, _DRAW_BLOCK):
        ids = path_ids[start:start + _DRAW_BLOCK]
        for row, pid in zip(block, ids):
            fresh["state"]["key"][1] = int(pid) % 2 ** 64
            bitgen.state = fresh
            gen.standard_normal(out=row)
        draws[:, start:start + len(ids)] = block[:len(ids)].swapaxes(0, 1)
    return draws


def _chunked_states(model: ModelSpec, grid: TimeGrid, schedule: CovarianceSchedule,
                    seed: int, path_ids: Sequence[int]):
    """``path_ids`` a chunk at a time: yields (sl, states), ``states`` being
    ``_euler_states`` of the paths path_ids[sl], for consecutive slices sl.

    The chunks are the fewest whose N n2 innovation draws fit in
    _DRAW_BUDGET floats, each but the last holding the paths' equal share
    rounded up to whole blocks of _DRAW_BLOCK (at least one).  Every chunk
    draws into one buffer, so a caller steps each chunk to its end before
    taking the next.
    """
    per_path = grid.n_steps * model.n2
    most = max(1, _DRAW_BUDGET // (per_path * _DRAW_BLOCK)) * _DRAW_BLOCK
    n_paths = len(path_ids)
    count = max(1, -(-n_paths // most))
    size = max(1, -(-n_paths // (count * _DRAW_BLOCK))) * _DRAW_BLOCK
    buf = np.empty(per_path * min(size, n_paths))
    for start in range(0, n_paths, size):
        sl = slice(start, min(start + size, n_paths))
        di = buf[:per_path * (sl.stop - sl.start)].reshape(grid.n_steps, -1, model.n2)
        yield sl, _euler_states(model, grid, schedule, _gaussian_draws(seed, path_ids[sl], di))


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
    regression state (conditional mean, then observation) as a C-contiguous
    array of shape (N+1, M, n1 + n2), grid time first, so one grid time is
    one contiguous block.  Path ell, z[:, ell], is a function of (seed,
    path_ids[ell]) only, so ensembles of different sizes agree pathwise.
    Step k's innovations are drawn into the observation slots of z[k + 1],
    so the paths need no draw buffer beside them: ``_euler_states`` reads
    draw k before it yields z_{k+1}, and only then is that slot overwritten.
    Every path steps at once, so a SimulationError names the earliest
    non-finite step over all paths.
    """
    z = np.empty((grid.n_steps + 1, len(path_ids), model.n1 + model.n2))
    di = _gaussian_draws(seed, path_ids, z[1:, :, model.n1:])
    for k, zk in enumerate(_euler_states(model, grid, schedule, di)):
        z[k] = zk
    return z


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


def _clip_error(z: np.ndarray, path_lows: np.ndarray, path_highs: np.ndarray,
                domain: Domain) -> float:
    """Worst mean Euclidean distance to the box over grid times of the paths
    z (N+1, M, dim), whose extremes over time are path_lows and path_highs
    (M, dim).

    Only the paths that leave the box are read, a block of grid times at a
    time: a path inside it adds an exact 0.0 to every sum.
    """
    leaving = np.flatnonzero(((path_lows < domain.lows) | (path_highs > domain.highs)).any(axis=1))
    if leaving.size == 0:
        return 0.0
    rows = max(1, _CLIP_BLOCK // (leaving.size * z.shape[2]))
    worst = 0.0
    for k in range(0, z.shape[0], rows):
        pts = z[k:k + rows, leaving]
        gaps = pts - np.clip(pts, domain.lows, domain.highs)
        # Axes add left to right and paths in index order, so the sums are fixed.
        dist = np.sqrt(sum(gaps[..., a] * gaps[..., a] for a in range(gaps.shape[2])))
        worst = max(worst, float((np.add.accumulate(dist, axis=1)[:, -1] / z.shape[1]).max()))
    return worst


def calibrate_domain(ensemble: PathEnsemble, epsilon: float) -> Domain:
    """Choose a box for the regression state whose clip distortion on the
    ensemble's paths is at most epsilon at every grid time.

    The box is centred on the paths' range.  Its per-coordinate half-widths
    are quantiles of each path's largest deviation from the centre, taken
    from a ladder: the tightest box that meets epsilon.  The last rung,
    q = 0, holds every path (stretched by the rounding it may miss by), so
    the ladder always ends.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    z = ensemble.z_paths
    # Rounding is monotone, so the extremes give each path's deviation from
    # the centre as the points themselves would.
    path_lows, path_highs = z.min(axis=0), z.max(axis=0)
    lows, highs = path_lows.min(axis=0), path_highs.max(axis=0)
    center = 0.5 * (lows + highs)
    dev = np.maximum(path_highs - center, center - path_lows)

    for q in _Q_LADDER:
        half = np.maximum(np.quantile(dev, 1.0 - q, axis=0), _DEGENERATE_PAD)
        domain = Domain(lows=center - half, highs=center + half)
        if _clip_error(z, path_lows, path_highs, domain) <= epsilon:
            return domain
    # Rounding can leave the outermost point an ulp beyond the q = 0 box.
    return Domain(lows=np.minimum(domain.lows, lows), highs=np.maximum(domain.highs, highs))


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
