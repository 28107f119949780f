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
from contextlib import closing
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
# Path ids whose innovations at one step share a Philox stream (see _step_draws): a sparse
# id set draws up to this many a block a step; 4 096 draws range(M) only ~10% faster.
_PATH_BLOCK = 1024
# Version of the innovation streams, named in the manifest of a command that draws.
_RNG_STREAM = "philox-step-block/2"
# Floats of innovations in one chunk of steps, 2**15 (256 KiB); _step_draws keeps up to two chunks.
_CHUNK = 2 ** 15


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


def _step_draws(seed: int, path_ids: Sequence[int], n_steps: int, n2: int):
    """Yields step k's standard normal innovations of the paths path_ids,
    (M, n2), for k = 0..n_steps-1.

    Path ell's draws at step k are the n2 normals at position ell % B of the
    Philox stream with key (seed, k) and counter (0, 0, 0, ell // B), B =
    _PATH_BLOCK, so they depend on (seed, ell, k) alone.  Each block of ids
    in the set draws its stream up to its last wanted position: a sparse id
    set costs up to B n2 normals a block a step.

    Steps are drawn in chunks of L = max(1, min(n_steps, _CHUNK // (M n2)))
    into a ring of min(2, chunks) C-contiguous (L, M, n2) buffers; step k's
    array is a row of one.  The first chunk is drawn here.  Each later one
    is drawn by one helper thread while the caller takes the chunk before it
    (numpy's normals release the GIL), and is handed over only once it is
    complete, so no value depends on thread timing.  The helper is joined
    when the generator ends, is closed or raises, and an error raised in it
    is raised here, at the first step of its chunk.
    """
    # Imported here: at the top it would add its logging import, ~2.6 ms, to `import switchmc`.
    from concurrent.futures import ThreadPoolExecutor

    if isinstance(path_ids, range):  # start + step i wraps mod 2**64 in uint64, as listed ids do
        step = np.uint64(path_ids.step % 2 ** 64)
        ids = np.uint64(path_ids.start % 2 ** 64) + step * np.arange(len(path_ids), dtype=np.uint64)
    else:
        ids = np.fromiter((int(p) % 2 ** 64 for p in path_ids), dtype=np.uint64, count=len(path_ids))
    blocks, positions = np.divmod(ids, np.uint64(_PATH_BLOCK))
    order = np.argsort(blocks, kind="stable")
    groups = []  # (block, buffer rows, stream positions to gather, or None: drawn straight in)
    for rows in np.split(order, np.flatnonzero(np.diff(blocks[order])) + 1) if ids.size else ():
        block, pos = int(blocks[rows[0]]), positions[rows]
        if rows[-1] - rows[0] == pos[-1] == len(rows) - 1 and (np.diff(pos) == 1).all():
            rows, pos = slice(rows[0], rows[-1] + 1), None
        groups.append((block, rows, pos))
    steps = max(1, min(n_steps, _CHUNK // max(1, len(ids) * n2)))
    n_chunks = -(-n_steps // steps)
    ring, scratch = np.empty((min(2, n_chunks), steps, len(ids), n2)), np.empty((_PATH_BLOCK, n2))
    bitgen = np.random.Philox(key=np.array([int(seed) % 2 ** 64, 0], dtype=np.uint64))
    gen, state = np.random.Generator(bitgen), bitgen.state

    def draw(c: int) -> None:  # chunk c into ring[c % 2], by one thread at a time
        for k, buf in zip(range(c * steps, n_steps), ring[c % 2]):
            state["state"]["key"][1] = k
            for block, rows, pos in groups:
                state["state"]["counter"][3] = block
                bitgen.state = state
                if pos is None:
                    gen.standard_normal(out=buf[rows])
                else:  # drawn up to the last wanted position, then gathered
                    buf[rows] = gen.standard_normal(out=scratch[:pos.max() + 1])[pos]

    draw(0)
    with ThreadPoolExecutor(1) as helper:  # its thread starts at the first submit
        for c in range(n_chunks):
            ahead = helper.submit(draw, c + 1) if c + 1 < n_chunks else None
            yield from ring[c % 2, :n_steps - c * steps]
            if ahead is not None:
                ahead.result()


def _check_schedule(schedule: CovarianceSchedule, grid: TimeGrid) -> None:
    """A covariance schedule is read on the grid it was propagated on."""
    if schedule.n_steps != grid.n_steps:
        raise ValueError(
            f"covariance schedule has {schedule.n_steps} steps but grid has {grid.n_steps}"
        )


def _euler_states(model: ModelSpec, grid: TimeGrid, schedule: CovarianceSchedule, draws,
                  out: np.ndarray):
    """The recursion of ``simulate_paths`` one step at a time, from the N
    unit-variance innovation draws (P, n2) that ``draws`` yields in step
    order, each scaled by sqrt(delta) in place as its step is taken.  Writes
    z_k into the slot out[k % len(out)] of ``out`` (S, P, n1 + n2), S >= 2,
    and yields that slot, k = 0..N, or raises at a non-finite one."""
    _check_schedule(schedule, grid)
    G, n1, slots = model.G, model.n1, len(out)
    delta, sqrt_delta = grid.delta, math.sqrt(grid.delta)
    exp_f = np.eye(n1) + _expm_minus_identity(model.F * delta)
    gains = schedule.thetas[:-1] @ G.T  # theta_k G^T, (N, n1, n2)
    # Stepped in contiguous (P, n1) and (P, n2) arrays, swapped each step: a
    # slot's m and y columns are strided, which slows every ufunc on them.
    m, m_next, kick = (np.empty((out.shape[1], n1)) for _ in range(3))  # kick: m_k + theta_k G^T dI_k
    y, y_next = (np.empty((out.shape[1], model.n2)) for _ in range(2))
    m[:], y[:] = model.m0, model.y0
    z = out[0]
    z[:, :n1], z[:, n1:] = m, y
    yield z

    for k, dk in enumerate(draws):
        z = out[(k + 1) % slots]
        dk *= sqrt_delta
        # y + (G m) delta + dk and exp(F delta) (m + gain dk), in that order.
        rowwise_matvec(G, m, out=y_next)
        y_next *= delta
        y_next += y
        y_next += dk
        rowwise_matvec(gains[k], dk, out=kick)
        kick += m
        rowwise_matvec(exp_f, kick, out=m_next)
        m, m_next, y, y_next = m_next, m, y_next, y
        z[:, :n1], z[:, n1:] = m, y
        if not np.isfinite(z).all():
            raise SimulationError(
                f"non-finite path value at step {k + 1} (t = {grid.times[k + 1]:g})"
            )
        yield z


def _path_states(model: ModelSpec, grid: TimeGrid, schedule: CovarianceSchedule,
                 seed: int, path_ids: Sequence[int], out: np.ndarray):
    """``_euler_states`` of the paths path_ids into ``out``, drawn by ``_step_draws``,
    whose helper thread is joined when the states end, are closed or raise."""
    with closing(_step_draws(seed, path_ids, grid.n_steps, model.n2)) as draws:
        yield from _euler_states(model, grid, schedule, draws, out)


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
    Each step's innovations are drawn a chunk ahead (``_step_draws``), and
    the step is written into its slot of the array returned.
    Every path steps at once, so a SimulationError names the earliest
    non-finite step over all paths.
    """
    z = np.empty((grid.n_steps + 1, len(path_ids), model.n1 + model.n2))
    for _ in _path_states(model, grid, schedule, seed, path_ids, z):
        pass
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
