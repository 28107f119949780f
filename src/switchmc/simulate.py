"""Path simulation: Euler schemes for signal, observation, and conditional
mean, plus domain calibration and projection for the regression state.

The regression state is the pair (conditional mean, observation) in
R^{n1 + n2}.  Training paths are simulated freely and then clamped onto a
compact box so that hypercube regression sees a bounded state; the box is
calibrated so the expected clamp distortion stays below a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filtering import _MAX_CHUNK_POINTS, CovarianceSchedule, mean_step, psd_sqrt, rowwise_matvec
from .model import ModelSpec, TimeGrid

__all__ = [
    "SimulationError",
    "CalibrationError",
    "Domain",
    "NoiseSource",
    "PathEnsemble",
    "derive_seed",
    "simulate_paths",
    "build_ensemble",
    "calibrate_domain",
    "payoff_sup_on_domain",
]

_NOISE_KINDS = ("gaussian", "two_point")
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


class SimulationError(RuntimeError):
    """A path recursion produced a non-finite value."""


class CalibrationError(RuntimeError):
    """Domain calibration could not meet the clamp-distortion tolerance."""


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

    def project(self, points: np.ndarray) -> np.ndarray:
        """Componentwise clamp onto the box (idempotent, 1-Lipschitz)."""
        return np.clip(np.asarray(points, dtype=float), self.lows, self.highs)

    def widened(self, factor: float) -> "Domain":
        center = 0.5 * (self.lows + self.highs)
        half = 0.5 * (self.highs - self.lows) * factor
        return Domain(lows=center - half, highs=center + half)


@dataclass(frozen=True)
class NoiseSource:
    """Driving noise: 'gaussian' Brownian increments, or 'two_point' increments
    of +-sqrt(delta) read off the path index bits for exhaustive enumeration."""

    kind: str = "gaussian"

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {_NOISE_KINDS}, got '{self.kind}'")


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Training paths for regression: the regression state (conditional mean,
    observation) on the grid, clamped into ``domain``.  Row ell depends only
    on the simulation seed and ell.

    ``z_paths`` has shape (M, N+1, n1 + n2), conditional mean first; from
    ``build_ensemble`` it is a transposed view of time-major storage, so
    ``state(k)`` is one contiguous block.  It is stored read-only;
    ``m_paths``, ``y_paths`` and ``state(k)`` are views of it.  Points
    outside ``domain`` are not looked for here: ``build_ensemble`` clamps
    every point, and ``HypercubeBasis.cell_index`` rejects any point outside
    the domain when the ensemble is indexed.
    """

    grid: TimeGrid
    domain: Domain
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
        if z.shape[2] != self.domain.dim:
            raise ValueError(
                f"state dimension {z.shape[2]} does not match domain dim {self.domain.dim}"
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


def _gaussian_draws(model: ModelSpec, n_steps: int, seed: int, path_ids: Sequence[int]):
    """Per-path draws, each path keyed by (seed, path_id) alone.

    Returns z0 (M, n1), dw (N, M, m1), du (N, M, n2) of standard normals:
    views of one (draw, path) array, filled a block of paths at a time.
    """
    n1, m1, n2 = model.n1, model.m1, model.n2
    M = len(path_ids)
    draws = np.empty((n1 + n_steps * (m1 + n2), M))
    block = np.empty((min(M, _DRAW_BLOCK), draws.shape[0]))
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
    split = n1 + n_steps * m1
    dw = draws[n1:split].reshape(n_steps, m1, M).transpose(0, 2, 1)
    du = draws[split:].reshape(n_steps, n2, M).transpose(0, 2, 1)
    return draws[:n1].T, dw, du


def _two_point_draws(model: ModelSpec, n_steps: int, path_ids: Sequence[int]):
    """Sign patterns +-1 read from the base-2 digits of each path index,
    time-major: dw (N, M, m1) and du (N, M, n2).

    Bit k*(m1+n2)+c of the path index selects the sign of noise component c
    at step k (signal components first, then observation components).  With
    M = 2^(N*(m1+n2)) consecutive indices the ensemble enumerates every
    pattern exactly once.
    """
    m1 = model.m1
    width = m1 + model.n2
    ids = np.asarray(path_ids, dtype=np.int64)
    bits = np.arange(n_steps * width).reshape(n_steps, 1, width)
    signs = np.where((ids[None, :, None] >> bits) & 1, 1.0, -1.0)
    return signs[..., :m1], signs[..., m1:]


def _euler_states(model: ModelSpec, grid: TimeGrid, schedule: CovarianceSchedule,
                  noise: NoiseSource, seed: int, path_ids: Sequence[int]):
    """The recursion of ``simulate_paths`` one step at a time: yields fresh
    (x_k, z_k), (M, n1) and unclamped (M, n1 + n2), for k = 0..N.  The noise
    draws are made up front; a non-finite step raises before it is yielded."""
    if schedule.n_steps != grid.n_steps:
        raise ValueError(
            f"covariance schedule has {schedule.n_steps} steps but grid has {grid.n_steps}"
        )
    n_steps, delta, n1 = grid.n_steps, grid.delta, model.n1
    if noise.kind == "gaussian":
        z0, dw, du = _gaussian_draws(model, n_steps, seed, path_ids)
        x = model.m0[None, :] + rowwise_matvec(psd_sqrt(model.theta0), z0)
    else:
        dw, du = _two_point_draws(model, n_steps, path_ids)
        x = np.tile(model.m0, (len(path_ids), 1))
    dw *= math.sqrt(delta)
    du *= math.sqrt(delta)
    z = np.tile(np.concatenate([model.m0, model.y0]), (len(path_ids), 1))
    yield x, z

    F, C, G = model.F, model.C, model.G
    for k in range(n_steps):
        dy = rowwise_matvec(G, x) * delta + du[k]
        x = x + rowwise_matvec(F, x) * delta + rowwise_matvec(C, dw[k])
        z = np.hstack([mean_step(z[:, :n1], dy, schedule.thetas[k], F, G, delta), z[:, n1:] + dy])
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise SimulationError(
                f"non-finite path value at step {k + 1} (t = {grid.times[k + 1]:g})"
            )
        yield x, z


def simulate_paths(
    model: ModelSpec,
    grid: TimeGrid,
    schedule: CovarianceSchedule,
    noise: NoiseSource,
    seed: int,
    path_ids: Sequence[int],
):
    """Simulate raw (unclamped) Euler paths for the given path indices.

    Returns (z, x) with shapes (M, N+1, n1 + n2) and (M, N+1, n1): the
    regression state (conditional mean, then observation) and the signal,
    as transposed views of time-major arrays, so one grid time is one
    contiguous block.  Path row ell is a function of (seed, path_ids[ell])
    only, so ensembles of different sizes agree pathwise.  Gaussian noise
    draws the signal start from N(m0, theta0); two-point noise starts the
    signal at m0 exactly.
    """
    shape = (grid.n_steps + 1, len(path_ids))
    x, z = np.empty(shape + (model.n1,)), np.empty(shape + (model.n1 + model.n2,))
    for k, (xk, zk) in enumerate(_euler_states(model, grid, schedule, noise, seed, path_ids)):
        x[k], z[k] = xk, zk
    return z.transpose(1, 0, 2), x.transpose(1, 0, 2)


def build_ensemble(
    model: ModelSpec,
    grid: TimeGrid,
    schedule: CovarianceSchedule,
    domain: Domain,
    M: int,
    noise: NoiseSource,
    seed: int,
    store_signal: bool = False,
) -> PathEnsemble:
    """Simulate M paths (indices 0..M-1) and clamp the regression state into
    ``domain``, one step at a time.  Signal paths are stored unclamped when
    requested, and not allocated otherwise."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    z = np.empty((grid.n_steps + 1, M, model.n1 + model.n2))
    x = np.empty((grid.n_steps + 1, M, model.n1)) if store_signal else None
    for k, (xk, zk) in enumerate(_euler_states(model, grid, schedule, noise, seed, range(M))):
        np.clip(zk, domain.lows, domain.highs, out=z[k])
        if store_signal:
            x[k] = xk
    return PathEnsemble(grid=grid, domain=domain, z_paths=z.transpose(1, 0, 2), n1=model.n1,
                        x_paths=x.transpose(1, 0, 2) if store_signal else None)


def _clip_error(cols: np.ndarray, domain: Domain) -> float:
    """Worst mean Euclidean clamp distortion over grid times, from one
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
    """Choose a box for the regression state with clamp distortion <= epsilon.

    A pilot ensemble picks per-coordinate half-widths from a quantile ladder
    (tightest box whose pilot distortion is at most 0.8 * epsilon), then a
    fresh verification ensemble must show distortion <= epsilon at every
    grid time; the box is widened by 10% at most 10 times before giving up
    with CalibrationError.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if pilot_M < 100:
        raise ValueError(f"pilot_M must be >= 100, got {pilot_M}")
    noise = NoiseSource("gaussian")
    pilot_seed = derive_seed(seed, 101)
    verify_seed = derive_seed(seed, 102)
    state, _ = simulate_paths(model, grid, schedule, noise, pilot_seed, range(pilot_M))
    cols = state.transpose(2, 1, 0)  # (dim, N+1, M) views of time-major storage
    center = 0.5 * (np.array([col.min() for col in cols]) + np.array([col.max() for col in cols]))
    # (M, dim): per-path sup over time of the distance to the center.
    dev = np.stack([np.abs(col - mid).max(axis=0) for col, mid in zip(cols, center)], axis=1)

    for q in _Q_LADDER:
        half = np.maximum(np.quantile(dev, 1.0 - q, axis=0), _DEGENERATE_PAD)
        domain = Domain(lows=center - half, highs=center + half)
        if _clip_error(cols, domain) <= _CALIBRATION_MARGIN * epsilon:
            break
    else:
        raise CalibrationError(
            f"no quantile box met the pilot distortion target {_CALIBRATION_MARGIN * epsilon:g}"
        )

    verify_state, _ = simulate_paths(model, grid, schedule, noise, verify_seed, range(pilot_M))
    for _ in range(_MAX_WIDENINGS + 1):
        if _clip_error(verify_state.transpose(2, 1, 0), domain) <= epsilon:
            return domain
        domain = domain.widened(_WIDEN_FACTOR)
    raise CalibrationError(
        f"verification distortion still above epsilon={epsilon:g} after "
        f"{_MAX_WIDENINGS} widenings"
    )


def payoff_sup_on_domain(modes, domain: Domain, schedule: CovarianceSchedule, rule, grid: TimeGrid) -> float:
    """Bound on sup |f_i| over domain corners and centers, with the signal
    argument shifted through the quadrature nodes of the belief at each time.

    Used for the switch-count bound; payoffs are evaluated at box corners and
    the center, which bounds the belief-averaged payoffs there for payoffs
    monotone in each coordinate and is reported as the working constant
    otherwise.
    """
    n1 = schedule.thetas.shape[1]
    n2 = domain.dim - n1
    # Corner r takes the high end of axis c where bit c of r is set.
    high = (np.arange(2 ** domain.dim)[:, None] >> np.arange(domain.dim)) & 1
    center = 0.5 * (domain.lows + domain.highs)
    points = np.vstack([np.where(high, domain.highs, domain.lows), center])  # (P, dim)
    m_pts, y_pts = points[:, :n1], points[:, n1:]

    f_sup = 0.0
    times = grid.times
    # A block of corners shifted by every node is at most _MAX_CHUNK_POINTS points.
    rows = max(1, _MAX_CHUNK_POINTS // rule.n_nodes)
    for k in range(grid.n_steps + 1):
        sqrt_theta = schedule.sqrt_thetas[min(k, schedule.n_steps)]
        shifts = rule.nodes @ sqrt_theta.T  # (Qn, n1)
        t = float(times[k])
        for start in range(0, len(points), rows):
            xs = m_pts[start:start + rows, None, :] + shifts[None, :, :]  # (rows, Qn, n1)
            ys = np.broadcast_to(y_pts[start:start + rows, None, :], xs.shape[:-1] + (n2,))
            for payoff in modes.payoffs:
                vals = np.asarray(payoff(xs, ys, t), dtype=float)
                if vals.size:
                    f_sup = max(f_sup, float(np.abs(vals).max()))
    return f_sup
