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

from .filtering import CovarianceSchedule, mean_step, psd_sqrt, rowwise_matvec
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
    """Axis-aligned box for the regression state, with clamp tolerance epsilon."""

    lows: np.ndarray
    highs: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise ValueError(f"lows/highs must be equal-length vectors, got {lows.shape} and {highs.shape}")
        if not np.all(lows < highs):
            bad = int(np.argmax(~(lows < highs)))
            raise ValueError(f"domain must have lows < highs, violated at coordinate {bad}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def dim(self) -> int:
        return self.lows.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.highs - self.lows

    def project(self, points: np.ndarray) -> np.ndarray:
        """Componentwise clamp onto the box (idempotent, 1-Lipschitz)."""
        return np.clip(np.asarray(points, dtype=float), self.lows, self.highs)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.all((pts >= self.lows) & (pts <= self.highs), axis=-1)

    def widened(self, factor: float) -> "Domain":
        center = 0.5 * (self.lows + self.highs)
        half = 0.5 * (self.highs - self.lows) * factor
        return Domain(lows=center - half, highs=center + half, epsilon=self.epsilon)


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
    on (seed, ell).

    ``z_paths`` has shape (M, N+1, n1 + n2), conditional mean first.  It is
    stored read-only; ``m_paths``, ``y_paths`` and ``state(k)`` are views of
    it.
    """

    grid: TimeGrid
    domain: Domain
    z_paths: np.ndarray
    n1: int
    seed: int
    noise: NoiseSource
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
        if not bool(np.all(self.domain.contains(z))):
            raise ValueError("ensemble contains points outside the domain; project first")
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

    Returns z0 (M, n1), dw (M, N, m1), du (M, N, m2) of standard normals.
    """
    n1, m1, m2 = model.n1, model.m1, model.m2
    M = len(path_ids)
    total = n1 + n_steps * (m1 + m2)
    z0 = np.empty((M, n1))
    dw = np.empty((M, n_steps, m1))
    du = np.empty((M, n_steps, m2))
    key_hi = int(seed) % (2 ** 64)
    for row, pid in enumerate(path_ids):
        key = np.array([key_hi, int(pid) % (2 ** 64)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        draws = gen.standard_normal(total)
        z0[row] = draws[:n1]
        dw[row] = draws[n1:n1 + n_steps * m1].reshape(n_steps, m1)
        du[row] = draws[n1 + n_steps * m1:].reshape(n_steps, m2)
    return z0, dw, du


def _two_point_draws(model: ModelSpec, n_steps: int, path_ids: Sequence[int]):
    """Sign patterns +-1 read from the base-2 digits of each path index.

    Bit k*(m1+m2)+c of the path index selects the sign of noise component c
    at step k (signal components first, then observation components).  With
    M = 2^(N*(m1+m2)) consecutive indices the ensemble enumerates every
    pattern exactly once.
    """
    m1, m2 = model.m1, model.m2
    width = m1 + m2
    M = len(path_ids)
    signs = np.empty((M, n_steps, width))
    for row, pid in enumerate(path_ids):
        pid = int(pid)
        for k in range(n_steps):
            for c in range(width):
                bit = (pid >> (k * width + c)) & 1
                signs[row, k, c] = 1.0 if bit else -1.0
    dw = signs[:, :, :m1]
    du = signs[:, :, m1:]
    return dw, du


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
    regression state (conditional mean, then observation) and the signal.
    Path row ell is a function of (seed, path_ids[ell]) only, so ensembles
    of different sizes agree pathwise.  Gaussian noise draws the signal start
    from N(m0, theta0); two-point noise starts the signal at m0 exactly.
    """
    if schedule.n_steps != grid.n_steps:
        raise ValueError(
            f"covariance schedule has {schedule.n_steps} steps but grid has {grid.n_steps}"
        )
    n_steps, delta = grid.n_steps, grid.delta
    n1, n2 = model.n1, model.n2
    M = len(path_ids)
    sqrt_delta = math.sqrt(delta)

    if noise.kind == "gaussian":
        z0, dw, du = _gaussian_draws(model, n_steps, seed, path_ids)
        x0 = model.m0[None, :] + rowwise_matvec(psd_sqrt(model.theta0), z0)
    else:
        dw, du = _two_point_draws(model, n_steps, path_ids)
        x0 = model.m0
    dw *= sqrt_delta
    du *= sqrt_delta

    x = np.empty((M, n_steps + 1, n1))
    z = np.empty((M, n_steps + 1, n1 + n2))
    x[:, 0, :] = x0
    z[:, 0, :n1] = model.m0
    z[:, 0, n1:] = model.y0

    for k in range(n_steps):
        F = model.F[k]
        C = model.C[k]
        G = model.G[k]
        xk = x[:, k, :]
        x_next = xk + rowwise_matvec(F, xk) * delta + rowwise_matvec(C, dw[:, k, :])
        dy = rowwise_matvec(G, xk) * delta + du[:, k, :]
        y_next = z[:, k, n1:] + dy
        m_next = mean_step(z[:, k, :n1], dy, schedule.thetas[k], F, G, delta)
        if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(m_next)) and np.all(np.isfinite(y_next))):
            raise SimulationError(
                f"non-finite path value at step {k + 1} (t = {grid.times[k + 1]:g})"
            )
        x[:, k + 1, :] = x_next
        z[:, k + 1, :n1] = m_next
        z[:, k + 1, n1:] = y_next

    return z, x


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
    ``domain``.  Signal paths are stored unclamped when requested."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    z, x = simulate_paths(model, grid, schedule, noise, seed, range(M))
    np.clip(z, domain.lows, domain.highs, out=z)
    return PathEnsemble(
        grid=grid,
        domain=domain,
        z_paths=z,
        n1=model.n1,
        seed=seed,
        noise=noise,
        x_paths=x if store_signal else None,
    )


def _clip_error(state: np.ndarray, domain: Domain) -> float:
    """Worst mean Euclidean clamp distortion over grid times.

    ``state`` has shape (M, N+1, dim); the mean over paths of the distortion
    norm is taken per time, and the max over times returned.
    """
    clamped = np.clip(state, domain.lows, domain.highs)
    dist = np.sqrt(np.sum((state - clamped) ** 2, axis=-1))
    return float(dist.mean(axis=0).max())


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
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if pilot_M < 100:
        raise ValueError(f"pilot_M must be >= 100, got {pilot_M}")
    noise = NoiseSource("gaussian")
    pilot_seed = derive_seed(seed, 101)
    verify_seed = derive_seed(seed, 102)
    state, _ = simulate_paths(model, grid, schedule, noise, pilot_seed, range(pilot_M))

    lo_env = state.min(axis=(0, 1))
    hi_env = state.max(axis=(0, 1))
    center = 0.5 * (lo_env + hi_env)
    dev = np.abs(state - center).max(axis=1)  # (M, dim): per-path sup over time

    domain = None
    for q in _Q_LADDER:
        half = np.quantile(dev, 1.0 - q, axis=0)
        half = np.maximum(half, _DEGENERATE_PAD)
        candidate = Domain(lows=center - half, highs=center + half, epsilon=epsilon)
        if _clip_error(state, candidate) <= _CALIBRATION_MARGIN * epsilon:
            domain = candidate
            break
    if domain is None:
        raise CalibrationError(
            f"no quantile box met the pilot distortion target {_CALIBRATION_MARGIN * epsilon:g}"
        )

    verify_state, _ = simulate_paths(model, grid, schedule, noise, verify_seed, range(pilot_M))
    for _ in range(_MAX_WIDENINGS + 1):
        if _clip_error(verify_state, domain) <= epsilon:
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
    dim = domain.dim
    n2 = dim - n1
    corners = [domain.lows, domain.highs]
    points = []
    for mask in range(2 ** dim):
        pt = np.array([corners[(mask >> c) & 1][c] for c in range(dim)])
        points.append(pt)
    points.append(0.5 * (domain.lows + domain.highs))
    points = np.asarray(points)  # (P, dim)
    m_pts = points[:, :n1]
    y_pts = points[:, n1:]

    f_sup = 0.0
    times = grid.times
    for k in range(grid.n_steps + 1):
        sqrt_theta = schedule.sqrt_thetas[min(k, schedule.n_steps)]
        shifts = rule.nodes @ sqrt_theta.T  # (Qn, n1)
        xs = m_pts[:, None, :] + shifts[None, :, :]  # (P, Qn, n1)
        ys = np.broadcast_to(y_pts[:, None, :], xs.shape[:-1] + (n2,))
        t = float(times[k])
        for payoff in modes.payoffs:
            vals = np.asarray(payoff(xs, ys, t), dtype=float)
            if vals.size:
                f_sup = max(f_sup, float(np.abs(vals).max()))
    return f_sup
