"""Conditional-law propagation: Riccati covariance schedule and Gaussian
quadrature for belief-averaged payoffs.

Under the linear model the conditional law of the signal given observations
is Gaussian N(m_t, theta_t).  The covariance theta_t solves a constant-
coefficient matrix Riccati ODE, so it is propagated exactly, once per problem;
the mean m_t follows a linear SDE driven by the innovation, which ``simulate``
steps.  An affine payoff averages over the belief to its value at the mean;
the belief average of any other payoff is a tensor Gauss-Hermite quadrature of
at most 4 096 nodes (370 at n1 = 1, 8 per axis at n1 = 4, 5 at n1 = 5, 4 at
n1 = 6; none above 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .model import ModelSpec, ModeSet, TimeGrid

__all__ = [
    "IntegrationError",
    "EvaluationError",
    "CovarianceSchedule",
    "QuadratureRule",
    "psd_sqrt",
    "build_quadrature",
    "payoff_quadrature",
    "solve_riccati",
    "rowwise_matvec",
    "effective_payoff_batch",
]

# Entry magnitude beyond which Riccati propagation is declared divergent.
_BLOWUP = 1e12
# Tolerance for the sqrt factor consistency check.
_SQRT_ATOL = 1e-10
# Most nodes a quadrature rule may have; the per-axis order is lowered to fit.
_MAX_NODES = 2 ** 12
# Largest order whose one-dimensional rule is finite: from 371 up numpy's
# hermegauss weights underflow to zero or overflow to NaN (numpy 2.4).
_MAX_ORDER = 370
# Most quadrature points (rows x nodes) one payoff call is given.
_MAX_CHUNK_POINTS = 2 ** 18
# The [13/13] Pade approximant to exp and the largest 1-norm at which it is
# accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 2005).
_PADE13 = [math.comb(13, j) * math.factorial(26 - j) / math.factorial(26) for j in range(14)]
_THETA13 = 5.371920351148152


class IntegrationError(RuntimeError):
    """Riccati propagation diverged or produced non-finite entries."""


class EvaluationError(RuntimeError):
    """An integrand returned a non-finite value at a mean point or quadrature node."""


def psd_sqrt(theta: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root(s) of (..., n, n) by eigenvalue clipping."""
    theta = np.asarray(theta, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (theta + np.swapaxes(theta, -1, -2)))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.swapaxes(vecs, -1, -2)


@dataclass(frozen=True, eq=False)
class CovarianceSchedule:
    """Conditional covariances theta_{t_k} and their PSD square roots, k=0..N."""

    thetas: np.ndarray
    sqrt_thetas: np.ndarray

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        sqrts = np.asarray(self.sqrt_thetas, dtype=float)
        if thetas.ndim != 3 or thetas.shape[1] != thetas.shape[2]:
            raise ValueError(f"thetas must have shape (N+1, n1, n1), got {thetas.shape}")
        if sqrts.shape != thetas.shape:
            raise ValueError(
                f"sqrt_thetas shape {sqrts.shape} does not match thetas shape {thetas.shape}"
            )
        recon = np.einsum("kij,klj->kil", sqrts, sqrts)
        err = float(np.abs(recon - thetas).max())
        if err > _SQRT_ATOL:
            raise ValueError(
                f"sqrt_thetas inconsistent with thetas: max |S S^T - theta| = {err:.3e}"
            )
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "sqrt_thetas", sqrts)

    @classmethod
    def from_thetas(cls, thetas: np.ndarray) -> "CovarianceSchedule":
        return cls(thetas=thetas, sqrt_thetas=psd_sqrt(thetas))

    @property
    def n_steps(self) -> int:
        return self.thetas.shape[0] - 1


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes z_q in R^dim and weights summing to one for N(0, I) expectations.

    Every rule has the mirror layout of a row-major tensor Gauss-Hermite
    rule: node n-1-q is the exact reflection of node q through the origin
    (and the middle node of an odd-sized rule is the origin itself).
    ``weighted_sum`` relies on that layout: integrands odd around a zero
    mean cancel exactly in floating point only because mirror nodes are
    added to each other first.  Values are node-major, (n_nodes, ...), so
    each node's values over a batch of points are one contiguous block.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2:
            raise ValueError(f"nodes must have shape (n_nodes, dim), got {nodes.shape}")
        if weights.shape != (nodes.shape[0],):
            raise ValueError(
                f"weights must have shape ({nodes.shape[0]},), got {weights.shape}"
            )
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("nodes and weights must be finite")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def weighted_sum(self, vals: np.ndarray) -> np.ndarray:
        """Weighted node sum over the first axis of ``vals`` (n_nodes, ...).

        Node q is added to node n-1-q first, the pairs are summed in the
        order of ``_pair_sum``, then the middle node of an odd-sized rule is
        added.  Under the mirror layout every rule has, odd contributions
        therefore cancel bitwise rather than accumulating roundoff.
        """
        vals = np.asarray(vals, dtype=float)
        p = vals * self.weights.reshape((-1,) + (1,) * (vals.ndim - 1))
        half = self.n_nodes // 2
        pairs = np.add(p[:half], p[: -half - 1 : -1], out=p[:half])
        out = 0.0 + _pair_sum(pairs)  # 0.0 + turns -0.0 into +0.0
        return out + p[half] if self.n_nodes % 2 else out


def _pair_sum(a: np.ndarray):
    """Sum over the first axis of ``a`` in the order in which numpy's sum
    adds one contiguous row, so sums keep the bits of a row-major layout:
    over 128 terms each half (cut at a multiple of 8) on its own; from 8
    terms 8 running sums over blocks of 8, added as a tree, then the rest
    in turn; under 8 terms all in turn.  The running sums overwrite the
    first 8 rows of each half, so ``a`` is the caller's scratch."""
    n = len(a)
    if n > 128:
        cut = n // 2 - n // 2 % 8
        return _pair_sum(a[:cut]) + _pair_sum(a[cut:])
    out, rest = 0.0, a
    if n >= 8:
        r = a[:8]
        for i in range(8, n - n % 8, 8):
            r += a[i:i + 8]
        r[0::2] += r[1::2]  # then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r[0::4] += r[2::4]
        out, rest = r[0] + r[4], a[n - n % 8:]
    for row in rest:
        out = out + row
    return out


def build_quadrature(dim: int, order: int = 16) -> QuadratureRule:
    """Quadrature for standard Gaussian expectations in ``dim`` dimensions.

    The tensor product of one-dimensional Gauss-Hermite rules with ``order``
    nodes per axis, lowered to keep at most 4 096 nodes and at most 370 per
    axis, the largest order whose rule is finite (order 16 gives 16 at dims
    1-3, 8 at dim 4, 5 at dim 5, 4 at dim 6); exact on polynomials of
    per-axis degree <= 2*q - 1 for the q used.  Above dim 12 only order 1,
    the mean, fits; any higher order there is a ValueError.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    # At most ``order`` per axis, within the cap; 1e-9 absorbs the roundoff of exact roots.
    per_axis = min(order, _MAX_ORDER, int(_MAX_NODES ** (1.0 / dim) + 1e-9))
    if per_axis < 2 <= order:
        raise ValueError(f"dim {dim} too large: 2 nodes per axis exceed the cap of {_MAX_NODES} nodes")
    z1, w1 = hermegauss(per_axis)
    # Restore the exact +-z symmetry the rule has in exact arithmetic.
    z1 = 0.5 * (z1 - z1[::-1])
    w1 = 0.5 * (w1 + w1[::-1])
    w1 = w1 / w1.sum()
    # Per-axis node indices in row-major tensor order, so node n-1-q mirrors node q.
    idx = np.indices((per_axis,) * dim).reshape(dim, -1).T
    weights = np.prod(w1[idx], axis=-1)
    return QuadratureRule(nodes=z1[idx], weights=weights / weights.sum())


def payoff_quadrature(modes: ModeSet, dim: int, order: int = 16) -> QuadratureRule:
    """``build_quadrature(dim, order)`` for the belief averages of ``modes``.
    Affine payoffs average exactly at the mean, so where no rule of 2 nodes
    per axis fits (dim > 12) a set of affine payoffs gets its one node."""
    if 2 ** dim > _MAX_NODES and all(p.is_affine for p in modes.payoffs):
        order = 1
    return build_quadrature(dim, order)


def rowwise_matvec(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply ``mat`` (r, n) to each row of ``vecs`` (..., n), giving (..., r).

    Uses an explicit fixed-order accumulation over the small coefficient
    dimensions so results for a given row are bit-identical no matter how the
    rows are batched.  Matrix dimensions here are model dimensions (a few at
    most), so the Python loop is cheap.
    """
    mat = np.asarray(mat, dtype=float)
    vecs = np.asarray(vecs, dtype=float)
    r, n = mat.shape
    if r == n == 1:  # one multiply: a 1-D model's stepper calls this 3 times a step
        return vecs[..., 0, None] * mat[0, 0]
    out = np.empty(vecs.shape[:-1] + (r,))
    for i in range(r):
        acc = mat[i, 0] * vecs[..., 0]
        for j in range(1, n):
            acc = acc + mat[i, j] * vecs[..., j]
        out[..., i] = acc
    return out


def _expm_minus_identity(a: np.ndarray) -> np.ndarray:
    """exp(a) - I by Pade [13/13] scaling and squaring, carried in that form,
    (I + D)^2 - I = 2 D + D^2, to keep its relative accuracy near I."""
    squarings = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()) / _THETA13)[1])
    a = np.ldexp(a, -squarings)
    powers = [np.linalg.matrix_power(a @ a, i) for i in range(7)]  # a^0, a^2, ..., a^12
    u = a @ sum(_PADE13[2 * i + 1] * p for i, p in enumerate(powers))
    v = sum(_PADE13[2 * i] * p for i, p in enumerate(powers))
    d = np.linalg.solve(v - u, 2.0 * u)  # (v - u)^{-1} (v + u) - I
    for _ in range(squarings):
        d = 2.0 * d + d @ d
    return d


def solve_riccati(model: ModelSpec, grid: TimeGrid) -> CovarianceSchedule:
    """Propagate d theta/dt = F theta + theta F^T - theta G^T G theta + C C^T.

    One interval's flow is exactly theta <- (E11 theta + E12)(E21 theta +
    E22)^{-1}, from the blocks of E = exp(delta H), H = [[F, C C^T], [G^T G,
    -F^T]] (Davison & Maki, IEEE TAC 1973).  With E = I + D, computed once,
    each interval adds (D11 theta + D12 - theta T)(I + T)^{-1}, T = D21 theta
    + D22, and symmetrizes.  theta0 is clipped to the PSD cone once.  A
    non-finite E or theta, or an entry above 1e12, is an IntegrationError
    naming the interval (the first, for E).
    """
    n_steps, n1 = grid.n_steps, model.n1
    thetas = np.empty((n_steps + 1, n1, n1))
    vals, vecs = np.linalg.eigh(0.5 * (model.theta0 + model.theta0.T))
    thetas[0] = theta = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    # Overflow is reported by the divergence check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        F = model.F
        a = grid.delta * np.block([[F, model.C @ model.C.T], [model.G.T @ model.G, -F.T]])
        d = _expm_minus_identity(a)
        finite = np.isfinite(a).all() and np.isfinite(d).all()
        d11, d12, d21, d22 = d[:n1, :n1], d[:n1, n1:], d[n1:, :n1], d[n1:, n1:]
        eye = np.eye(n1)
        for k in range(n_steps):
            tail = d21 @ theta + d22
            try:  # solve gives the increment's transpose, which symmetrizing undoes
                step = np.linalg.solve((eye + tail).T, (d11 @ theta + d12 - theta @ tail).T)
            except np.linalg.LinAlgError:  # a singular denominator: theta is unbounded
                step = np.full((n1, n1), np.inf)
            theta = theta + 0.5 * (step + step.T)
            if not (finite and np.abs(theta).max() <= _BLOWUP):
                raise IntegrationError(
                    f"Riccati propagation diverged on interval [{grid.times[k]:g}, "
                    f"{grid.times[k + 1]:g}] (exp(delta H) or theta not finite, "
                    f"or max |entry| > {_BLOWUP:g})"
                )
            thetas[k + 1] = theta
    return CovarianceSchedule.from_thetas(thetas)


def effective_payoff_batch(
    modes: ModeSet,
    j: int,
    m_batch: np.ndarray,
    sqrt_theta: np.ndarray,
    y_batch: np.ndarray,
    t: float,
    rule: QuadratureRule,
) -> np.ndarray:
    """Belief-averaged payoff of mode j at many (m, y) points sharing one
    covariance factor.  Returns shape (M,) for inputs (M, n1) and (M, n2),
    n1 being the order of ``sqrt_theta``; other shapes are a ValueError.
    An affine payoff, or any payoff at zero covariance, averages exactly to
    its value at the mean; other payoffs go through the quadrature rule, a
    block of rows at a time so one payoff call sees at most 2^18 points,
    given node-major: (n_nodes, rows, n1) and (n_nodes, rows, n2) in,
    (n_nodes, rows) out."""
    m_batch = np.asarray(m_batch, dtype=float)
    y_batch = np.asarray(y_batch, dtype=float)
    if y_batch.ndim != 2 or m_batch.shape != (len(y_batch), len(sqrt_theta)):
        raise ValueError(f"m_batch {m_batch.shape} and y_batch {y_batch.shape} must be (M, n1) "
                         f"and (M, n2) for sqrt_theta {np.shape(sqrt_theta)}")
    payoff = modes.payoffs[j]
    if payoff.is_affine or not np.any(sqrt_theta):
        return _payoff_values(payoff, j, m_batch, y_batch, t, "mean point")
    offsets = rule.nodes @ sqrt_theta.T  # (n_nodes, n1)
    rows = max(1, _MAX_CHUNK_POINTS // rule.n_nodes)
    out = np.empty(m_batch.shape[0])
    for start in range(0, m_batch.shape[0], rows):
        points = offsets[:, None, :] + m_batch[None, start:start + rows, :]
        ys = np.broadcast_to(y_batch[None, start:start + rows, :], points.shape[:-1] + y_batch.shape[-1:])
        vals = _payoff_values(payoff, j, points, ys, t, "quadrature node")
        out[start:start + rows] = rule.weighted_sum(vals)
    return out


def _payoff_values(payoff, j: int, points: np.ndarray, ys: np.ndarray, t: float, where: str) -> np.ndarray:
    """``payoff`` at ``points`` (..., n1), checked for shape (...) and finiteness."""
    vals = np.asarray(payoff(points, ys, t), dtype=float)
    if vals.shape != points.shape[:-1]:
        raise ValueError(
            f"payoff of mode {j} returned shape {vals.shape}, expected {points.shape[:-1]}"
        )
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"payoff of mode {j} not finite at some {where}")
    return vals
