"""Independent reference computations used to check the solver.

Everything in this module is deliberately written from scratch against the
problem statement, using different algorithms and data layouts than the
package so that agreement is evidence of correctness rather than shared
bugs:

- exact Gaussian monomial moments via the Stein recurrence in rational
  arithmetic;
- a dense-grid dynamic program for the scalar benchmark problem, using the
  closed-form filter variance instead of simulation or regression;
- a dictionary-based exhaustive tree valuation for small two-point-innovation
  instances;
- the clamp-distortion formula with all coordinates reduced at once,
  against which the solver's per-axis version must agree bit for bit;
- the closed-form value of never switching, for registry payoffs with a
  closed-form mean;
- the first switching-cost violation, by plain loops over the entries.

``make_benchmark``, ``SIGNAL2D``, ``belief_average``, ``pathwise_values`` and
``run_child`` are conveniences, not references: ``belief_average`` routes a
Gaussian expectation through the solver's own belief average (its quadrature
path, since phi is a callable) so it can be compared with the exact moments
above, ``pathwise_values`` rebuilds one step of the induction's per-path
values, which the value surface does not keep, and ``run_child`` runs a
memory probe in a fresh interpreter.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

import switchmc
from switchmc import ModeSet, OracleRefusal, load_problem, psd_sqrt
from switchmc.benchmarks import benchmark_problem
from switchmc.dp import _action_values
from switchmc.filtering import effective_payoff_batch


def gaussian_monomial_moment(m, theta, alpha) -> float:
    """Exact E[prod_i X_i^alpha_i] for X ~ N(m, theta), via the Stein
    recurrence E[X_i g(X)] = m_i E[g] + sum_j theta_ij E[dg/dx_j].

    Computed in rational arithmetic (floats convert exactly), so the result
    is the correctly rounded moment.
    """
    m = [Fraction(v) for v in np.asarray(m, dtype=float).ravel().tolist()]
    theta = [
        [Fraction(v) for v in row]
        for row in np.asarray(theta, dtype=float).tolist()
    ]
    alpha = tuple(int(a) for a in alpha)
    if len(m) != len(alpha) or len(theta) != len(alpha):
        raise ValueError("m, theta and alpha must share one dimension")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha must be nonnegative")

    cache: dict = {}

    def moment(a: tuple) -> Fraction:
        if all(v == 0 for v in a):
            return Fraction(1)
        if a in cache:
            return cache[a]
        i = next(idx for idx, v in enumerate(a) if v > 0)
        lower = list(a)
        lower[i] -= 1
        lower = tuple(lower)
        total = m[i] * moment(lower)
        for j, count in enumerate(lower):
            if count > 0:
                lower2 = list(lower)
                lower2[j] -= 1
                total += theta[i][j] * count * moment(tuple(lower2))
        cache[a] = total
        return total

    return float(moment(alpha))


def reduced_reference_values(
    m0: float,
    n_steps: int = 730,
    c01: float = 0.01,
    c10: float = 0.001,
    n_grid: int = 2401,
    half_width: float = 6.0,
    gh_order: int = 32,
) -> tuple:
    """Dense-grid dynamic program for the scalar benchmark (idle payoff 0,
    earning payoff equal to the conditional mean, tanh filter variance).

    Works on the conditional-mean axis directly: with F = 0 and C = G = 1 the
    conditional mean is a martingale whose one-step increment on
    [t_k, t_{k+1}] is Gaussian with variance delta - (tanh(t_{k+1}) -
    tanh(t_k)), so the transition kernel is known in closed form and no
    simulation, regression or path discretization enters.  Returns the pair
    (idle value, earning value) at m0.
    """
    T = 1.0
    delta = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    step_var = delta - np.diff(np.tanh(times))

    grid_m = np.linspace(-half_width, half_width, n_grid)
    z, w = np.polynomial.hermite_e.hermegauss(gh_order)
    w = w / w.sum()

    v_idle = np.zeros(n_grid)
    v_earn = np.zeros(n_grid)
    for k in reversed(range(n_steps)):
        s = math.sqrt(max(step_var[k], 0.0))
        pts = np.clip(grid_m[:, None] + s * z[None, :], -half_width, half_width)
        cont_idle = np.interp(pts, grid_m, v_idle) @ w
        cont_earn = np.interp(pts, grid_m, v_earn) @ w
        stay_idle = cont_idle
        stay_earn = grid_m * delta + cont_earn
        v_idle, v_earn = (
            np.maximum(stay_idle, stay_earn - c01),
            np.maximum(stay_earn, stay_idle - c10),
        )
    return (
        float(np.interp(m0, grid_m, v_idle)),
        float(np.interp(m0, grid_m, v_earn)),
    )


def tiny_tree_value(model, modes, schedule, rule) -> list:
    """Exhaustive valuation of a scalar two-point-innovation instance,
    organized as plain Python dictionaries keyed by observation-increment
    prefixes.

    Independent of the package's tree oracle (which groups paths by the
    bits of their index and steps through the solver's recursion); only the model
    coefficients, the covariance schedule and the quadrature nodes are
    shared.  Each step draws an innovation of +-sqrt(delta), so the tree
    has 2^n paths; practical for n_steps <= 8.
    """
    grid = model.grid
    n = grid.n_steps
    if n > 8:
        raise ValueError("tiny_tree_value is for n_steps <= 8")
    delta = grid.delta
    root = math.sqrt(delta)
    d = modes.d

    decay = math.exp(float(np.asarray(model.F)[0, 0]) * delta)
    gcoef = float(np.asarray(model.G)[0, 0])
    m0 = float(np.asarray(model.m0)[0])
    y0 = float(np.asarray(model.y0)[0])

    paths = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        m = m0
        y = y0
        m_hist = [m]
        y_hist = [y]
        dy_hist = []
        for k in range(n):
            innovation = signs[k] * root
            theta_k = float(schedule.thetas[k][0, 0])
            dy = gcoef * m * delta + innovation
            m = decay * (m + theta_k * gcoef * innovation)
            y = y + dy
            m_hist.append(m)
            y_hist.append(y)
            dy_hist.append(dy)
        paths.append({"m": m_hist, "y": y_hist, "dy": tuple(dy_hist)})

    nodes = [float(v) for v in np.asarray(rule.nodes).ravel().tolist()]
    weights = [float(v) for v in np.asarray(rule.weights).ravel().tolist()]

    def payoff_bar(j, m, y, k):
        t = float(grid.times[k])
        s = float(schedule.sqrt_thetas[k][0, 0])
        total = 0.0
        for z, w in zip(nodes, weights):
            x = np.array([m + s * z])
            total += w * float(modes.payoffs[j].fn(x, np.array([y]), t))
        return total

    # Backward induction over information prefixes.  values[p][i] is the
    # mode-i value seen by path p at the current step; groups of paths that
    # share a dy prefix must agree on it by construction.
    values, cost = [[0.0] * d for _ in paths], modes.costs
    for k in reversed(range(n)):
        groups: dict = {}
        for p, path in enumerate(paths):
            groups.setdefault(path["dy"][:k], []).append(p)
        new_values = [None] * len(paths)
        for members in groups.values():
            cont = [
                sum(values[p][j] for p in members) / len(members)
                for j in range(d)
            ]
            ref = paths[members[0]]
            cand = [
                payoff_bar(j, ref["m"][k], ref["y"][k], k) * delta + cont[j]
                for j in range(d)
            ]
            vals = [
                max(cand[j] - float(cost[i, j]) for j in range(d))
                for i in range(d)
            ]
            for p in members:
                new_values[p] = list(vals)
        values = new_values
    return values[0]


# The 2-D signal problem of perfbench/signal2d.json: n1 = 2, n2 = 1.
SIGNAL2D = {
    "n1": 2, "m1": 2, "n2": 1, "m2": 1,
    "T": 1.0, "n_steps": 100,
    "F": [[0.0, 0.0], [0.0, 0.0]],
    "C": [[1.0, 0.0], [0.0, 1.0]],
    "G": [[1.0, 1.0]],
    "m0": [0.0, 0.0],
    "theta0": [[0.0, 0.0], [0.0, 0.0]],
    "y0": [0.0],
    "modes": ["zero", "linear"],
    "costs": [[0.0, 0.01], [0.001, 0.0]],
    "nu": 0.001,
}


def clip_error_reference(state, lows, highs) -> float:
    """Worst mean Euclidean clamp distortion over grid times of ``state``
    (N+1, M, dim): squared gaps summed by ``np.sum`` over the last axis, then
    a running sum over paths in index order.

    ``simulate._clip_error`` adds the squared gaps one axis at a time.  The
    two agree bit for bit while ``np.sum`` adds fewer than 8 components left
    to right; from 8 components on it sums pairwise and may differ in the
    last bit.
    """
    dist = np.sqrt(np.sum((state - np.clip(state, lows, highs)) ** 2, axis=-1))
    return float((np.add.accumulate(dist, axis=1)[:, -1] / dist.shape[1]).max())


def no_switch_value(model, modes, start_mode: int) -> float:
    """Exact value of never switching, for payoffs with a closed-form mean.

    Covers the registry payoffs 'linear' (requires F = 0, giving m0 * T) and
    'zero' (giving 0).  Refuses other payoffs or nonzero drift.
    """
    payoff = modes.payoffs[start_mode]
    if payoff.name == "zero":
        return 0.0
    if payoff.name == "linear":
        if np.any(model.F != 0.0):
            raise OracleRefusal(
                "no-switch value for the linear payoff requires F = 0"
            )
        return float(model.m0[0]) * model.T
    raise OracleRefusal(
        f"no closed-form no-switch value for payoff '{payoff.name}'"
    )


def cost_violation(costs, nu: float, atol: float = 1e-10):
    """The cost violation ``validate`` reports for a (d, d) matrix, or None.

    Checks run in validate's order and the first that fails is reported:
    every entry finite, every diagonal entry zero within ``atol``, every
    off-diagonal entry at least ``nu`` - ``atol``, then the triangle
    inequality over (i1, i2, i3) in lexicographic order.
    """
    c = [[float(v) for v in row] for row in costs]
    d = len(c)
    if not all(math.isfinite(v) for row in c for v in row):
        return "switching cost not finite"
    diag = max(abs(c[i][i]) for i in range(d))
    if diag > atol:
        return f"diagonal cost nonzero (max |c(i,i)| = {diag:.3e})"
    off = [c[i][j] for i in range(d) for j in range(d) if i != j]
    if off and min(off) < nu - atol:
        return f"switching cost below nu (min off-diagonal {min(off):.3e} < nu={nu:g})"
    for i1, i2, i3 in itertools.product(range(d), repeat=3):
        if c[i1][i2] + c[i2][i3] < c[i1][i3] - atol:
            return (
                f"triangle inequality violated: c({i1},{i2}) + c({i2},{i3}) = "
                f"{c[i1][i2] + c[i2][i3]:g} < c({i1},{i3}) = {c[i1][i3]:g}"
            )
    return None


def make_benchmark(n_steps: int = 730, m0: float = 0.0, **overrides):
    """The standard scalar test problem as (model, modes), with optional
    coefficient overrides (e.g. G=0.0, C=0.0, theta0=1.0)."""
    problem = benchmark_problem(m0=m0)
    problem["n_steps"] = int(n_steps)
    problem.update(overrides)
    return load_problem(problem)


def belief_average(phi, m, theta, rule) -> float:
    """E[phi(X)] for X ~ N(m, theta) through the solver's one belief average:
    ``effective_payoff_batch`` at the single mean m with factor
    psd_sqrt(theta), carrying phi(x) as the payoff of a one-mode ModeSet."""
    modes = ModeSet(payoffs=(lambda x, y, t: phi(x),), costs=[[0.0]], nu=1.0)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    sqrt_theta = psd_sqrt(np.atleast_2d(theta))
    return float(
        effective_payoff_batch(modes, 0, m[None, :], sqrt_theta, np.zeros((1, 1)), 0.0, rule)[0]
    )


def pathwise_values(surface, ensemble, modes, schedule, rule, k: int) -> np.ndarray:
    """The induction's (d, M) values at grid time t_k on the training paths,
    rebuilt with its own step formula from the step-k coefficients; zero at
    the horizon k = N."""
    grid, basis = surface.grid, surface.basis
    if k == grid.n_steps:
        return np.zeros((modes.d, ensemble.M))
    points = ensemble.z_paths[k]
    cand, _ = _action_values(
        modes, rule, schedule.sqrt_thetas[k], float(grid.times[k]), grid.delta, points,
        surface.coeffs[k], basis.cell_index(points),
    )
    return (cand[None] - modes.costs[:, :, None]).max(axis=1)


# Script lines that set ``peak_mb`` to the peak RSS of the running process.
# They read VmHWM, the peak of the process's own address space: a forked
# child's ru_maxrss would include the RSS of the test process it came from.
READ_PEAK_MB = """
with open("/proc/self/status") as fh:
    peak_mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
"""


def run_child(script: str, *args: str) -> dict:
    """Run ``script`` with ``args`` in a fresh single-threaded interpreter
    that imports the switchmc under test; returns the JSON object it prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(switchmc.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)
