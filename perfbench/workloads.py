"""The benchmark's workloads: what one operation runs and how it is checked.

Every operation returns a fingerprint, a JSON-ready dict of its outputs.
Repeats of one operation must give equal fingerprints, bit for bit, and
``check`` lists every output check the fingerprint fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import switchmc
from switchmc import cli
from switchmc.benchmarks import benchmark_problem, default_solver_params

HERE = Path(__file__).resolve().parent

# Dense-grid DP value of the earning mode of the built-in problem at m0 = 0
# (README, "Known benchmark discrepancies"), and the distance the 10-cell
# estimate may sit from it; the partition bias alone is about 0.015.
REFERENCE_V1 = 0.07203
REFERENCE_TOL = 0.03


def custom_payoff(x, y, t):
    """Non-affine payoff of the signal: max(x, 0) - 0.05."""
    return np.maximum(x[..., 0], 0.0) - 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_steps: int
    M: int
    cells: int
    replay_M: int = 0

    def problem(self) -> dict:
        """The problem dict, with the workload's grid."""
        if self.name == "signal2d":
            problem = json.loads((HERE / "signal2d.json").read_text())
        else:
            problem = benchmark_problem()
        if self.name == "replay_custom":
            problem["modes"] = ["zero", custom_payoff]
        problem["n_steps"] = self.n_steps
        return problem

    def run(self, seed: int) -> dict:
        """One operation; returns its fingerprint."""
        if self.name == "replay_custom":
            return _solve_and_replay(self, seed)
        return _cli_solve(self, seed)

    def check(self, fp: dict) -> list:
        """Names of the output checks ``fp`` fails."""
        failed = []
        v = fp["v"]
        costs = self.problem()["costs"]
        if not all(math.isfinite(x) for x in v):
            failed.append("values finite")
        # v_i >= v_j - c_ij holds exactly at the origin, by the time-0 max.
        elif any(v[i] < v[j] - costs[i][j] for i in range(len(v)) for j in range(len(v))):
            failed.append("pairwise switching inequality")
        if self.name == "bench1d" and self.n_steps == 730:
            if not abs(v[1] - REFERENCE_V1) <= REFERENCE_TOL:
                failed.append(f"v1 within {REFERENCE_TOL} of {REFERENCE_V1}")
        if self.name == "replay_custom":
            mean, stderr, switches = fp["replay"]
            if not math.isfinite(mean):
                failed.append("replay mean finite")
            if not stderr > 0:
                failed.append("replay stderr > 0")
            if not switches <= fp["switch_bound"]:
                failed.append("mean switches <= switch_count_bound")
        return failed


# Sizes keep one operation between about 2 and 4.5 s on a 2-core x86 box,
# large enough that calibration (2 x min(M, 1000) pilot paths) is a minor
# share of every solve; see README.md for the measured stage shares.
WORKLOADS = {
    "bench1d": Workload("bench1d", n_steps=730, M=5000, cells=10),
    "signal2d": Workload("signal2d", n_steps=100, M=1500, cells=6),
    "replay_custom": Workload("replay_custom", n_steps=365, M=1000, cells=10, replay_M=5000),
}


def _cli_solve(w: Workload, seed: int) -> dict:
    argv = [
        "solve", "--seed", str(seed), "--M", str(w.M), "--n-steps", str(w.n_steps),
        "--cells-per-dim", str(w.cells), "--replications", "1", "--threads", "1",
    ]
    if w.name == "signal2d":
        argv += ["--problem", str(HERE / "signal2d.json")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"switchmc solve exited with code {code}")
    result = json.loads(out.getvalue())
    del result["runtime_s"]
    return result


def _solve_and_replay(w: Workload, seed: int) -> dict:
    """The CLI's solve pipeline, then the policy replayed on fresh paths."""
    solver = {
        **default_solver_params(), "M": w.M, "n_steps": w.n_steps,
        "cells_per_dim": w.cells, "seed": seed,
    }
    res = cli.run_pipeline(cli.RunConfig(w.problem(), solver), 0)
    replay = switchmc.simulate_policy(
        res.model, res.modes, res.schedule, res.surface, res.policy, res.rule,
        start_mode=0, M=w.replay_M, seed=res.eval_seed,
    )
    return {
        "v": [float(x) for x in res.values],
        "pmin": [res.pmin_raw, res.pmin_occupied],
        "switch_bound": res.switch_bound,
        "replay": [replay.mean, replay.stderr, replay.mean_switches],
    }
