"""Exact solver outputs, pinned across commits.

Other tests check that a rerun reproduces itself within one commit; these
check that a refactor reproduces the previous commit's floats bit for bit.
The values are ``float.hex`` strings recorded from the solve pipeline and the
policy replay at small sizes.  A change that alters result bytes on purpose
must name its cause (see the determinism contract in ROADMAP.md) and record
the new values here.
"""

from __future__ import annotations

import numpy as np
import pytest

from switchmc import simulate_policy
from switchmc.benchmarks import benchmark_problem, default_solver_params
from switchmc.cli import RunConfig, run_pipeline, run_solve

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

SMALL = {"M": 400, "n_steps": 20, "seed": 5}

# run_solve "v" per starting mode.
FROZEN_V = {
    "builtin": ["0x1.afa86add93165p-5", "0x1.d429bcb2030adp-5"],
    "signal2d": ["0x1.d1f165928ff09p-5", "0x1.f329e89030d5dp-5"],
}

# simulate_policy (mean, stderr) from mode 0 on 1000 fresh paths, with a
# callable payoff in mode 1, for pointwise decisions and the policy table.
FROZEN_REPLAY = {
    True: ("0x1.95eaab1baf92dp-3", "0x1.431627f6025a1p-9"),
    False: ("0x1.95eab288e319cp-3", "0x1.43161c57e3a89p-9"),
}


def custom_payoff(x, y, t):
    return np.maximum(x[..., 0], 0.0) - 0.05


def small_config(problem: dict) -> RunConfig:
    return RunConfig(problem=problem, solver={**default_solver_params(), **SMALL})


@pytest.mark.parametrize("name", sorted(FROZEN_V))
def test_solve_values_are_frozen(name):
    problem = benchmark_problem() if name == "builtin" else dict(SIGNAL2D)
    result = run_solve(small_config(problem))
    assert [float.hex(v) for v in result["v"]] == FROZEN_V[name]


def test_policy_replay_is_frozen():
    problem = benchmark_problem()
    problem["modes"] = ["zero", custom_payoff]
    res = run_pipeline(small_config(problem))
    for pointwise, frozen in FROZEN_REPLAY.items():
        replay = simulate_policy(
            res.model, res.modes, res.schedule, res.surface, res.policy, res.rule,
            start_mode=0, M=1000, seed=res.eval_seed, pointwise_policy=pointwise,
        )
        assert (float.hex(replay.mean), float.hex(replay.stderr)) == frozen
