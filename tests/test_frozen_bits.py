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

from oracles import SIGNAL2D

from switchmc import calibrate_domain, load_problem, simulate_policy, solve_riccati
from switchmc.benchmarks import benchmark_problem, default_solver_params
from switchmc.cli import RunConfig, run_pipeline, run_solve

SMALL = {"M": 400, "n_steps": 20, "seed": 5}

# run_solve "v" per starting mode.
FROZEN_V = {
    "builtin": ["0x1.c062a6843153cp-5", "0x1.ea5db9b810e0cp-5"],
    "signal2d": ["0x1.9c3e42f293b97p-5", "0x1.c6bacd6958b86p-5"],
}

# simulate_policy (mean, stderr) from mode 0 on 1000 fresh paths, with a
# callable payoff in mode 1, for pointwise decisions and the policy table.
# Re-recorded when the replay began to pay rewards at the filter state
# instead of at its clamp onto the box: the means rose from 0.1942869 and
# 0.1942827 to 0.1943067 and 0.1943025.
FROZEN_REPLAY = {
    True: ("0x1.8df0aa13286f0p-3", "0x1.2ca467330581cp-9"),
    False: ("0x1.8dee722e41bd5p-3", "0x1.2cac885ace71ep-9"),
}


# calibrate_domain on the 2-D signal problem (regression state of three
# coordinates), epsilon 0.01, 500 pilot paths, seed 3: lows, then highs.
FROZEN_DOMAIN = (
    ["-0x1.200680b0cd204p+0", "-0x1.200680b0cd204p+0", "-0x1.c98af197cc54bp+1"],
    ["0x1.516c78bc6cbd6p+0", "0x1.516c78bc6cbd6p+0", "0x1.aba9649cf8253p+1"],
)


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


def test_calibrated_domain_is_frozen():
    model, _ = load_problem(dict(SIGNAL2D))
    schedule = solve_riccati(model, model.grid)
    domain = calibrate_domain(model, model.grid, schedule, 0.01, pilot_M=500, seed=3)
    assert ([float.hex(v) for v in domain.lows], [float.hex(v) for v in domain.highs]) == FROZEN_DOMAIN
