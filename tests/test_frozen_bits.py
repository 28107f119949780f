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

from switchmc import build_ensemble, calibrate_domain, load_problem, simulate_policy, solve_riccati
from switchmc.benchmarks import benchmark_problem, default_solver_params
from switchmc.cli import RunConfig, run_pipeline, run_solve

SMALL = {"M": 400, "n_steps": 20, "seed": 5}

# run_solve "v" per starting mode.  Re-recorded when the box began to be
# calibrated on the training paths instead of on pilot samples: builtin
# went from (0.0547345, 0.0598591) to (0.0553704, 0.0595120), signal2d from
# (0.0503227, 0.0555090) to (0.0504074, 0.0549501).
FROZEN_V = {
    "builtin": ["0x1.c598337e755cap-5", "0x1.e785a55bf6b26p-5"],
    "signal2d": ["0x1.9cf008bee3f84p-5", "0x1.c226b625e050ep-5"],
}

# simulate_policy (mean, stderr) from mode 0 on 1000 fresh paths, with a
# callable payoff in mode 1, for pointwise decisions and the policy table.
# Re-recorded when the replay began to pay rewards at the filter state
# instead of at its clamp onto the box: the means rose from 0.1942869 and
# 0.1942827 to 0.1943067 and 0.1943025; and when the box began to be
# calibrated on the training paths: to 0.1943266 and 0.1943270.
FROZEN_REPLAY = {
    True: ("0x1.8dfb19dad41dfp-3", "0x1.2c768507a636ap-9"),
    False: ("0x1.8dfb5493449f6p-3", "0x1.2c75d9dbb43d0p-9"),
}


# calibrate_domain on the 2-D signal problem (regression state of three
# coordinates), epsilon 0.01, on the 500-path ensemble of seed 3: lows,
# then highs.  Re-recorded when the box began to be chosen on those paths
# alone, without a pilot sample of its own or a verification sample.
FROZEN_DOMAIN = (
    ["-0x1.04b755acd2006p+0", "-0x1.04b755acd2006p+0", "-0x1.4624b38111ce3p+1"],
    ["0x1.2cf67a2eeb8dep+0", "0x1.2cf67a2eeb8dep+0", "0x1.bdc29a92ea191p+1"],
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
    domain = calibrate_domain(build_ensemble(model, model.grid, schedule, 500, 3), 0.01)
    assert ([float.hex(v) for v in domain.lows], [float.hex(v) for v in domain.highs]) == FROZEN_DOMAIN
