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
# (0.0503227, 0.0555090) to (0.0504074, 0.0549501); and when each step's
# innovations began to be drawn from Philox streams keyed by (seed, step,
# block of path ids), stream "philox-step-block/2", instead of one stream a
# path: builtin to (0.0597562, 0.0634024), signal2d to (0.0551707, 0.0588121).
FROZEN_V = {
    "builtin": ["0x1.e985e7b2ad546p-5", "0x1.03b23010fb723p-4"],
    "signal2d": ["0x1.c3f569047942fp-5", "0x1.e1c9f862c9a43p-5"],
}

# simulate_policy (mean, stderr) from mode 0 on 1000 fresh paths, with a
# callable payoff in mode 1.  Re-recorded when the replay began to pay
# rewards at the filter state instead of at its clamp onto the box: the mean
# rose from 0.1942869 to 0.1943067; when the box began to be calibrated
# on the training paths: to 0.1943266; and with the per-step streams of
# "philox-step-block/2": to 0.2014255 (stderr 0.0022924 to 0.0024405).
FROZEN_REPLAY = ("0x1.9c84f71252419p-3", "0x1.3fe2b3f61891bp-9")


# calibrate_domain on the 2-D signal problem (regression state of three
# coordinates), epsilon 0.01, on the 500-path ensemble of seed 3: lows,
# then highs.  Re-recorded when the box began to be chosen on those paths
# alone, without a pilot sample of its own or a verification sample; and
# with the per-step streams of "philox-step-block/2": lows (-1.01842,
# -1.01842, -2.54800) to (-1.17381, -1.17381, -3.20049), highs (1.17564,
# 1.17564, 3.48250) to (1.06336, 1.06336, 3.15448).
FROZEN_DOMAIN = (
    ["-0x1.2c7f0597c0455p+0", "-0x1.2c7f0597c0454p+0", "-0x1.99a9b585c62b1p+1"],
    ["0x1.1038aeb3dcf3bp+0", "0x1.1038aeb3dcf3ap+0", "0x1.93c5dabf51be9p+1"],
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
    replay = simulate_policy(
        res.model, res.modes, res.schedule, res.surface, res.policy, res.rule,
        start_mode=0, M=1000, seed=res.eval_seed,
    )
    assert (float.hex(replay.mean), float.hex(replay.stderr)) == FROZEN_REPLAY


def test_calibrated_domain_is_frozen():
    model, _ = load_problem(dict(SIGNAL2D))
    schedule = solve_riccati(model, model.grid)
    domain = calibrate_domain(build_ensemble(model, model.grid, schedule, 500, 3), 0.01)
    assert ([float.hex(v) for v in domain.lows], [float.hex(v) for v in domain.highs]) == FROZEN_DOMAIN
