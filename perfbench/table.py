"""Regenerate the ROADMAP baseline table.

Usage (from the repository root):

    python3 perfbench/table.py [--seed 1] [--seconds 1]

Runs ``run.py`` untraced and traced on each ROADMAP configuration and prints
one markdown row per configuration, then the environment the runs recorded.
Each run times set-up in fresh processes and solves at least once after a
tiny warm-up, so the whole table takes several minutes on a 2-core box.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (label, workload, extra run.py arguments)
CONFIGS = (
    ("1-D benchmark, N=730, M=5 000", "bench1d", ["--M", "5000"]),
    ("1-D benchmark, N=730, M=20 000", "bench1d", ["--M", "20000"]),
    ("2-D signal (n1=2, n2=1), N=100, M=5 000, 6 cells/axis", "signal2d", ["--M", "5000"]),
)

COLUMNS = (
    ("solve", "solve_s", "{:.2f} s"),
    ("µs/path-step", "us_per_path_step", "{:.2f}"),
    ("setup", "setup_s", "{:.2f} s"),
    ("induction", "dp.backward_induction_s", "{:.2f} s"),
    ("simulate", "simulate.build_ensemble_s", "{:.2f} s"),
    ("calibrate", "simulate.calibrate_domain_s", "{:.2f} s"),
    ("memberships", "regress.memberships_s", "{:.2f} s"),
    ("estimate_pmin", "regress.estimate_pmin_s", "{:.2f} s"),
    ("peak RSS", "peak_rss_mb", "{:.0f} MB"),
)


def run(workload: str, extra: list, seed: int, seconds: float, trace: int):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']} operations failed")
    return json.loads(lines[-2])["record"], result["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    print("| config | " + " | ".join(c[0] for c in COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    env = None
    for label, workload, extra in CONFIGS:
        metrics = {}
        for trace in (0, 1):
            record, m = run(workload, extra, args.seed, args.seconds, trace)
            metrics.update(m)
            env = record["env"]
        cells = [fmt.format(metrics[key]["value"]) for _, key, fmt in COLUMNS]
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)
    print()
    print("Environment: " + json.dumps(env, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
