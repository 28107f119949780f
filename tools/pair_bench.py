"""Run perfbench on two checkouts by turns and judge the difference.

Usage (from the repository root):

    python3 tools/pair_bench.py --parent ../parent --change . --workload replay_custom \
        --seed 11 --pairs 10 --name forward_pass --claim replay_custom.solve_s

Pair i runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
T being BENCHMARK.json's ``run_seconds``, once in each checkout, each in a fresh process from that checkout's own
files: the parent first in odd pairs, the change first in even ones.
``--workload`` may be given more than once; its pairs run one workload
after another.  ``--traced-pairs K`` then runs K pairs a workload with
``--trace 1``, for the per-layer metrics.  Every run's result line goes
into ``BENCH_<name>.json`` (rewritten after each run, so an interrupted
session keeps what it measured), with, per workload and metric, each
side's median and quartiles, the pairs each side won, and a verdict:

- a claimed metric is "met" when the change wins at least 9 in 10 of the
  pairs (ties count for neither side) and its median beats the parent's
  by more than the parent's interquartile range, else "not met";
- another end-to-end metric is "worse than bound" when the change's
  median is worse than the parent's by more than the bound BENCHMARK.json
  fixes for it, "unresolved" when it is not but the parent's interquartile
  range is wider than that bound (unless every change run beats every
  parent run), else "within bound";
- a per-layer metric (traced pairs) has no bound: it is "better" or
  "worse" when one side wins by the claim rule, else "within spread".

Quartiles are ``statistics.quantiles(method="inclusive")``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Share of the pairs a side must win for a gain to count.
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 900


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True, action="append", help="perfbench workload; repeatable")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--traced-pairs", type=int, default=0, help="pairs with --trace 1 after the untraced ones")
    p.add_argument("--name", required=True, help="the output is BENCH_<name>.json")
    p.add_argument("--claim", action="append", default=[], help="WORKLOAD.METRIC claimed better; repeatable")
    return p.parse_args(argv)


def result_lines(stdout: str) -> tuple:
    """The environment of the run record and the result object: the last
    two stdout lines of ``perfbench/run.py``."""
    *_, record, result = stdout.strip().splitlines()
    return json.loads(record)["record"]["env"], json.loads(result)


def summarize(runs: list, workload: str, metric: str, lower_is_better: bool) -> dict:
    """Each side's median, quartiles and range of ``metric`` over the pairs
    of ``workload`` that both sides completed, and the pairs each side won."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        value = run["result"].get("metrics", {}).get(metric, {}).get("value")
        if run["workload"] == workload and value is not None:
            sides[run["side"]][run["pair"]] = value
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    if not pairs:
        return {"pairs": 0}
    parent = [sides["parent"][i] for i in pairs]
    change = [sides["change"][i] for i in pairs]
    if lower_is_better:
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        always = max(change) < min(parent)
    else:
        wins = sum(c > p for p, c in zip(parent, change))
        losses = sum(c < p for p, c in zip(parent, change))
        always = min(change) > max(parent)
    q_parent, q_change = _quartiles(parent), _quartiles(change)
    return {
        "pairs": len(pairs),
        "parent_median": q_parent[1],
        "change_median": q_change[1],
        "rel": (q_change[1] - q_parent[1]) / q_parent[1] if q_parent[1] else 0.0,
        "change_better_pairs": wins,
        "parent_better_pairs": losses,
        "parent_quartiles": [q_parent[0], q_parent[2]],
        "parent_iqr": q_parent[2] - q_parent[0],
        "change_quartiles": [q_change[0], q_change[2]],
        "parent_range": [min(parent), max(parent)],
        "change_range": [min(change), max(change)],
        "change_always_better": always,
    }


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _wins(s: dict, lower_is_better: bool, side: str) -> bool:
    """``side`` won 9 in 10 pairs, and the medians differ its way by more than the parent's IQR."""
    gain = s["parent_median"] - s["change_median"]
    if not lower_is_better:
        gain = -gain
    if side == "parent":
        gain = -gain
    return s[f"{side}_better_pairs"] >= WIN_SHARE * s["pairs"] and gain > s["parent_iqr"]


def verdict(s: dict, lower_is_better: bool, bound: float | None, claimed: bool) -> str:
    """The verdict on one summary; the rules are in the module docstring."""
    if not s["pairs"]:
        return "no complete pair"
    if claimed:
        return "met" if _wins(s, lower_is_better, "change") else "not met"
    if bound is None:
        if _wins(s, lower_is_better, "change"):
            return "better"
        return "worse" if _wins(s, lower_is_better, "parent") else "within spread"
    worse = s["rel"] if lower_is_better else -s["rel"]
    if worse > bound:
        return "worse than bound"
    if s["parent_iqr"] > bound * abs(s["parent_median"]) and not s["change_always_better"]:
        return "unresolved"
    return "within bound"


def judge(runs: list, spec: dict, workloads: list, trace: int, claims: list) -> tuple:
    """Summaries and verdicts, keyed WORKLOAD.METRIC, of the runs made with
    ``--trace trace``: the end-to-end metrics untraced, the per-layer ones
    traced; and the failed operations of each side."""
    runs = [r for r in runs if r["trace"] == trace]
    summary, verdicts = {}, {}
    for workload in workloads:
        for m in spec["per_layer"] if trace else spec["end_to_end"]:
            key = f"{workload}.{m['name']}"
            lower = m["better"] == "lower"
            summary[key] = summarize(runs, workload, m["name"], lower)
            verdicts[key] = verdict(summary[key], lower, m.get("bound"), key in claims)
    for side in ("parent", "change"):
        mine = [r["result"] for r in runs if r["side"] == side]
        failed, attempted = sum(r.get("failed", 0) for r in mine), sum(r.get("attempted", 0) for r in mine)
        verdicts[f"failed operations, {side}"] = f"{failed} of {attempted}"
    return summary, verdicts


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One ``perfbench/run.py`` run in ``checkout``: its environment and
    result line, or None and an ``error`` entry when it printed no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    try:
        return result_lines(out.stdout)
    except (ValueError, KeyError):
        return None, {"error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    path, seconds = ROOT / f"BENCH_{args.name}.json", spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "label": args.name,
        "perfbench": f"perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} "
                     "--trace T, in each checkout",
        "claims": args.claim,
        "env": {},
        "runs": [],
    }
    for trace, pairs in ((0, args.pairs), (1, args.traced_pairs)):
        for workload in args.workload:
            for pair in range(1, pairs + 1):
                for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                    env, result = run_side(checkouts[side], workload, args.seed, seconds, trace)
                    if env is not None:
                        report["env"].setdefault(side, env)
                    report["runs"].append(
                        {"trace": trace, "pair": pair, "workload": workload, "side": side, "result": result})
                    key = "traced" if trace else "untraced"
                    report[key] = dict(zip(("summary", "verdicts"), judge(
                        report["runs"], spec, args.workload, trace, args.claim)))
                    path.write_text(json.dumps(report, indent=1) + "\n")
                    print(key, workload, pair, side, json.dumps(result.get("metrics", result))[:160], flush=True)
    for key in ("untraced", "traced"):
        if key in report:
            print(key, json.dumps(report[key]["verdicts"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
