"""The pair runner's parsing and verdicts, on canned result lines.

``tools/pair_bench.py`` runs perfbench in subprocesses; here its result
parsing, its summaries and the verdict rules run on made-up lines, and its
main loop on a stand-in for the subprocess, so no process is started.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pair_bench():
    spec = importlib.util.spec_from_file_location("pair_bench", ROOT / "tools" / "pair_bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


pb = load_pair_bench()


def result(solve_s, setup_s=0.04, rss=50.0, failed=0, attempted=100) -> dict:
    """A result line of perfbench/run.py --trace 0."""
    values = {"solve_s": solve_s, "us_per_path_step": solve_s * 2, "setup_s": setup_s, "peak_rss_mb": rss}
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]},
    }


def runs(parent: list, change: list, workload="replay_custom", trace=0, **kw) -> list:
    """Pairs of runs with the given solve_s values, in pair order."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        out.append({"trace": trace, "pair": i, "workload": workload, "side": "parent", "result": result(p, **kw)})
        out.append({"trace": trace, "pair": i, "workload": workload, "side": "change", "result": result(c, **kw)})
    return out


PARENT = [0.130, 0.131, 0.129, 0.132, 0.130, 0.128, 0.131, 0.130, 0.129, 0.133]


def test_result_lines_are_the_last_two_stdout_lines():
    record = {"record": {"env": {"git_sha": "abc", "nproc": 2}, "ops": []}}
    stdout = "a progress line\n" + json.dumps(record) + "\n" + json.dumps(result(0.1)) + "\n"
    env, line = pb.result_lines(stdout)
    assert env == {"git_sha": "abc", "nproc": 2}
    assert line["metrics"]["solve_s"]["value"] == 0.1
    with pytest.raises(ValueError):
        pb.result_lines("Traceback (most recent call last):\n")


def test_summary_counts_pairs_won_and_ties_count_for_neither():
    change = [p - 0.006 for p in PARENT[:8]] + PARENT[8:]  # 8 lower, 2 tied
    s = pb.summarize(runs(PARENT, change), "replay_custom", "solve_s", True)
    assert s["pairs"] == 10
    assert (s["change_better_pairs"], s["parent_better_pairs"]) == (8, 0)
    assert s["parent_median"] == pytest.approx(0.130)
    assert s["parent_quartiles"] == pytest.approx([0.12925, 0.131])
    assert s["parent_iqr"] == pytest.approx(0.00175)
    # A pair missing on one side (a run that printed no result) is skipped.
    cut = runs(PARENT, change)[:-1] + [{"trace": 0, "pair": 10, "workload": "replay_custom",
                                        "side": "change", "result": {"error": "exit 1"}}]
    assert pb.summarize(cut, "replay_custom", "solve_s", True)["pairs"] == 9


@pytest.mark.parametrize("change, expected", (
    ([p * 0.95 for p in PARENT], "met"),  # 10 of 10 lower, by 5%
    ([p * 0.95 for p in PARENT[:8]] + [p * 1.01 for p in PARENT[8:]], "not met"),  # 8 of 10
    ([p * 0.995 for p in PARENT], "not met"),  # 10 of 10, by less than the parent's IQR
), ids=("met", "eight-of-ten", "inside-the-iqr"))
def test_a_claim_needs_nine_in_ten_pairs_and_the_parents_iqr(change, expected):
    s = pb.summarize(runs(PARENT, change), "replay_custom", "solve_s", True)
    assert pb.verdict(s, True, 0.25, claimed=True) == expected


def test_a_bounded_metric_is_worse_unresolved_or_within_bound():
    def judged(parent, change):
        s = pb.summarize(runs(parent, change, "bench1d"), "bench1d", "solve_s", True)
        return pb.verdict(s, True, 0.25, claimed=False)

    assert judged(PARENT, [p * 1.3 for p in PARENT]) == "worse than bound"
    assert judged(PARENT, [p * 1.2 for p in PARENT]) == "within bound"
    wide = [0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2]  # IQR 0.1 on a median of 0.15
    assert judged(wide, wide[::-1]) == "unresolved"
    assert judged(wide, [0.09] * 10) == "within bound"  # every change run beats every parent run


def test_a_higher_is_better_metric_is_judged_the_other_way():
    s = pb.summarize(runs(PARENT, [p * 1.05 for p in PARENT]), "replay_custom", "solve_s", False)
    assert s["change_better_pairs"] == 10
    assert pb.verdict(s, False, 0.25, claimed=True) == "met"
    assert pb.verdict(s, True, 0.25, claimed=True) == "not met"


def test_a_per_layer_metric_is_better_worse_or_within_spread():
    def judged(change):
        s = pb.summarize(runs(PARENT, change), "replay_custom", "solve_s", True)
        return pb.verdict(s, True, None, claimed=False)

    assert judged([p * 0.9 for p in PARENT]) == "better"
    assert judged([p * 1.1 for p in PARENT]) == "worse"
    assert judged(PARENT[::-1]) == "within spread"


def test_main_alternates_sides_and_writes_every_run(monkeypatch, tmp_path):
    calls = []

    def fake_run_side(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout.name == "parent" else "change"
        calls.append((side, workload, trace))
        assert seconds == SPEC["run_seconds"]
        value = 0.130 if side == "parent" else 0.120
        return {"git_sha": side}, result(value + 0.001 * len(calls) / 100)

    monkeypatch.setattr(pb, "run_side", fake_run_side)
    monkeypatch.setattr(pb, "ROOT", tmp_path)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    assert pb.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "replay_custom", "--workload", "bench1d", "--seed", "11", "--pairs", "4",
        "--name", "canned", "--claim", "replay_custom.solve_s",
    ]) == 0
    sides = [side for side, _, _ in calls]
    assert sides == ["parent", "change", "change", "parent"] * 4
    assert [w for _, w, _ in calls] == ["replay_custom"] * 8 + ["bench1d"] * 8
    report = json.loads((tmp_path / "BENCH_canned.json").read_text())
    assert len(report["runs"]) == 16 and "traced" not in report
    assert report["env"] == {"parent": {"git_sha": "parent"}, "change": {"git_sha": "change"}}
    verdicts = report["untraced"]["verdicts"]
    assert verdicts["replay_custom.solve_s"] == "met"
    assert verdicts["bench1d.solve_s"] == "within bound"
    assert verdicts["failed operations, change"] == "0 of 800"
