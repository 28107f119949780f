"""Smoke test of the benchmark itself at tiny sizes (M=200, N=20).

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = [
    "--seed", "3", "--seconds", "0", "--M", "200", "--n-steps", "20",
    "--replay-M", "400",
]


def bench(*args, cwd=None):
    run_py = Path(cwd or HERE.parent) / "perfbench" / "run.py"
    out = subprocess.run(
        [sys.executable, str(run_py), *TINY, *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_a_failed_check_counts_in_ops_failed():
    code, lines = bench("--workload", "bench1d", "--trace", "0", "--corrupt-output")
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "bench1d", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert lines == []
