"""The benchmark's traced operations, run in this process at tiny sizes.

``perfbench/test_smoke.py`` runs the benchmark in subprocesses and lies
outside the test paths.  Here each workload runs once under perfbench's
timing spans, so a change to what the spans or the workloads read off the
program (a result's shape, a field, a parameter) fails in the main suite.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


def load(name: str):
    """perfbench/<name>.py as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans, workloads, run = load("spans"), load("workloads"), load("run")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_operation_fills_every_per_layer_metric(name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], M=50, n_steps=5, replay_M=64)
    ops = [{"kind": "untraced", "seconds": 1.0}]
    recorders = {"traced": spans.Recorder(), "alloc": spans.Recorder(measure_alloc=True)}
    for kind, recorder in recorders.items():
        with spans.tracing(recorder):
            fp = workload.run(1)
        assert workload.check(fp) == []
        ops.append({"kind": kind, "seconds": 1.0, "layers": recorder.summary(1.0)})
    # run.py fills the set-up layers from its probes; the rest come from the spans.
    probes = [dict.fromkeys(run.SETUP_LAYERS, 0.0)]
    layers = run.per_layer(ops, probes)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)
