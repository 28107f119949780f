"""Benchmark of the switchmc solve path.

Usage (from the repository root):

    python3 perfbench/run.py --workload bench1d --seed 1 --seconds 16 --trace 0

Times set-up in fresh processes (``setup_probe.py``), then runs the
workload's operation repeatedly in this process for ``--seconds``, checks
every operation's output, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` untraced and traced operations alternate and the metrics
are the per-layer ones.  The line before the result records the environment
and every sample.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every workload runs single-threaded.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes that time set-up; their median is setup_s.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Per-layer metrics that the set-up probes measure rather than the solve.
SETUP_LAYERS = (
    "switchmc.import_s", "model.load_problem_s", "model.validate_s",
    "filtering.solve_riccati_s", "filtering.build_quadrature_s",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of the solve's inputs")
    p.add_argument("--seconds", type=float, required=True, help="how long to repeat the operation")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--M", type=int, help="override training paths")
    p.add_argument("--n-steps", type=int, dest="n_steps", help="override time steps")
    p.add_argument("--replay-M", type=int, dest="replay_M", help="override replay paths")
    p.add_argument(
        "--corrupt-output", action="store_true",
        help="self-test: spoil every operation's values so its output checks fail",
    )
    return p.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def probe_setup(workload: str, n_steps: int) -> dict:
    """Time set-up in a fresh process; the probe's JSON line as a dict."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(n_steps)],
        stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class Runner:
    """Runs one workload's operations and keeps every sample."""

    def __init__(self, workload, seed: int, corrupt: bool):
        self.workload = workload
        self.seed = seed
        self.corrupt = corrupt
        self.reference = None  # sha256 of the first operation's fingerprint
        self.ops = []

    def op(self, kind: str, recorder=None) -> None:
        """One operation, traced when ``recorder`` is given.

        Only "untraced" times give the end-to-end metrics and only "traced"
        ones the per-layer times.  A "warmup" operation runs first, so that
        caches and the allocator's heap are warm; an "alloc" one records
        allocation peaks, which slows it.  Every kind is checked, counted, and
        must match the first operation bit for bit.
        """
        import spans

        row = {"kind": kind}
        tracing = contextlib.nullcontext() if recorder is None else spans.tracing(recorder)
        start = time.perf_counter()
        try:
            with tracing:
                fp = self.workload.run(self.seed)
        except Exception:
            traceback.print_exc()
            row.update(seconds=None, failed=["raised"])
            self.ops.append(row)
            return
        row["seconds"] = time.perf_counter() - start
        if self.corrupt:
            fp["v"][0] = float("nan")
        failed = self.workload.check(fp)
        digest = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            failed.append("bitwise equal to the run's first operation")
        row["failed"] = failed
        if recorder is not None:
            row["layers"] = recorder.summary(row["seconds"])
        self.ops.append(row)


def times(ops: list, kind: str) -> list:
    return [o["seconds"] for o in ops if o["kind"] == kind and o["seconds"] is not None]


def end_to_end(ops: list, workload, probes: list, peak_rss_mb: float) -> dict:
    solve_s = statistics.median(times(ops, "untraced"))
    return {
        "solve_s": solve_s,
        "us_per_path_step": solve_s * 1e6 / (workload.M * workload.n_steps),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(ops: list, probes: list) -> dict:
    def layers(kind):
        return [o["layers"] for o in ops if o["kind"] == kind and o["seconds"] is not None]

    traced = layers("traced")
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    for name in SETUP_LAYERS:
        out[name] = statistics.median(p[name] for p in probes)
    out["dp.evaluate_s"] = out["dp.value_at_origin_s"] + out["dp.simulate_policy_s"]
    for name in ("simulate.build_ensemble_alloc_mb", "dp.backward_induction_alloc_mb"):
        out[name] = statistics.median(a[name] for a in layers("alloc"))
    out["trace.overhead_s"] = (
        statistics.median(times(ops, "traced")) - statistics.median(times(ops, "untraced"))
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "switchmc" / "__init__.py").is_file():
        print(f"error: switchmc sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    # The build: byte-compile the sources so no set-up probe pays for it.
    compileall.compile_dir(str(SRC), quiet=2)

    sys.path.insert(0, str(SRC))
    import switchmc
    from workloads import WORKLOADS

    if Path(switchmc.__file__).resolve().parent != SRC / "switchmc":
        raise RuntimeError(f"imported switchmc from {switchmc.__file__}, not {SRC}")
    sizes = {k: getattr(args, k) for k in ("M", "n_steps", "replay_M")}
    sizes = {k: v for k, v in sizes.items() if v is not None}
    workload = dataclasses.replace(WORKLOADS[args.workload], **sizes)
    probes = [probe_setup(args.workload, workload.n_steps) for _ in range(SETUP_PROBES)]

    import spans

    runner = Runner(workload, args.seed, args.corrupt_output)
    runner.op("warmup")
    deadline = time.perf_counter() + args.seconds
    while True:
        runner.op("untraced")
        if args.trace:
            runner.op("traced", spans.Recorder())
        if time.perf_counter() >= deadline:
            break
    if args.trace:
        runner.op("alloc", spans.Recorder(measure_alloc=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = runner.ops
    needed = ("untraced", "traced", "alloc") if args.trace else ("untraced",)
    if not all(times(ops, kind) for kind in needed):
        print("error: no operation of some kind completed", file=sys.stderr)
        return 1
    values = per_layer(ops, probes) if args.trace else end_to_end(ops, workload, probes, peak_rss_mb)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for o in ops if o["failed"])
    record = {
        "env": environment(),
        "workload": dataclasses.asdict(workload),
        "seed": args.seed,
        "setup_probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "ops": [{k: v for k, v in o.items() if k != "layers"} for o in ops],
    }
    print(json.dumps({"record": record}))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
