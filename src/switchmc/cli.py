"""Command line interface: validate, riccati, paths, solve, table2, sweep,
oracle, and bound subcommands.

Every run resolves a full configuration (problem plus solver parameters),
derives all random streams from one master seed, and emits a manifest
carrying the resolved configuration and a content hash so reruns can be
checked for reproducibility.  Thread count never changes numerical output;
it only parallelizes independent replications.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .benchmarks import (
    ACTIVE_MODE,
    G_SWEEP_VALUES,
    PDE_REFERENCE,
    benchmark_problem,
    default_solver_params,
)
from .dp import backward_induction, value_at_origin
from .filtering import build_quadrature, solve_riccati
from .model import load_problem, switch_count_bound, validate
from .oracle import TreeSpec, tree_oracle_value
from .regress import HypercubeBasis, estimate_pmin
from .simulate import (
    NoiseSource,
    build_ensemble,
    calibrate_domain,
    derive_seed,
    payoff_sup_on_domain,
    simulate_paths,
)

__all__ = [
    "StageError",
    "RunConfig",
    "PipelineResult",
    "run_pipeline",
    "run_solve",
    "run_table2",
    "run_sweep",
    "run_bound",
    "main",
]

_ENV_THREADS = "SWITCHMC_THREADS"
# Labels of the random streams of one replication, passed to derive_seed
# after the master seed and the replication index.
_SEED_LABELS = {"train": 0, "eval": 1, "pilot": 2}


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: problem dict, solver params, output dir."""

    problem: dict
    solver: dict
    output: str | None = None

    def canonical_json(self) -> str:
        payload = {"problem": self.problem, "solver": self.solver}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def manifest(self, command: str) -> dict:
        return {
            "command": command,
            "package_version": __version__,
            "seed": int(self.solver["seed"]),
            "solver": dict(self.solver),
            "problem": copy.deepcopy(self.problem),
            "inputs_sha256": self.content_hash(),
        }


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Everything one solve replication produced, for callers that need more
    than the headline numbers."""

    model: object
    modes: object
    grid: object
    schedule: object
    rule: object
    domain: object
    ensemble: object
    basis: object
    surface: object
    policy: object
    values: np.ndarray
    pmin_raw: float
    pmin_occupied: float
    switch_bound: float
    train_seed: int
    eval_seed: int


def _resolve_problem(config: RunConfig):
    model, modes = load_problem(config.problem)
    solver_steps = int(config.solver["n_steps"])
    if model.n_steps != solver_steps:
        model = model.replace(n_steps=solver_steps)
    return model, modes


def _seeds(solver: dict, rep: int) -> dict:
    """Seed of every labelled random stream of replication ``rep``."""
    master = int(solver["seed"])
    return {name: derive_seed(master, rep, label) for name, label in _SEED_LABELS.items()}


def _simulate(config: RunConfig, rep: int, n_paths: int):
    """Stages load, validate, riccati, quadrature, calibrate and simulate:
    ``n_paths`` training paths of replication ``rep``.

    Returns (model, modes, schedule, rule, ensemble, seeds); the calibrated
    domain is ``ensemble.domain``.
    """
    params = config.solver
    model, modes = _stage("load", _resolve_problem, config)
    grid = model.grid
    report = _stage("validate", validate, model, modes, grid)
    if not report.ok:
        raise StageError("validate", ValueError(str(report)))
    schedule = _stage("riccati", solve_riccati, model, grid)
    rule = _stage("quadrature", build_quadrature, model.n1, int(params["quad_order"]))
    seeds = _seeds(params, rep)
    domain = _stage(
        "calibrate", calibrate_domain, model, grid, schedule, float(params["epsilon"]),
        pilot_M=max(100, min(int(params["M"]), 1000)), seed=seeds["pilot"],
    )
    ensemble = _stage(
        "simulate", build_ensemble, model, grid, schedule, domain, n_paths,
        NoiseSource("gaussian"), seeds["train"],
    )
    return model, modes, schedule, rule, ensemble, seeds


def run_pipeline(config: RunConfig, rep: int = 0) -> PipelineResult:
    """One full solve replication: validate, integrate the covariance,
    calibrate the domain, simulate, regress, and run backward induction."""
    params = config.solver
    model, modes, schedule, rule, ensemble, seeds = _simulate(config, rep, int(params["M"]))
    grid, domain = ensemble.grid, ensemble.domain
    basis = _stage("regress", HypercubeBasis, domain, params["cells_per_dim"])
    surface, policy = _stage("induction", backward_induction, ensemble, basis, modes, schedule, rule)
    values = _stage("evaluate", value_at_origin, surface, model, modes, schedule, rule)
    pmin = _stage("diagnostics", estimate_pmin, ensemble, basis)
    f_sup = _stage(
        "diagnostics", payoff_sup_on_domain, modes, domain, schedule, rule, grid
    )
    bound = _stage("diagnostics", switch_count_bound, modes, f_sup, model.T)

    return PipelineResult(
        model=model,
        modes=modes,
        grid=grid,
        schedule=schedule,
        rule=rule,
        domain=domain,
        ensemble=ensemble,
        basis=basis,
        surface=surface,
        policy=policy,
        values=np.asarray(values),
        pmin_raw=pmin.raw_min,
        pmin_occupied=pmin.occupied_min,
        switch_bound=float(bound),
        train_seed=seeds["train"],
        eval_seed=seeds["eval"],
    )


def _thread_map(fn, jobs, threads: int):
    """Order-preserving map, optionally across a thread pool."""
    jobs = list(jobs)
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def run_solve(config: RunConfig, threads: int = 1) -> dict:
    """Solve the configured problem over the configured replications."""
    start = time.perf_counter()
    reps = int(config.solver.get("replications", 1))

    def one(rep):
        # Keep only the headline numbers, so finished replications do not
        # hold their paths and value surfaces.
        result = run_pipeline(config, rep)
        return {
            "v": [float(x) for x in result.values],
            "pmin_raw": result.pmin_raw,
            "pmin_occupied": result.pmin_occupied,
            "switch_bound": result.switch_bound,
        }

    rows = _thread_map(one, range(reps), threads)
    per_rep = np.array([row["v"] for row in rows])  # (reps, d)
    v_mean = per_rep.mean(axis=0)
    if reps > 1:
        stderr = per_rep.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        stderr = np.zeros(per_rep.shape[1])
    runtime = time.perf_counter() - start
    return {
        "v": [float(x) for x in v_mean],
        "stderr": [float(x) for x in stderr],
        "per_replication": [row["v"] for row in rows],
        "pmin_hat": {
            "raw_min": min(row["pmin_raw"] for row in rows),
            "occupied_min": min(row["pmin_occupied"] for row in rows),
        },
        "switch_bound": max(row["switch_bound"] for row in rows),
        "replications": reps,
        "runtime_s": runtime,
        "manifest": config.manifest("solve"),
    }


def run_table2(config: RunConfig, threads: int = 1) -> list:
    """Benchmark rows across the three reference starts.

    Returns a list of row dicts: m0, estimate (value of the earning mode),
    stderr, transcribed external reference, absolute and relative deviation.
    """
    rows = []
    for m0 in sorted(PDE_REFERENCE):
        problem = copy.deepcopy(config.problem)
        problem["m0"] = m0
        sub = RunConfig(problem=problem, solver=dict(config.solver), output=config.output)
        result = run_solve(sub, threads=threads)
        estimate = result["v"][ACTIVE_MODE]
        stderr = result["stderr"][ACTIVE_MODE]
        reference = PDE_REFERENCE[m0]
        rows.append(
            {
                "m0": m0,
                "estimate": estimate,
                "stderr": stderr,
                "reference": reference,
                "abs_dev": abs(estimate - reference),
                "rel_dev": abs(estimate - reference) / abs(reference),
            }
        )
    return rows


_SWEEP_DEFAULTS = {
    "G": G_SWEEP_VALUES,
    "C": G_SWEEP_VALUES,
    "m0": (-1.0, -0.5, 0.0, 0.5, 1.0),
}


def run_sweep(config: RunConfig, axis: str, values=None, threads: int = 1) -> list:
    """Value of the earning mode as one problem entry sweeps a ladder.

    ``axis`` is one of G, C, m0.  Returns row dicts value, v1, stderr.
    """
    if axis not in _SWEEP_DEFAULTS:
        raise ValueError(f"sweep axis must be one of {sorted(_SWEEP_DEFAULTS)}, got '{axis}'")
    if values is None:
        values = _SWEEP_DEFAULTS[axis]
    reps = int(config.solver.get("replications", 1))

    jobs = [(float(val), rep) for val in values for rep in range(reps)]

    def one(job):
        val, rep = job
        problem = copy.deepcopy(config.problem)
        problem[axis] = val
        sub = RunConfig(problem=problem, solver=dict(config.solver), output=None)
        return float(run_pipeline(sub, rep).values[ACTIVE_MODE])

    flat = _thread_map(one, jobs, threads)
    rows = []
    for idx, val in enumerate(values):
        vs = np.array(flat[idx * reps:(idx + 1) * reps])
        stderr = float(vs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        rows.append({"value": float(val), "v1": float(vs.mean()), "stderr": stderr})
    return rows


def run_bound(config: RunConfig) -> dict:
    """A-priori error-bound terms for the configured discretization."""
    params = config.solver
    M = int(params["M"])
    model, _, _, _, ensemble, _ = _simulate(config, 0, M)
    basis = _stage("regress", HypercubeBasis, ensemble.domain, params["cells_per_dim"])
    pmin = _stage("diagnostics", estimate_pmin, ensemble, basis)

    delta = model.grid.delta
    p = pmin.raw_min
    if p > 0:
        noise_term = 1.0 / (delta * math.sqrt(M * p))
        bias_term = 1.0 / (delta * M * p)
    else:
        noise_term = math.inf
        bias_term = math.inf
    terms = {
        "sqrt_delta_log_term": math.sqrt(delta * math.log(2.0 * model.T / delta)),
        "sqrt_delta_term": math.sqrt(delta),
        "delta_term": delta,
        "epsilon_term": float(params["epsilon"]),
        "cell_over_delta_term": float(np.max(basis.delta_side)) / delta,
        "regression_noise_term": noise_term,
        "regression_bias_term": bias_term,
    }
    # Infinite terms serialize as null so the output stays strict JSON; the
    # infinite_terms list names them.
    return {
        "terms": {k: (None if math.isinf(v) else v) for k, v in terms.items()},
        "constants_note": (
            "each term enters the total error bound up to a multiplicative "
            "constant that is not tracked; regression terms use the raw "
            "empirical minimum cell probability"
        ),
        "pmin_hat": {"raw_min": pmin.raw_min, "occupied_min": pmin.occupied_min},
        "infinite_terms": [k for k, v in terms.items() if math.isinf(v)],
        "manifest": config.manifest("bound"),
    }


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    problem = data.get("problem")
    if isinstance(problem, str):
        problem_path = problem
        if not os.path.isabs(problem_path):
            problem_path = os.path.join(os.path.dirname(os.path.abspath(path)), problem_path)
        with open(problem_path, "r", encoding="utf-8") as fh:
            data["problem"] = json.load(fh)
    return data


def _resolve_config(args) -> RunConfig:
    problem = benchmark_problem()
    solver = default_solver_params()
    solver.pop("n_steps", None)
    output = getattr(args, "out", None)
    if getattr(args, "config", None):
        data = _stage("load", _load_config_file, args.config)
        if data.get("problem"):
            problem = data["problem"]
        solver.update(data.get("solver", {}))
        if output is None:
            output = data.get("output")
    if getattr(args, "problem", None):
        def _read_problem(path):
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)

        problem = _stage("load", _read_problem, args.problem)
    if getattr(args, "seed", None) is not None:
        solver["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        solver["replications"] = args.replications
    for key in ("M", "n_steps", "epsilon", "cells_per_dim", "quad_order"):
        val = getattr(args, key, None)
        if val is not None:
            solver[key] = val
    # The grid comes from the problem unless a config or flag overrides it.
    if "n_steps" not in solver or solver["n_steps"] is None:
        # A problem without n_steps fails at stage 'load', naming the key.
        solver["n_steps"] = problem.get("n_steps")
    return RunConfig(problem=problem, solver=solver, output=output)


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, int(args.threads))
    env = os.environ.get(_ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{_ENV_THREADS} must be an integer, got '{env}'")
    return 1


def _ensure_out(config: RunConfig) -> str | None:
    if config.output is None:
        return None
    os.makedirs(config.output, exist_ok=True)
    return config.output


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(out_dir: str | None, name: str, header, rows) -> str | None:
    """Write RFC 4180 CSV (CRLF, header row); echo to stdout without a dir."""
    import csv as _csv

    if out_dir is None:
        writer = _csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return None
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _emit_manifest(config: RunConfig, command: str) -> None:
    out_dir = _ensure_out(config)
    if out_dir is not None:
        _write_json(out_dir, "manifest.json", config.manifest(command))


def _cmd_validate(args) -> int:
    config = _resolve_config(args)
    model, modes = _stage("load", _resolve_problem, config)
    report = _stage("validate", validate, model, modes, model.grid)
    print(str(report))
    _emit_manifest(config, "validate")
    return 0 if report.ok else 1


def _cmd_riccati(args) -> int:
    config = _resolve_config(args)
    model, _ = _stage("load", _resolve_problem, config)
    grid = model.grid
    schedule = _stage("riccati", solve_riccati, model, grid, args.substeps)
    n1 = model.n1
    header = ["t"] + [f"theta_{i + 1}{j + 1}" for i in range(n1) for j in range(n1)]
    times = grid.times
    rows = [
        [f"{times[k]:.12g}"] + [f"{schedule.thetas[k, i, j]:.17g}" for i in range(n1) for j in range(n1)]
        for k in range(grid.n_steps + 1)
    ]
    out_dir = _ensure_out(config)
    path = _write_csv(out_dir, "riccati.csv", header, rows)
    _emit_manifest(config, "riccati")
    if path:
        print(path)
    return 0


def _cmd_paths(args) -> int:
    config = _resolve_config(args)
    n_paths = int(args.n_paths)
    model, _, _, _, ensemble, _ = _simulate(config, 0, n_paths)
    grid = model.grid
    header = (
        ["path", "k", "t"]
        + [f"m_{i + 1}" for i in range(model.n1)]
        + [f"y_{i + 1}" for i in range(model.n2)]
    )
    times = grid.times
    rows = []
    for ell in range(n_paths):
        for k in range(grid.n_steps + 1):
            rows.append(
                [ell, k, f"{times[k]:.12g}"]
                + [f"{v:.17g}" for v in ensemble.m_paths[ell, k]]
                + [f"{v:.17g}" for v in ensemble.y_paths[ell, k]]
            )
    out_dir = _ensure_out(config)
    path = _write_csv(out_dir, "paths.csv", header, rows)
    _emit_manifest(config, "paths")
    if path:
        print(path)
    return 0


def _cmd_solve(args) -> int:
    config = _resolve_config(args)
    threads = _resolve_threads(args)
    result = run_solve(config, threads=threads)
    out_dir = _ensure_out(config)
    if out_dir is not None:
        # Wall-clock time stays out of the stored result so identical runs
        # (including different --threads) produce byte-identical files.
        stored = {k: v for k, v in result.items() if k != "runtime_s"}
        _write_json(out_dir, "result.json", stored)
        _write_json(out_dir, "manifest.json", result["manifest"])
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_table2(args) -> int:
    config = _resolve_config(args)
    threads = _resolve_threads(args)
    rows = run_table2(config, threads=threads)
    header = ["m0", "estimate", "stderr", "reference", "abs_dev", "rel_dev"]
    csv_rows = [
        [
            f"{r['m0']:.12g}", f"{r['estimate']:.12g}", f"{r['stderr']:.12g}",
            f"{r['reference']:.12g}", f"{r['abs_dev']:.12g}", f"{r['rel_dev']:.12g}",
        ]
        for r in rows
    ]
    out_dir = _ensure_out(config)
    path = _write_csv(out_dir, "table2.csv", header, csv_rows)
    _emit_manifest(config, "table2")
    if path:
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    threads = _resolve_threads(args)
    values = None
    if args.values:
        values = [float(v) for v in args.values.split(",")]
    rows = run_sweep(config, args.axis, values=values, threads=threads)
    header = ["value", "v1", "stderr"]
    csv_rows = [
        [f"{r['value']:.12g}", f"{r['v1']:.12g}", f"{r['stderr']:.12g}"] for r in rows
    ]
    out_dir = _ensure_out(config)
    path = _write_csv(out_dir, f"sweep_{args.axis}.csv", header, csv_rows)
    _emit_manifest(config, "sweep")
    if path:
        print(path)
    return 0


def _cmd_oracle(args) -> int:
    config = _resolve_config(args)
    tree_steps = args.n_steps if args.n_steps is not None else 4
    problem = copy.deepcopy(config.problem)
    problem["n_steps"] = int(tree_steps)
    solver = dict(config.solver)
    solver["n_steps"] = int(tree_steps)
    sub = RunConfig(problem=problem, solver=solver, output=config.output)
    model, modes = _stage("load", _resolve_problem, sub)
    spec = _stage("oracle", TreeSpec, model, modes)
    schedule = _stage("riccati", solve_riccati, model, model.grid)
    rule = _stage("quadrature", build_quadrature, model.n1, int(solver["quad_order"]))
    values = _stage("oracle", tree_oracle_value, spec, schedule, rule)
    payload = {
        "values": [float(v) for v in values],
        "n_steps": model.n_steps,
        "n_leaves": spec.n_leaves,
        "manifest": sub.manifest("oracle"),
    }
    out_dir = _ensure_out(sub)
    if out_dir is not None:
        _write_json(out_dir, "oracle.json", payload)
        _write_json(out_dir, "manifest.json", payload["manifest"])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_bound(args) -> int:
    config = _resolve_config(args)
    payload = run_bound(config)
    out_dir = _ensure_out(config)
    if out_dir is not None:
        _write_json(out_dir, "bound.json", payload)
        _write_json(out_dir, "manifest.json", payload["manifest"])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--problem", help="JSON problem file (overrides config)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory for results and manifest")
    parser.add_argument("--replications", type=int, help="independent replications")
    parser.add_argument(
        "--threads", type=int,
        help=f"worker threads (default: ${_ENV_THREADS} or 1); never changes results",
    )
    parser.add_argument("--M", type=int, dest="M", help="training paths per replication")
    parser.add_argument("--n-steps", type=int, dest="n_steps", help="time grid steps")
    parser.add_argument("--epsilon", type=float, help="domain clamp tolerance")
    parser.add_argument("--cells-per-dim", type=int, dest="cells_per_dim", help="regression cells per axis")
    parser.add_argument("--quad-order", type=int, dest="quad_order", help="quadrature nodes per axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchmc",
        description=(
            "Finite-horizon multi-mode optimal switching under partial "
            "information via filtering and regression Monte Carlo"
        ),
    )
    parser.add_argument("--version", action="version", version=f"switchmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem's structural assumptions")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("riccati", help="integrate the covariance schedule to CSV")
    _add_common(p)
    p.add_argument("--substeps", type=int, default=None, help="RK4 substeps per grid interval")
    p.set_defaults(fn=_cmd_riccati)

    p = sub.add_parser("paths", help="simulate a small path ensemble to CSV")
    _add_common(p)
    p.add_argument("--n-paths", type=int, default=10, help="paths to emit")
    p.set_defaults(fn=_cmd_paths)

    p = sub.add_parser("solve", help="estimate values at the initial state")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("table2", help="benchmark against the transcribed references")
    _add_common(p)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("sweep", help="sweep one problem entry over a ladder")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=sorted(_SWEEP_DEFAULTS))
    p.add_argument("--values", help="comma-separated ladder (default per axis)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive two-point tree values")
    _add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("bound", help="report a-priori error-bound terms")
    _add_common(p)
    p.set_defaults(fn=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.fn(args))
    except StageError as exc:
        print(f"error at stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
