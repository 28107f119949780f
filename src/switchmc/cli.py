"""Command line interface: validate, riccati, paths, solve, table2, sweep,
oracle, and bound subcommands.

Every run resolves a full configuration (problem plus solver parameters),
derives all random streams from one master seed, and emits a manifest
carrying the resolved configuration and a content hash so reruns can be
checked for reproducibility.  Thread count never changes numerical output;
it only spreads independent replications, and sweep points, over threads.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
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
from .filtering import payoff_quadrature, solve_riccati
from .model import load_problem, switch_count_bound, validate
from .oracle import TreeSpec, tree_oracle_value
from .regress import HypercubeBasis, estimate_pmin, memberships
from .simulate import (
    NoiseSource,
    build_ensemble,
    calibrate_domain,
    derive_seed,
    payoff_sup_on_domain,
)

__all__ = [
    "StageError",
    "RunConfig",
    "PipelineResult",
    "run_pipeline",
    "run_solve",
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

    def content_hash(self) -> str:
        payload = {"problem": self.problem, "solver": self.solver}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

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
    """One solve replication's headline numbers, and what a policy replay on
    fresh paths needs: the problem, schedule, rule, surface and eval seed."""

    model: object
    modes: object
    schedule: object
    rule: object
    surface: object
    policy: object
    values: np.ndarray
    pmin_raw: float
    pmin_occupied: float
    switch_bound: float
    eval_seed: int


def _resolve_problem(config: RunConfig):
    """The problem on the solver's grid: the solver's ``n_steps`` replaces the
    problem's, and ``load_problem`` checks it like the problem's own."""
    problem = dict(config.problem)
    if config.solver["n_steps"] is not None:
        problem["n_steps"] = config.solver["n_steps"]
    return load_problem(problem)


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
        raise StageError("validate", ValueError("; ".join(report.violations)))
    schedule = _stage("riccati", solve_riccati, model, grid)
    rule = _stage("quadrature", payoff_quadrature, modes, model.n1, int(params["quad_order"]))
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
    cell_ids = _stage("regress", memberships, ensemble, basis)
    surface, policy = _stage(
        "induction", backward_induction, ensemble, basis, cell_ids, modes, schedule, rule
    )
    values = _stage("evaluate", value_at_origin, surface, model, modes, schedule, rule)
    pmin = _stage("diagnostics", estimate_pmin, cell_ids, basis.R)
    f_sup = _stage(
        "diagnostics", payoff_sup_on_domain, modes, domain, schedule, rule, grid
    )
    bound = _stage("diagnostics", switch_count_bound, modes, f_sup, model.T)

    return PipelineResult(
        model=model,
        modes=modes,
        schedule=schedule,
        rule=rule,
        surface=surface,
        policy=policy,
        values=np.asarray(values),
        pmin_raw=pmin.raw_min,
        pmin_occupied=pmin.occupied_min,
        switch_bound=float(bound),
        eval_seed=seeds["eval"],
    )


def _replications(solver: dict) -> int:
    """The configured replication count; at least one."""
    reps = int(solver.get("replications", 1))
    if reps < 1:
        raise ValueError(f"replications must be >= 1, got {reps}")
    return reps


def _replicate(problems: list, solver: dict, threads: int) -> list:
    """Every replication of every problem under one solver dict, spread over
    up to ``threads`` threads.

    Returns, per problem, the headline numbers of each of its replications:
    values, the two pmin figures and the switch bound.  Only those are kept,
    so finished replications do not hold their paths and value surfaces.
    """
    reps = _stage("load", _replications, solver)
    jobs = [(RunConfig(problem, solver), rep) for problem in problems for rep in range(reps)]

    def one(job):
        result = run_pipeline(*job)
        return {
            "v": [float(x) for x in result.values],
            "pmin_raw": result.pmin_raw,
            "pmin_occupied": result.pmin_occupied,
            "switch_bound": result.switch_bound,
        }

    if threads <= 1 or len(jobs) <= 1:
        rows = [one(job) for job in jobs]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, jobs))
    return [rows[i:i + reps] for i in range(0, len(rows), reps)]


def _mean_stderr(per_rep: np.ndarray) -> tuple:
    """Mean and standard error over the first axis of a (reps, d) array; the
    error is zero for one replication."""
    reps = per_rep.shape[0]
    if reps > 1:
        stderr = per_rep.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        stderr = np.zeros(per_rep.shape[1])
    return per_rep.mean(axis=0), stderr


def run_solve(config: RunConfig, threads: int = 1) -> dict:
    """Solve the configured problem over the configured replications."""
    start = time.perf_counter()
    rows = _replicate([config.problem], config.solver, threads)[0]
    per_rep = [row["v"] for row in rows]
    v_mean, stderr = _mean_stderr(np.array(per_rep))
    runtime = time.perf_counter() - start
    return {
        "v": [float(x) for x in v_mean],
        "stderr": [float(x) for x in stderr],
        "per_replication": per_rep,
        "pmin_hat": {
            "raw_min": min(row["pmin_raw"] for row in rows),
            "occupied_min": min(row["pmin_occupied"] for row in rows),
        },
        "switch_bound": max(row["switch_bound"] for row in rows),
        "replications": len(rows),
        "runtime_s": runtime,
        "manifest": config.manifest("solve"),
    }


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
    values = [float(val) for val in values]
    problems = [{**config.problem, axis: val} for val in values]
    rows = []
    for val, group in zip(values, _replicate(problems, config.solver, threads)):
        v, stderr = _mean_stderr(np.array([row["v"] for row in group]))
        rows.append(
            {"value": val, "v1": float(v[ACTIVE_MODE]), "stderr": float(stderr[ACTIVE_MODE])}
        )
    return rows


def run_bound(config: RunConfig) -> dict:
    """A-priori error-bound terms for the configured discretization."""
    params = config.solver
    M = int(params["M"])
    model, _, _, _, ensemble, _ = _simulate(config, 0, M)
    basis = _stage("regress", HypercubeBasis, ensemble.domain, params["cells_per_dim"])
    cell_ids = _stage("regress", memberships, ensemble, basis)
    pmin = _stage("diagnostics", estimate_pmin, cell_ids, basis.R)

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


def _read_json(path: str, base: str = ""):
    """Parse a JSON file; a relative ``path`` is taken from directory ``base``
    (by default the working directory)."""
    with open(os.path.join(base, path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_config(args) -> RunConfig:
    """Built-in defaults, overridden by the --config file, then by --problem,
    then by the solver flags."""
    problem = benchmark_problem()
    solver = default_solver_params()
    solver.pop("n_steps", None)
    output = args.out
    if args.config:
        data = _read_json(args.config)
        if isinstance(data.get("problem"), str):
            # A config's problem path is relative to the config file.
            base = os.path.dirname(os.path.abspath(args.config))
            data["problem"] = _read_json(data["problem"], base)
        if data.get("problem"):
            problem = data["problem"]
        solver.update(data.get("solver", {}))
        if output is None:
            output = data.get("output")
    if args.problem:
        problem = _read_json(args.problem)
    for key in ("seed", "replications", "M", "n_steps", "epsilon", "cells_per_dim", "quad_order"):
        val = getattr(args, key)
        if val is not None:
            solver[key] = val
    if not isinstance(problem, dict):
        raise TypeError(f"a problem must be a JSON object, got {type(problem).__name__}")
    if int(solver["seed"]) < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {solver['seed']}")
    # The grid comes from the problem unless a config or flag overrides it.
    if solver.get("n_steps") is None:
        # A problem without n_steps fails at stage 'load', naming the key.
        solver["n_steps"] = problem.get("n_steps")
    return RunConfig(problem=problem, solver=solver, output=output)


def _resolve_threads(args) -> int:
    """Worker threads from --threads, else from $SWITCHMC_THREADS, else 1."""
    name, text = "--threads", args.threads
    if text is None:
        name, text = _ENV_THREADS, os.environ.get(_ENV_THREADS) or "1"
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise StageError("load", ValueError(f"{name} must be a positive integer, got '{text}'"))


# Keys printed on stdout but kept out of stored files: wall-clock time
# differs between identical runs, and stored files must be byte-identical
# across reruns and thread counts.
_VOLATILE_KEYS = ("runtime_s",)


def _write_output(config: RunConfig, command: str, name: str | None = None, content=None) -> None:
    """Emit a command's output and, with an output directory, its manifest.

    ``content`` is a JSON object or a list of CSV rows, header first.  A JSON
    object is printed on stdout and stored as ``name`` without its volatile
    keys.  CSV (RFC 4180, CRLF line ends) is stored as ``name`` and its path
    printed, or printed on stdout when there is no output directory.  Files
    are written first, and a failed write is an error at stage 'output'.
    """
    out_dir = config.output
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            files = {"manifest.json": config.manifest(command)}
            if isinstance(content, dict):
                files[name] = {k: v for k, v in content.items() if k not in _VOLATILE_KEYS}
            for fname, payload in files.items():
                with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            if isinstance(content, list):
                with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
                    csv.writer(fh).writerows(content)
        except OSError as exc:
            raise StageError("output", exc) from exc
    if isinstance(content, dict):
        print(json.dumps(content, indent=2, sort_keys=True))
    elif content is not None:
        if out_dir is None:
            csv.writer(sys.stdout).writerows(content)
        else:
            print(os.path.join(out_dir, name))


def _cmd_validate(args, config: RunConfig) -> int:
    model, modes = _stage("load", _resolve_problem, config)
    report = _stage("validate", validate, model, modes, model.grid)
    _write_output(config, "validate")
    print(str(report))
    return 0 if report.ok else 1


def _cmd_riccati(args, config: RunConfig) -> int:
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
    _write_output(config, "riccati", "riccati.csv", [header] + rows)
    return 0


def _cmd_paths(args, config: RunConfig) -> int:
    n_paths = int(args.n_paths)
    model, _, _, _, ensemble, _ = _simulate(config, 0, n_paths)
    grid = model.grid
    header = (
        ["path", "k", "t"]
        + [f"m_{i + 1}" for i in range(model.n1)]
        + [f"y_{i + 1}" for i in range(model.n2)]
    )
    times = grid.times
    rows = [header]
    for ell in range(n_paths):
        for k in range(grid.n_steps + 1):
            rows.append(
                [ell, k, f"{times[k]:.12g}"]
                + [f"{v:.17g}" for v in ensemble.z_paths[ell, k]]
            )
    _write_output(config, "paths", "paths.csv", rows)
    return 0


def _cmd_solve(args, config: RunConfig) -> int:
    result = run_solve(config, threads=args.threads)
    _write_output(config, "solve", "result.json", result)
    return 0


def _cmd_table2(args, config: RunConfig) -> int:
    rows = [["m0", "estimate", "stderr", "reference", "abs_dev", "rel_dev"]]
    for r in run_sweep(config, "m0", sorted(PDE_REFERENCE), args.threads):
        reference = PDE_REFERENCE[r["value"]]
        abs_dev = abs(r["v1"] - reference)
        rows.append([
            f"{x:.12g}"
            for x in (r["value"], r["v1"], r["stderr"], reference, abs_dev, abs_dev / abs(reference))
        ])
    _write_output(config, "table2", "table2.csv", rows)
    return 0


def _cmd_sweep(args, config: RunConfig) -> int:
    values = None
    if args.values:
        values = _stage("load", lambda text: [float(v) for v in text.split(",")], args.values)
    rows = [["value", "v1", "stderr"]] + [
        [f"{r['value']:.12g}", f"{r['v1']:.12g}", f"{r['stderr']:.12g}"]
        for r in run_sweep(config, args.axis, values, args.threads)
    ]
    _write_output(config, "sweep", f"sweep_{args.axis}.csv", rows)
    return 0


def _cmd_oracle(args, config: RunConfig) -> int:
    # The tree's leaf count is exponential in n_steps, so the oracle runs on
    # a short grid of its own unless --n-steps sets one.
    tree_steps = int(args.n_steps if args.n_steps is not None else 4)
    config = RunConfig(
        problem={**config.problem, "n_steps": tree_steps},
        solver={**config.solver, "n_steps": tree_steps},
        output=config.output,
    )
    model, modes = _stage("load", _resolve_problem, config)
    spec = _stage("oracle", TreeSpec, model, modes)
    schedule = _stage("riccati", solve_riccati, model, model.grid)
    rule = _stage("quadrature", payoff_quadrature, modes, model.n1, int(config.solver["quad_order"]))
    values = _stage("oracle", tree_oracle_value, spec, schedule, rule)
    payload = {
        "values": [float(v) for v in values],
        "n_steps": model.n_steps,
        "n_leaves": spec.n_leaves,
        "manifest": config.manifest("oracle"),
    }
    _write_output(config, "oracle", "oracle.json", payload)
    return 0


def _cmd_bound(args, config: RunConfig) -> int:
    _write_output(config, "bound", "bound.json", run_bound(config))
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
    parser.add_argument("--quad-order", type=int, dest="quad_order", help="most quadrature nodes per axis")


# Subcommands: name, handler, help, and the arguments it adds to the common ones.
_COMMANDS = (
    ("validate", _cmd_validate, "check a problem's structural assumptions", ()),
    ("riccati", _cmd_riccati, "integrate the covariance schedule to CSV", (
        ("--substeps", dict(type=int, default=None, help="RK4 substeps per grid interval")),
    )),
    ("paths", _cmd_paths, "simulate a small path ensemble to CSV", (
        ("--n-paths", dict(type=int, default=10, help="paths to emit")),
    )),
    ("solve", _cmd_solve, "estimate values at the initial state", ()),
    ("table2", _cmd_table2, "benchmark against the transcribed references", ()),
    ("sweep", _cmd_sweep, "sweep one problem entry over a ladder", (
        ("--axis", dict(required=True, choices=sorted(_SWEEP_DEFAULTS))),
        ("--values", dict(help="comma-separated ladder (default per axis)")),
    )),
    ("oracle", _cmd_oracle, "exhaustive two-point tree values", ()),
    ("bound", _cmd_bound, "report a-priori error-bound terms", ()),
)


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
    for name, fn, help_text, extra in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _stage("load", _resolve_config, args)
        args.threads = _resolve_threads(args)
        return int(args.fn(args, config))
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
