"""Command line interface: validate, riccati, paths, solve, table2, sweep,
oracle, and bound subcommands.

Every run resolves a full configuration (problem plus solver parameters,
which one check turns into the ``SolverParams`` that every stage reads),
derives all random streams from one master seed, and emits a manifest
carrying the resolved configuration and a content hash so reruns can be
checked for reproducibility.  The worker count never changes numerical output;
it only spreads replications, and sweep points, over worker processes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import hashlib
import json
import math
import multiprocessing
import numbers
import os
import sys
import time
import types
from dataclasses import dataclass, fields, replace

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
from .model import _integer, load_problem, switch_count_bound, validate
from .oracle import tree_oracle_value
from .regress import HypercubeBasis, estimate_pmin
from .simulate import (
    _RNG_STREAM,
    build_ensemble,
    calibrate_domain,
    derive_seed,
    payoff_sup_on_domain,
    simulate_paths,
)

__all__ = [
    "StageError",
    "SolverParams",
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
_SEED_LABELS = {"train": 0, "eval": 1}
# Commands that draw no random numbers; their manifests name no stream.
_DRAWLESS = ("validate", "riccati", "oracle")


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # A worker process's failure reaches the parent pickled.
        return StageError, (self.stage, self.cause)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _solver_value(key: str, value, name: str):
    """``value`` under solver key ``key``'s one rule, an error naming ``name``;
    the ranges of M, cells, quad_order and epsilon are left to their stages."""
    if key == "epsilon":
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        return float(value)
    if key == "n_steps" and value is None:
        return None
    if key == "cells_per_dim" and isinstance(value, (list, tuple)):
        return tuple(_integer(name, c) for c in value)
    value = _integer(name, value)
    low = {"seed": 0, "replications": 1}.get(key)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class SolverParams:
    """The solver's settings, each checked by its key's rule; an integer key
    takes 200.0 and refuses 200.7, true and "200".  ``n_steps`` None means
    the problem's grid; ``cells_per_dim`` is one count or one per axis."""

    M: int
    n_steps: int | None
    epsilon: float
    cells_per_dim: int | tuple
    quad_order: int
    seed: int
    replications: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _solver_value(f.name, getattr(self, f.name), f.name))


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: problem dict, solver params, output dir.
    ``solver`` stays as given, for the manifest; ``params`` is its checked
    ``SolverParams``, and an unknown or refused key is a ValueError naming it."""

    problem: dict
    solver: dict
    output: str | None = None

    def __post_init__(self) -> None:
        for key in self.solver:
            if key not in {f.name for f in fields(SolverParams)}:
                raise ValueError(f"unknown solver key {key!r}")
        object.__setattr__(self, "params", SolverParams(**self.solver))

    def content_hash(self) -> str:
        payload = {"problem": self.problem, "solver": self.solver}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_callable_digest)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def manifest(self, command: str) -> dict:
        return {
            "command": command,
            "package_version": __version__,
            "seed": self.params.seed,
            "solver": dict(self.solver),
            "problem": json.loads(json.dumps(self.problem, default=_callable_name)),
            "inputs_sha256": self.content_hash(),
            **({} if command in _DRAWLESS else {"rng": _RNG_STREAM}),
        }


def _callable_name(obj, describe=None) -> str:
    """A library caller's callable payoff, in a manifest: its ``module.qualname``,
    or its type's for a callable object; a ``functools.partial`` as the call
    that makes it, its function written by ``describe`` (default: this one)."""
    if not callable(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if isinstance(obj, functools.partial):
        bound = [repr(a) for a in obj.args] + [f"{k}={v!r}" for k, v in obj.keywords.items()]
        return f"functools.partial({', '.join([(describe or _callable_name)(obj.func)] + bound)})"
    named = obj if hasattr(obj, "__qualname__") else type(obj)
    return f"{named.__module__}.{named.__qualname__}"


def _callable_digest(obj) -> str:
    """A callable payoff, in the content hash: its name and what its code
    computes (see ``_code_digest``); a partial, the digest of the function
    it wraps and its bound arguments' reprs; a callable object, its type's
    name, what its type's ``__call__`` computes and the sorted reprs of its
    attributes; other code-less callables, their name alone."""
    code, name = getattr(obj, "__code__", None), _callable_name(obj, _callable_digest)
    if not (hasattr(obj, "__qualname__") or isinstance(obj, functools.partial)):
        code = getattr(type(obj).__call__, "__code__", None)
        if hasattr(obj, "__dict__"):
            name += repr(sorted(vars(obj).items()))
    return name if code is None else f"{name}:{_code_digest(code)}"


def _code_digest(code: types.CodeType) -> str:
    """A hash of the bytecode, read names and constants of ``code``, nested code
    included, but not of its file, line numbers or local names."""
    consts = [_code_digest(c) if isinstance(c, types.CodeType) else sorted(map(repr, c))
              if isinstance(c, frozenset) else c for c in code.co_consts]
    return hashlib.sha256(repr((code.co_code, code.co_names, consts)).encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """One solve replication's headline numbers, and what a policy replay on
    fresh paths needs: the problem, schedule, rule, surface and eval seed."""

    model: object
    modes: object
    schedule: object
    rule: object
    surface: object
    policy: None  # always None; perfbench/workloads.py:121 still reads it
    values: np.ndarray
    pmin_raw: float
    pmin_occupied: float
    switch_bound: float
    eval_seed: int


def _load(config: RunConfig, refuse: bool = True):
    """Stages load and validate: (model, modes, report) on the solver's grid;
    with ``refuse``, an invalid problem is one error at stage 'validate'."""
    problem = dict(config.problem)
    if config.params.n_steps is not None:
        problem["n_steps"] = config.params.n_steps
    model, modes = _stage("load", load_problem, problem)
    report = _stage("validate", validate, model, modes, model.grid)
    if refuse and not report.ok:
        raise StageError("validate", ValueError("; ".join(report.violations)))
    return model, modes, report


def _prepare(config: RunConfig):
    """Stages load, validate, riccati and quadrature: (model, modes, schedule,
    rule) on the solver's grid."""
    model, modes, _ = _load(config)
    schedule = _stage("riccati", solve_riccati, model, model.grid)
    rule = _stage("quadrature", payoff_quadrature, modes, model.n1, config.params.quad_order)
    return model, modes, schedule, rule


def _seed(config: RunConfig, rep: int, name: str) -> int:
    """Seed of random stream ``name`` of replication ``rep``."""
    return derive_seed(config.params.seed, rep, _SEED_LABELS[name])


def run_pipeline(config: RunConfig, rep: int = 0) -> PipelineResult:
    """One full solve replication: validate, propagate the covariance,
    simulate, calibrate the box on those paths, regress, and run backward
    induction."""
    params = config.params
    model, modes, schedule, rule = _prepare(config)
    grid = model.grid
    ensemble = _stage(
        "simulate", build_ensemble, model, grid, schedule, params.M, _seed(config, rep, "train"),
    )
    domain = _stage("calibrate", calibrate_domain, ensemble, params.epsilon)
    basis = _stage("regress", HypercubeBasis, domain, params.cells_per_dim)
    surface, _ = _stage("induction", backward_induction, ensemble, basis, modes, schedule, rule)
    values = _stage("evaluate", value_at_origin, surface)
    pmin = _stage("diagnostics", estimate_pmin, surface.coeffs)
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
        policy=None,
        values=values,
        pmin_raw=pmin.raw_min,
        pmin_occupied=pmin.occupied_min,
        switch_bound=float(bound),
        eval_seed=_seed(config, rep, "eval"),
    )


def _headline(job) -> dict:
    """Run one (config, rep) job and keep only its headline numbers: values,
    the two pmin figures and the switch bound, not its paths and surface."""
    result = run_pipeline(*job)
    return {
        "v": [float(x) for x in result.values],
        "pmin_raw": result.pmin_raw,
        "pmin_occupied": result.pmin_occupied,
        "switch_bound": result.switch_bound,
    }


def _replicate(config: RunConfig, problems: list, workers: int) -> list:
    """Every replication of every problem under ``config``'s solver
    parameters, spread over up to ``workers`` worker processes (no more than
    the CPUs or the jobs; one runs in this process).

    Returns, per problem, the headline numbers of each of its replications.
    """
    reps = config.params.replications
    jobs = [(replace(config, problem=problem), rep) for problem in problems for rep in range(reps)]
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        rows = [_headline(job) for job in jobs]
    else:
        # A solve holds the GIL but for its draws on one helper thread, so
        # solves on threads would serialize; forkserver starts each worker
        # from a single-threaded server rather than a copy of this process.
        context = multiprocessing.get_context("forkserver")
        with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
            rows = list(pool.map(_headline, jobs))
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
    rows = _replicate(config, [config.problem], threads)[0]
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
    for val, group in zip(values, _replicate(config, problems, threads)):
        v, stderr = _mean_stderr(np.array([row["v"] for row in group]))
        rows.append(
            {"value": val, "v1": float(v[ACTIVE_MODE]), "stderr": float(stderr[ACTIVE_MODE])}
        )
    return rows


def run_bound(config: RunConfig) -> dict:
    """A-priori error-bound terms for the configured discretization, in terms
    of the first solve replication's own run: its grid step, its cell sides
    and the cell occupancy of its induction, so ``pmin_hat`` is the solve's."""
    res = run_pipeline(config, 0)
    M, delta, p = res.surface.M, res.model.grid.delta, res.pmin_raw
    noise_term = 1.0 / (delta * math.sqrt(M * p)) if p > 0 else math.inf
    bias_term = 1.0 / (delta * M * p) if p > 0 else math.inf
    terms = {
        "sqrt_delta_log_term": math.sqrt(delta * math.log(2.0 * res.model.T / delta)),
        "sqrt_delta_term": math.sqrt(delta),
        "delta_term": delta,
        "epsilon_term": config.params.epsilon,
        "cell_over_delta_term": float(np.max(res.surface.basis.delta_side)) / delta,
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
        "pmin_hat": {"raw_min": p, "occupied_min": res.pmin_occupied},
        "infinite_terms": [k for k, v in terms.items() if math.isinf(v)],
        "manifest": config.manifest("bound"),
    }


def _read_json(path: str, base: str = ""):
    """Parse a JSON file; a relative ``path`` is taken from directory ``base``
    (by default the working directory)."""
    with open(os.path.join(base, path), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_object(name: str, value):
    """``value`` if it is a JSON object (a dict), else a TypeError naming ``name``."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _resolve_config(args) -> RunConfig:
    """Built-in defaults, overridden by the --config file, then by --problem,
    then by the solver flags; an error names a flag only for the flag's value."""
    problem = benchmark_problem()
    solver = default_solver_params()
    solver.pop("n_steps", None)
    output = args.out
    if args.config:
        data = _json_object("a config", _read_json(args.config))
        if isinstance(data.get("problem"), str):
            # A config's problem path is relative to the config file.
            base = os.path.dirname(os.path.abspath(args.config))
            data["problem"] = _read_json(data["problem"], base)
        if "problem" in data:
            problem = data["problem"]
        solver.update(_json_object("a config's solver", data.get("solver", {})))
        if output is None:
            output = data.get("output")
    if args.problem:
        problem = _read_json(args.problem)
    for key in (f.name for f in fields(SolverParams)):
        val = getattr(args, key)
        if val is not None:
            solver[key] = _solver_value(key, val, "--" + key.replace("_", "-"))
    _json_object("a problem", problem)
    if args.command == "oracle":
        # The tree's leaf count is exponential in n_steps, so the oracle runs
        # on a short grid of its own unless --n-steps or the config sets one.
        if solver.get("n_steps") is None:
            solver["n_steps"] = 4
        problem = {**problem, "n_steps": solver["n_steps"]}
    # The grid comes from the problem unless a config or flag overrides it.
    if solver.get("n_steps") is None:
        # A problem without n_steps fails at stage 'load', naming the key.
        solver["n_steps"] = problem.get("n_steps")
    return RunConfig(problem=problem, solver=solver, output=output)


def _resolve_threads(args) -> int:
    """Worker processes from --threads, else from $SWITCHMC_THREADS, else 1."""
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
# across reruns and worker counts.
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
    _, _, report = _load(config, refuse=False)
    _write_output(config, "validate")
    print(str(report))
    return 0 if report.ok else 1


def _cmd_riccati(args, config: RunConfig) -> int:
    model, _, _ = _load(config)
    thetas = _stage("riccati", solve_riccati, model, model.grid).thetas
    header = ["t"] + [f"theta_{i + 1}{j + 1}" for i in range(model.n1) for j in range(model.n1)]
    rows = [[f"{t:.12g}"] + [f"{v:.17g}" for v in theta.reshape(-1)]
            for t, theta in zip(model.grid.times, thetas)]
    _write_output(config, "riccati", "riccati.csv", [header] + rows)
    return 0


def _cmd_paths(args, config: RunConfig) -> int:
    n_paths = args.n_paths
    if n_paths < 1:
        raise StageError("load", ValueError(f"--n-paths must be >= 1, got {n_paths}"))
    model, _, schedule, _ = _prepare(config)
    grid = model.grid
    z = _stage(
        "simulate", simulate_paths, model, grid, schedule, _seed(config, 0, "train"), range(n_paths)
    )
    header = (
        ["path", "k", "t"]
        + [f"m_{i + 1}" for i in range(model.n1)]
        + [f"y_{i + 1}" for i in range(model.n2)]
    )
    times = grid.times
    rows = [header]
    for ell in range(n_paths):
        for k in range(grid.n_steps + 1):
            rows.append([ell, k, f"{times[k]:.12g}"] + [f"{v:.17g}" for v in z[k, ell]])
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
    if args.values is not None:
        values = _stage("load", lambda text: [float(v) for v in text.split(",")], args.values)
    rows = [["value", "v1", "stderr"]] + [
        [f"{r['value']:.12g}", f"{r['v1']:.12g}", f"{r['stderr']:.12g}"]
        for r in run_sweep(config, args.axis, values, args.threads)
    ]
    _write_output(config, "sweep", f"sweep_{args.axis}.csv", rows)
    return 0


def _cmd_oracle(args, config: RunConfig) -> int:
    model, modes, schedule, rule = _prepare(config)
    values = _stage("oracle", tree_oracle_value, model, modes, schedule, rule)
    payload = {
        "values": [float(v) for v in values],
        "n_steps": model.n_steps,
        "n_leaves": 2 ** model.n_steps,
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
        help=f"worker processes (default: ${_ENV_THREADS} or 1); never changes results",
    )
    parser.add_argument("--M", type=int, dest="M", help="training paths per replication")
    parser.add_argument("--n-steps", type=int, dest="n_steps", help="time grid steps")
    parser.add_argument("--epsilon", type=float, help="box calibration tolerance (mean distance from a training path to the box)")
    parser.add_argument("--cells-per-dim", type=int, dest="cells_per_dim", help="regression cells per axis")
    parser.add_argument("--quad-order", type=int, dest="quad_order", help="most quadrature nodes per axis")


# Subcommands: name, handler, help, and the arguments it adds to the common ones.
_COMMANDS = (
    ("validate", _cmd_validate, "check a problem's structural assumptions", ()),
    ("riccati", _cmd_riccati, "write the exact covariance schedule to CSV", ()),
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
