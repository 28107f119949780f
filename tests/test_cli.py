"""Command-line interface: subcommands, outputs, determinism, errors."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import pickle
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import run_child

from switchmc import (
    build_ensemble, calibrate_domain, derive_seed, load_problem, simulate_paths, solve_riccati,
)
from switchmc.benchmarks import benchmark_problem, default_solver_params
from switchmc.cli import (
    RunConfig, StageError, _callable_digest, _code_digest, main, run_bound, run_pipeline, run_solve,
)

FAST = ["--M", "150", "--n-steps", "12", "--replications", "2", "--seed", "7"]

# Solver settings refused before any work, and the whole error, which names
# the key: a library caller and a config file get the same rule.  M 200.7
# with replications 2.9 used to run 2 replications of 200 paths and record
# 200.7; a negative seed failed in numpy naming no key, or, from a config
# file, was reported as --seed; and an unknown key "m" was ignored, so the
# solve ran with M = 5 000 and recorded "m": 100.
REFUSED_SOLVERS = (
    ({"M": 200.7, "n_steps": 5, "replications": 2.9}, "M must be an integer, got 200.7"),
    ({"seed": -3}, "seed must be >= 0, got -3"),
    ({"m": 100, "n_steps": 5}, "unknown solver key 'm'"),
)
REFUSED_IDS = ("fractional-M-and-replications", "negative-seed", "unknown-key")
PROBLEM_KEYS = [
    "n1", "m1", "n2", "m2", "T", "n_steps", "F", "C", "G", "m0", "theta0", "y0", "modes", "costs", "nu",
]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_problem(tmp_path, **changes):
    """The benchmark problem with ``changes`` applied (None deletes a key),
    written to a JSON file; returns its path."""
    problem = benchmark_problem()
    problem.update(changes)
    problem = {k: v for k, v in problem.items() if v is not None}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


class TestValidate:
    def test_benchmark_passes(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "pass" in out

    def test_bad_problem_fails_with_explanation(self, tmp_path, capsys):
        problem = benchmark_problem()
        problem["costs"] = [[0.5, 0.01], [0.001, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(["validate", "--problem", str(path)], capsys)
        assert code == 1
        assert "violation" in out

    def test_nan_cost_fails_validate_and_solve(self, tmp_path, capsys):
        # NaN compares false, so without a finiteness check every cost
        # check passed and solve wrote "v": [NaN, NaN].
        path = write_problem(tmp_path, costs=[[0.0, float("nan")], [0.001, 0.0]])
        code, out, _ = run_cli(["validate", "--problem", path], capsys)
        assert code == 1
        assert "switching cost not finite" in out
        code, out, err = run_cli(
            ["solve", "--problem", path, "--M", "200", "--n-steps", "10"], capsys
        )
        assert code == 2
        assert err.startswith("error at stage 'validate': ")
        assert out == ""

    def test_every_violation_on_one_stderr_line(self, tmp_path, capsys):
        # Each violation used to print on its own line after the stage prefix.
        path = write_problem(tmp_path, theta0=-1.0, nu=0.0)
        code, out, err = run_cli(
            ["solve", "--problem", path, "--M", "200", "--n-steps", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error at stage 'validate': theta0 is not positive semi-definite "
            "(min eigenvalue -1.000e+00); nu must be positive, got 0.0\n"
        )
        # The validate subcommand's report keeps one violation a line.
        code, out, _ = run_cli(["validate", "--problem", path], capsys)
        assert code == 1
        assert out.splitlines() == [
            "violation: theta0 is not positive semi-definite (min eigenvalue -1.000e+00)",
            "violation: nu must be positive, got 0.0",
        ]

    def test_missing_key_is_a_load_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, nu=None)
        code, _, err = run_cli(["validate", "--problem", path], capsys)
        assert code == 2
        assert "error at stage 'load'" in err
        assert "nu" in err

    @pytest.mark.parametrize(
        "command, change",
        (
            ("oracle", {"costs": [[0.0, -0.5], [0.001, 0.0]]}),
            ("oracle", {"theta0": -1.0}),
            ("riccati", {"theta0": -1.0}),
        ),
        ids=("oracle-negative-cost", "oracle-negative-theta0", "riccati-negative-theta0"),
    )
    def test_oracle_and_riccati_refuse_an_invalid_problem(self, command, change, tmp_path, capsys):
        # Both used to skip stage 'validate' and exit 0: oracle printed values,
        # riccati wrote a schedule starting at 0,0.
        path = write_problem(tmp_path, **change)
        code, out, err = run_cli([command, "--problem", path, "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error at stage 'validate': ")
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestRiccati:
    def test_csv_matches_closed_form(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        code, _, _ = run_cli(
            ["riccati", "--n-steps", "10", "--out", str(out_dir)], capsys
        )
        assert code == 0
        lines = (out_dir / "riccati.csv").read_text().strip().splitlines()
        assert lines[0] == "t,theta_11"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11
        ts = np.array([float(r[0]) for r in rows])
        thetas = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(thetas - np.tanh(ts))) <= 1e-8

    def test_csv_uses_crlf_line_endings(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        run_cli(["riccati", "--n-steps", "5", "--out", str(out_dir)], capsys)
        raw = (out_dir / "riccati.csv").read_bytes()
        assert b"\r\n" in raw


class TestPaths:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        args = ["paths", "--n-paths", "4", "--n-steps", "6", "--M", "50", "--seed", "3"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(out_b)], capsys)[0] == 0
        raw_a = (out_a / "paths.csv").read_bytes()
        raw_b = (out_b / "paths.csv").read_bytes()
        assert raw_a == raw_b
        lines = raw_a.decode().strip().splitlines()
        assert lines[0] == "path,k,t,m_1,y_1"
        assert len(lines) == 1 + 4 * 7


    def test_writes_the_filter_states_without_calibrating(self, tmp_path, capsys):
        # paths runs no calibrate stage, so an epsilon that calibration
        # refuses does not stop it, and it writes the training stream's
        # filter states of replication 0 as simulated.
        args = ["paths", "--n-paths", "3", "--n-steps", "6", "--seed", "3", "--epsilon", "0"]
        code, _, err = run_cli(args + ["--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        rows = (tmp_path / "paths.csv").read_text().strip().splitlines()[1:]
        written = np.array([[float(v) for v in row.split(",")[3:]] for row in rows])
        model, _ = load_problem({**benchmark_problem(), "n_steps": 6})
        z = simulate_paths(
            model, model.grid, solve_riccati(model, model.grid), derive_seed(3, 0, 0), range(3)
        )
        assert np.array_equal(written, np.hstack(z).reshape(-1, 2))


class TestSolve:
    def test_writes_result_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "s"
        code, out, _ = run_cli(["solve", *FAST, "--out", str(out_dir)], capsys)
        assert code == 0
        result = json.loads((out_dir / "result.json").read_text())
        for key in (
            "v", "stderr", "per_replication", "pmin_hat", "switch_bound",
            "replications", "manifest",
        ):
            assert key in result
        # Wall-clock time goes to stdout only, never into the stored file.
        assert "runtime_s" not in result
        assert len(result["v"]) == 2
        assert result["replications"] == 2
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["seed"] == 7
        assert "inputs_sha256" in manifest
        assert manifest["rng"] == result["manifest"]["rng"] == "philox-step-block/2"

    def test_rerun_writes_identical_files(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(["solve", *FAST, "--out", str(out_a)], capsys)
        run_cli(["solve", *FAST, "--out", str(out_b)], capsys)
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_quad_order_leaves_registry_payoff_results_alone(self, tmp_path, capsys):
        # The built-in problem's payoffs are registry payoffs, whose belief
        # averages are exact at the mean: the quadrature order reaches only
        # the manifest.
        results = []
        for order in ("2", "64"):
            out = tmp_path / order
            code, _, _ = run_cli(["solve", *FAST, "--quad-order", order, "--out", str(out)], capsys)
            assert code == 0
            results.append(json.loads((out / "result.json").read_text()))
        manifests = [result.pop("manifest") for result in results]
        assert manifests[0] != manifests[1]
        assert json.dumps(results[0]) == json.dumps(results[1])

    def test_thread_count_does_not_change_results(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(["solve", *FAST, "--threads", "1", "--out", str(out_a)], capsys)
        run_cli(["solve", *FAST, "--threads", "4", "--out", str(out_b)], capsys)
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()

    def test_env_variable_sets_threads(self, tmp_path, capsys, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("SWITCHMC_THREADS", "4")
        run_cli(["solve", *FAST, "--out", str(out_a)], capsys)
        monkeypatch.delenv("SWITCHMC_THREADS")
        run_cli(["solve", *FAST, "--threads", "1", "--out", str(out_b)], capsys)
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()

    def test_worker_failure_is_reported_as_in_a_serial_run(self, capsys):
        # Both replications fail at calibrate; with two workers the failure
        # crosses a process boundary and must keep its stage and cause.
        argv = ["solve", "--epsilon", "0", "--replications", "2", "--n-steps", "5"]
        serial = run_cli(argv + ["--threads", "1"], capsys)
        workers = run_cli(argv + ["--threads", "2"], capsys)
        assert serial == workers
        assert serial[0] == 2
        assert serial[2] == (
            "error at stage 'calibrate': epsilon must be positive and finite, got 0.0\n"
        )

    def test_box_is_calibrated_on_the_training_paths(self):
        # Replication 1's box is the one calibrate_domain picks on the very
        # paths its induction regresses: the training stream's M paths.
        solver = {**default_solver_params(), "M": 300, "n_steps": 12, "seed": 7, "epsilon": 0.002}
        res = run_pipeline(RunConfig(problem=benchmark_problem(), solver=solver), 1)
        ensemble = build_ensemble(res.model, res.model.grid, res.schedule, 300, derive_seed(7, 1, 0))
        box = calibrate_domain(ensemble, 0.002)
        domain = res.surface.basis.domain
        assert np.array_equal(domain.lows, box.lows) and np.array_equal(domain.highs, box.highs)

    def test_more_cells_than_int32_ids_is_a_regress_error(self, capsys):
        # 50 000 cells per axis make 2.5e9 cells, more than an int32 cell id
        # can name; the basis refuses them before the induction allocates.
        code, out, err = run_cli(["solve", *FAST, "--cells-per-dim", "50000"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error at stage 'regress': cells_per_dim (50000, 50000) makes ")
        assert err.count("\n") == 1

    def test_stage_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(StageError("simulate", ValueError("x"))))
        assert (err.stage, str(err.cause), str(err)) == ("simulate", "x", "stage 'simulate' failed: x")

    def test_stdout_is_json_with_runtime(self, capsys):
        code, out, _ = run_cli(["solve", *FAST], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "v" in payload
        assert "runtime_s" in payload


class TestConfigPrecedence:
    def test_config_file_with_relative_problem_path(self, tmp_path, capsys):
        problem = benchmark_problem(m0=0.25)
        (tmp_path / "problem.json").write_text(json.dumps(problem))
        config = {
            "problem": "problem.json",
            "solver": {"M": 120, "n_steps": 10, "replications": 1, "seed": 5},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_cli(["solve", "--config", str(cfg_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"]["problem"]["m0"] == 0.25
        assert payload["manifest"]["solver"]["M"] == 120

    def test_flags_override_config(self, tmp_path, capsys):
        config = {"solver": {"M": 120, "n_steps": 10, "replications": 1, "seed": 5}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            ["solve", "--config", str(cfg_path), "--M", "90"], capsys
        )
        assert code == 0
        assert json.loads(out)["manifest"]["solver"]["M"] == 90

    def test_problem_grid_is_used_unless_overridden(self, tmp_path, capsys):
        problem = benchmark_problem()
        problem["n_steps"] = 14
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(
            ["solve", "--problem", str(path), "--M", "100", "--replications", "1",
             "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["manifest"]["solver"]["n_steps"] == 14

    def test_per_step_table_is_a_load_error(self, tmp_path, capsys):
        # Coefficients are constant: a table of one row per grid point is
        # refused even on its own grid.
        path = write_problem(tmp_path, n_steps=3, F=[[[0.0]]] * 4)
        code, out, err = run_cli(
            ["solve", "--problem", path, "--M", "100", "--replications", "1"], capsys
        )
        assert code == 2
        assert err.startswith("error at stage 'load': F: ")
        assert out == ""

    def test_missing_problem_file_is_a_load_error(self, capsys):
        code, _, err = run_cli(["solve", "--problem", "/no/such/file.json"], capsys)
        assert code == 2
        assert "error at stage 'load'" in err

    def test_state_cost_key_is_ignored(self, tmp_path, capsys):
        # Switching costs are one constant matrix, so load_problem ignores an
        # allow_state_costs key and the solve must not change.
        args = ["solve", "--M", "100", "--n-steps", "10", "--replications", "1", "--seed", "4"]
        plain = tmp_path / "plain"
        plain.mkdir()
        flagged = tmp_path / "flagged"
        flagged.mkdir()
        code, out, _ = run_cli(args + ["--problem", write_problem(plain)], capsys)
        assert code == 0
        code, out_flagged, err = run_cli(
            args + ["--problem", write_problem(flagged, allow_state_costs=True)], capsys
        )
        assert code == 0, err
        assert json.loads(out_flagged)["v"] == json.loads(out)["v"]


@pytest.mark.filterwarnings("error")
class TestLoadErrors:
    """Bad input found before any solving fails at stage 'load', exit 2."""

    def assert_load_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error at stage 'load': ")
        assert out == ""
        return err

    def test_non_numeric_sweep_value(self, capsys):
        self.assert_load_error(["sweep", "--axis", "G", "--values=a,0"], capsys)

    def test_empty_sweep_ladder(self, capsys):
        # An empty --values used to run the axis's default ladder and exit 0.
        self.assert_load_error(["sweep", "--axis", "G", "--values", ""], capsys)

    def test_non_integer_thread_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("SWITCHMC_THREADS", "x")
        self.assert_load_error(["solve"], capsys)

    def test_problem_file_holding_a_list(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self.assert_load_error(["solve", "--problem", str(path)], capsys)

    @pytest.mark.parametrize(
        "argv",
        (
            ["validate"], ["riccati"], ["paths", "--n-paths", "1", "--n-steps", "2"], ["solve"],
            ["table2"], ["sweep", "--axis", "G"], ["oracle"],
            ["bound", "--M", "100", "--n-steps", "5"],
        ),
        ids=lambda argv: argv[0],
    )
    def test_zero_replications(self, argv, capsys):
        # Only solve, table2 and sweep used to check it; the others exited 0.
        err = self.assert_load_error(argv + ["--replications", "0"], capsys)
        assert "--replications must be >= 1, got 0" in err

    @pytest.mark.parametrize("solver, message", REFUSED_SOLVERS, ids=REFUSED_IDS)
    def test_config_file_error_names_the_key(self, solver, message, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": solver}))
        err = self.assert_load_error(["solve", "--config", str(config)], capsys)
        assert err == f"error at stage 'load': {message}\n"

    @pytest.mark.parametrize(
        "data, message",
        (
            ([1, 2], "a config must be a JSON object, got list"),
            ({"solver": [1]}, "a config's solver must be a JSON object, got list"),
            ({"problem": {}}, f"problem file missing keys: {PROBLEM_KEYS}"),
            ({"problem": None}, "a problem must be a JSON object, got NoneType"),
            ({"problem": []}, "a problem must be a JSON object, got list"),
        ),
        ids=("config-list", "solver-list", "problem-empty", "problem-null", "problem-list"),
    )
    def test_config_file_part_not_an_object(self, data, message, tmp_path, capsys):
        # These used to fail with "'list' object has no attribute 'get'" and
        # "cannot convert dictionary update sequence element #0 ...", and an
        # empty, null or list problem solved the built-in problem.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        err = self.assert_load_error(["solve", "--config", str(config)], capsys)
        assert err == f"error at stage 'load': {message}\n"

    def test_infinite_horizon(self, tmp_path, capsys):
        path = write_problem(tmp_path, T=float("inf"))
        self.assert_load_error(["solve", "--problem", path], capsys)

    @pytest.mark.parametrize("T", ("x", [1.0]), ids=("word", "list"))
    def test_non_numeric_horizon_names_T(self, T, tmp_path, capsys):
        # float() used to fail with a message that did not name T.
        err = self.assert_load_error(["solve", "--problem", write_problem(tmp_path, T=T)], capsys)
        assert err.startswith(f"error at stage 'load': T: expected a number, got {T!r}")

    @pytest.mark.parametrize(
        "mode", (3, {"payoff": "affine", "a": 1.0}), ids=("number", "mapping-without-name")
    )
    def test_unreadable_payoff(self, mode, tmp_path, capsys):
        path = write_problem(tmp_path, modes=["zero", mode])
        self.assert_load_error(["solve", "--problem", path], capsys)

    @pytest.mark.parametrize("modes", ("zl", {"name": "zero"}), ids=("string", "mapping"))
    def test_modes_not_a_list(self, modes, tmp_path, capsys):
        # Each character or key used to be read as a payoff: "unknown payoff 'z'".
        err = self.assert_load_error(
            ["solve", "--problem", write_problem(tmp_path, modes=modes)], capsys
        )
        assert "modes must be a list" in err

    @pytest.mark.parametrize(
        "dims", ({"n2": 2, "m2": 1}, {"n2": 3, "m2": 2}), ids=("n2=2-m2=1", "n2=3-m2=2")
    )
    def test_observation_noise_narrower_than_the_observation(self, dims, tmp_path, capsys):
        # m2=1 with n2=2 used to solve with one noise broadcast to both
        # channels; m2=2 with n2=3 failed at 'calibrate' on a numpy broadcast.
        n2 = dims["n2"]
        path = write_problem(tmp_path, **dims, G=[[1.0]] * n2, y0=[0.0] * n2)
        err = self.assert_load_error(["solve", "--problem", path, "--M", "100"], capsys)
        assert err.count("\n") == 1
        assert f"m2={dims['m2']}" in err and f"n2={n2}" in err

    @pytest.mark.parametrize(
        "key, value",
        (("n_steps", 10.7), ("n1", 1.9), ("n_steps", True), ("m1", "1"), ("n2", [1])),
        ids=("fractional-steps", "fractional-dimension", "bool", "string", "list"),
    )
    def test_non_integer_dimension_or_step_count(self, key, value, tmp_path, capsys):
        # int() used to truncate: n_steps 10.7 solved on 10 steps, n1 1.9 as
        # n1 = 1, and n_steps true on one step.
        path = write_problem(tmp_path, **{key: value})
        err = self.assert_load_error(["solve", "--problem", path, "--M", "100"], capsys)
        assert f"{key} must be an integer" in err

    def test_non_integer_solver_step_count(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": {"n_steps": 10.5, "M": 100}}))
        err = self.assert_load_error(["solve", "--config", str(config)], capsys)
        assert "n_steps must be an integer" in err

    @pytest.mark.parametrize(
        "key, value",
        (
            ("M", 200.7), ("M", True), ("replications", 2.9), ("quad_order", "16"),
            ("seed", 1.5), ("cells_per_dim", True), ("cells_per_dim", 4.5),
            ("cells_per_dim", [4, 4.5]), ("epsilon", "0.01"), ("epsilon", True),
        ),
        ids=(
            "fractional-M", "bool-M", "fractional-replications", "string-quad-order",
            "fractional-seed", "bool-cells", "fractional-cells", "fractional-cell-in-list",
            "string-epsilon", "bool-epsilon",
        ),
    )
    def test_non_integer_or_non_numeric_solver_key(self, key, value, tmp_path, capsys):
        # int() used to truncate: M 200.7 solved with 200 paths (the manifest
        # said 200.7), M true with one path, replications 2.9 ran 2, and
        # cells_per_dim 4.5 failed at 'regress'; epsilon "0.01" was stored
        # as a string.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": {"M": 100, "n_steps": 10, key: value}}))
        err = self.assert_load_error(["solve", "--config", str(config)], capsys)
        assert err.startswith(f"error at stage 'load': {key} must be ")

    @pytest.mark.parametrize("n_paths", ("0", "-2"))
    def test_non_positive_path_count_names_the_flag(self, n_paths, capsys):
        # It used to fail at 'simulate' with "M must be >= 1", naming no flag.
        err = self.assert_load_error(["paths", "--n-paths", n_paths, "--n-steps", "2"], capsys)
        assert "--n-paths" in err

    @pytest.mark.parametrize("command", ("solve", "bound", "paths"))
    def test_negative_seed(self, command, capsys):
        # SeedSequence used to reject it outside any stage, with no stage name.
        err = self.assert_load_error([command, "--seed", "-3", "--M", "100", "--n-steps", "10"], capsys)
        assert "--seed" in err

    @pytest.mark.parametrize(
        "flag, env", ((["--threads", "0"], None), (["--threads", "-2"], None), ([], "0")),
        ids=("flag-zero", "flag-negative", "variable-zero"),
    )
    def test_non_positive_thread_count(self, flag, env, capsys, monkeypatch):
        # These used to be clamped to one thread silently.
        if env is not None:
            monkeypatch.setenv("SWITCHMC_THREADS", env)
        err = self.assert_load_error(["solve", "--M", "100", "--n-steps", "10"] + flag, capsys)
        assert ("--threads" if flag else "SWITCHMC_THREADS") in err

    @pytest.mark.parametrize(
        "argv", (["paths", "--n-paths", "1"], ["bound", "--M", "100"]), ids=("paths", "bound")
    )
    def test_single_thread_commands_check_threads(self, argv, capsys):
        # paths and bound run on one thread, but a bad --threads used to
        # pass there silently.
        err = self.assert_load_error(argv + ["--n-steps", "2", "--threads", "0"], capsys)
        assert "--threads" in err


@pytest.mark.parametrize("solver, message", REFUSED_SOLVERS, ids=REFUSED_IDS)
def test_library_solve_error_names_the_key(solver, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_solve(RunConfig(benchmark_problem(), {**default_solver_params(), **solver}))


def earning_payoff(x, y, t):
    """A module-level callable payoff: the signal itself."""
    return x[..., 0]


def test_callable_payoff_is_named_in_the_manifest():
    # A library caller's callable payoff used to raise "Object of type
    # function is not JSON serializable" from the input hash, after the
    # whole solve had run.
    problem = {**benchmark_problem(), "modes": ["zero", earning_payoff]}
    solver = {**default_solver_params(), "M": 100, "n_steps": 5, "seed": 2}
    name = f"{earning_payoff.__module__}.earning_payoff"
    first, second = (run_solve(RunConfig(problem, solver)) for _ in range(2))
    bound = run_bound(RunConfig(problem, solver))
    for manifest in (first["manifest"], bound["manifest"]):
        assert manifest["problem"]["modes"] == ["zero", name]
        assert manifest["inputs_sha256"] == second["manifest"]["inputs_sha256"]
    json.dumps(first, allow_nan=False)


def scaled_payoff(x, y, t, s=1.0):
    """A module-level callable payoff with a bound scale: s times the signal."""
    return s * x[..., 0]


def test_partial_payoff_solves_and_is_named_with_its_arguments():
    # A functools.partial payoff used to run the whole solve and then raise
    # "'functools.partial' object has no attribute '__qualname__'" from the
    # manifest; its digest was its name alone, so two scales hashed equal.
    solver = {**default_solver_params(), "M": 100, "n_steps": 5}

    def config(s):
        problem = {**benchmark_problem(), "modes": ["zero", functools.partial(scaled_payoff, s=s)]}
        return RunConfig(problem, solver)

    result = run_solve(config(1.0))
    name = f"functools.partial({scaled_payoff.__module__}.scaled_payoff, s=1.0)"
    assert result["manifest"]["problem"]["modes"] == ["zero", name]
    assert json.loads(json.dumps(result, allow_nan=False))["manifest"] == config(1.0).manifest("solve")
    assert config(1.0).content_hash() == result["manifest"]["inputs_sha256"]
    assert config(1.0).content_hash() != config(2.0).content_hash()



class ScaledPayoff:
    """A callable object payoff: its scale times the signal."""

    def __init__(self, s):
        self.s = s

    def __call__(self, x, y, t):
        return self.s * x[..., 0]


def test_callable_object_payoff_is_named_by_its_type():
    # An instance has no __qualname__ of its own: the manifest and the hash
    # name its type.
    def config(s):
        return RunConfig({**benchmark_problem(), "modes": ["zero", ScaledPayoff(s)]}, default_solver_params())

    name = f"{ScaledPayoff.__module__}.ScaledPayoff"
    assert config(1.0).manifest("solve")["problem"]["modes"] == ["zero", name]
    assert _callable_digest(ScaledPayoff(1.0)).startswith(name)
    assert config(1.0).content_hash() == config(1.0).manifest("solve")["inputs_sha256"]


class SlottedPayoff:
    """A callable object payoff without a ``__dict__``."""

    __slots__ = ()

    def __call__(self, x, y, t):
        return x[..., 0]


def test_callable_objects_hash_by_their_state_and_call():
    # The hash used to name the type alone, so ScaledPayoff(1.0) and
    # ScaledPayoff(2.0) gave equal inputs_sha256.
    def config(payoff):
        return RunConfig({**benchmark_problem(), "modes": ["zero", payoff]}, default_solver_params())

    assert config(ScaledPayoff(1.0)).content_hash() != config(ScaledPayoff(2.0)).content_hash()
    assert config(ScaledPayoff(1.0)).content_hash() == config(ScaledPayoff(1.0)).content_hash()
    code = _code_digest(SlottedPayoff.__call__.__code__)
    assert _callable_digest(SlottedPayoff()) == f"{SlottedPayoff.__module__}.SlottedPayoff:{code}"


def test_lambdas_of_one_module_hash_apart():
    # Both lambdas are named "<module>.<lambda>" in the manifest; their code
    # tells them apart in the hash, and one function hashes the same in
    # every RunConfig that holds it.
    solver = default_solver_params()
    earn, lose = (lambda x, y, t: x[..., 0]), (lambda x, y, t: -x[..., 0])

    def config(payoff):
        return RunConfig({**benchmark_problem(), "modes": ["zero", payoff]}, dict(solver))

    assert config(earn).content_hash() != config(lose).content_hash()
    assert config(earn).content_hash() == config(earn).content_hash()
    assert config(earn).manifest("solve")["problem"] == config(lose).manifest("solve")["problem"]


def test_callable_digest_follows_the_code_not_its_place():
    # The same source compiled under another file and first line, or run
    # until the interpreter specialises it, digests the same; a constant
    # changed in nested code (the generator) digests apart.
    source = "lambda x, y, t: sum(v * 2.0 for v in (x[..., 0], x[..., 0] ** 2))"

    def payoff(text, filename, first_line):
        return eval(compile("\n" * first_line + text, filename, "eval"))

    here, there = payoff(source, "a/payoffs.py", 0), payoff(source, "b/payoffs.py", 40)
    for _ in range(100):
        here(np.ones((4, 1)), None, 0.0)
    assert _callable_digest(here) == _callable_digest(there)
    assert _callable_digest(payoff(source.replace("2.0", "3.0"), "a/payoffs.py", 0)) != _callable_digest(here)
    assert _callable_digest(np.sin) == "numpy.sin"


def test_callable_digest_is_the_same_under_any_hash_seed(monkeypatch):
    # A set literal compiles to a frozenset constant, whose order follows
    # the string hash seed; the digest sorts it.
    script = (
        "import json\nfrom switchmc.cli import _callable_digest\n"
        "print(json.dumps(_callable_digest(lambda x, y, t: x[..., 0] * ('m' in {'a', 'b', 'c', 'm'}))))"
    )
    digests = set()
    for seed in ("1", "2", "3"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        digests.add(run_child(script))
    assert len(digests) == 1 and digests.pop().startswith("__main__.<lambda>:")


def test_integral_float_path_count_solves_as_its_integer(tmp_path, capsys):
    # 200.0 counts as 200: the same result.json apart from its manifest,
    # which records the value as given.
    results = []
    for M in (200, 200.0):
        out = tmp_path / f"out-{M!r}"
        config = tmp_path / f"config-{M!r}.json"
        config.write_text(json.dumps({"solver": {"M": M, "n_steps": 10, "seed": 3}}))
        code, _, err = run_cli(["solve", "--config", str(config), "--out", str(out)], capsys)
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert repr(manifest["solver"]["M"]) == repr(M)
        result = json.loads((out / "result.json").read_text())
        assert result.pop("manifest") == manifest
        results.append(result)
    assert results[0] == results[1]


@pytest.mark.parametrize("n_steps, change", (
    ("100", {"F": -250.0}), ("100", {"F": -1500.0}), ("10", {"G": 100.0}), ("10", {"G": 30.0}),
), ids=("F-250", "F-1500", "G100", "G30"))
def test_stiff_grid_solves(tmp_path, capsys, n_steps, change):
    # An explicit Euler step of the signal (F) or of the conditional mean
    # (G) amplifies a damped mode on these grids: F = -250 at N = 100 used
    # to solve to v = 5.1e11, and then to fail at stage 'calibrate'.  The
    # innovation step damps at any step size.  With F = -250 or -1500 the
    # mean hardly leaves m0 = 0, so both values are 0 (a dense-grid
    # reference of the scalar-F problem gives 0 to within 1e-21).
    path = write_problem(tmp_path, **change)
    code, out, err = run_cli(
        ["solve", "--problem", path, "--M", "300", "--n-steps", n_steps, "--seed", "1"], capsys
    )
    assert (code, err) == (0, "")
    v = json.loads(out)["v"]
    assert all(math.isfinite(x) for x in v)
    if "F" in change:
        assert max(abs(x) for x in v) <= 1e-6
    # A start in mode i may switch to mode j at once: v_i >= v_j - c(i, j).
    costs = benchmark_problem()["costs"]
    assert all(v[i] >= v[j] - costs[i][j] for i in range(2) for j in range(2))


@pytest.mark.parametrize("command", ("solve", "bound"))
@pytest.mark.parametrize("epsilon", ("inf", "nan", "0"))
def test_bad_epsilon_is_a_calibrate_error(command, epsilon, capsys):
    # An infinite epsilon used to pass and write "epsilon": Infinity, which
    # is not strict JSON.
    code, out, err = run_cli(
        [command, "--M", "100", "--n-steps", "10", "--epsilon", epsilon], capsys
    )
    assert code == 2
    assert err.startswith("error at stage 'calibrate': ")
    assert out == ""


@pytest.mark.parametrize("key", ("F", "C", "G", "theta0"))
@pytest.mark.parametrize(
    "value", (1e300, -1e300, 1e-300, -1e-300, 0.0, math.nan, math.inf, -math.inf)
)
def test_extreme_coefficient_solves_or_names_a_stage(key, value, tmp_path, capsys):
    # Overflow in the Riccati integration used to print numpy's
    # RuntimeWarning lines before the stage error.
    path = write_problem(tmp_path, **{key: value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["solve", "--problem", path, "--M", "200", "--n-steps", "10"], capsys)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        assert np.all(np.isfinite(json.loads(out)["v"]))
    else:
        assert code == 2
        assert err.startswith("error at stage '")
        assert err.count("\n") == 1 and err.endswith("\n")


_SMALL = st.floats(-2.0, 2.0)


def _matrix(shape):
    size = math.prod(shape)
    return st.lists(_SMALL, min_size=size, max_size=size).map(lambda xs: np.reshape(xs, shape))


@st.composite
def _misshapen(draw):
    """A nested list of random ndim 0-4 and random shape, sometimes ragged."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    value = draw(_matrix(shape)).tolist()
    if shape and draw(st.booleans()):  # one extra entry of another depth
        value.append(value[0] + [0.0] if len(shape) > 1 and value else [0.0])
    return value


@st.composite
def _problem(draw):
    """A small problem whose coefficients have the right shapes, except at
    most one that is a scalar or misshapen; theta0 may be indefinite."""
    n1, n2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    m1, d = draw(st.integers(1, n1)), draw(st.integers(1, 2))
    shapes = {"F": (n1, n1), "C": (n1, m1), "G": (n2, n1), "m0": (n1,), "y0": (n2,)}
    values = {k: draw(_matrix(shape)).tolist() for k, shape in shapes.items()}
    psd = _matrix((n1, n1)).map(lambda a: (a @ a.T).tolist())
    values["theta0"] = draw(st.one_of(psd, _matrix((n1, n1)).map(np.ndarray.tolist)))
    spoiled = draw(st.sampled_from([None, *values]))
    if spoiled is not None:
        values[spoiled] = draw(st.one_of(_SMALL, _misshapen()))
    return {
        "n1": n1, "m1": m1, "n2": n2, "m2": n2, "T": 1.0, "n_steps": draw(st.integers(1, 3)),
        **values, "modes": ["zero", "linear"][:d],
        "costs": (0.01 * (1 - np.eye(d))).tolist(), "nu": 0.01,
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=_problem())
def test_misshapen_problem_solves_or_names_a_stage(problem):
    # A misshapen or ragged coefficient, an indefinite theta0, one mode or
    # one step either solves to finite values or fails on one line naming a
    # stage; a refusal at 'load' starts with the key it refuses.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--problem", path, "--M", "50", "--replications", "1"])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert np.all(np.isfinite(json.loads(out)["v"]))
    else:
        assert code == 2 and out == ""
        assert err.startswith("error at stage '") and err.count("\n") == 1 and err.endswith("\n")
        if err.startswith("error at stage 'load': "):
            keys = ("F", "C", "G", "theta0", "m0", "y0")
            assert any(err.startswith(f"error at stage 'load': {k}: ") for k in keys), err


@pytest.mark.parametrize("command", ("solve", "riccati", "paths"))
def test_unwritable_output_is_an_output_error(command, tmp_path, capsys):
    # An --out naming a file used to end in a bare "error: [Errno 17] File exists".
    taken = tmp_path / "taken"
    taken.write_text("kept")
    code, out, err = run_cli(
        [command, "--M", "100", "--n-steps", "10", "--replications", "1", "--out", str(taken)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error at stage 'output': ")
    assert out == ""
    assert taken.read_text() == "kept"


class TestSweep:
    def test_csv_named_after_axis(self, tmp_path, capsys):
        out_dir = tmp_path / "sw"
        code, _, _ = run_cli(
            ["sweep", "--axis", "m0", "--values=-0.2,0,0.2", "--M", "120",
             "--n-steps", "10", "--replications", "1", "--seed", "3",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        lines = (out_dir / "sweep_m0.csv").read_text().strip().splitlines()
        assert lines[0] == "value,v1,stderr"
        assert len(lines) == 4

    def test_unknown_axis_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "volatility"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestOracleCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(["oracle", "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_steps"] == 4
        assert payload["n_leaves"] == 16
        assert len(payload["values"]) == 2

    def test_tree_depth_follows_n_steps_flag(self, capsys):
        code, out, _ = run_cli(["oracle", "--n-steps", "3"], capsys)
        assert code == 0
        assert json.loads(out)["n_leaves"] == 8

    def test_tree_depth_follows_config_n_steps(self, tmp_path, capsys):
        # A config file's n_steps used to be replaced by the 4-step default.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": {"n_steps": 3}}))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["oracle", "--config", str(config), "--out", str(out_dir)], capsys)
        assert code == 0
        assert json.loads(out)["n_leaves"] == 8
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["solver"]["n_steps"] == 3
        assert manifest["problem"]["n_steps"] == 3

    def test_too_deep_tree_is_an_oracle_error(self, capsys):
        code, _, err = run_cli(["oracle", "--n-steps", "17"], capsys)
        assert code == 2
        assert "error at stage 'oracle'" in err

    def test_vector_signal_is_an_oracle_error(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, n1=2, m1=2, F=[[0.0, 0.0], [0.0, 0.0]],
            C=[[1.0, 0.0], [0.0, 1.0]], G=[[1.0, 1.0]], m0=[0.0, 0.0],
            theta0=[[0.0, 0.0], [0.0, 0.0]],
        )
        code, _, err = run_cli(["oracle", "--problem", path], capsys)
        assert code == 2
        assert "error at stage 'oracle'" in err


class TestBound:
    def test_strict_json_with_named_terms(self, capsys):
        code, out, _ = run_cli(["bound", *FAST], capsys)
        assert code == 0
        payload = json.loads(out)
        terms = payload["terms"]
        for key in (
            "sqrt_delta_log_term", "sqrt_delta_term", "delta_term",
            "epsilon_term", "cell_over_delta_term",
            "regression_noise_term", "regression_bias_term",
        ):
            assert key in terms
        delta = 1.0 / 12
        assert terms["delta_term"] == pytest.approx(delta)
        assert terms["sqrt_delta_term"] == pytest.approx(delta ** 0.5)
        assert terms["epsilon_term"] == pytest.approx(0.01)

    def test_infinite_terms_reported_as_null(self, capsys):
        # A tiny training set leaves cells empty, so the regression terms
        # blow up; they must surface as nulls plus an explicit list.
        code, out, _ = run_cli(
            ["bound", "--M", "60", "--n-steps", "12", "--seed", "7"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        if payload["pmin_hat"]["raw_min"] == 0.0:
            assert payload["terms"]["regression_noise_term"] is None
            assert "regression_noise_term" in payload["infinite_terms"]
        else:
            assert payload["infinite_terms"] == []

    def test_finite_regression_terms_with_one_cell(self, capsys):
        # One cell holds every path, so raw_min = 1 and the regression
        # terms reduce to 1/(delta sqrt(M)) and 1/(delta M).
        code, out, _ = run_cli(
            ["bound", "--M", "200", "--n-steps", "12", "--cells-per-dim", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pmin_hat"]["raw_min"] == 1.0
        delta = 1.0 / 12
        terms = payload["terms"]
        assert terms["regression_noise_term"] == pytest.approx(1.0 / (delta * 200 ** 0.5))
        assert terms["regression_bias_term"] == pytest.approx(1.0 / (delta * 200))
        assert payload["infinite_terms"] == []

    def test_pmin_is_the_solves(self, capsys):
        # bound reads pmin_hat off the same induction that solve runs.
        argv = ["--M", "150", "--n-steps", "12", "--seed", "7"]
        pmins = [
            json.loads(run_cli([command, *argv], capsys)[1])["pmin_hat"]
            for command in ("solve", "bound")
        ]
        assert pmins[0] == pmins[1]
        assert 0.0 < pmins[0]["occupied_min"] < 1.0

    def test_empty_partition_is_a_regress_error(self, capsys):
        code, _, err = run_cli(["bound", *FAST, "--cells-per-dim", "0"], capsys)
        assert code == 2
        assert "error at stage 'regress'" in err

    def test_reference_arithmetic_for_the_default_grid(self):
        # At delta = 1/730 the log-weighted term is about 0.0999 and a cell
        # side of 0.1 is 73 time steps wide.
        import math

        delta = 1.0 / 730
        assert math.sqrt(delta * math.log(2.0 / delta)) == pytest.approx(0.0999, abs=5e-4)
        assert 0.1 / delta == pytest.approx(73.0)


class TestMisc:
    def test_no_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_table2_stdout(self, capsys):
        code, out, _ = run_cli(
            ["table2", "--M", "120", "--n-steps", "10", "--replications", "1",
             "--seed", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("m0,estimate,stderr,reference")
        assert len(lines) == 4

    def test_table2_is_the_m0_sweep_at_the_reference_starts(self, capsys):
        args = ["--M", "120", "--n-steps", "10", "--replications", "3", "--seed", "3"]
        code, table, _ = run_cli(["table2", *args], capsys)
        assert code == 0
        code, sweep, _ = run_cli(["sweep", "--axis", "m0", "--values=-0.5,0,0.5", *args], capsys)
        assert code == 0
        table_rows = [line.split(",") for line in table.strip().splitlines()[1:]]
        sweep_rows = [line.split(",") for line in sweep.strip().splitlines()[1:]]
        # m0, estimate and stderr against value, v1 and stderr.
        assert [row[:3] for row in table_rows] == sweep_rows
        assert len(sweep_rows) == 3
