"""Command-line interface: subcommands, outputs, determinism, errors."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from switchmc.benchmarks import benchmark_problem
from switchmc.cli import main

FAST = ["--M", "150", "--n-steps", "12", "--replications", "2", "--seed", "7"]


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

    def test_missing_key_is_a_load_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, nu=None)
        code, _, err = run_cli(["validate", "--problem", path], capsys)
        assert code == 2
        assert "error at stage 'load'" in err
        assert "nu" in err


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

    def test_substeps_flag(self, tmp_path, capsys):
        out_dir = tmp_path / "r"
        code, _, _ = run_cli(
            ["riccati", "--n-steps", "5", "--substeps", "50", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0


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

    def test_rerun_writes_identical_files(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(["solve", *FAST, "--out", str(out_a)], capsys)
        run_cli(["solve", *FAST, "--out", str(out_b)], capsys)
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

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

    def test_per_step_table_must_match_the_solver_grid(self, tmp_path, capsys):
        # The solver's n_steps replaces the problem's; a per-step F table of
        # the problem's grid does not fit a different one, even when constant.
        path = write_problem(tmp_path, n_steps=3, F=[[[0.0]]] * 4)
        code, out, err = run_cli(
            ["solve", "--problem", path, "--n-steps", "6", "--M", "100",
             "--replications", "1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error at stage 'load': ")
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

    def test_non_integer_thread_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("SWITCHMC_THREADS", "x")
        self.assert_load_error(["solve"], capsys)

    def test_problem_file_holding_a_list(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self.assert_load_error(["solve", "--problem", str(path)], capsys)

    def test_zero_replications(self, capsys):
        self.assert_load_error(["solve", "--replications", "0"], capsys)

    def test_infinite_horizon(self, tmp_path, capsys):
        path = write_problem(tmp_path, T=float("inf"))
        self.assert_load_error(["solve", "--problem", path], capsys)

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
        assert payload["n_leaves"] == 256
        assert len(payload["values"]) == 2

    def test_tree_depth_follows_n_steps_flag(self, capsys):
        code, out, _ = run_cli(["oracle", "--n-steps", "3"], capsys)
        assert code == 0
        assert json.loads(out)["n_leaves"] == 64

    def test_too_deep_tree_is_an_oracle_error(self, capsys):
        code, _, err = run_cli(["oracle", "--n-steps", "9"], capsys)
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
