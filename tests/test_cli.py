"""Command-line front door: subcommands, formats, exit codes, golden stability."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from rowsynth import Schedule, apply_schedule, policy_names
from rowsynth.cli import load_config, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_ordering_example(self, capsys):
        doc = run_json(capsys, "solve", "--q", "4", "--x", "1,3,2,2", "--y", "0,1,3,0",
                       "--no-timestamp")
        assert doc["tStar"] == 11
        assert doc["q"] == 4 and doc["L"] == 4
        witness = Schedule.from_string(doc["schedule"])
        assert apply_schedule((1, 3, 2, 2), (0, 1, 3, 0), witness, 4) == 11

    def test_metadata_always_present(self, capsys):
        doc = run_json(capsys, "solve", "--q", "2", "--x", "01", "--y", "10",
                       "--no-timestamp")
        assert doc["metadata"]["toolVersion"]
        assert "seed" in doc["metadata"]
        assert "timestamp" not in doc["metadata"]

    def test_timestamp_present_by_default(self, capsys):
        doc = run_json(capsys, "solve", "--q", "2", "--x", "0", "--y", "1")
        assert "timestamp" in doc["metadata"]


class TestSolveBudget:
    def test_table_over_budget_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--q", "2", "--x", "0" * 4000,
                               "--y", "1" * 4000)
        assert code == 1
        assert "states" in err and "budget" in err


class TestOracle:
    def test_ordering_example(self, capsys):
        doc = run_json(capsys, "oracle", "--q", "4", "--x", "1322", "--y", "0130",
                       "--no-timestamp")
        assert doc["tStar"] == 11
        assert doc["interleavingsChecked"] == 70

    def test_budget_refusal_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--q", "2", "--x", "0" * 16,
                               "--y", "1" * 16, "--budget", "100")
        assert code == 1
        assert "budget" in err


class TestValidate:
    def test_second_example_schedule(self, capsys):
        doc = run_json(capsys, "validate", "--q", "4", "--x", "1,3,2,2", "--y", "0,1,3,0",
                       "--schedule", "Y,Y,-,Y,Y,X,-,X,-,-,X,-,-,-,X", "--no-timestamp")
        assert doc["completionTime"] == 15

    def test_solver_schedule_opening_with_idle_round_trips(self, capsys):
        instance = ("--q", "4", "--x", "133", "--y", "123", "--no-timestamp")
        solved = run_json(capsys, "solve", *instance)
        assert solved["tStar"] == 12
        assert solved["schedule"].startswith("-,")
        doc = run_json(capsys, "validate", *instance, "--schedule", solved["schedule"])
        assert doc["completionTime"] == 12

    def test_illegal_schedule_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--q", "4", "--x", "1,3,2,2",
                               "--y", "0,1,3,0", "--schedule", "X,Y")
        assert code == 1
        assert "slot 1" in err

    def test_incomplete_schedule_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--q", "2", "--x", "0", "--y", "0",
                               "--schedule", "X")
        assert code == 1
        assert "unsynthesized" in err


class TestSimulate:
    def test_reports_policy_and_time(self, capsys):
        doc = run_json(capsys, "simulate", "--q", "4", "--x", "1,3,2,2", "--y", "0,1,3,0",
                       "--policy", "x-first", "--no-timestamp")
        assert doc["completionTime"] == 11
        assert doc["schedule"] == "Y,X,-,X,-,Y,X,Y,Y,-,X"
        assert doc["policy"] == "x-first"

    def test_unknown_policy_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--q", "2", "--x", "0", "--y", "1", "--policy", "eager"])
        assert exc.value.code == 2


class TestChain:
    def test_stationary_fractions(self, capsys):
        doc = run_json(capsys, "chain", "--stationary", "--format", "json",
                       "--no-timestamp")
        assert doc["pi"][0] == "1/7"
        assert doc["pi"][1] == "1/21"
        assert doc["pi"][13] == "1/14"
        assert doc["pi"][15] == "1/14"
        assert doc["rate"] == "6/7"
        assert "matrix" not in doc

    def test_full_chain_includes_matrix(self, capsys):
        doc = run_json(capsys, "chain", "--format", "json", "--no-timestamp")
        assert len(doc["matrix"]) == 16
        assert doc["matrix"][12][3] == "1"

    def test_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--format", "csv")
        assert code == 0
        assert "stationary distribution" in out
        assert "1/7" in out and "6/7" in out


class TestBounds:
    def test_csv_row_values(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--q", "2", "--length", "1000")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("q,L,soloExpected")
        cells = row.split(",")
        assert cells[2] == "1500.0"
        assert cells[4] == "2500.0"

    def test_multiple_alphabets(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--q", "2,4", "--length", "100")
        assert code == 0
        assert len(out.strip().split("\n")) == 3


class TestRotations:
    def test_csv_shape_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, "rotations", "--q", "2", "--rotations", "500",
                                "--seed", "7")
        assert code == 0
        code, out2, _ = run_cli(capsys, "rotations", "--q", "2", "--rotations", "500",
                                "--seed", "7")
        assert out1 == out2
        header = out1.strip().split("\n")[0]
        assert header == ("q,nRotations,meanVX,meanVY,meanT,stderrVX,stderrVY,stderrT,"
                          "closedVX,closedVY,closedT")


class TestExperiment:
    def test_flags_only(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--q", "2", "--length", "100",
                               "--trials", "6", "--policy", "lf", "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("2,100,lf,6,3,")

    def test_config_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"q": 2, "L": [50, 100, 150], "policy": "lf",
                                   "trials": 4, "seed": 1}))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert [line.split(",")[1] for line in lines[1:]] == ["50", "100", "150"]

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"q": 2, "L": 50, "trials": 200, "seed": 1}))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--trials", "5")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[3] == "5"

    def test_missing_config_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "not found" in err

    def test_malformed_config_reports_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "q": 2,\n  oops\n}\n')
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert "line 3" in err

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"q": 2, "alpha": 1}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert "alpha" in err

    def test_out_of_range_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"q": 2, "trials": 0}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize("key,value", [
        ("policy", []), ("L", []), ("seed", []),
        ("q", 2.7), ("L", 10.9), ("trials", True), ("seed", "5"), ("q", [2, 3.0]),
    ])
    def test_empty_or_non_integer_config_value_exits_one(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"q": 2, "L": 20, "trials": 2, key: value}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert key in err and out == ""

    def test_json_format(self, capsys):
        doc = run_json(capsys, "experiment", "--q", "2", "--length", "60", "--trials", "4",
                       "--format", "json", "--no-timestamp")
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["policy"] == "lf"


class TestConjecture:
    def test_reports_measured_and_conjectured_slopes(self, capsys):
        doc = run_json(capsys, "conjecture", "--q", "2", "--length", "60", "--trials", "5",
                       "--no-timestamp")
        assert doc["conjecturedSlope"] == 2.16
        assert 2.0 <= doc["slope"] <= 2.6


class TestGoldenStability:
    def test_byte_identical_across_runs_and_workers(self, capsys):
        base = ["experiment", "--q", "2", "--length", "120", "--trials", "8",
                "--policy", "random", "--seed", "11", "--no-timestamp"]
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out2, _ = run_cli(capsys, *base, "--workers", "1")
        _, out3, _ = run_cli(capsys, *base, "--workers", "3")
        assert out1 == out2 == out3

    def test_solve_output_stable(self, capsys):
        args = ["solve", "--q", "4", "--x", "1322", "--y", "0130", "--no-timestamp"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "solve", "--q", "2", "--x", "0", "--y", "1",
                               "--no-timestamp", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["tStar"] == 2


SWEEP = {"q": [2, 4], "L": 40, "policy": ["lf", "random"], "trials": 6, "seed": 5}

# SHA-256 of fixed-seed output bytes, pinned before the per-command row loops were merged
PINNED_OUTPUT = [
    (["rotations", "--q", "2,3,4,5", "--rotations", "300", "--seed", "7", "--format", "csv"],
     "1eab306b1bc7fe6b88986bfcbe3b09c550564f64721efa8c990bb0160e73768b"),
    (["rotations", "--q", "2,3,4,5", "--rotations", "300", "--seed", "7", "--format", "json"],
     "1993be95ccb343fc71ca89a858eccccc2ebe9a781ef664cdf0387b673290b6f0"),
    (["bounds", "--q", "2,3,4", "--length", "100", "--format", "csv"],
     "10842f72539d30facea759e5dc75355b50b09bcfd88fed49ca8f40d33996ddc2"),
    (["bounds", "--q", "2,3,4", "--length", "100", "--format", "json"],
     "77f091aebe724a03a9e510362fd6c0dc9dca38b0e0be4cded4cf0244c239e06e"),
    (["experiment", "--config", "{sweep}", "--workers", "1", "--format", "csv"],
     "386713858e6fb365c4f980ea4ed1be1ef4dd61fe9747266a102763f7381b7530"),
    (["experiment", "--config", "{sweep}", "--workers", "2", "--format", "csv"],
     "386713858e6fb365c4f980ea4ed1be1ef4dd61fe9747266a102763f7381b7530"),
    (["experiment", "--config", "{sweep}", "--workers", "1", "--format", "json"],
     "f244f3c7ba08b9581644a2c655de924e26bb5177559b024d48fe998c47d4fbe2"),
    (["experiment", "--config", "{sweep}", "--workers", "2", "--format", "json"],
     "f244f3c7ba08b9581644a2c655de924e26bb5177559b024d48fe998c47d4fbe2"),
    (["conjecture", "--q", "2", "--length", "30", "--trials", "6", "--seed", "9",
      "--workers", "1"], "4d737def872de8030bb5237cc957da1c4ad93c633eec0c721ccecff007646e73"),
    (["conjecture", "--q", "2", "--length", "30", "--trials", "6", "--seed", "9",
      "--workers", "2"], "4d737def872de8030bb5237cc957da1c4ad93c633eec0c721ccecff007646e73"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_OUTPUT])
def test_pinned_output(capsys, tmp_path, argv, digest):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(SWEEP))
    argv = [str(sweep) if tok == "{sweep}" else tok for tok in argv]
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEnvironmentOverrides:
    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ROWSYNTH_SEED", "99")
        doc = run_json(capsys, "solve", "--q", "2", "--x", "0", "--y", "1",
                       "--no-timestamp")
        assert doc["metadata"]["seed"] == 99

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ROWSYNTH_SEED", "99")
        doc = run_json(capsys, "solve", "--q", "2", "--x", "0", "--y", "1",
                       "--seed", "123", "--no-timestamp")
        assert doc["metadata"]["seed"] == 123

    def test_format_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ROWSYNTH_FORMAT", "json")
        doc = run_json(capsys, "bounds", "--q", "2", "--length", "10", "--no-timestamp")
        assert doc["rows"][0]["lfExpected"] == 25.0

    def test_bad_env_seed_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("ROWSYNTH_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "solve", "--q", "2", "--x", "0", "--y", "1")
        assert code == 1


class TestUsageAndHelp:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--q", "2", "--x", "0", "--y", "1", "--frob"])
        assert exc.value.code == 2

    def test_main_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "solve", "oracle", "validate", "rotations",
                    "chain", "bounds", "experiment", "conjecture"):
            assert cmd in out

    def test_simulate_help_lists_every_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        out = capsys.readouterr().out
        for name in policy_names():
            assert name in out


class TestStrandParsing:
    def test_digit_form_rejected_for_wide_alphabets(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--q", "11", "--x", "123", "--y", "456")
        assert code == 1
        assert "comma-separated" in err

    def test_out_of_alphabet_symbol(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--q", "2", "--x", "0,2", "--y", "0")
        assert code == 1


class TestLoadConfig:
    def test_expands_lists_in_order(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"q": [2, 3], "L": [10, 20], "trials": 2, "seed": 0}))
        configs = load_config(str(cfg))
        assert [(c.q, c.length) for c in configs] == [(2, 10), (2, 20), (3, 10), (3, 20)]

    def test_rejects_non_object(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1,2,3]")
        with pytest.raises(Exception):
            load_config(str(cfg))


class TestSingleTrialError:
    def test_conjecture_reports_null_stderr(self, capsys):
        doc = run_json(capsys, "conjecture", "--q", "2", "--length", "5", "--trials", "1",
                       "--no-timestamp")
        assert doc["stderr"] is None

    def test_experiment_json_reports_null_stderr(self, capsys):
        doc = run_json(capsys, "experiment", "--q", "2", "--length", "5", "--trials", "1",
                       "--format", "json", "--no-timestamp")
        assert doc["rows"][0]["stderr"] is None
        assert doc["rows"][0]["deltaSigma"] is None

    def test_experiment_csv_leaves_stderr_cell_empty(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--q", "2", "--length", "5",
                               "--trials", "1")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["stderr"] == "" and cells["deltaSigma"] == ""


class TestWorkerCount:
    @pytest.mark.parametrize("command", ["experiment", "conjecture"])
    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_below_one_exits_one(self, capsys, command, workers):
        code, out, err = run_cli(capsys, command, "--q", "2", "--length", "5",
                                 "--trials", "3", "--workers", workers)
        assert code == 1
        assert "worker count" in err and out == ""


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rowsynth.cli", "solve", "--q", "2", "--x", "0",
         "--y", "1", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tStar"] == 2
