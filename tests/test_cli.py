"""Command-line front door: subcommands, formats, exit codes, golden stability."""

from __future__ import annotations

import hashlib
import json
import os
import random
import runpy
import subprocess
import sys

import pytest

from rowsynth import (Schedule, apply_schedule, enumerate_interleavings_min, policy_names,
                      trial_rng)
from rowsynth import cli, experiments
from rowsynth.cli import load_config, main
from conftest import random_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _strand(placeholder: str) -> str:
    """The digits "{q<q>-<length>-<name>}" stands for, from a Mersenne Twister seeded by it."""
    tag = placeholder.strip("{}")
    q, length = (int(v) for v in tag[1:].split("-")[:2])
    gen = random.Random(f"pin/{tag}")
    return "".join(str(gen.randrange(q)) for _ in range(length))


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
        code, _, err = run_cli(capsys, "solve", "--q", "2", "--x", "0" * 32000,
                               "--y", "1" * 32000)
        assert code == 1
        assert "bits" in err and "budget" in err

    def test_past_the_dp_table_budget_solves_and_validates(self, capsys):
        instance = ("--q", "2", "--x", _strand("{q2-4000-x}"), "--y", _strand("{q2-4000-y}"),
                    "--no-timestamp")
        solved = run_json(capsys, "solve", *instance)
        doc = run_json(capsys, "validate", *instance, "--schedule", solved["schedule"])
        assert doc["completionTime"] == solved["tStar"]


class TestSolverRange:
    """Sizes past int64 values or memory are refused in one line; large alphabets run."""

    # Address space for the child: numpy with one BLAS thread imports in
    # about 100 MiB (2-vCPU x86-64 VM), and nothing the solver allocates
    # here may grow with q.
    ADDRESS_SPACE = 256 * 2**20

    def _capped(self, statement: str, *argv: str) -> subprocess.CompletedProcess:
        """Run ``statement`` in a child under the address-space cap; a RowSynthError exits 1 in one line."""
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({self.ADDRESS_SPACE}, {self.ADDRESS_SPACE}))\n"
            "from rowsynth import RowSynthError, get_policy, simulate_k\n"
            "from rowsynth.cli import main\n"
            "try:\n"
            f"    {statement}\n"
            "except RowSynthError as exc:\n"
            "    sys.exit(f'error: {exc}')\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        return subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_huge_alphabet_solves_in_bounded_memory(self):
        instance = ["--q", "1000000000", "--x", "0,5", "--y", "1,7", "--no-timestamp"]
        docs = {}
        for command in ("solve", "oracle"):
            proc = self._capped("sys.exit(main(sys.argv[1:]))", command, *instance)
            assert proc.returncode == 0, proc.stderr
            docs[command] = json.loads(proc.stdout)
        assert docs["solve"]["tStar"] == docs["oracle"]["tStar"] == 8
        # conjecture solves its two trials as one rows block of two lanes, on int64 values
        proc = self._capped("sys.exit(main(sys.argv[1:]))", "conjecture", "--q", "1000000000",
                            "--length", "2", "--trials", "2", "--seed", "7", "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
        pairs = [random_pair(trial_rng(7, idx), 10**9, 2) for idx in range(2)]
        times = [enumerate_interleavings_min(x, y, 10**9) for x, y in pairs]
        assert json.loads(proc.stdout)["meanTStar"] == sum(times) / 2

    @pytest.mark.parametrize("statement", [
        "sys.exit(main(['simulate', '--q', '1000000000', '--x', '5,4', '--y', '1,2']))",
        "simulate_k([(5, 4), (1, 2), (3,)], get_policy('lf'), 10**9)",
    ], ids=["k2", "k3"])
    def test_simulated_schedule_past_its_slot_budget_exits_one(self, statement):
        # x's 4 comes round a whole alphabet after its 5; without the budget
        # the idles before it ask for a list of 10**9 actions
        proc = self._capped(statement)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error: schedule requires 1000000005 slots, "
                               "over the budget of 10000000\n")

    def test_schedule_past_its_slot_budget_exits_one(self, capsys):
        # x's 4 comes round a whole alphabet after its 5
        code, out, err = run_cli(capsys, "solve", "--q", str(10**9), "--x", "5,4", "--y", "1,2")
        assert (code, out) == (1, "")
        assert err == ("error: optimal schedule requires 1000000005 slots, "
                       "over the budget of 10000000\n")

    @pytest.mark.parametrize("argv", [
        ("solve", "--q", str(10**18), "--x", "0,5", "--y", "1,7"),
        ("conjecture", "--q", str(10**18), "--length", "1", "--trials", "2"),
    ], ids=["solve", "conjecture"])
    def test_alphabet_past_the_int64_range_exits_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: the exact solver needs q * (len_x + len_y + 1) < 2**60")

    @pytest.mark.parametrize("command", ["experiment", "conjecture"])
    def test_strand_past_the_draw_budget_exits_one(self, command):
        # without the budget the trial pass asks numpy for 7.45 GiB of int64 draws
        proc = self._capped("sys.exit(main(sys.argv[1:]))", command, "--q", "2",
                            "--length", "1000000000", "--trials", "1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: strand length 1000000000 is over the draw budget of 4000000\n"

    @pytest.mark.parametrize("command", ["experiment", "conjecture"])
    def test_trials_past_the_trial_budget_exit_one(self, capsys, monkeypatch, command):
        # without the budget the pass's per-trial times grow until memory runs out
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        assert experiments.ExperimentConfig(2, 10, experiments.MAX_TRIALS).validated()
        code, out, err = run_cli(capsys, command, "--length", "10", "--trials", str(10**12))
        assert (code, out) == (1, "")
        assert err == "error: trial count 1000000000000 is over the trial budget of 2000000\n"

    def test_sweep_past_the_sweep_budget_exits_one(self, capsys, monkeypatch, tmp_path):
        # each config is within the trial budget; eleven of them keep 2.2 * 10**7 results
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"L": 10, "trials": experiments.MAX_TRIALS,
                                   "seed": list(range(11))}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == ("error: a sweep of 22000000 trial results is over the sweep budget of "
                       "20000000\n")

    @pytest.mark.parametrize("command", ["experiment", "conjecture"])
    def test_alphabet_past_the_int64_draw_exits_one(self, capsys, monkeypatch, command):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail
        code, out, err = run_cli(capsys, command, "--q", str(10**19), "--length", "2",
                                 "--trials", "2")
        assert (code, out) == (1, "")
        assert err == ("error: random strands draw int64 symbols, so q must be <= 2**63, "
                       "got 10000000000000000000\n")


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

    def test_builds_a_generator_only_for_the_coin_policy(self, capsys, monkeypatch):
        seeds, real = [], cli.master_rng
        monkeypatch.setattr(cli, "master_rng", lambda seed: seeds.append(seed) or real(seed))
        for policy in policy_names():
            run_json(capsys, "simulate", "--x", "0110", "--y", "1010", "--policy", policy,
                     "--seed", "7", "--no-timestamp")
        assert seeds == [7]

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
        """chain prints JSON only: the plain-text report --format csv once named is gone."""
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_negative_length_exits_one(self, capsys, q):
        code, out, err = run_cli(capsys, "bounds", "--q", q, "--length", "-5")
        assert code == 1
        assert out == ""
        assert "length" in err


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

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_small_alphabet_exits_one(self, capsys, q):
        code, out, err = run_cli(capsys, "rotations", "--q", q)
        assert code == 1
        assert out == ""
        assert "alphabet size" in err


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

    def test_directory_as_config_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "experiment", "--config", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_out_in_missing_directory_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f.csv"
        code, out, err = run_cli(capsys, "bounds", "--q", "2", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not target.parent.exists()

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

    def test_small_solves_start_no_pool_at_two_workers(self, capsys, monkeypatch):
        import concurrent.futures

        base = ("conjecture", "--q", "2", "--length", "20", "--trials", "4", "--no-timestamp")
        serial = run_cli(capsys, *base, "--workers", "1")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # no pool may start
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        assert run_cli(capsys, *base, "--workers", "2") == serial


class TestGoldenStability:
    def test_byte_identical_across_runs_and_workers(self, capsys):
        base = ["experiment", "--q", "2", "--length", "120", "--trials", "8",
                "--policy", "random", "--seed", "11", "--no-timestamp"]
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out2, _ = run_cli(capsys, *base, "--workers", "1")
        _, out3, _ = run_cli(capsys, *base, "--workers", "3")
        assert out1 == out2 == out3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_policy_identical_at_one_two_and_three_workers(self, capsys, monkeypatch,
                                                                 tmp_path, fmt):
        # every catalog policy in one sweep group, through a pool of each size
        monkeypatch.setattr(experiments, "_POOL_MIN_WALKS", 0)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"q": 2, "L": 60, "policy": policy_names(), "trials": 9,
                                     "seed": 16}))
        runs = [run_cli(capsys, "experiment", "--config", str(sweep), "--workers", str(w),
                        "--format", fmt, "--no-timestamp") for w in (1, 2, 3)]
        assert [code for code, _, _ in runs] == [0, 0, 0]
        assert runs[0][1] == runs[1][1] == runs[2][1]
        assert all(name in runs[0][1] for name in policy_names())

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
    (["chain", "--format", "json"],
     "9a9a501b4ff75f90054d8106263e72d997f8d94f6fc925f3bb29e4faaf5f2b24"),
    (["chain", "--stationary"],
     "ddbece2e9fd580a0ef7aecd7e63d90a0969049bf4db3db2de92ba3dcfde98f58"),
    # pinned on the table-walking solver and the trace-building simulate
    (["solve", "--q", "2", "--x", "{q2-200-x}", "--y", "{q2-200-y}"],
     "fd175f949654623ce55cc8fcc2b562fb9f1bb3402e3d8e2e1b94ac51877d0bab"),
    (["solve", "--q", "4", "--x", "{q4-133-x}", "--y", "{q4-123-y}"],
     "8c35a406db27e30df6c110771e7e01f57514d5a0c60924ceb03459c3d362302e"),
    (["solve", "--q", "3", "--x", "", "--y", "{q3-60-y}"],
     "0da2c11b863180652cf5a8cbfa4639782d4b264d925f22f955cc0bfefc4acc2c"),
    (["solve", "--q", "4", "--x", "133", "--y", "123"],  # opens with an idle
     "3b6f7ea39b44f919bf7eff6c27a78da735d90afa56288318b477bf43384336f1"),
] + [
    (["simulate", "--q", str(q), "--x", f"{{q{q}-300-x}}", "--y", f"{{q{q}-300-y}}",
      "--policy", policy, "--seed", "5"], digest)
    for q, policy, digest in (
        (2, "x-first", "a5e196112c73bb13ffa312c233549cae545df0ef1a107cc615febdf55c79e021"),
        (2, "y-first", "3e22fc5aaeb1fcd95bc042e8f1a655192a5d45f70965d407cb4746185313b55e"),
        (2, "lf", "0445e6e425eb1ffbc1f7dd1c4c4002414d7718fce8d2f0dca8567667676cd3b4"),
        (2, "lf1", "f27c3b82a6e4dc2a974b640fb9963a4907cf09acb4bca68138e645e9c7344d05"),
        (2, "round-robin", "0f45f045444804c8154f69d5a478c893d8775f052f75b1b837f2095538381971"),
        (2, "random", "222ae40d7c32e19e3a9712858720bd3e53883faee10c401d916a5108ed095dfa"),
        (4, "x-first", "4072fc463467828c87a8fe51e0718b3ff4c4ce70c762f655005a60686d8e9254"),
        (4, "y-first", "934784a1a574fc418127978821967573b99e2e41ef0fd12720a78c6aa2347cb0"),
        (4, "lf", "c2fbd4aa9c9ed656375deaa6c5e264769f98515743663d7c2ecbb7d6b54587af"),
        (4, "round-robin", "169ddb8d1e3bb2e400a3d350dbd5ab80c2b37d83abc23d01a2e7bdfb3611377a"),
        (4, "random", "7579317fec62b0003f62924577f3ba7ca9c80c078b82f8df3d9ca3902ccb3837"),
    )
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_OUTPUT])
def test_pinned_output(capsys, tmp_path, argv, digest):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(SWEEP))
    argv = [str(sweep) if tok == "{sweep}" else _strand(tok) if tok.startswith("{q") else tok
            for tok in argv]
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


class TestNegativeSeed:
    """A negative seed exits 1 naming it, before any trial runs or any pool starts."""

    CASES = {
        "simulate": ("simulate", "--x", "01", "--y", "10"),
        "rotations": ("rotations", "--rotations", "10"),
        "experiment": ("experiment", "--length", "10", "--trials", "4", "--workers", "2"),
        "conjecture": ("conjecture", "--length", "10", "--trials", "4", "--workers", "2"),
    }

    @pytest.fixture(autouse=True)
    def no_trials(self, monkeypatch):
        monkeypatch.setattr(experiments, "_map_trials", None)  # any trial would fail

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_flag(self, capsys, command):
        code, out, err = run_cli(capsys, *self.CASES[command], "--seed", "-5")
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -5\n"

    def test_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ROWSYNTH_SEED", "-5")
        code, out, err = run_cli(capsys, *self.CASES["experiment"])
        assert (code, out) == (1, "")
        assert "got -5" in err

    def test_sweep_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"L": 10, "trials": 4, "seed": [3, -5]}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg), "--workers", "2")
        assert (code, out) == (1, "")
        assert "got -5" in err


class TestNegativeSeedWithoutDraws:
    """Commands that draw nothing refuse a negative seed too, rather than echo it."""

    CASES = {
        "solve": ("solve", "--x", "01", "--y", "10"),
        "oracle": ("oracle", "--q", "2", "--x", "0", "--y", "1"),
        "validate": ("validate", "--x", "0", "--y", "1", "--schedule", "X,Y"),
        "chain": ("chain", "--stationary"),
        "bounds": ("bounds", "--format", "json"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_flag(self, capsys, command):
        code, out, err = run_cli(capsys, *self.CASES[command], "--seed", "-5")
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -5\n"

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_env(self, capsys, monkeypatch, command):
        monkeypatch.setenv("ROWSYNTH_SEED", "-5")
        code, out, err = run_cli(capsys, *self.CASES[command])
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -5\n"


class TestJsonOnlyFormat:
    """Commands that print only JSON take only --format json and ignore ROWSYNTH_FORMAT."""

    CASES = {
        "simulate": ("simulate", "--x", "01", "--y", "10"),
        "solve": ("solve", "--x", "01", "--y", "10"),
        "oracle": ("oracle", "--q", "2", "--x", "0", "--y", "1"),
        "validate": ("validate", "--x", "0", "--y", "1", "--schedule", "X,Y"),
        "chain": ("chain", "--stationary"),
        "conjecture": ("conjecture", "--length", "4", "--trials", "2"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_csv_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*self.CASES[command], "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(CASES))
    @pytest.mark.parametrize("env", [None, "csv", "xml"])
    def test_prints_json_whatever_the_env(self, capsys, monkeypatch, command, env):
        if env is None:
            monkeypatch.delenv("ROWSYNTH_FORMAT", raising=False)
        else:
            monkeypatch.setenv("ROWSYNTH_FORMAT", env)
        argv = (*self.CASES[command], "--no-timestamp")
        doc = run_json(capsys, *argv)
        assert run_json(capsys, *argv, "--format", "json") == doc
        assert "metadata" in doc

    def test_help_offers_json_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "--format {json}" in capsys.readouterr().out


class TestReadmeCommands:
    """The cheap command lines of README's command-line section, through main()."""

    @pytest.fixture(autouse=True)
    def default_format(self, monkeypatch):
        monkeypatch.delenv("ROWSYNTH_FORMAT", raising=False)

    def test_solve(self, capsys):
        doc = run_json(capsys, "solve", "--q", "4", "--x", "1,3,2,2", "--y", "0,1,3,0")
        assert doc["tStar"] == 11

    def test_oracle(self, capsys):
        doc = run_json(capsys, "oracle", "--q", "4", "--x", "1322", "--y", "0130")
        assert doc["tStar"] == 11

    def test_validate(self, capsys):
        doc = run_json(capsys, "validate", "--q", "4", "--x", "1322", "--y", "0130",
                       "--schedule", "Y,Y,-,Y,Y,X,-,X,-,-,X,-,-,-,X")
        assert doc["completionTime"] == 15

    def test_simulate(self, capsys):
        doc = run_json(capsys, "simulate", "--q", "2", "--x", "0110", "--y", "1010",
                       "--policy", "lf1")
        assert doc["policy"] == "lf1"

    def test_chain_stationary(self, capsys):
        assert run_json(capsys, "chain", "--stationary")["rate"] == "6/7"

    def test_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--q", "2,4", "--length", "1000")
        assert code == 0 and out.startswith("q,L,") and len(out.splitlines()) == 3

    def test_rotations(self, capsys):
        code, out, _ = run_cli(capsys, "rotations", "--q", "2,3,4,5", "--rotations", "100000")
        assert code == 0 and out.startswith("q,nRotations,") and len(out.splitlines()) == 5


class TestCachedParser:
    """One parser per process; the environment is still read on every call."""

    BOUNDS = ("bounds", "--q", "2", "--length", "10", "--no-timestamp")

    def test_format_env_set_after_a_call_takes_effect(self, capsys, monkeypatch):
        monkeypatch.delenv("ROWSYNTH_FORMAT", raising=False)
        code, out, _ = run_cli(capsys, *self.BOUNDS)
        assert code == 0 and out.startswith("q,L,")
        monkeypatch.setenv("ROWSYNTH_FORMAT", "json")
        assert run_json(capsys, *self.BOUNDS)["rows"][0]["lfExpected"] == 25.0
        monkeypatch.setenv("ROWSYNTH_FORMAT", "csv")
        code, out, _ = run_cli(capsys, *self.BOUNDS)
        assert code == 0 and out.startswith("q,L,")
        assert cli._parser.cache_info().misses == 1

    def test_bad_format_env_after_a_good_call_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("ROWSYNTH_FORMAT", "json")
        run_json(capsys, *self.BOUNDS)
        monkeypatch.setenv("ROWSYNTH_FORMAT", "xml")
        code, out, err = run_cli(capsys, *self.BOUNDS)
        assert code == 1 and out == ""
        assert "ROWSYNTH_FORMAT" in err

    @pytest.mark.parametrize("env", ["json", "xml"])
    def test_format_flag_beats_env(self, capsys, monkeypatch, env):
        monkeypatch.setenv("ROWSYNTH_FORMAT", env)
        code, out, _ = run_cli(capsys, *self.BOUNDS, "--format", "csv")
        assert code == 0 and out.startswith("q,L,")

    def test_usage_exits_unchanged_after_a_good_call(self, capsys):
        run_cli(capsys, *self.BOUNDS)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--help"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--frob"])
        assert exc.value.code == 2
        code, _, _ = run_cli(capsys, *self.BOUNDS)
        assert code == 0

    def test_not_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import rowsynth.cli as c; print(c._parser.cache_info().misses)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "0"


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    """A named command goes straight to its own parser, with every outcome unchanged."""

    INSTANCE = ("--q", "4", "--x", "1322", "--y", "0,1,3,0")
    CALLS = [
        ("solve", *INSTANCE, "--no-timestamp"),
        ("validate", *INSTANCE, "--schedule", "-,Y,X,-,X,-,Y,X,Y,Y,-,X"),
        ("simulate", *INSTANCE, "--policy", "random", "--seed", "7", "--no-timestamp"),
        ("oracle", *INSTANCE, "--no-timestamp"),
        ("rotations", "--q", "2,3", "--rotations", "200", "--seed", "3"),
        ("chain", "--stationary", "--no-timestamp"),
        ("bounds", "--q", "2", "--length", "10"),
        ("experiment", "--q", "2", "--length", "5", "--trials", "2"),
        ("conjecture", "--q", "2", "--length", "5", "--trials", "2", "--no-timestamp"),
        ("solve", "--help"),
        ("solve", *INSTANCE, "--frob"),
        ("solve", "--q", "2", "--x", "0"),
        (),
        ("frobnicate",),
        ("--help",),
    ]

    @pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(argv) or "no command")
    def test_same_outcome_through_the_top_level_parser(self, capsys, monkeypatch, argv):
        direct = outcome(capsys, argv)
        monkeypatch.setattr(cli, "_commands", dict)  # no command table: no dispatch
        assert outcome(capsys, argv) == direct

    def test_a_named_command_skips_the_top_level_parser(self, capsys, monkeypatch):
        monkeypatch.setattr(cli._parser(), "parse_args", None)
        code, out, _ = outcome(capsys, self.CALLS[0])
        assert code == 0 and json.loads(out)["tStar"] == 11


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

    def test_one_symbol_strands_at_a_wide_alphabet(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--q", "20", "--x", "5", "--y", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["tStar"] == enumerate_interleavings_min((5,), (3,), 20) == 6

    def test_out_of_alphabet_symbol(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--q", "2", "--x", "0,2", "--y", "0")
        assert code == 1

    def test_non_ascii_digit_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--q", "4", "--x", "\u00b2", "--y", "01")
        assert (code, out, err) == (1, "", "error: cannot parse strand '\u00b2'\n")

    @pytest.mark.parametrize("argv,error", [
        (("solve", "--q", "4", "--x", "\u0663,\u0660", "--y", "0,1"),
         "cannot parse strand '\u0663,\u0660'"),
        (("oracle", "--q", "4", "--x", "+1,0", "--y", "0,1"), "cannot parse strand '+1,0'"),
        (("simulate", "--q", "4", "--x", "1_0,1", "--y", "0,1"), "cannot parse strand '1_0,1'"),
        (("validate", "--q", "4", "--x", "1,,2", "--y", "0,1", "--schedule=X,Y"),
         "cannot parse strand '1,,2'"),
        (("validate", "--q", "2", "--x", "0", "--y", "1", "--schedule=X\u00b2"),
         "unknown schedule token 'X\u00b2'"),
        (("rotations", "--q", "2,x"), "--q must be comma-separated alphabet sizes, got '2,x'"),
        (("bounds", "--q", "2,x"), "--q must be comma-separated alphabet sizes, got '2,x'"),
    ], ids=["solve", "oracle", "simulate", "validate-strand", "validate-schedule",
            "rotations-q", "bounds-q"])
    def test_unreadable_text_exits_one_in_one_line(self, capsys, argv, error):
        assert run_cli(capsys, *argv) == (1, "", f"error: {error}\n")


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


def test_console_entry_point_runs(capsys, monkeypatch):
    argv = ["solve", "--q", "2", "--x", "0", "--y", "1", "--no-timestamp"]
    proc = subprocess.run([sys.executable, "-m", "rowsynth.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tStar"] == 2
    # the same module guard in this process; run_module warns of a module already imported
    monkeypatch.setattr(sys, "argv", ["rowsynth", *argv])
    monkeypatch.delitem(sys.modules, "rowsynth.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("rowsynth.cli", run_name="__main__")
    assert (exc.value.code, capsys.readouterr().out) == (0, proc.stdout)


# --- every size argument at a huge value, one child process each -------------------------

_HUGE_Q = (str(10**30), str(2**63 + 1))
_INSTANCE = ("--x", "0,1", "--y", "1,0")
_ONE_ALPHABET = {  # each command that takes one alphabet, with small other sizes
    "simulate": _INSTANCE,
    "solve": _INSTANCE,
    "oracle": _INSTANCE,
    "validate": ("--x", "0", "--y", "1", "--schedule=X,Y"),
    "rotations": ("--rotations", "10"),
    "bounds": ("--length", "10"),
    "experiment": ("--length", "10", "--trials", "2"),
    "conjecture": ("--length", "10", "--trials", "2"),
}
_SAMPLERS = ("experiment", "conjecture")
EXTREME_INPUTS = [
    *[(command, "--q", q, *rest) for command, rest in _ONE_ALPHABET.items() for q in _HUGE_Q],
    *[(command, "--length", str(10**12), "--trials", "2") for command in _SAMPLERS],
    ("bounds", "--length", str(10**12)),
    *[(command, "--length", "10", "--trials", str(10**12)) for command in _SAMPLERS],
    ("rotations", "--q", "2", "--rotations", str(10**12)),
    ("oracle", "--q", "2", "--x", "0,1,1,0", "--y", "1,0,0,1", "--budget", str(10**30)),
    # x's 4 comes round a whole alphabet after its 5: the schedule passes MAX_SCHEDULE_SLOTS
    *[(command, "--q", str(10**8), "--x", "5,4", "--y", "1,2")
      for command in ("solve", "simulate")],
]

# Text that numpy or the interpreter, not the program, would put in an error line.
_FOREIGN_WORDS = ("Traceback", "out of bounds", "Unable to allocate", "Maximum allowed",
                  "too large to convert", "array", "dtype", "overflow", "numpy")


class TestExtremeInputSweep:
    """Every size argument at a huge value ends in a typed refusal or runs in bounded memory.

    Each case runs ``python -m rowsynth.cli`` in a child, one at a time,
    under an address-space cap and a short timeout. It passes if it exits 1
    with one ``error:`` line in the program's own words, exits 0, or is
    still running at its timeout, which the cap makes a run in bounded
    memory. --workers is left out: a test must never ask for many processes.
    """

    # numpy with one BLAS thread imports in about 100 MiB of address space
    ADDRESS_SPACE = 768 * 2**20
    TIMEOUT = 2.0

    @staticmethod
    def _cap():
        import resource
        cap = TestExtremeInputSweep.ADDRESS_SPACE
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    @pytest.mark.parametrize("argv", EXTREME_INPUTS, ids=" ".join)
    def test_refused_or_bounded(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, "-m", "rowsynth.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=self.TIMEOUT, preexec_fn=self._cap)
        except subprocess.TimeoutExpired:
            return  # still running in bounded memory
        if proc.returncode == 0:
            return
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert not any(word in proc.stderr for word in _FOREIGN_WORDS), proc.stderr
