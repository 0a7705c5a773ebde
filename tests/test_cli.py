"""End-to-end tests for the benchmark command line interface."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from saddle_ssn import instances
from saddle_ssn.baselines import FomConfig
from saddle_ssn.cli import (
    METHODS,
    RUNS_HEADER,
    TOLERANCES,
    RunSpec,
    build_parser,
    first_crossings,
    main,
)
from saddle_ssn.game import MatrixGame
from saddle_ssn.hybrid import HybridConfig
from saddle_ssn.instances import InstanceSpec, load_matrix, save_matrix
from saddle_ssn.cli import _parse_seeds
from saddle_ssn.jacobian import newton_lanes, usable_cpus
from saddle_ssn.trace import PHASE_FO, PHASE_SSN, TraceRow

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def read_rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def read_lines(path):
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


def run_cli(tmp_path, name, extra):
    out_dir = str(tmp_path / name)
    rc = main(extra + ["--out-dir", out_dir])
    return rc, out_dir


class TestSeedParsing:
    def test_inclusive_range(self):
        assert _parse_seeds("0..3") == [0, 1, 2, 3]
        assert _parse_seeds("5..5") == [5]

    def test_comma_list(self):
        assert _parse_seeds("4,2,7") == [4, 2, 7]
        assert _parse_seeds(" 1, 2 ,3 ") == [1, 2, 3]

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError, match="empty seed range"):
            _parse_seeds("5..2")


class TestDefaults:
    def test_help_shows_the_library_switch_threshold(self):
        help_text = " ".join(build_parser().format_help().split())
        assert HybridConfig.switch_gap_threshold == 0.01
        assert "hand over to Newton (default: 0.01)" in help_text

    def test_run_id_format(self):
        spec = InstanceSpec(kind="uniform", n=8, m=8, seed=3)
        run = RunSpec(spec=spec, method="eg", config=FomConfig())
        assert run.run_id() == "uniform-8x8-s3-eg"


class TestFirstCrossings:
    def test_records_first_checkpoint_under_each_tolerance(self):
        rows = [
            TraceRow(0, PHASE_FO, 1.0, elapsed=0.0),
            TraceRow(100, PHASE_FO, 1e-3, elapsed=1.0),
            TraceRow(200, PHASE_FO, 1e-5, elapsed=2.0),
        ]
        out = first_crossings(rows)
        assert out == {1e-2: 1.0, 1e-4: 2.0}

    def test_empty_trace_crosses_nothing(self):
        assert first_crossings([]) == {}


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_suite")
    rc, out_dir = run_cli(tmp, "bench", [
        "--kind", "uniform", "--n", "8", "--m", "8",
        "--seeds", "0..1", "--methods", "prm-qa,pssn-v2",
        "--fo-budget", "5000", "--workers", "1",
    ])
    return rc, out_dir


class TestSuiteEndToEnd:
    def test_exit_code_zero(self, suite):
        rc, _ = suite
        assert rc == 0

    def test_runs_csv_has_expected_header_and_runs(self, suite):
        _, out_dir = suite
        lines = read_lines(os.path.join(out_dir, "runs.csv"))
        assert lines[0] == RUNS_HEADER
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        run_keys = {(r["instance"], r["seed"], r["method"]) for r in rows}
        assert run_keys == {("uniform-8x8", s, m)
                            for s in ("0", "1")
                            for m in ("prm-qa", "pssn-v2")}

    def test_rows_keep_solver_invariants(self, suite):
        _, out_dir = suite
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        by_run = {}
        for r in rows:
            by_run.setdefault((r["seed"], r["method"]), []).append(r)
        for (seed, method), run_rows in by_run.items():
            iters = [int(r["iteration"]) for r in run_rows]
            assert iters == sorted(iters)
            assert len(set(iters)) == len(iters)
            elapsed = [float(r["elapsed_seconds"]) for r in run_rows]
            assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
            for r in run_rows:
                gap = float(r["duality_gap"])
                assert math.isfinite(gap) and gap >= 0.0
                if r["phase"] == PHASE_FO:
                    assert math.isnan(float(r["residual_norm"]))
                    assert math.isnan(float(r["lambda"]))
                else:
                    assert r["phase"] == PHASE_SSN
                    assert float(r["lambda"]) > 0.0

    def test_newton_method_reaches_the_target(self, suite):
        _, out_dir = suite
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        for seed in ("0", "1"):
            final = [float(r["duality_gap"]) for r in rows
                     if r["method"] == "pssn-v2" and r["seed"] == seed][-1]
            assert final <= 1e-12

    def test_tolerance_table_counts_and_empty_cells(self, suite):
        _, out_dir = suite
        rows = read_rows(os.path.join(out_dir, "tolerance_table.csv"))
        assert [r["method"] for r in rows] == \
            ["prm-qa"] * len(TOLERANCES) + ["pssn-v2"] * len(TOLERANCES)
        for r in rows:
            reached = int(r["reached_count"])
            assert int(r["run_count"]) == 2
            assert 0 <= reached <= 2
            if reached == 0:
                assert r["mean_elapsed_seconds"] == ""
            else:
                assert float(r["mean_elapsed_seconds"]) >= 0.0
        tight = [r for r in rows if r["method"] == "pssn-v2"
                 and float(r["tolerance"]) <= 1e-12]
        assert all(int(r["reached_count"]) == 2 for r in tight)

    def test_trace_files_exist_per_run(self, suite):
        _, out_dir = suite
        traces = os.path.join(out_dir, "traces")
        for seed in ("0", "1"):
            for method in ("prm-qa", "pssn-v2"):
                rid = f"uniform-8x8-s{seed}-{method}"
                assert os.path.exists(os.path.join(traces, rid + ".csv"))

    def test_trace_csv_matches_runs_csv(self, suite):
        _, out_dir = suite
        runs = read_rows(os.path.join(out_dir, "runs.csv"))
        want = [(r["iteration"], r["phase"], r["duality_gap"])
                for r in runs
                if r["seed"] == "0" and r["method"] == "pssn-v2"]
        trace = read_rows(os.path.join(out_dir, "traces",
                                       "uniform-8x8-s0-pssn-v2.csv"))
        got = [(r["iteration"], r["phase"], r["duality_gap"]) for r in trace]
        assert got == want

    def test_meta_json_records_the_configuration(self, suite):
        _, out_dir = suite
        with open(os.path.join(out_dir, "meta.json"), encoding="ascii") as fh:
            meta = json.load(fh)
        assert meta["seeds"] == [0, 1]
        assert "seed_offset" not in meta
        assert meta["methods"] == ["prm-qa", "pssn-v2"]
        assert meta["workers"] == 1
        assert meta["gamma"] is None  # each game's 3 / sigma_max
        assert meta["failures"] == {}
        assert meta["tolerances"] == list(TOLERANCES)
        env = meta["numeric_env"]
        assert env["numpy"] == np.__version__
        assert set(env["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == os.environ.get(
            "OPENBLAS_NUM_THREADS")
        assert env["cpus"] >= 1
        # A serial suite's searches may use the second lane.
        assert env["newton_lanes"] == newton_lanes()
        assert env["blas"] is None or "name" in env["blas"]
        assert meta["switch_threshold"] == HybridConfig.switch_gap_threshold
        # One threshold for the suite, no per-run resolution.
        assert [key for key in meta if "switch" in key] == ["switch_threshold"]
        assert set(meta["statuses"]) == {
            f"uniform-8x8-s{s}-{m}"
            for s in (0, 1) for m in ("prm-qa", "pssn-v2")}


class TestDeterminism:
    def test_identical_configs_differ_only_in_elapsed_columns(self, tmp_path):
        args = ["--kind", "uniform", "--n", "6", "--m", "6",
                "--seeds", "0..1", "--methods", "eg",
                "--fo-budget", "2000", "--workers", "1"]
        rc1, dir1 = run_cli(tmp_path, "first", args)
        rc2, dir2 = run_cli(tmp_path, "second", args)
        assert rc1 == rc2 == 0
        first = read_lines(os.path.join(dir1, "runs.csv"))
        second = read_lines(os.path.join(dir2, "runs.csv"))
        strip = (lambda line: line.rsplit(",", 1)[0])
        assert [strip(l) for l in first] == [strip(l) for l in second]

    def test_pooled_workers_match_serial_output(self, tmp_path):
        args = ["--kind", "uniform", "--n", "6", "--m", "5",
                "--seeds", "0..1", "--methods", ",".join(METHODS),
                "--fo-budget", "2000"]
        rc1, dir1 = run_cli(tmp_path, "serial", args + ["--workers", "1"])
        rc2, dir2 = run_cli(tmp_path, "pooled", args + ["--workers", "2"])
        assert rc1 == rc2 == 0
        strip = (lambda line: line.rsplit(",", 1)[0])
        first = [strip(l) for l in read_lines(os.path.join(dir1, "runs.csv"))]
        second = [strip(l) for l in read_lines(os.path.join(dir2, "runs.csv"))]
        assert first == second


class TestCheckpoints:
    def test_every_first_order_loop_checks_the_same_rounds(self, tmp_path):
        # The hybrids get a switch threshold they cannot reach in 250
        # rounds, so they stay in their first-order phase throughout.
        methods = [m for m in METHODS if m != "hpssn"]
        rc, out_dir = run_cli(tmp_path, "cadence", [
            "--n", "8", "--m", "8", "--seeds", "0",
            "--methods", ",".join(methods), "--fo-budget", "250",
            "--checkpoint-every", "70", "--target", "1e-300",
            "--switch-threshold", "1e-299", "--workers", "1",
        ])
        assert rc == 0
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        for method in methods:
            run = [r for r in rows if r["method"] == method]
            assert [int(r["iteration"]) for r in run] == [0, 70, 140, 210, 250]
            assert {r["phase"] for r in run} == {PHASE_FO}


class TestFileInstances:
    def test_runs_a_payoff_loaded_from_disk(self, tmp_path):
        payoff = np.array([[0.3, -0.8, 0.1],
                           [-0.5, 0.9, -0.2],
                           [0.7, -0.1, -0.6]])
        matrix_path = str(tmp_path / "duel.csv")
        save_matrix(MatrixGame.from_payoff(payoff), matrix_path)
        rc, out_dir = run_cli(tmp_path, "filebench", [
            "--kind", "file", "--path", matrix_path,
            "--seeds", "0", "--methods", "eg",
            "--fo-budget", "3000", "--workers", "1",
        ])
        assert rc == 0
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        assert {r["instance"] for r in rows} == {"file-duel"}

    def test_missing_file_yields_error_row_and_exit_one(self, tmp_path, capsys):
        rc, out_dir = run_cli(tmp_path, "broken", [
            "--kind", "file", "--path", str(tmp_path / "nope_missing.csv"),
            "--seeds", "0", "--methods", "eg", "--workers", "1",
        ])
        assert rc == 1
        lines = read_lines(os.path.join(out_dir, "runs.csv"))
        assert lines[1] == "file-nope_missing,0,eg,0,ERROR,nan,nan,nan,nan"
        with open(os.path.join(out_dir, "meta.json"), encoding="ascii") as fh:
            meta = json.load(fh)
        assert list(meta["failures"]) == ["file-nope_missing-s0-eg"]
        assert "FAILED file-nope_missing-s0-eg" in capsys.readouterr().err

    @pytest.fixture
    def loads(self, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return load_matrix(path)

        monkeypatch.setattr(instances, "load_matrix", counting)
        return calls

    def test_every_method_shares_one_load(self, tmp_path, loads):
        path = str(tmp_path / "rps.mtx")
        save_matrix(MatrixGame.from_payoff(RPS), path)
        rc, out_dir = run_cli(tmp_path, "shared", [
            "--kind", "file", "--path", path, "--seeds", "0",
            "--methods", "pssn-v1,pssn-v2,hpssn", "--workers", "1",
        ])
        assert rc == 0
        assert loads == [path]
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        assert [r["method"] for r in rows if r["phase"] == PHASE_FO
                and r["iteration"] == "0"] == ["pssn-v1", "pssn-v2", "hpssn"]

    def test_a_malformed_file_fails_every_run(self, tmp_path, loads):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1 1 1\n1 1 zebra\n")
        methods = ["eg", "pssn-v1", "hpssn"]
        rc, out_dir = run_cli(tmp_path, "bad", [
            "--kind", "file", "--path", str(path), "--seeds", "0",
            "--methods", ",".join(methods), "--workers", "1",
        ])
        assert rc == 1
        assert len(loads) == 3
        assert read_lines(os.path.join(out_dir, "runs.csv"))[1:] == [
            f"file-bad,0,{method},0,ERROR,nan,nan,nan,nan"
            for method in methods]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["--methods", "bogus"],
        ["--methods", ""],
        ["--kind", "file"],
        ["--seeds", "5..2"],
        ["--n", "0"],
        ["--gamma", "0.0"],
        ["--target", "0.0"],
        ["--fo-budget", "0"],
        ["--checkpoint-every", "0"],
        ["--seeds", "-1"],
        ["--seeds", ""],
        ["--seeds", "1,1"],
        ["--methods", "pssn-v1,pssn-v1"],
        ["--kind", "file", "--path", "g.csv", "--seeds", "-1"],
    ])
    def test_bad_usage_exits_with_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_target_at_the_hybrid_switch_threshold_is_a_usage_error(
            self, tmp_path, capsys):
        out_dir = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["--n", "5", "--m", "5", "--methods", "pssn-v1",
                  "--target", "0.5", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert ("target gap 0.5 must be in [0, 0.01) for pssn-v1"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_hpssn_suites_ignore_the_switch_threshold(self, tmp_path):
        rc, out_dir = run_cli(tmp_path, "probing", [
            "--n", "5", "--m", "5", "--seeds", "0", "--methods", "hpssn",
            "--target", "0.5", "--fo-budget", "500", "--workers", "1",
        ])
        assert rc == 0
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        assert "ERROR" not in {r["phase"] for r in rows}

    def test_hpssn_suites_take_a_switch_threshold_under_the_target(
            self, tmp_path):
        rc, out_dir = run_cli(tmp_path, "explicit", [
            "--n", "5", "--m", "5", "--seeds", "0", "--methods", "hpssn",
            "--target", "0.5", "--switch-threshold", "0.1",
            "--fo-budget", "500", "--workers", "1",
        ])
        assert rc == 0
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        assert "ERROR" not in {r["phase"] for r in rows}

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_hpssn_suites_still_need_a_finite_switch_threshold(
            self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "5", "--m", "5", "--methods", "hpssn",
                  "--switch-threshold", value,
                  "--out-dir", str(tmp_path / "never")])
        assert exc.value.code == 2
        assert (f"switch gap threshold must be finite, got {value}"
                in capsys.readouterr().err)

    def test_first_order_suites_accept_any_target(self, tmp_path):
        rc, out_dir = run_cli(tmp_path, "loose", [
            "--n", "5", "--m", "5", "--seeds", "0",
            "--methods", "prm-qa,eg,ogda", "--target", "0.5",
            "--fo-budget", "500", "--workers", "1",
        ])
        assert rc == 0
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        assert "ERROR" not in {r["phase"] for r in rows}

    def test_unknown_method_names_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["--methods", "bogus"])
        err = capsys.readouterr().err
        assert "unknown method 'bogus'" in err
        assert "prm-li" in err

    @pytest.mark.parametrize("argv, message", [
        (["--target", "nan"], "--target must be positive and finite, got nan"),
        (["--target", "inf", "--methods", "prm-qa"],
         "--target must be positive and finite, got inf"),
        (["--switch-threshold", "nan"],
         "switch gap threshold must be finite, got nan"),
        (["--switch-threshold", "inf"],
         "switch gap threshold must be finite, got inf"),
        (["--gamma", "nan"], "gamma must be positive and finite, got nan"),
    ])
    def test_non_finite_values_are_usage_errors(self, tmp_path, capsys, argv,
                                                message):
        out_dir = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["--n", "5", "--m", "5"] + argv + ["--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["--n", "5", "--m", "5", "--methods", "eg",
                  "--seeds", "-1", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seeds", [
        str(2**128), f"{2**128 - 1}..{2**128}"], ids=["single", "range"])
    def test_seed_past_the_key_limit_is_a_usage_error(self, tmp_path, capsys,
                                                      seeds):
        out_dir = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["--n", "5", "--m", "5", "--methods", "eg",
                  "--seeds", seeds, "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert f"seed must be below 2**128, got {2**128}" in \
            capsys.readouterr().err
        assert not out_dir.exists()

    def test_only_the_hybrids_check_gamma(self, tmp_path):
        rc, out_dir = run_cli(tmp_path, "eg-only", [
            "--n", "5", "--m", "5", "--seeds", "0", "--methods", "eg",
            "--gamma", "0", "--fo-budget", "500", "--workers", "1",
        ])
        assert rc == 0
        rows = read_rows(os.path.join(out_dir, "runs.csv"))
        assert "ERROR" not in {r["phase"] for r in rows}


class TestStartUp:
    def test_importing_the_cli_loads_neither_scipy_nor_a_process_pool(self):
        # Both cost start-up time in every CLI process; the package runs
        # on numpy alone, and only a pooled suite needs the pool.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        probe = ("import sys, saddle_ssn, saddle_ssn.cli; print('\\n'.join("
                 "sorted(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        loaded = done.stdout.split()
        assert "saddle_ssn.cli" in loaded
        assert [m for m in loaded
                if m == "scipy" or m.startswith("scipy.")] == []
        assert "concurrent.futures.process" not in loaded

    def test_importing_the_cli_starts_no_thread(self):
        # The Newton solver's second lane is a thread made on first use;
        # start-up makes none, and loads no part of concurrent.futures.
        probe = ("import sys, threading, saddle_ssn.cli; "
                 "print(threading.active_count(), "
                 "[m for m in sys.modules if m.startswith('concurrent')])")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["1", "[]"]


class TestDefaultWorkers:
    def test_the_pool_has_no_more_workers_than_runs(self, tmp_path):
        rc, out_dir = run_cli(tmp_path, "two", [
            "--n", "5", "--m", "5", "--seeds", "0..1", "--methods", "eg",
            "--fo-budget", "500", "--workers", "8",
        ])
        assert rc == 0
        with open(os.path.join(out_dir, "meta.json"), encoding="ascii") as fh:
            assert json.load(fh)["workers"] == 2

    def test_counts_the_cpus_of_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 3

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
