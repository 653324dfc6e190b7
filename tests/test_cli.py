"""Command-line surface tests: config round-trip and precedence, exit
codes, trace and archive files, the escape demo's output, and the bench
harness (structure, gates that hold at small scale, determinism)."""

import json
import os

import numpy as np
import pytest

from madmm import cli, matio
from madmm.cli import (BENCH_HEADER, EXIT_CHECK_FAILED, EXIT_DIVERGED,
                       EXIT_ERROR, EXIT_MAXITER, EXIT_OK, TRACE_HEADER,
                       RunConfig, _resolve_config, _STATUS_EXIT,
                       build_parser, main)
from madmm.solver import (STATUS_CONVERGED, STATUS_DIVERGED, STATUS_MAXITER)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# RunConfig: lossless round-trip, rejection of malformed input.

def test_config_round_trips_through_json():
    cfg = RunConfig(zoo="sbd1", data="Y.bin",
                    params={"size": 32, "kernel": 8, "l1": 0.5},
                    rho=2.5, max_iter=123, tol_primal=3e-7, tol_step=4e-9,
                    seed=11, assert_level="basic", trace="t.csv", out="run")
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_default_config_round_trips():
    cfg = RunConfig()
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_field():
    with pytest.raises(ValueError, match="bogus"):
        RunConfig.from_dict({"zoo": "nmf3", "bogus": 1})


def test_config_rejects_unknown_param_key():
    with pytest.raises(ValueError, match="params.width"):
        RunConfig.from_dict({"zoo": "nmf3", "params": {"width": 4}})


def test_config_params_null_or_not_an_object():
    # null reads as no overrides; anything else that is not an object is a
    # config error naming the field.
    assert RunConfig.from_dict({"zoo": "nmf3", "params": None}).params == {}
    for bad in ([["rows", 6]], 3, "rows"):
        with pytest.raises(ValueError, match="^config field 'params' must be "
                           "an object$"):
            RunConfig.from_dict({"zoo": "nmf3", "params": bad})


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="assert_level"):
        RunConfig.from_dict({"assert_level": "loud"})
    with pytest.raises(ValueError, match="max_iter"):
        RunConfig.from_dict({"max_iter": -1})
    with pytest.raises(ValueError, match="object"):
        RunConfig.from_dict([1, 2])


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(RunConfig(zoo="nmf3", seed=1, max_iter=50,
                              params={"rows": 12}).to_json())
    args = build_parser().parse_args(
        ["solve", "--config", str(path), "--seed", "9", "--rows", "6"])
    cfg = _resolve_config(args)
    assert cfg.seed == 9
    assert cfg.params["rows"] == 6
    # Fields without a flag keep the file's values.
    assert cfg.max_iter == 50
    assert cfg.zoo == "nmf3"


# ---------------------------------------------------------------------------
# Exit codes.

def test_status_exit_mapping_is_total():
    assert _STATUS_EXIT[STATUS_CONVERGED] == EXIT_OK
    assert _STATUS_EXIT[STATUS_MAXITER] == EXIT_MAXITER
    assert _STATUS_EXIT[STATUS_DIVERGED] == EXIT_DIVERGED


def test_solve_without_problem_is_an_error(capsys):
    code, _, err = _run(capsys, "solve")
    assert code == EXIT_ERROR
    assert err.startswith("error:")
    assert "zoo" in err


def test_solve_unknown_family_is_an_error(capsys):
    code, _, err = _run(capsys, "solve", "--zoo", "nmf9")
    assert code == EXIT_ERROR
    assert "nmf9" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, _ = _run(capsys, "bench")
    assert code == EXIT_ERROR


def test_unknown_command_exits_one(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == EXIT_ERROR


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == EXIT_OK
    assert "solve" in out and "bench" in out


def test_exhausted_budget_exits_two(capsys):
    code, out, _ = _run(capsys, "solve", "--zoo", "nmf3", "--rows", "8",
                        "--cols", "8", "--rank", "2", "--max-iter", "3")
    assert code == EXIT_MAXITER
    assert "status=MaxIter" in out


@pytest.mark.parametrize("fields", [{"max_iter": "5"}, {"max_iter": 2.5},
                                    {"max_iter": True}, {"seed": 1.0},
                                    {"tol_primal": None}, {"tol_step": "1e-3"},
                                    {"rho": "2"}, {"zoo": 3}, {"trace": []},
                                    {"out": 1}, {"params": {"rows": None}},
                                    {"params": {"rows": 2.5}},
                                    {"params": {"mu": "1"}}])
def test_config_field_of_wrong_type_is_a_config_error(tmp_path, capsys, fields):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"zoo": "nmf3", **fields}))
    code, _, err = _run(capsys, "solve", "--config", str(path))
    assert code == EXIT_ERROR
    assert err.startswith("error: config field")
    assert next(iter(fields)) in err


def test_malformed_config_file_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"zoo": "nmf3", "bogus": 1}))
    code, _, err = _run(capsys, "solve", "--config", str(path))
    assert code == EXIT_ERROR
    assert "bogus" in err


def test_config_file_alone_drives_a_run(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(RunConfig(zoo="nmf3", max_iter=2,
                              params={"rows": 6, "cols": 6,
                                      "rank": 2}).to_json())
    code, out, _ = _run(capsys, "solve", "--config", str(path))
    assert code == EXIT_MAXITER
    assert "iterations=2" in out


# ---------------------------------------------------------------------------
# Solve runs end to end.

def test_solve_nmf3_reference_run(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = _run(capsys, "solve", "--zoo", "nmf3", "--rows", "20",
                        "--cols", "20", "--rank", "3", "--seed", "7",
                        "--trace", str(trace))
    assert code == EXIT_OK
    assert "status=Converged" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,L,primal_res,dual_step,stat_est,wall_ms"
    iters = int(out.split("iterations=")[1].split()[0])
    assert len(lines) == 1 + iters
    # Every cell is C-locale numeric; k counts from 1.
    for want_k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert len(cells) == 6
        assert int(cells[0]) == want_k
        for cell in cells[1:]:
            float(cell)


def test_solve_sbd1_noiseless_converges(capsys):
    code, out, _ = _run(capsys, "solve", "--zoo", "sbd1", "--size", "16",
                        "--kernel", "4", "--rho", "1",
                        "--tol-primal", "1e-3", "--tol-step", "5e-2")
    assert code == EXIT_OK
    assert "status=Converged" in out


def test_zero_budget_trace_is_header_only(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, "solve", "--zoo", "nmf3", "--rows", "6",
                      "--cols", "6", "--rank", "2", "--max-iter", "0",
                      "--trace", str(trace))
    assert code == EXIT_MAXITER
    assert trace.read_text() == TRACE_HEADER + "\n"


def test_solve_writes_state_archive(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, "solve", "--zoo", "nmf3", "--rows", "6",
                      "--cols", "5", "--rank", "2", "--max-iter", "4",
                      "--out", str(out_dir))
    assert code == EXIT_MAXITER
    meta = json.loads((out_dir / "state.json").read_text())
    assert meta["problem"] == "nmf3"
    assert meta["status"] == "MaxIter"
    assert meta["iterations"] == 4
    assert meta["rho"] > 0
    assert set(meta["blocks"]) == {"Y", "Y_pos", "X", "X_pos",
                                   "Z", "X_rem", "Y_rem"}
    for name, fname in meta["blocks"].items():
        value = matio.load_matrix(str(out_dir / fname))
        assert np.all(np.isfinite(value))
    assert meta["multipliers"]
    for fname in meta["multipliers"].values():
        matio.load_matrix(str(out_dir / fname))
    Z = matio.load_matrix(str(out_dir / meta["blocks"]["Z"]))
    assert Z.shape == (6, 5)


def test_failed_trace_write_leaves_nothing(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.csv"
    code, _, err = _run(capsys, "solve", "--zoo", "nmf3", "--rows", "6",
                        "--cols", "6", "--rank", "2", "--max-iter", "2",
                        "--trace", str(trace))
    assert code == EXIT_ERROR
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Data files.

def test_data_file_csv_sets_problem_shape(tmp_path, capsys):
    B = np.abs(np.random.default_rng(5).normal(size=(6, 5))) + 0.1
    path = tmp_path / "B.csv"
    matio.save_matrix(str(path), B)
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, "solve", "--zoo", "nmf3", "--data", str(path),
                      "--rank", "2", "--max-iter", "2", "--out", str(out_dir))
    assert code == EXIT_MAXITER
    meta = json.loads((out_dir / "state.json").read_text())
    Z = matio.load_matrix(str(out_dir / meta["blocks"]["Z"]))
    assert Z.shape == B.shape


def test_data_file_bin_round_trips_into_run(tmp_path, capsys):
    B = np.abs(np.random.default_rng(6).normal(size=(4, 7))) + 0.1
    path = tmp_path / "B.bin"
    matio.save_matrix(str(path), B)
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, "solve", "--zoo", "nmf3", "--data", str(path),
                      "--rank", "2", "--max-iter", "2", "--out", str(out_dir))
    assert code == EXIT_MAXITER
    meta = json.loads((out_dir / "state.json").read_text())
    Z = matio.load_matrix(str(out_dir / meta["blocks"]["Z"]))
    assert Z.shape == (4, 7)


def test_data_file_csv_is_rp2_covariance(tmp_path, capsys):
    # A data file replaces rp2's covariance, with the box [0, 1/2] per asset;
    # a covariance that is not square is refused by name.
    A = np.random.default_rng(7).normal(size=(5, 5))
    path = tmp_path / "cov.csv"
    matio.save_matrix(str(path), A @ A.T / 5 + 0.1 * np.eye(5))
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, "solve", "--zoo", "rp2", "--data", str(path),
                      "--max-iter", "2", "--out", str(out_dir))
    assert code == EXIT_MAXITER
    meta = json.loads((out_dir / "state.json").read_text())
    box = matio.load_matrix(str(out_dir / meta["blocks"]["x_box"]))
    assert box.shape == (5, 1)
    assert np.all(box >= 0.0) and np.all(box <= 0.5)
    matio.save_matrix(str(path), np.ones((5, 4)))
    code, _, err = _run(capsys, "solve", "--zoo", "rp2", "--data", str(path))
    assert code == EXIT_ERROR
    assert err == "error: covariance must be square\n"


def test_data_file_bad_extension_is_an_error(tmp_path, capsys):
    path = tmp_path / "B.txt"
    path.write_text("1,2\n3,4\n")
    code, _, err = _run(capsys, "solve", "--zoo", "nmf3", "--data", str(path))
    assert code == EXIT_ERROR
    assert "extension" in err


# ---------------------------------------------------------------------------
# Assumption checking.

def test_check_nmf3_passes(capsys):
    code, out, _ = _run(capsys, "check", "--zoo", "nmf3", "--rows", "8",
                        "--cols", "8", "--rank", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["overall"] == "pass"
    assert all(c["status"] in ("pass", "unverifiable")
               for c in report["checks"])


def test_check_raw_rpca_fails(capsys):
    code, out, _ = _run(capsys, "check", "--zoo", "rpca2_raw")
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out)
    assert report["overall"] == "fail"
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failed


def test_check_without_problem_is_an_error(capsys):
    code, _, err = _run(capsys, "check")
    assert code == EXIT_ERROR
    assert "zoo" in err


# ---------------------------------------------------------------------------
# Escape demo.

def test_demo_walks_the_multiplier_down(capsys):
    code, out, _ = _run(capsys, "demo-counterexample")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "k,x,y,w"
    assert len(lines) == 12
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == k
        assert abs(float(cells[3]) + k) <= 1e-9


def test_demo_zero_iters_prints_header_only(capsys):
    code, out, _ = _run(capsys, "demo-counterexample", "--iters", "0")
    assert code == EXIT_OK
    assert out == "k,x,y,w\n"


def test_demo_rho_scales_the_decrement(capsys):
    code, out, _ = _run(capsys, "demo-counterexample", "--rho", "2",
                        "--iters", "6")
    assert code == EXIT_OK
    for k, line in enumerate(out.splitlines()[1:]):
        assert abs(float(line.split(",")[3]) + 2.0 * k) <= 1e-9


# ---------------------------------------------------------------------------
# Bench harness.

_BENCH_ARGS = ("--size", "16", "--kernel", "4", "--iters", "30",
               "--seed", "0")
_BENCH_FILES = ("bench_sbd1_noiseless.csv", "bench_sbd0_noiseless.csv",
                "bench_sbd1_noisy.csv", "bench_sbd0_noisy.csv",
                "summary.json")


def _read_bench(out_dir):
    runs = {}
    for fname in _BENCH_FILES[:4]:
        lines = (out_dir / fname).read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        runs[fname] = rows
    summary = json.loads((out_dir / "summary.json").read_text())
    return runs, summary


def test_bench_outputs_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = _run(capsys, "bench", "--out-dir", str(out_dir),
                        *_BENCH_ARGS)
    assert code == EXIT_OK
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(_BENCH_FILES)
    runs, summary = _read_bench(out_dir)
    for fname, rows in runs.items():
        assert len(rows) == 31
        assert [int(r[0]) for r in rows] == list(range(31))
    labels = {"sbd1_noiseless", "sbd0_noiseless", "sbd1_noisy", "sbd0_noisy"}
    assert set(summary["runs"]) == labels
    for label, entry in summary["runs"].items():
        assert set(entry) == {"trace", "final_objective", "final_residual",
                              "w_norm_slope", "w_norm_final"}
        rows = runs[entry["trace"]]
        assert entry["final_objective"] == rows[-1][1]
        assert np.isfinite(entry["w_norm_slope"])
    assert summary["config"]["size"] == 16
    assert summary["config"]["sigma"] > 0
    # At any scale the noiseless formulations should collapse the objective.
    for fname in ("bench_sbd1_noiseless.csv", "bench_sbd0_noiseless.csv"):
        rows = runs[fname]
        assert rows[-1][1] <= rows[0][1] / 10.0
    assert out.count("objective=") == 4


def test_bench_fixed_seed_reproduces_bytes(tmp_path, capsys):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        code, _, _ = _run(capsys, "bench", "--out-dir", str(d), *_BENCH_ARGS)
        assert code == EXIT_OK
    for fname in _BENCH_FILES:
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


@pytest.mark.parametrize("iters", ["0", "-1"])
def test_bench_refuses_fewer_than_one_iteration(tmp_path, capsys, iters):
    # Such a run has no last multiplier norm to report; it used to end in a
    # bare IndexError from the summary.
    out_dir = tmp_path / "bench"
    code, out, err = _run(capsys, "bench", "--out-dir", str(out_dir),
                          "--size", "16", "--kernel", "4", "--iters", iters)
    assert code == EXIT_ERROR
    assert err == f"error: --iters must be at least 1, got {iters}\n"
    assert out == "" and not out_dir.exists()
