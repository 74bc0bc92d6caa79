"""CLI contract tests: flags, config files, exit codes, CSV stability."""

import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

from compdet import cli, gf2m, harness, stats

GOLDEN_HEADER = (
    "m,n,t,alpha,beta,snr,detector,trials,errors,p_hat,ci_lo,ci_hi,"
    "emp_exponent,theory_exponent,bound_upper,bound_lower,seed,discarded"
)


def run_cli(args):
    return cli.main(args)


# --- frame subcommand ---

def test_frame_report(capsys, tmp_path):
    out = tmp_path / "frame.csv"
    assert run_cli(["frame", "--m", "8", "--n", "7", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,n,alpha,kappa,coherence,coherence_bound,row_orthonormality_error"
    fields = lines[1].split(",")
    assert fields[0] == "8" and fields[1] == "7"
    assert abs(float(fields[2]) - 0.875) < 1e-15
    assert fields[3] == "1"
    assert abs(float(fields[4]) - 1 / 7) < 1e-12
    matrix = out.read_text().strip().splitlines()
    assert len(matrix) == 7 and all(len(row.split(",")) == 8 for row in matrix)
    first = [float(x) for x in matrix[0].split(",")]
    assert all(abs(v) - 1 / math.sqrt(7) < 1e-15 for v in first)


def test_frame_rejects_non_power_of_two(capsys):
    assert run_cli(["frame", "--m", "12", "--n", "11"]) == 3
    assert "power of two" in capsys.readouterr().err


def test_frame_rejects_non_divisor(capsys):
    assert run_cli(["frame", "--m", "16", "--n", "6"]) == 3
    assert "divide" in capsys.readouterr().err
    assert run_cli(["frame", "--m", "8", "--n", "0"]) == 3


def test_frame_rejects_field_order_above_max_degree(capsys):
    m = 2 << gf2m.MAX_DEGREE
    assert run_cli(["frame", "--m", str(m), "--n", str(m - 1)]) == cli.EXIT_CONSTRUCT
    assert "power of two" in capsys.readouterr().err


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_frame_at_m_65536_forms_no_dense_matrix():
    # The dense matrix would take 34 GB; under the 2 GiB cap a dense build
    # fails with MemoryError instead of exhausting the machine.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "compdet.cli", "frame", "--m", "65536", "--n", "65535"],
                          capture_output=True, text=True, timeout=120, env=env,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    report = dict(zip(*(line.split(",") for line in proc.stdout.splitlines())))
    assert float(report["coherence"]) == float(report["coherence_bound"]) == 1 / 65535
    assert float(report["row_orthonormality_error"]) == 0.0


# --- simulate subcommand ---

SIM_ARGS = [
    "simulate", "--m", "8", "--t", "16", "--n", "7", "--snr", "2",
    "--trials", "400", "--seed", "5", "--detectors", "mf,ml,mrdd,rdd",
]


def test_simulate_csv_schema(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == GOLDEN_HEADER
    assert len(lines) == 5  # header + one row per detector
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["detector"] == "mf"
    assert row["m"] == "8" and row["n"] == "7" and row["seed"] == "5"
    assert float(row["p_hat"]) == int(row["errors"]) / 400
    rdd_row = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert rdd_row["detector"] == "rdd"
    assert rdd_row["theory_exponent"] == "" and rdd_row["bound_upper"] == ""


def test_simulate_bytes_identical_across_threads(tmp_path):
    outputs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"sim_{threads}.csv"
        assert run_cli(SIM_ARGS + ["--out", str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_mf_only_leaves_compression_columns_empty(tmp_path):
    out = tmp_path / "mf.csv"
    args = ["simulate", "--m", "8", "--t", "16", "--snr", "2", "--trials", "100",
            "--detectors", "mfml", "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["n"] == "" and row["alpha"] == ""
    assert row["bound_upper"] != ""


def test_simulate_rejects_zero_trials(capsys):
    args = ["simulate", "--m", "8", "--t", "16", "--snr", "2", "--trials", "0",
            "--detectors", "mf"]
    assert run_cli(args) == 2
    assert "trials" in capsys.readouterr().err


def test_simulate_rejects_missing_required(capsys):
    assert run_cli(["simulate", "--m", "8"]) == 2


def test_simulate_rejects_field_order_above_max_degree(capsys):
    m = str(2 << gf2m.MAX_DEGREE)
    args = ["simulate", "--m", m, "--t", m, "--n", "7", "--snr", "1", "--trials", "1",
            "--detectors", "ml"]
    assert run_cli(args) == cli.EXIT_CONFIG
    assert "power of two" in capsys.readouterr().err


def test_simulate_full_precision_floats(tmp_path):
    out = tmp_path / "prec.csv"
    assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    # 17 significant digits round-trip exactly
    assert float(row["bound_upper"]) == 0.12031080200126874


# --- config files ---

def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = {"m": 8, "t": 16, "n": 7, "snr": 2.0, "trials": 200,
           "detectors": ["ml"], "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", str(path), "--seed", "2", "--out", str(out2)]) == 0
    row1 = out1.read_text().splitlines()[1].split(",")
    row2 = out2.read_text().splitlines()[1].split(",")
    assert row1[-2] == "1" and row2[-2] == "2"  # seed column reflects override


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 8, "t": 16, "snr": 2.0, "trials": 10, "bogus": 1}))
    assert run_cli(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "bad.json" in err


def test_config_file_missing_is_config_error(tmp_path, capsys):
    assert run_cli(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_config_error_names_setting_source(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 8, "t": 16, "n": 7, "snr": 2.0, "trials": 10,
                                "detectors": ["ml"]}))
    assert run_cli(["simulate", "--config", str(path), "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert "trials" in err and "--trials flag" in err and "cfg.json" in err


# --- sweep subcommand ---

def test_sweep_theory_only_alpha_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--m", "64", "--t", "128", "--snr", "4", "--trials", "1",
            "--theory-only", "--axis", "alpha",
            "--values", "0.1,0.2,0.5,1.0", "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == GOLDEN_HEADER
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    ml_rows = [r for r in rows if r["detector"] == "ml"]
    assert len(ml_rows) == 4
    assert {r["detector"] for r in rows} == {"mfml", "ml", "mrdd"}
    assert all(r["alpha"] == "" for r in rows if r["detector"] == "mfml")
    for r in ml_rows:
        a = float(r["alpha"])
        expect = ((2.0 - 1 + a) / 2) * math.log(1 + a * 4.0 / 2)
        assert abs(float(r["theory_exponent"]) - expect) < 1e-12


def test_sweep_simulated_axis(tmp_path):
    out = tmp_path / "snr_sweep.csv"
    args = ["sweep", "--m", "8", "--t", "16", "--n", "7", "--snr", "1",
            "--trials", "100", "--detectors", "ml", "--seed", "3",
            "--axis", "snr", "--values", "0.5,2.0", "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[5]) == 0.5
    assert float(lines[2].split(",")[5]) == 2.0


def test_sweep_rejects_nonpositive_snr(capsys):
    args = ["sweep", "--m", "8", "--t", "16", "--n", "7", "--snr", "1",
            "--trials", "10", "--detectors", "ml", "--axis", "snr", "--values", "1,-2"]
    assert run_cli(args) == 2
    assert "-2" in capsys.readouterr().err


def test_sweep_rejects_bad_alpha_value(capsys):
    args = ["sweep", "--m", "64", "--t", "128", "--n", "63", "--snr", "2",
            "--trials", "10", "--detectors", "ml", "--axis", "alpha", "--values", "10"]
    assert run_cli(args) == 2


def test_simulate_rejects_collapsing_frame(capsys):
    args = ["simulate", "--m", "64", "--t", "128", "--n", "7", "--snr", "2",
            "--trials", "200", "--detectors", "ml"]
    assert run_cli(args) == cli.EXIT_CONFIG
    assert "coherence" in capsys.readouterr().err


# --- validate subcommand ---

def test_validate_quick_passes(capsys):
    assert run_cli(["validate", "--quick", "--seed", "0", "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    for name in ("frame-geometry", "wishart-projection-ks", "bound-sandwich",
                  "detector-ordering"):
        assert name in out


def test_validate_wishart_check_draws_once(monkeypatch):
    # The exact-dof KS test, the mean ratio and the wrong-dof control all
    # read one sample array; the detail line is pinned at seed 0.
    calls = []
    real_sample = stats.sample_pair_distance2

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(stats, "sample_pair_distance2", counted)
    ok, detail = cli._check_wishart(0, 2000)
    assert ok and calls == [2000]
    assert detail == ("KS D=0.0211 (crit 0.0364), mean ratio 1.013, "
                      "wrong-dof D=0.3362 rejected")


def test_validate_full_feeds_both_checks_from_one_run(monkeypatch, capsys):
    # bound-sandwich and detector-ordering share config and seed in full mode,
    # so one experiment (shrunk here) serves both.
    specs = []
    real_run = harness.run

    def shrunk_run(spec, threads=1):
        specs.append(spec)
        return real_run(dataclasses.replace(spec, trials=2000), threads=threads)

    monkeypatch.setattr(harness, "run", shrunk_run)
    run_cli(["validate", "--seed", "0"])
    assert [(s.detectors, s.trials, s.snr) for s in specs] == [(("mfml", "ml", "mrdd"), 100_000, 2.0)]
    sandwich = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("bound-sandwich"))
    assert "ml:" in sandwich and "mrdd:" in sandwich and "mfml" not in sandwich


def test_validate_ordering_fails_on_too_few_errors(monkeypatch):
    # The ordering check must not pass on runs that see (almost) no errors.
    real_run = harness.run
    monkeypatch.setattr(harness, "run",
                        lambda spec, threads=1: real_run(dataclasses.replace(spec, trials=200),
                                                         threads=threads))
    ok, detail = cli._check_ordering(0, True, 1)
    assert not ok
    assert "insufficient errors" in detail
