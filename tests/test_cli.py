"""End-to-end CLI behavior: outputs, exit codes, report files."""

import csv
import json
import os
import subprocess
import sys

import pytest

from genfrac.cli import main

RL_FLAGS = ["--alpha", "1", "--beta", "1", "--rho", "1", "--eta", "0", "--kappa", "0"]


def run_cli(args):
    return main(args)


def test_eval_plain(capsys):
    code = run_cli(["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "const:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value = 2" in out
    assert "error_estimate" in out
    assert "evaluations" in out


def test_eval_half_order(capsys):
    code = run_cli([
        "eval", "--alpha", "0.5", "--beta", "0.5", "--rho", "1", "--eta", "0",
        "--kappa", "0", "--a", "0", "--x", "1", "--fn", "const:1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.1283791670955" in out


@pytest.mark.parametrize("x", ["inf", "nan"])
def test_eval_non_finite_x_exits_2(capsys, x):
    code = run_cli([
        "eval", "--alpha", "0.5", "--beta", "0.5", "--rho", "1", "--eta", "0",
        "--kappa", "0", "--a", "0", "--x", x, "--fn", "const:1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: evaluation point must be finite" in captured.err
    assert "value" not in captured.out


def test_eval_invalid_alpha_exits_2(capsys):
    code = run_cli([
        "eval", "--alpha", "-1", "--beta", "1", "--rho", "1", "--eta", "0",
        "--kappa", "0", "--a", "0", "--x", "2", "--fn", "const:1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha must be positive" in err


def test_eval_bad_fn_spec_exits_2(capsys):
    code = run_cli(["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "wat:1"])
    assert code == 2
    assert "wat" in capsys.readouterr().err


def test_eval_nonconvergence_exits_3(capsys):
    # constant function has no decay: the truncated -inf form cannot converge
    code = run_cli(["eval", *RL_FLAGS, "--a=-inf", "--x", "1", "--fn", "const:1"])
    assert code == 3
    assert "error" in capsys.readouterr().err.lower()


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["eval", "--alpha", "1"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--alpha", "0.5", "--beta", "0.5", "--rho", "1", "--eta", "0",
          "--kappa", "0", "--a", "0.5"], "riemann-liouville"),
        (["--alpha", "0.5", "--beta", "0", "--rho", "2", "--eta", "0.3",
          "--kappa", "-1.6", "--a", "0"], "erdelyi-kober"),
        (["--alpha", "0.5", "--beta", "0.5", "--rho", "2.5", "--eta", "0",
          "--kappa", "0", "--a", "0"], "katugampola"),
        (["--alpha", "0.5", "--beta", "0.1", "--rho", "1.3", "--eta", "0.2",
          "--kappa", "0.9", "--a", "0"], "generalized"),
    ],
)
def test_reduce_outputs(capsys, flags, expected):
    assert run_cli(["reduce", *flags]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_verify_single_theorem_passes(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = run_cli([
        "verify", "--theorem", "8", "--trials", "6", "--seed", "1",
        "--p", "2", "--m", "0.5", "--M", "2",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "T8:" in out and "OK" in out
    payload = json.loads(json_path.read_text())
    assert payload["theorems"]["T8"]["trials"] == 6
    assert payload["theorems"]["T8"]["failures"] == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 7  # header + one row per trial


def test_verify_all_with_equal_bounds(capsys):
    code = run_cli([
        "verify", "--theorem", "all", "--trials", "2", "--seed", "1",
        "--p", "2", "--m", "1", "--M", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    for tid in ("T8", "T9", "T10", "T11", "T12", "T13", "T14", "T15"):
        assert "%s:" % tid in out


def test_verify_rejects_bad_inputs(capsys):
    assert run_cli(["verify", "--theorem", "7", "--trials", "1", "--seed", "1",
                    "--p", "2", "--m", "1", "--M", "2"]) == 2
    assert run_cli(["verify", "--theorem", "8", "--trials", "1", "--seed", "1",
                    "--p", "2", "--m", "2", "--M", "1"]) == 2
    assert run_cli(["verify", "--theorem", "12", "--trials", "1", "--seed", "1",
                    "--p", "2", "--m", "1", "--M", "2", "--c", "1.5"]) == 2
    # T10 needs p > 1
    assert run_cli(["verify", "--theorem", "10", "--trials", "1", "--seed", "1",
                    "--p", "1", "--m", "0.5", "--M", "2"]) == 2
    # non-finite inputs are invalid parameters, not non-convergence
    for flags, message in ((["--p", "inf"], "p must be finite"),
                           (["--p", "2", "--x", "inf"], "x must be finite")):
        assert run_cli(["verify", "--theorem", "8", "--trials", "2", "--seed", "1",
                        "--m", "1", "--M", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert "error: %s" % message in captured.err
        assert "T8:" not in captured.out
    # running no trial must not print OK
    for trials in ("0", "-3"):
        assert run_cli(["verify", "--theorem", "8", "--trials", trials, "--seed", "1",
                        "--p", "2", "--m", "1", "--M", "2"]) == 2
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert "trials must be >= 1" in captured.err


def _strip_timestamp(payload: dict) -> dict:
    payload = dict(payload)
    payload["metadata"] = {
        k: v for k, v in payload["metadata"].items() if k != "timestamp"
    }
    return payload


def test_verify_json_deterministic_across_parallelism(tmp_path):
    out = []
    for threads in ("1", "3"):
        path = tmp_path / ("rep_%s.json" % threads)
        env = dict(os.environ, GENFRAC_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "genfrac.cli", "verify", "--theorem", "9",
             "--trials", "8", "--seed", "123", "--p", "2", "--m", "0.5",
             "--M", "2", "--json", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out.append(json.dumps(_strip_timestamp(json.loads(path.read_text())),
                              sort_keys=True))
    assert out[0] == out[1]


def test_oracle_smoke(capsys):
    code = run_cli(["oracle", "--x", "1.2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "points = 540" in out
    assert "max_rel_error" in out


@pytest.mark.parametrize(
    "flags, message",
    [(["--rel-tol", "0"], "rel_tol must be positive"),
     (["--x", "-1"], "evaluation point must exceed the lower bound"),
     (["--x", "inf"], "x must be finite"),
     (["--x", "nan"], "x must be finite")],
)
def test_oracle_bad_inputs_exit_2(capsys, flags, message):
    assert run_cli(["oracle", *flags]) == 2
    assert "error: %s" % message in capsys.readouterr().err
