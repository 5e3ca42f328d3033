"""End-to-end CLI behavior: outputs, exit codes, report files."""

import csv
import json
import subprocess
import sys

import pytest

from genfrac import cli
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


@pytest.mark.parametrize("flags", [
    ["--a", "0", "--x", "1"],
    ["--a=0.5", "--x", "1.5"],
    ["--a=0", "--x", "0.8", "--side", "right", "--upper", "2"],
])
def test_eval_constant_sinpos_prints_what_const_prints(capsys, flags):
    point = ["--alpha", "0.5", "--beta", "0.5", "--rho", "2", "--eta", "0.3", "--kappa", "0.1"]
    outputs = []
    for fn in ("sinpos:2,0,1,1", "const:1"):
        assert run_cli(["eval", *point, *flags, "--fn", fn]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("name", ["beta", "eta", "kappa"])
def test_eval_nan_parameter_exits_2(capsys, name):
    flags = {"--alpha": "0.5", "--beta": "0.5", "--rho": "1", "--eta": "0",
             "--kappa": "0", "--a": "0", "--x": "1", "--fn": "const:1"}
    flags["--" + name] = "nan"
    code = run_cli(["eval", *(item for pair in flags.items() for item in pair)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: %s must be finite" % name in captured.err
    assert "value" not in captured.out


def test_eval_invalid_alpha_exits_2(capsys):
    code = run_cli([
        "eval", "--alpha", "-1", "--beta", "1", "--rho", "1", "--eta", "0",
        "--kappa", "0", "--a", "0", "--x", "2", "--fn", "const:1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha must be positive" in err


@pytest.mark.parametrize("flags", [
    ["--beta", "-900", "--rho", "3", "--kappa", "0", "--x", "2"],
    ["--beta", "0.5", "--rho", "1", "--kappa", "2000", "--x", "2"],
    ["--beta", "-900", "--rho", "3", "--kappa", "0", "--x", "1",
     "--side", "right", "--upper", "2"],
])
def test_eval_prefactor_overflow_exits_2(capsys, flags):
    code = run_cli(["eval", "--alpha", "0.5", "--eta", "0", "--a", "0",
                    "--fn", "const:1", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: operator prefactor is beyond the float range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_eval_value_overflow_exits_2(capsys):
    # the prefactor 2^700 is a float, but prefactor times integral is not
    code = run_cli(["eval", "--alpha", "0.5", "--beta", "0.5", "--rho", "1", "--eta", "0",
                    "--kappa", "700", "--a", "0", "--x", "2", "--fn", "mono:sigma=400"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: operator value is beyond the float range" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--alpha", "0.7", "--beta", "0.7", "--rho", "2", "--a", "0"],
    ["--alpha", "0.7", "--beta", "0.7", "--rho", "2", "--a", "1"],
    ["--alpha", "2", "--beta", "1", "--rho", "1", "--a", "0"],
])
def test_eval_kernel_scale_overflow_exits_2(capsys, flags):
    code = run_cli(["eval", *flags, "--eta", "0", "--kappa", "0", "--x", "1e200",
                    "--fn", "const:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: kernel scale is beyond the float range\n"
    assert captured.out == ""


@pytest.mark.parametrize("eta, kappa, factor", [
    ("5", "0", "kernel scale"), ("0", "5", "operator prefactor"),
])
def test_eval_factor_underflow_exits_2(capsys, eta, kappa, factor):
    # x^(eta + alpha) or x^kappa rounds to 0.0; it used to print 0 +- 0
    code = run_cli(["eval", "--alpha", "0.5", "--beta", "0.5", "--rho", "1", "--eta", eta,
                    "--kappa", kappa, "--a", "0", "--x", "1e-300", "--fn", "const:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: %s is below the float range\n" % factor
    assert captured.out == ""


def test_eval_bad_fn_spec_exits_2(capsys):
    code = run_cli(["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "wat:1"])
    assert code == 2
    assert "wat" in capsys.readouterr().err


def test_eval_const_with_two_values_exits_2(capsys):
    code = run_cli(["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "const:1,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: const needs one value (got 2 values) in 'const:1,2'\n"
    assert captured.out == ""


def test_eval_upper_without_right_side_exits_2(capsys):
    # --upper used to be ignored on the left side, printing the value without it
    code = run_cli(["eval", "--alpha", "0.7", "--beta", "0.2", "--rho", "1.5", "--eta", "0.3",
                    "--kappa", "0.1", "--a=0", "--x", "0.8", "--upper", "2",
                    "--fn", "sinpos:2,0,0.5,1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --upper applies to the right-sided form only (use --side right)\n"
    assert captured.out == ""


def test_eval_non_finite_fn_value_exits_2(capsys):
    code = run_cli(["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "const:nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: non-finite numeric token 'nan' in 'const:nan'\n"
    assert captured.out == ""


def test_eval_non_finite_integrand_exits_3_without_warning():
    # exp(1e308 + 1e308 t) overflows at every node; in a subprocess, where
    # numpy's overflow warning would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "genfrac.cli", "eval", *RL_FLAGS, "--a", "0", "--x", "1",
         "--fn", "expoly:1e308,1e308"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines()[0] == (
        "error: integrand is not finite at the quadrature nodes (65 evaluations made)")
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""


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


def test_reduce_nan_lower_exits_2(capsys):
    code = run_cli(["reduce", "--alpha", "0.5", "--beta", "0.5", "--rho", "1",
                    "--eta", "0", "--kappa", "0", "--a", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: lower bound must not be NaN" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "-1", "tol must be a finite number >= 0, got -1.0"),
    ("--tol", "nan", "tol must be a finite number >= 0, got nan"),
    ("--rho-limit-tol", "nan", "rho_limit_tol must be a finite number >= 0, got nan"),
    ("--rho-limit-tol", "-1", "rho_limit_tol must be a finite number >= 0, got -1.0"),
])
def test_reduce_bad_tolerance_exits_2(capsys, flag, value, message):
    # --tol -1 and --tol nan used to print generalized for this
    # Riemann-Liouville point and exit 0
    code = run_cli(["reduce", "--alpha", "0.5", "--beta", "0.5", "--rho", "1",
                    "--eta", "0", "--kappa", "0", "--a", "0", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "reduce"])
@pytest.mark.parametrize("name", ["alpha", "rho"])
def test_infinite_alpha_rho_exit_2(capsys, command, name):
    # eval used to print value = nan and exit 0
    flags = {"--alpha": "0.5", "--beta": "0.5", "--rho": "1", "--eta": "0",
             "--kappa": "0", "--a": "0"}
    if command == "eval":
        flags.update({"--x": "1", "--fn": "const:1"})
    flags["--" + name] = "inf"
    code = run_cli([command, *(item for pair in flags.items() for item in pair)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: %s must be positive and finite" % name in captured.err
    assert captured.out == ""


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
                           (["--p", "2", "--x", "inf"], "x must be finite"),
                           (["--p", "2", "--M", "inf"], "M must be finite"),
                           (["--p", "2", "--M", "1e308"], "pair is not finite"),
                           (["--p", "2", "--slack-factor", "inf"],
                            "require positive finite slack_factor")):
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


@pytest.mark.parametrize("x, message", [("0", "x must be positive, got 0.0"),
                                         ("-1", "x must be positive, got -1.0")])
def test_verify_at_x_not_positive_writes_no_report(capsys, tmp_path, x, message):
    # x = 0 used to fail at the first trial, after an empty --json file was made
    json_path = tmp_path / "r.json"
    code = run_cli(["verify", "--theorem", "8", "--trials", "2", "--seed", "1",
                    "--p", "2", "--m", "0.5", "--M", "2", "--x=" + x,
                    "--json", str(json_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not json_path.exists()


def test_verify_records_c_as_given(capsys, tmp_path):
    # c/m*m is 0.4610000000000001 here: the report must not round-trip c
    csv_path = tmp_path / "report.csv"
    code = run_cli(["verify", "--theorem", "12", "--trials", "2", "--seed", "1",
                    "--p", "2", "--m", "1.091", "--M", "2", "--c", "0.461",
                    "--csv", str(csv_path)])
    assert code == 0, capsys.readouterr().err
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["c"] for row in rows] == ["0.461", "0.461"]


def test_verify_rejects_config_before_any_trial(capsys, monkeypatch):
    import genfrac.inequalities as inequalities

    calls = []

    def spy(real):
        def generate(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return generate

    for name in ("generate_ratio_pair", "generate_box_pair"):
        monkeypatch.setattr(inequalities, name, spy(getattr(inequalities, name)))
    code = run_cli(["verify", "--theorem", "all", "--trials", "2", "--seed", "1",
                    "--p", "1", "--m", "0.5", "--M", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: T10 requires at least one p > 1" in captured.err
    assert calls == []
    assert captured.out == ""


def _strip_timestamp(payload: dict) -> dict:
    payload = dict(payload)
    payload["metadata"] = {
        k: v for k, v in payload["metadata"].items() if k != "timestamp"
    }
    return payload


def test_verify_json_deterministic_run_to_run(tmp_path):
    out = []
    for run in ("1", "2"):
        path = tmp_path / ("rep_%s.json" % run)
        proc = subprocess.run(
            [sys.executable, "-m", "genfrac.cli", "verify", "--theorem", "9",
             "--trials", "8", "--seed", "123", "--p", "2", "--m", "0.5",
             "--M", "2", "--json", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out.append(json.dumps(_strip_timestamp(json.loads(path.read_text())),
                              sort_keys=True))
    assert out[0] == out[1]


def test_verify_overflowing_rows_exit_3_without_warning():
    # in a subprocess, where numpy's overflow warning would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "genfrac.cli", "verify", "--theorem", "8", "--trials", "3",
         "--seed", "1", "--p", "2", "--m", "0.5", "--M", "1e300"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert ("INCONCLUSIVE: 3 trial(s) inconclusive: quadrature did not converge "
            "or an integrand row was not finite") in proc.stdout.splitlines()
    assert "RuntimeWarning" not in proc.stderr


def test_verify_on_a_domain_where_the_exponent_overflows_exits_2(capsys):
    # in-process, so a numpy RuntimeWarning would be raised as an error; one
    # of the two trials draws a quadratic exponent, which is not finite on
    # [0, 1e300] (it used to warn and leave both trials inconclusive)
    code = run_cli(["verify", "--theorem", "8", "--trials", "2", "--seed", "1", "--p", "2",
                    "--m", "0.5", "--M", "2", "--x=1e300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: random exponent is not finite on the domain [0.0, 1e+300]\n"
    assert captured.out == ""


def test_oracle_overflowing_integrand_exits_3_without_warning(capsys):
    # in-process, so a numpy RuntimeWarning would be raised as an error
    code = run_cli(["oracle", "--x", "1e200"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines()[0] == (
        "error: integrand is not finite at the quadrature nodes (81 evaluations made)")
    assert captured.out == ""


def test_oracle_where_closed_forms_underflow_exits_2(capsys):
    # at x = 1e-300, 506 of the 540 closed forms round to 0.0, which the
    # relative error used to divide by
    code = run_cli(["oracle", "--x", "1e-300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: closed-form value is below the float range\n"
    assert "Traceback" not in captured.err and captured.out == ""
    # subnormal closed forms are still compared
    assert run_cli(["oracle", "--x", "1e-31"]) == 0
    assert "points = 540" in capsys.readouterr().out


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
     (["--x", "nan"], "x must be finite"),
     (["--threshold", "nan"], "threshold must be a number >= 0, got nan"),
     (["--threshold", "-1"], "threshold must be a number >= 0, got -1.0")],
)
def test_oracle_bad_inputs_exit_2(capsys, flags, message):
    assert run_cli(["oracle", *flags]) == 2
    assert "error: %s" % message in capsys.readouterr().err


@pytest.mark.parametrize("threshold, code", [("0", 1), ("inf", 0)])
def test_oracle_threshold_decides_the_exit_code(capsys, threshold, code):
    # the sweep's worst error is a few ulps: above 0, below inf
    assert run_cli(["oracle", "--threshold", threshold]) == code
    out = capsys.readouterr().out
    assert "max_rel_error" in out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL:")]
    if code == 1:
        worst = out.split("max_rel_error = ")[1].split()[0]
        assert fail_lines == ["FAIL: max_rel_error %s exceeds threshold 0" % worst]
    else:
        assert fail_lines == []


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "8", "--trials", "2", "--seed", "1", "--p", "2", "--m", "0.5",
     "--M", "2", "--json", "{missing}/r.json"],
    ["verify", "--theorem", "8", "--trials", "2", "--seed", "1", "--p", "2", "--m", "0.5",
     "--M", "2", "--json", "{ok}/r.json", "--csv", "{missing}/r.csv"],
    ["oracle", "--json", "{missing}/r.json"],
])
def test_unwritable_report_path_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv):
    # these used to run every trial, or the whole sweep, print the summary and
    # end in a FileNotFoundError traceback with exit 1
    def must_not_run(*args, **kwargs):
        raise AssertionError("the work ran before the report path was checked")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    monkeypatch.setattr(cli, "sweep", must_not_run)
    paths = {"missing": str(tmp_path / "missing"), "ok": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 2
    bad = argv[-1]
    assert captured.err == (
        "error: cannot write report %r: No such file or directory\n" % bad)
    assert captured.out == ""


def test_main_builds_the_parser_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_cli(["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "const:1"]) == 0
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_parser_reuse_survives_usage_errors_and_version(capsys):
    argv = ["eval", *RL_FLAGS, "--a", "0", "--x", "2", "--fn", "const:1"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["eval", "--alpha", "1"])
    assert exc_info.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("genfrac ")
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["eval", "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert "--fn" in out and "--side" in out
