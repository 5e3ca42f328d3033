"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 6 checks the pointwise lemmas with ``check_scalar_lemmas``, which
lives here with its own tests.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.errors import DomainError
from genfrac.functions import (
    Const,
    ExpPoly,
    Monomial,
    SinPos,
    TestFunction,
    generate_ratio_pair,
)
from genfrac.inequalities import (
    CheckConfig,
    SuiteConfig,
    TheoremId,
    _require,
    check_theorem,
    run_suite,
)
from genfrac.operator_core import (
    ClassicalKind,
    OperatorParams,
    evaluate,
    evaluate_classical,
)
from genfrac.oracle import sweep

NEG_INF = float("-inf")


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %d: %s (%s)" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (criterion, detail)


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst, results = sweep(x=1.5)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and len(results) == 540 and elapsed <= 60.0
    _verdict(1, ok, "540 points, max rel err %.3e, %.1f s" % (worst, elapsed))


def test_criterion_2_reduction_consistency():
    functions = [
        TestFunction(Const(1.3), (0.0, 10.0)),
        TestFunction(Monomial(2.0), (0.0, 10.0)),
        TestFunction(ExpPoly((0.1, 0.4, -0.2)), (0.0, 10.0)),
        TestFunction(SinPos(2.5, 0.7, 0.5, 1.5), (0.0, 10.0)),
    ]
    x = 1.5
    worst = 0.0

    cases = []
    for a in (0.0, 0.4):
        alpha = 0.8
        cases.append((
            OperatorParams(alpha=alpha, beta=alpha, rho=1.0, eta=0.0, kappa=0.0, lower=a),
            lambda f, a=a, alpha=alpha: evaluate_classical(
                ClassicalKind.RIEMANN_LIOUVILLE, alpha, f, (a,), x
            ),
        ))
        alpha, rho = 0.6, 2.0
        cases.append((
            OperatorParams(alpha=alpha, beta=alpha, rho=rho, eta=0.0, kappa=0.0, lower=a),
            lambda f, a=a, alpha=alpha, rho=rho: evaluate_classical(
                ClassicalKind.KATUGAMPOLA, alpha, f, (a,), x, rho=rho
            ),
        ))
        alpha, sigma, eta = 0.6, 2.0, 0.5
        cases.append((
            OperatorParams(
                alpha=alpha, beta=0.0, rho=sigma, eta=eta,
                kappa=-sigma * (alpha + eta), lower=a,
            ),
            lambda f, a=a, alpha=alpha, sigma=sigma, eta=eta: evaluate_classical(
                ClassicalKind.ERDELYI_KOBER, alpha, f, (a,), x, sigma=sigma, eta=eta
            ),
        ))
    for params, direct in cases:
        for f in functions:
            v1 = evaluate(params, f, x).value
            v2 = direct(f).value
            worst = max(worst, abs(v1 - v2) / abs(v2))
    ok_finite = worst <= 1e-8

    # truncated infinite-interval forms agree within their reported bounds
    decaying = TestFunction(ExpPoly((0.0, 0.0, -0.5)), (NEG_INF, 5.0))
    p_inf = OperatorParams(alpha=0.5, beta=1.0, rho=1.0, eta=0.0, kappa=0.0, lower=NEG_INF)
    gen = evaluate(p_inf, decaying, 1.0)
    weyl = evaluate_classical(ClassicalKind.WEYL, 0.5, decaying, (NEG_INF,), 1.0,
                              truncation_start=1.7)
    weyl_default = evaluate_classical(ClassicalKind.WEYL, 0.5, decaying, (NEG_INF,), 1.0)
    liou = evaluate_classical(ClassicalKind.LIOUVILLE, 0.5, decaying, (NEG_INF,), 1.0)
    budget = 10.0 * (gen.error_estimate + weyl.error_estimate)
    ok_trunc = abs(gen.value - weyl.value) <= budget and liou.value == weyl_default.value

    _verdict(2, ok_finite and ok_trunc,
             "finite forms max rel err %.3e, truncated gap %.3e <= %.3e"
             % (worst, abs(gen.value - weyl.value), budget))


def test_criterion_3_log_kernel_limit():
    alpha, x = 0.7, math.e
    f = TestFunction(Monomial(1.0), (1.0, 3.0))
    direct = evaluate_classical(ClassicalKind.HADAMARD, alpha, f, (1.0,), x).value
    diffs = []
    for rho in (1e-2, 1e-3, 1e-4):
        p = OperatorParams(alpha=alpha, beta=alpha, rho=rho, eta=0.0, kappa=0.0, lower=1.0)
        diffs.append(abs(evaluate(p, f, x).value - direct) / abs(direct))
    ok = diffs[0] > diffs[1] > diffs[2] and diffs[2] <= 1e-3
    _verdict(3, ok, "rel diffs %.3e > %.3e > %.3e, final <= 1e-3" % tuple(diffs))


def test_criterion_4_inequality_suite():
    start = time.monotonic()
    cfg = SuiteConfig(trials=1000, seed=20240811)
    report = run_suite(cfg, timestamp="acceptance")
    elapsed = time.monotonic() - start
    total = len(report.records)
    ok = (
        report.total_failures == 0
        and not report.inconclusive_over_threshold()
        and total == 8 * 1000
        and elapsed <= 600.0
    )
    _verdict(4, ok, "%d trials, %d failures, %d inconclusive, %.1f s"
             % (total, report.total_failures, report.total_inconclusive, elapsed))


def test_criterion_5_equality_tightness():
    from genfrac.inequalities import c1, c2, c6

    ok = (
        abs(c1(1.0, 1.0) - 1.0) == 0.0
        and abs(c2(1.0, 1.0) - 2.0) == 0.0
        and abs(c6(1.0, 1.0) - 0.25) == 0.0
    )
    worst = 0.0
    params = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    for seed in (1, 2, 3):
        pair = generate_ratio_pair(seed, 1.0, 1.0, (0.0, 1.0))
        cfg = CheckConfig(p=2.0)
        for theorem in (TheoremId.T8, TheoremId.T9, TheoremId.T15):
            chk = check_theorem(theorem, pair, params, 1.0, cfg)
            rel = abs(chk.lhs - chk.rhs) / abs(chk.rhs)
            worst = max(worst, rel)
            ok = ok and chk.satisfied and rel <= 1e-10
        chk = check_theorem(TheoremId.T14, pair, params, 1.0, cfg)
        rel = max(abs(chk.lhs - chk.mid) / abs(chk.mid),
                  abs(chk.mid - chk.rhs) / abs(chk.rhs))
        worst = max(worst, rel)
        ok = ok and chk.satisfied and rel <= 1e-10
    _verdict(5, ok, "worst equality-case relative margin %.3e" % worst)


def check_scalar_lemmas(r: float, a: float, b: float) -> bool:
    """Pointwise lemmas used inside the derivations.

    Checks a*b <= a^r/r + b^s/s with s conjugate to r, and the power-mean
    bound (a+b)^r <= 2^(r-1) (a^r + b^r); the exponent is r-1 (the value a
    dimension check forces), not the constant p-1 printed alongside it.
    Requires r > 1 and a, b >= 0.  A few-ulp guard absorbs float rounding.
    """
    _require(r > 1.0, "require r > 1")
    _require(a >= 0.0 and b >= 0.0, "require a, b >= 0")
    s = r / (r - 1.0)

    def pw(base, expo):
        # conjugate exponents blow up as r -> 1+; overflow means the bound
        # side is huge, not that the inequality fails
        try:
            return base ** expo
        except OverflowError:
            return math.inf

    young_rhs = pw(a, r) / r + pw(b, s) / s
    guard = 8.0 * 2.220446049250313e-16
    young_ok = a * b <= young_rhs + guard * max(a * b, young_rhs, 1e-300)
    pm_lhs = pw(a + b, r)
    pm_rhs = pw(2.0, r - 1.0) * (pw(a, r) + pw(b, r))
    pm_ok = pm_lhs <= pm_rhs + guard * max(pm_lhs, pm_rhs, 1e-300)
    return young_ok and pm_ok


def test_scalar_lemma_examples():
    assert check_scalar_lemmas(2.0, 1.0, 1.0)  # 1 <= 1/2 + 1/2
    assert check_scalar_lemmas(2.0, 0.0, 5.0)  # 0 <= b^q/q
    with pytest.raises(DomainError):
        check_scalar_lemmas(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        check_scalar_lemmas(2.0, -1.0, 1.0)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1.0 + 1e-6, max_value=5.0),
)
def test_scalar_lemma_fuzz(a, b, r):
    assert check_scalar_lemmas(r, a, b)


def test_criterion_6_scalar_lemma_fuzz():
    rng = np.random.default_rng(987654321)
    n = 100_000
    young_fail = 0
    for a, b, p in zip(
        rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 10.0, n), rng.uniform(1.0001, 5.0, n)
    ):
        if not check_scalar_lemmas(float(p), float(a), float(b)):
            young_fail += 1
    pm_fail = 0
    for a, b, r in zip(
        rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 10.0, n), rng.uniform(1.0001, 5.0, n)
    ):
        if not check_scalar_lemmas(float(r), float(a), float(b)):
            pm_fail += 1
    ok = young_fail == 0 and pm_fail == 0
    _verdict(6, ok, "%d + %d triples, %d violations" % (n, n, young_fail + pm_fail))


def test_criterion_7_report_determinism():
    # the JSON lists failures only; the CSV holds every trial's lhs, rhs and
    # slack, so both are compared
    def run(tmp: str, name: str):
        json_path, csv_path = os.path.join(tmp, name + ".json"), os.path.join(tmp, name + ".csv")
        proc = subprocess.run(
            [sys.executable, "-m", "genfrac.cli", "verify", "--theorem", "all",
             "--trials", "50", "--seed", "123", "--p", "2", "--m", "0.5", "--M", "2",
             "--json", json_path, "--csv", csv_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(json_path) as handle:
            payload = json.load(handle)
        payload["metadata"].pop("timestamp")
        with open(csv_path, "rb") as handle:
            table = handle.read()
        return json.dumps(payload, sort_keys=True), table

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        first = run(tmp, "a")
        second = run(tmp, "b")
    trials = first[1].count(b"\n") - 1
    ok = first == second and trials == 8 * 50
    _verdict(7, ok, "run-to-run determinism: two runs' JSON byte-identical modulo "
                    "timestamp, and their %d-trial CSVs byte-identical" % trials)
