"""Theorem checks: constants, equality cases, random trials, suite plumbing."""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac import inequalities
from genfrac.errors import DomainError
from genfrac.functions import (
    Const,
    ExpPoly,
    PairKind,
    PositivePair,
    Product,
    SinPos,
    TestFunction,
    generate_box_pair,
    generate_ratio_pair,
)
from genfrac.inequalities import (
    CheckConfig,
    InequalityCheck,
    SuiteConfig,
    SuiteReport,
    TheoremId,
    TrialRecord,
    c1,
    c2,
    c3,
    c4,
    c5,
    c6,
    check_theorem,
    default_operator_grid,
    run_suite,
)
from genfrac.inequalities import (
    _BISECT_LEVELS,
    _BUILDERS,
    _KINK_GRID,
    _Check,
    _Sides,
    _kinks,
    _row_values,
    _side_ends,
    _sign_crossings,
    _t15,
    _verdict,
)
from genfrac.operator_core import OperatorParams, Side
from genfrac.quadrature import QuadratureConfig

RL_HALF = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
RL_ONE = OperatorParams(alpha=1.0, beta=1.0, rho=1.0, eta=0.0, kappa=0.0)
KAT = OperatorParams(alpha=0.8, beta=0.8, rho=2.0, eta=0.0, kappa=0.0)
EK = OperatorParams(alpha=0.5, beta=0.0, rho=2.0, eta=0.5, kappa=-2.0)

DOMAIN = (0.0, 1.0)
X = 1.0


def _const_pair(fv, gv, m=None, M=None):
    f = TestFunction(Const(fv), DOMAIN)
    g = TestFunction(Const(gv), DOMAIN)
    r = fv / gv
    return PositivePair(f, g, m if m is not None else r, M if M is not None else r,
                        PairKind.RATIO_BOUNDED)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constant_values():
    assert c1(1.0, 1.0) == pytest.approx(1.0, abs=0)
    assert c2(1.0, 1.0) == pytest.approx(2.0, abs=0)
    assert c6(1.0, 1.0) == pytest.approx(0.25, abs=0)
    # p = q = 2: c3 = 2 M^2 / (2 (M+1)^2), c4 = 2 / (2 (m+1)^2)
    assert c3(2.0, 1.0) == pytest.approx(0.25)
    assert c4(2.0, 1.0) == pytest.approx(0.25)


def test_c4_statement_variant():
    # q = 1.5 conjugate to p = 3: derivation uses 2^(q-1), statement 2^(p-1)
    q, m = 1.5, 0.7
    proof = c4(q, m)
    statement = c4(q, m, statement_constants=True)
    assert proof == pytest.approx(2.0 ** 0.5 / (q * (m + 1.0) ** q))
    assert statement == pytest.approx(2.0 ** 2.0 / (q * (m + 1.0) ** q))


def test_constant_domain_errors():
    with pytest.raises(DomainError):
        c1(2.0, 1.0)
    with pytest.raises(DomainError):
        c2(0.0, 1.0)
    with pytest.raises(DomainError):
        c3(1.0, 1.0)  # needs p > 1
    with pytest.raises(DomainError):
        c5(0.0, 1.0, 1.0, 2.0)


def test_c3_c4_default_constants_keep_the_direct_formulas():
    # the overflow fallback must not move any constant the suite uses
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        for m, M in ((0.5, 2.0), (1.0, 1.0), (0.9, 1.1)):
            assert c3(p, M) == 2.0 ** (p - 1.0) * M ** p / (p * (M + 1.0) ** p)
            assert c4(q, m) == 2.0 ** (q - 1.0) / (q * (m + 1.0) ** q)
            assert c4(q, m, statement_constants=True) == (
                2.0 ** (p - 1.0) / (q * (m + 1.0) ** q))


def test_c3_c4_past_the_direct_formulas_range():
    # M ** p overflows; the constant tends to 2^(p-1)/p
    assert c3(2.0, 1e200) == pytest.approx(1.0, rel=1e-15)
    assert c3(3.0, 1e300) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert c3(2.0, 1.3e154) == pytest.approx(1.0, rel=1e-15)  # was inf / inf = nan
    assert c3(2000.0, 1.0) == pytest.approx(1.0 / 4000.0, rel=1e-12)  # 2^1999 overflows
    # p = 1.0001: q = 10001, 2^(q-1) / (q 1.5^q) ~ e^2876 is not a float
    q = CheckConfig(p=1.0001).q
    with pytest.raises(DomainError, match="c4"):
        c4(q, 0.5)
    assert c4(q, 0.5, statement_constants=True) == 0.0  # ~1e-1765 rounds to zero


@pytest.mark.parametrize("flags", [
    ["--theorem", "11", "--p", "2", "--M", "1e200"],
    ["--theorem", "11", "--p", "1.0001", "--M", "2"],
    ["--theorem", "all", "--p", "2", "--M", "1e300"],
])
def test_verify_with_extreme_constants_exits_without_traceback(flags):
    # in a subprocess: the exit code and stderr are those a user of the console sees
    proc = subprocess.run(
        [sys.executable, "-m", "genfrac.cli", "verify", "--trials", "3", "--seed", "1",
         "--m", "0.5", *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (2, 3), (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr
    if "1.0001" in flags:
        assert proc.returncode == 2 and "error: c4" in proc.stderr


@pytest.mark.parametrize("theorem", [TheoremId.T8, TheoremId.T15])
def test_overflowing_rows_are_inconclusive_without_warnings(theorem):
    # f**p, and T15's kink difference, overflow at M = 1e300; under pytest a
    # RuntimeWarning would be an error
    cfg = SuiteConfig(theorems=(theorem,), trials=3, seed=1, p_values=(2.0,),
                      ratio_bounds=((0.5, 1e300),))
    before = np.geterr()
    report = run_suite(cfg)
    assert report.total_inconclusive == 3 and report.total_failures == 0
    assert np.geterr() == before


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_c1_at_least_one(m, scale):
    M = m * scale
    value = c1(m, M)
    assert value >= 1.0 - 1e-15
    # closed form of the excess
    assert value - 1.0 == pytest.approx((M - m) / ((m + 1.0) * (M + 1.0)), rel=1e-12)


def test_c1_equality_iff_equal_bounds():
    assert c1(0.7, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert c1(0.7, 0.700001) > 1.0


def test_c5_constant_pair_equality():
    # f = A = a, g = B = b constants make both sides equal by construction
    a, b = 2.0, 0.5
    const = c5(a, a, b, b)
    lhs = a + b  # (I f^p)^(1/p) + (I g^p)^(1/p) scaled by (I 1)^(1/p)
    rhs = const * (a + b)
    assert rhs == pytest.approx(lhs, rel=1e-15)


# ---------------------------------------------------------------------------
# equality cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", [RL_HALF, RL_ONE, KAT, EK])
def test_equality_tightness_t8(params):
    pair = generate_ratio_pair(5, 1.0, 1.0, DOMAIN)
    chk = check_theorem(TheoremId.T8, pair, params, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)
    assert chk.constant == pytest.approx(1.0)


def test_equality_tightness_t9():
    pair = generate_ratio_pair(6, 1.0, 1.0, DOMAIN)
    chk = check_theorem(TheoremId.T9, pair, RL_HALF, X, CheckConfig(p=3.0))
    assert chk.status == "pass"
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)
    assert chk.constant == pytest.approx(2.0)


def test_equality_tightness_t14():
    pair = generate_ratio_pair(8, 1.0, 1.0, DOMAIN)
    chk = check_theorem(TheoremId.T14, pair, KAT, X, CheckConfig())
    assert chk.status == "pass"
    assert abs(chk.lhs - chk.mid) <= 1e-10 * abs(chk.mid)
    assert abs(chk.mid - chk.rhs) <= 1e-10 * abs(chk.rhs)


def test_equality_tightness_t15():
    pair = generate_ratio_pair(9, 1.0, 1.0, DOMAIN)
    chk = check_theorem(TheoremId.T15, pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)


def test_t10_identity_case():
    pair = generate_ratio_pair(10, 1.0, 1.0, DOMAIN)
    chk = check_theorem(TheoremId.T10, pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    # both sides reduce to I f
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)


# ---------------------------------------------------------------------------
# constant-pair arithmetic cases
# ---------------------------------------------------------------------------


def test_t9_constants_p1_equality():
    # f=2, g=1, m=M=2, p=1: both sides equal 5 (I 1)^2
    pair = _const_pair(2.0, 1.0)
    chk = check_theorem(TheoremId.T9, pair, RL_ONE, X, CheckConfig(p=1.0))
    assert chk.status == "pass"
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
    assert chk.constant == pytest.approx(c2(2.0, 2.0))


def test_t11_constants_equality():
    # f=g=1, p=q=2, m=M=1, alpha=1, x=1: lhs = 1 and rhs = (c3+c4)*2 = 1
    pair = _const_pair(1.0, 1.0)
    chk = check_theorem(TheoremId.T11, pair, RL_ONE, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    assert chk.lhs == pytest.approx(1.0, rel=1e-11)
    assert chk.rhs == pytest.approx(1.0, rel=1e-11)


def test_t12_proportional_pair_equality():
    # f = 2 g, m=M=2, c=1: f - c g = g and all three quantities coincide
    pair = _const_pair(3.0, 1.5)
    chk = check_theorem(TheoremId.T12, pair, RL_HALF, X, CheckConfig(p=2.0, c=1.0))
    assert chk.status == "pass"
    assert chk.lhs == pytest.approx(chk.mid, rel=1e-11)
    assert chk.mid == pytest.approx(chk.rhs, rel=1e-11)


def test_t12_rejects_c_at_or_above_m():
    pair = _const_pair(3.0, 1.5)
    with pytest.raises(DomainError):
        check_theorem(TheoremId.T12, pair, RL_HALF, X, CheckConfig(p=2.0, c=2.0))
    with pytest.raises(DomainError):
        check_theorem(TheoremId.T12, pair, RL_HALF, X, CheckConfig(p=2.0))  # c missing


@pytest.mark.parametrize("factor", [math.inf, math.nan, 0.0])
def test_check_config_rejects_bad_slack_factor(factor):
    # an infinite slack used to pass every check, violated or not
    with pytest.raises(DomainError, match="slack_factor"):
        CheckConfig(slack_factor=factor)


@pytest.mark.parametrize("p, message", [
    (math.inf, "p must be finite, got inf"),
    (-math.inf, "p must be finite, got -inf"),
    (math.nan, "p must be finite, got nan"),
    (0.5, "require p >= 1"),
])
def test_check_config_rejects_bad_p(p, message):
    # an infinite p used to pass construction and leave T8, T10 and T15
    # inconclusive, and T11 raising "require q > 1"
    with pytest.raises(DomainError, match=message):
        CheckConfig(p=p)


def test_t13_constant_boxes_equality():
    pair = generate_box_pair(3, 2.0, 2.0, 0.5, 0.5, DOMAIN)
    chk = check_theorem(TheoremId.T13, pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-11)


def test_t13_requires_box_pair():
    pair = generate_ratio_pair(4, 0.5, 2.0, DOMAIN)
    with pytest.raises(DomainError):
        check_theorem(TheoremId.T13, pair, RL_HALF, X, CheckConfig(p=2.0))


def test_t14_constants_equality():
    pair = _const_pair(3.0, 2.0)
    chk = check_theorem(TheoremId.T14, pair, RL_ONE, X, CheckConfig())
    assert chk.status == "pass"
    assert chk.lhs == pytest.approx(chk.mid, rel=1e-12)
    assert chk.mid == pytest.approx(chk.rhs, rel=1e-12)


def test_t15_constants_arithmetic():
    # f=3, g=2, m=M=1.5: h = max(1.5*(2.5*3/1.5 - 1.5*2), (3.5*2-3)/1.5)... = 4.5
    pair = _const_pair(3.0, 2.0)
    chk = check_theorem(TheoremId.T15, pair, RL_ONE, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    assert chk.lhs == pytest.approx(5.0, rel=1e-11)
    assert chk.rhs == pytest.approx(9.0, rel=1e-11)


def test_t8_p1_ratio_is_exactly_c1():
    # at p=1 linearity makes lhs = I(f+g), so rhs/lhs equals c1
    pair = generate_ratio_pair(21, 0.5, 2.0, DOMAIN)
    chk = check_theorem(TheoremId.T8, pair, RL_HALF, X, CheckConfig(p=1.0))
    assert chk.status == "pass"
    assert chk.rhs / chk.lhs == pytest.approx(c1(0.5, 2.0), rel=1e-9)


def test_t10_constants_arithmetic():
    # f=2, g=1, m=M=2, p=q=2: lhs = sqrt(2 I1) sqrt(I1), mixed = sqrt(2) I1
    pair = _const_pair(2.0, 1.0)
    chk = check_theorem(TheoremId.T10, pair, RL_ONE, X, CheckConfig(p=2.0))
    assert chk.status == "pass"
    assert chk.constant == pytest.approx(1.0)
    assert chk.lhs == pytest.approx(math.sqrt(2.0), rel=1e-11)
    assert chk.rhs == pytest.approx(math.sqrt(2.0), rel=1e-11)


def test_t10_requires_p_above_one():
    pair = _const_pair(2.0, 1.0)
    with pytest.raises(DomainError, match="T10 requires p > 1"):
        check_theorem(TheoremId.T10, pair, RL_ONE, X, CheckConfig(p=1.0))
    with pytest.raises(DomainError, match="T11 requires p > 1"):
        check_theorem(TheoremId.T11, pair, RL_ONE, X, CheckConfig(p=1.0))


# ---------------------------------------------------------------------------
# random trials
# ---------------------------------------------------------------------------

ALL_PARAMS = [RL_HALF, RL_ONE, KAT, EK]


@pytest.mark.parametrize("theorem, needs_c", [
    (TheoremId.T8, False), (TheoremId.T9, False), (TheoremId.T10, False),
    (TheoremId.T11, False), (TheoremId.T12, True), (TheoremId.T14, False),
    (TheoremId.T15, False),
])
def test_random_trials_hold(theorem, needs_c):
    for seed in range(6):
        params = ALL_PARAMS[seed % len(ALL_PARAMS)]
        pair = generate_ratio_pair(100 + seed, 0.5, 2.0, DOMAIN)
        cfg = CheckConfig(p=2.0, c=0.25 if needs_c else None)
        chk = check_theorem(theorem, pair, params, X, cfg)
        assert chk.status == "pass", (theorem, seed, chk)


def test_random_box_trials_hold():
    for seed in range(6):
        pair = generate_box_pair(200 + seed, 1.0, 2.0, 1.0, 3.0, DOMAIN)
        chk = check_theorem(TheoremId.T13, pair, ALL_PARAMS[seed % len(ALL_PARAMS)], X, CheckConfig(p=3.0))
        assert chk.status == "pass"


def _unshared(pair):
    """``pair`` with f's tree rebuilt on an equal copy of g's, so that
    ``values`` takes its fallback, ``(f(t), g(t))``."""
    r, g_expr = pair.f.expr.factors
    f = TestFunction(Product((r, dataclasses.replace(g_expr))), pair.f.domain)
    return dataclasses.replace(pair, f=f)


def test_checks_identical_with_and_without_shared_g_tree():
    cases = []
    for seed in range(4):
        for m, M in ((0.5, 2.0), (1.0, 1.0), (0.9, 1.1)):
            pair = generate_ratio_pair(300 + seed, m, M, DOMAIN)
            assert pair.f.expr.factors[1] is pair.g.expr
            twin = _unshared(pair)
            assert twin.f == pair.f and twin.f.expr.factors[1] is not twin.g.expr
            for theorem in TheoremId:
                if theorem is not TheoremId.T13:
                    c = 0.5 * m if theorem is TheoremId.T12 else None
                    cases.append((theorem, pair, twin, c))
    for seed in range(4):
        box = generate_box_pair(400 + seed, 1.0, 2.0, 1.0, 3.0, DOMAIN)
        cases.append((TheoremId.T13, box, box, None))
        cases.append((TheoremId.T15, box, box, None))
    for k, (theorem, pair, twin, c) in enumerate(cases):
        params = ALL_PARAMS[k % 4]
        if k % 5 == 4:
            params = dataclasses.replace(RL_HALF, lower=0.5)  # integrates over [0.5, 1]
        cfg = CheckConfig(p=(2.0, 3.0)[k % 2], c=c)
        shared = check_theorem(theorem, pair, params, X, cfg)
        fallback = check_theorem(theorem, twin, params, X, cfg)
        assert shared.status != "inconclusive"
        assert repr(shared) == repr(fallback), (theorem, k)


def test_t13_degenerate_box_matches_t8_on_constants():
    # equal boxes shrink to the ratio-bounded case with m = a/B, M = A/b
    pair_box = generate_box_pair(31, 1.0, 2.0, 1.0, 2.0, DOMAIN)
    const_t13 = c5(1.0, 2.0, 1.0, 2.0)
    const_t8 = c1(0.5, 2.0)
    assert const_t13 == pytest.approx(const_t8)


def test_constant_monotonicity_widening_bounds():
    pair = generate_ratio_pair(77, 0.9, 1.1, DOMAIN)
    assert c1(0.5, 2.0) >= c1(0.9, 1.1)
    widened = dataclasses.replace(pair, m=0.5, M=2.0)
    for theorem in (TheoremId.T8, TheoremId.T9, TheoremId.T14, TheoremId.T15):
        chk = check_theorem(theorem, widened, RL_HALF, X, CheckConfig(p=2.0))
        assert chk.status == "pass", theorem


# ---------------------------------------------------------------------------
# special-case coverage: classical parameterizations
# ---------------------------------------------------------------------------


def test_riemann_case_alpha_one():
    # alpha=1, rho=1 reduces the operator to the plain integral
    for seed in range(3):
        pair = generate_ratio_pair(300 + seed, 0.5, 2.0, DOMAIN)
        assert check_theorem(TheoremId.T8, pair, RL_ONE, X, CheckConfig(p=2.0)).status == "pass"
        assert check_theorem(TheoremId.T9, pair, RL_ONE, X, CheckConfig(p=2.0)).status == "pass"


@pytest.mark.parametrize("params, x, domain", [
    (dataclasses.replace(RL_HALF, upper=2.0, side=Side.RIGHT), 0.5, (0.0, 2.0)),
    (dataclasses.replace(RL_HALF, lower=-math.inf), X, (-6.0, 1.0)),
], ids=["right-sided", "truncated"])
def test_t15_off_the_finite_left_form_is_a_domain_error(params, x, domain, monkeypatch):
    # neither form takes breakpoints at T15's kinks; run without them, 28 of
    # these 40 right-sided trials and all 40 truncated ones are inconclusive
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(inequalities, "evaluate", no_integral)
    for seed in range(40):
        pair = generate_ratio_pair(seed, 0.5, 2.0, domain)
        with pytest.raises(DomainError, match="^T15 needs breakpoints at its kinks, "
                           "which only the finite left-sided form takes$"):
            check_theorem(TheoremId.T15, pair, params, x, CheckConfig(p=2.0))


# ---------------------------------------------------------------------------
# inconclusive handling
# ---------------------------------------------------------------------------


def test_inconclusive_marked_not_passed():
    # a 40-node budget is below the nodes of levels 0-3, so no integral converges
    pair = generate_ratio_pair(501, 0.5, 2.0, DOMAIN)
    cfg = CheckConfig(p=3.0)
    check = _BUILDERS[TheoremId.T8](pair, cfg)
    tight = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=40)
    vals = _row_values(check, pair, OperatorParams(0.35, 0.0, 1.0, 0.9, 0.0), X, tight)
    assert vals is None
    chk = _verdict(check, vals, cfg.slack_factor)
    assert chk.status == "inconclusive"
    assert all(math.isnan(v) for v in (chk.lhs, chk.rhs, chk.slack))


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def test_suite_counts_and_zero_violations():
    cfg = SuiteConfig(trials=24, seed=5)
    report = run_suite(cfg, timestamp="fixed")
    for stats in report.summary().values():
        assert stats["passes"] + stats["failures"] + stats["inconclusive"] == stats["trials"]
    assert report.total_failures == 0
    assert not report.inconclusive_over_threshold()


def _hand_built_report():
    # fail records (lhs raised past rhs, or past mid) and inconclusive ones
    # (NaN sides, as _verdict makes them) replace passing checks; T8's first
    # record is inconclusive, so its NaN margin would lead min_margin if counted
    cfg = SuiteConfig(theorems=(TheoremId.T14, TheoremId.T8), trials=6, seed=4)
    report = run_suite(cfg, timestamp="T")
    plan = {(TheoremId.T8, 0): "inconclusive", (TheoremId.T8, 2): "fail",
            (TheoremId.T8, 3): "fail", (TheoremId.T14, 1): "fail",
            (TheoremId.T14, 4): "inconclusive"}
    records = []
    for r in report.records:
        assert r.check.status == "pass"
        change = plan.get((r.theorem, r.index))
        if change == "fail":
            bump = 0.5 + 0.1 * r.index
            top = r.check.rhs if r.check.mid is None else r.check.mid
            r = dataclasses.replace(r, check=dataclasses.replace(
                r.check, lhs=top * (1.0 + bump), status="fail"))
            assert r.check.margin < 0.0
        elif change == "inconclusive":
            r = dataclasses.replace(r, check=InequalityCheck(
                math.nan, math.nan, r.check.constant, math.nan, "inconclusive"))
        records.append(r)
    report.records = records
    return report


def test_summary_tallies_pass_fail_and_inconclusive_records():
    report = _hand_built_report()
    cfg, records = report.config, report.records
    expected = {}
    for theorem in cfg.theorems:
        recs = [r for r in records if r.theorem is theorem]
        statuses = [r.check.status for r in recs]
        expected[theorem.value] = {
            "trials": len(recs),
            "passes": statuses.count("pass"),
            "failures": statuses.count("fail"),
            "inconclusive": statuses.count("inconclusive"),
            "min_margin": min(r.check.margin for r in recs if r.check.status != "inconclusive"),
        }
    summary = report.summary()
    assert summary == expected and list(summary) == ["T14", "T8"]
    assert [s["min_margin"] < 0.0 for s in summary.values()] == [True, True]
    statuses = [r.check.status for r in records]
    assert report.total_failures == statuses.count("fail") == 3
    assert report.total_inconclusive == statuses.count("inconclusive") == 2
    over = statuses.count("inconclusive") > 0.01 * len(records)
    assert over and report.inconclusive_over_threshold() == over
    failures = report.to_json_dict()["failures"]
    assert [(f["theorem"], f["trial"], f["status"]) for f in failures] == [
        (r.theorem.value, r.index, "fail") for r in records if r.check.status == "fail"]
    assert [f["margin"] for f in failures] == [
        r.check.margin for r in records if r.check.status == "fail"]
    rows = report.csv_rows()
    status_col, margin_col = rows[0].index("status"), rows[0].index("margin")
    assert [row[status_col] for row in rows[1:]] == statuses
    assert [row[margin_col] == "" for row in rows[1:]] == [s == "inconclusive" for s in statuses]


def test_totals_count_statuses_without_the_summary(monkeypatch):
    report = _hand_built_report()
    statuses = [r.check.status for r in report.records]

    def no_summary(self):
        raise AssertionError("summary() rebuilt for a total")

    monkeypatch.setattr(SuiteReport, "summary", no_summary)
    assert report.total_failures == statuses.count("fail") == 3
    assert report.total_inconclusive == statuses.count("inconclusive") == 2
    over = statuses.count("inconclusive") > 0.01 * len(statuses)
    assert report.inconclusive_over_threshold() is over is True


@pytest.mark.parametrize("kwargs, message", [
    (dict(trials=0), "trials must be >= 1"),
    (dict(theorems=()), "select at least one theorem"),
    (dict(p_values=(1.0,)), "T10 requires at least one p > 1"),
    (dict(c=0.6), "require 0 < c < m"),  # c < m for two of the three default bounds
    (dict(p_values=(), theorems=(TheoremId.T8,)), "p_values must not be empty"),
    (dict(ratio_bounds=()), "ratio_bounds must not be empty"),
    # a repeated theorem ran twice on the same pair seeds
    (dict(theorems=(TheoremId.T8, TheoremId.T8), trials=3),
     "theorems must be distinct TheoremId members"),
    (dict(theorems=("T8",)), "theorems must be distinct TheoremId members"),
    # every grid point has lower bound 0, so [0, x] would be empty or reversed
    (dict(x=0.0), "x must be positive, got 0.0"),
    (dict(x=-1.0), "x must be positive, got -1.0"),
])
def test_suite_config_rejects_at_construction(kwargs, message):
    with pytest.raises(DomainError, match=message):
        SuiteConfig(**kwargs)


def test_suite_run_to_run_determinism():
    base = dict(trials=10, seed=3)
    r1 = run_suite(SuiteConfig(**base), timestamp="T")
    r2 = run_suite(SuiteConfig(**base), timestamp="T")
    j1 = json.dumps(r1.to_json_dict(), sort_keys=True)
    j2 = json.dumps(r2.to_json_dict(), sort_keys=True)
    assert j1 == j2


def test_suite_records_in_theorem_then_index_order():
    cfg = SuiteConfig(trials=5, seed=1, theorems=(TheoremId.T15, TheoremId.T8))
    report = run_suite(cfg, timestamp="T")
    assert [(r.theorem, r.index) for r in report.records] == (
        [(TheoremId.T8, i) for i in range(5)] + [(TheoremId.T15, i) for i in range(5)]
    )


def test_suite_records_allow_exact_replay():
    cfg = SuiteConfig(trials=6, seed=11)
    report = run_suite(cfg, timestamp="fixed")
    assert {r.theorem for r in report.records} == set(cfg.theorems)
    for record in report.records:
        domain = (record.params.lower, record.x)
        if record.theorem is TheoremId.T13:
            pair = generate_box_pair(record.pair_seed, record.m, record.M,
                                     record.m, record.M, domain)
        else:
            pair = generate_ratio_pair(record.pair_seed, record.m, record.M, domain)
        chk = check_theorem(record.theorem, pair, record.params, record.x,
                            CheckConfig(p=record.p, c=record.c, slack_factor=cfg.slack_factor))
        got = (chk.lhs, chk.mid, chk.rhs, chk.slack, chk.constant)
        assert got == (record.check.lhs, record.check.mid, record.check.rhs,
                       record.check.slack, record.check.constant), record
    # the records are immutable and built by position or by keyword;
    # InequalityCheck's mid defaults to None
    assert [r.index for r in report.records] == list(range(6)) * len(cfg.theorems)
    record = report.records[0]
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    assert TrialRecord(*values.values()) == record == TrialRecord(**values)
    for target, field in ((record, "index"), (record.check, "lhs")):
        with pytest.raises(AttributeError):
            setattr(target, field, 0)
    one_sided = InequalityCheck(1.0, 3.0, 2.0, slack=0.1, status="pass")
    assert one_sided.mid is None
    assert one_sided.margin == 2.0 / 3.0
    assert InequalityCheck(1.0, 4.0, 2.0, 0.1, "pass", 2.0).margin == 0.25  # min(1, 2) / 4
    # a check's outcome is stored once, on the check
    assert [f.name for f in dataclasses.fields(InequalityCheck)] == [
        "lhs", "rhs", "constant", "slack", "status", "mid"]
    assert "status" not in {f.name for f in dataclasses.fields(TrialRecord)}


def _one_sided():
    return _Check(1.0, None, lambda lhs, rhs: _Sides(lhs, rhs))


def test_verdict_one_sided_passes_at_touching_ends_and_fails_one_ulp_above():
    # powers of two, so every bar end below is exact
    lhs_err, rhs_err, rhs = 2.0 ** -41, 2.0 ** -40, 2.0
    rhs_hi = rhs + 2.0 * rhs_err
    edge = rhs_hi + 2.0 * lhs_err  # lhs_lo == rhs_hi
    assert _side_ends(_one_sided(), [edge, rhs], [lhs_err, rhs_err], 2.0) == (
        [rhs_hi, rhs - 2.0 * rhs_err], [edge + 2.0 * lhs_err, rhs_hi])
    chk = _verdict(_one_sided(), ([edge, rhs], [lhs_err, rhs_err]), 2.0)
    assert chk.status == "pass"
    assert (chk.lhs, chk.rhs, chk.slack, chk.mid) == (edge, rhs, 2.0 * (lhs_err + rhs_err), None)
    above = math.nextafter(edge, math.inf)
    assert above - 2.0 * lhs_err == math.nextafter(rhs_hi, math.inf)
    assert _verdict(_one_sided(), ([above, rhs], [lhs_err, rhs_err]), 2.0).status == "fail"


def test_verdict_sandwich_fails_on_either_pair_alone_and_sums_both_slacks():
    check = _Check(0.5, None, lambda lo, mid, hi: _Sides(lo, hi, mid=mid))
    errs, factor = [2.0 ** -40, 2.0 ** -39, 2.0 ** -38], 4.0
    lo_err, mid_err, hi_err = errs
    hi = 1.0
    mid = hi + factor * hi_err + factor * mid_err  # mid_lo == hi_hi
    lo = mid + factor * mid_err + factor * lo_err  # lo_lo == mid_hi

    def judged(lo_value, mid_value):
        return _verdict(check, ([lo_value, mid_value, hi], errs), factor)

    chk = judged(lo, mid)
    assert chk.status == "pass" and (chk.lhs, chk.mid, chk.rhs) == (lo, mid, hi)
    assert chk.slack == factor * (lo_err + mid_err) + factor * (mid_err + hi_err)
    # one ulp up moves lo_lo past mid_hi alone, or mid_lo past hi_hi alone
    assert judged(math.nextafter(lo, math.inf), mid).status == "fail"
    assert judged(lo, math.nextafter(mid, math.inf)).status == "fail"


def test_verdict_clamps_a_bar_reaching_below_zero():
    # unclamped, the lower end 0.25 - 2.0 would make the root complex
    check = _Check(1.0, None, lambda a, b: _Sides(a ** 0.5, b))
    assert _side_ends(check, [0.25, 0.0], [1.0, 0.0], 2.0) == ([0.0, 0.0], [1.5, 0.0])
    chk = _verdict(check, ([0.25, 0.0], [1.0, 0.0]), 2.0)
    assert chk.status == "pass" and (chk.lhs, chk.rhs, chk.slack) == (0.5, 0.0, 0.5)


def test_t9_at_nonpositive_c2_orders_each_sides_ends(monkeypatch):
    # c2 < 0 makes T9's lhs fall as its rows rise, so its lower end comes
    # from the rows' upper bar ends; at c2 == 0 the lhs is 0.0 throughout
    assert c2(0.1, 10.0) < 0.0 and c2(0.5, 3.0) == 0.0
    seen = []

    def recording(check, vals, errs, slack_factor):
        ends = _side_ends(check, vals, errs, slack_factor)
        seen.append((check.combine(*vals).chain(), ends))
        return ends

    monkeypatch.setattr(inequalities, "_side_ends", recording)
    cfg = SuiteConfig(theorems=(TheoremId.T9,), trials=42, seed=1,
                      ratio_bounds=((0.1, 10.0), (0.5, 3.0)))
    report = run_suite(cfg, timestamp="T")
    assert [r.check.status for r in report.records] == ["pass"] * 42
    assert all(math.isfinite(r.check.slack) and r.check.slack >= 0.0 for r in report.records)
    assert {r.check.lhs < 0.0 for r in report.records if r.m == 0.1} == {True}
    assert {r.check.lhs for r in report.records if r.m == 0.5} == {0.0}
    assert len(seen) == 42
    for points, (lows, highs) in seen:
        assert all(lo <= v <= hi for v, lo, hi in zip(points, lows, highs)), (points, lows, highs)


def test_t10_paper_display_fails_only_under_statement_constants():
    # the display with an outer 1/p on the right-hand side is not
    # homogeneous in the operator, and random pairs violate it
    base = dict(theorems=(TheoremId.T10,), trials=200, seed=1, p_values=(1.5,),
                ratio_bounds=((0.5, 2.0),))
    assert run_suite(SuiteConfig(**base, statement_constants=True)).total_failures > 0
    assert run_suite(SuiteConfig(**base)).total_failures == 0


def test_suite_csv_shape():
    cfg = SuiteConfig(trials=4, seed=2, theorems=(TheoremId.T8, TheoremId.T14))
    report = run_suite(cfg, timestamp="fixed")
    rows = report.csv_rows()
    assert len(rows) == 1 + 2 * 4
    assert rows[0][0] == "theorem"
    payload = report.to_json_dict()
    assert set(payload) == {"metadata", "grid", "theorems", "failures"}


# ---------------------------------------------------------------------------
# kink finder
# ---------------------------------------------------------------------------


def _bisection_roots(diff, lo, hi, n=512):
    """Reference: 80 scalar bisection steps per sign-changing grid cell, each
    step evaluating ``diff`` at its one midpoint."""
    t = np.linspace(lo, hi, n)
    d = diff(t)
    roots = []
    for i in range(n - 1):
        if not ((d[i] > 0.0 and d[i + 1] <= 0.0) or (d[i] < 0.0 and d[i + 1] >= 0.0)):
            continue
        a, b, positive = t[i], t[i + 1], d[i] > 0.0
        for _ in range(80):
            mid = 0.5 * (a + b)
            dm = float(diff(np.array([mid]))[0])
            if dm == 0.0:
                a = b = mid
                break
            if (dm > 0.0) == positive:
                a = mid
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return tuple(roots)


def _t15_arms_difference(pair):
    # the two arms of the T15 maximum, from f and g evaluated apart
    m, M = pair.m, pair.M

    def diff(t):
        f, g = pair.f(t), pair.g(t)
        arm1 = M * (M / m + 1.0) * f + (-M * M) * g
        arm2 = (m + M) / m * g + (-1.0 / m) * f
        return np.asarray(arm1) - np.asarray(arm2)

    return diff


def _counted(diff):
    calls = []

    def wrapped(t):
        calls.append(np.size(t))
        return diff(t)

    return wrapped, calls


def test_kink_finder_matches_scalar_bisection_on_t15_pairs():
    found = 0
    for seed in range(24):
        for m, M in ((0.5, 2.0), (0.9, 1.1), (0.2, 5.0), (0.99, 1.01)):
            diff = _t15_arms_difference(generate_ratio_pair(seed, m, M, DOMAIN))
            roots = _sign_crossings(diff, *DOMAIN)
            assert roots == _bisection_roots(diff, *DOMAIN)
            found += len(roots)
    assert found >= 50


def test_kink_finder_several_brackets():
    roots = _sign_crossings(lambda t: np.sin(20.0 * t), 0.05, 1.0)
    exact = np.arange(1, 7) * np.pi / 20.0
    assert len(roots) == 6
    assert np.allclose(roots, exact, rtol=0.0, atol=1e-15)
    assert roots == _bisection_roots(lambda t: np.sin(20.0 * t), 0.05, 1.0)


def test_kink_finder_exact_zero_on_grid_node():
    node = np.linspace(0.0, 1.0, 512)[100]
    assert _sign_crossings(lambda t: t - node, 0.0, 1.0) == (node,)


def test_kink_finder_no_crossing():
    assert _sign_crossings(lambda t: 1.0 + t, 0.0, 1.0) == ()


_NODE = float(np.linspace(0.0, 1.0, _KINK_GRID)[100])
_NAN_PATCH = (0.4035, 0.4045)  # inside the grid cell that holds 0.405


def _nan_patch(sign):
    def diff(t):
        inside = (t > _NAN_PATCH[0]) & (t < _NAN_PATCH[1])
        return np.where(inside, np.nan, sign * (t - 0.405))
    return diff


@pytest.mark.parametrize(
    "diff, lo, hi, cells",
    [
        (lambda t: t - 1e-30, 0.0, 1.0, 1),  # no adjacent doubles within the level cap
        (lambda t: t - _NODE, 0.0, 1.0, 1),  # an exact zero on a grid node
        (lambda t: np.sin(20.0 * t), 0.05, 1.0, 6),
        (lambda t: np.sin(1e5 * t), 0.0, 1.0, 148),
        (lambda t: (t - 0.3) ** 3, 0.0, 1.0, 1),  # values at rounding level near the root
        (lambda t: np.where(t < 0.4123, 1.0, -1.0), 0.0, 1.0, 1),  # a step
        (_nan_patch(1.0), 0.0, 1.0, 1),
        (_nan_patch(-1.0), 0.0, 1.0, 1),
        (lambda t: 1e-300 * (t - 0.37), 0.0, 1.0, 1),  # d * d would underflow in every cell
    ],
    ids=["level-cap", "zero-on-node", "sin20", "sin1e5", "cube", "step",
         "nan-with-left-sign", "nan-with-right-sign", "tiny-line"],
)
def test_kink_finder_matches_scalar_bisection_on_adversarial_differences(diff, lo, hi, cells):
    counted, calls = _counted(diff)
    roots = _sign_crossings(counted, lo, hi)
    assert roots == _bisection_roots(diff, lo, hi)
    assert len(roots) == cells
    # the grid, then one call per bisection step for all live cells at once
    assert calls[0] == _KINK_GRID and len(calls) <= 1 + _BISECT_LEVELS
    assert all(0 < n <= cells for n in calls[1:])


def _t15_level(m, M):
    return _t15(_const_pair(1.0, 1.0, m, M), CheckConfig()).kink_ratio


def _dense_crossings(diff, lo, hi, n=20001):
    """The sign changes of ``diff`` between neighbours of an n-point grid."""
    t = np.linspace(lo, hi, n)
    s = np.sign(diff(t))
    assert np.all(s != 0.0)
    cells = np.flatnonzero(s[:-1] != s[1:])
    return t[cells], t[cells + 1]


def _assert_one_root_per_crossing(roots, crossings):
    left, right = crossings
    assert len(roots) == len(left)
    assert np.all((left <= roots) & (np.asarray(roots) <= right))


def _general_calls(monkeypatch):
    calls = []

    def recorded(diff, lo, hi):
        calls.append((lo, hi))
        return _sign_crossings(diff, lo, hi)

    monkeypatch.setattr(inequalities, "_sign_crossings", recorded)
    return calls


def test_t15_kink_ratio_is_where_the_arms_meet():
    for m, M in ((0.5, 2.0), (0.9, 1.1), (0.999999, 2.0)):
        level = _t15_level(m, M)
        arm1 = M * (M / m + 1.0) * level - M * M
        arm2 = (m + M) / m - level / m
        assert arm1 == pytest.approx(arm2, rel=1e-14)


@pytest.mark.parametrize("m, M", [(0.5, 2.0), (0.9, 1.1), (0.999999, 2.0)])
def test_phase_kinks_match_dense_sampling_without_evaluating_the_pair(m, M, monkeypatch):
    # A r - B has the sign of r - B/A; at (0.999999, 2) r's minima touch B/A
    # nearly tangentially, so the crossings come in close pairs
    general = _general_calls(monkeypatch)
    level = _t15_level(m, M)
    found = 0
    for seed in range(40):
        pair = generate_ratio_pair(seed, m, M, DOMAIN)
        r = pair.f.expr.factors[0]
        roots = _kinks(pair, level, *DOMAIN)
        _assert_one_root_per_crossing(roots, _dense_crossings(lambda t: r(t) - level, *DOMAIN))
        found += len(roots)
    assert found >= 20
    assert general == []


def test_phase_kinks_find_the_double_crossings_the_grid_scan_misses():
    m, M = 0.999999, 2.0
    level = _t15_level(m, M)
    missed = 0
    for seed in range(200):
        pair = generate_ratio_pair(seed, m, M, DOMAIN)
        scan = _sign_crossings(_t15_arms_difference(pair), *DOMAIN)
        roots = _kinks(pair, level, *DOMAIN)
        if len(scan) != len(roots):
            missed += 1
            assert len(roots) - len(scan) >= 2
    assert missed >= 20


@pytest.mark.parametrize("seed", [1, 3])
def test_t15_near_tangency_suite_has_no_inconclusive_trial(seed):
    cfg = SuiteConfig(theorems=(TheoremId.T15,), trials=200, seed=seed, p_values=(2.0,),
                      ratio_bounds=((0.999999, 2.0),))
    report = run_suite(cfg)
    assert report.total_inconclusive == 0 and report.total_failures == 0


def _sinpos_pair(r, lo, hi):
    g = ExpPoly((0.1, -0.4, 0.2))
    return PositivePair(TestFunction(Product((r, g)), (lo, hi)), TestFunction(g, (lo, hi)),
                        r.lo, r.hi, PairKind.RATIO_BOUNDED)


def test_phase_that_turns_back_goes_to_the_general_finder(monkeypatch):
    # psi = t/2 + 1 + s(-3t) falls on about (-0.33, 0.33), so psi = 1.49 has
    # three solutions on [-1, 1]
    r = SinPos(0.5, 1.0, 0.5, 2.0, (0.0, -3.0, 0.0))
    pair = _sinpos_pair(r, -1.0, 1.0)
    level = 0.5 + 1.5 * 0.5 * (1.0 + math.sin(1.49))
    general = _general_calls(monkeypatch)
    roots = _kinks(pair, level, -1.0, 1.0)
    assert general == [(-1.0, 1.0)]
    _assert_one_root_per_crossing(roots, _dense_crossings(lambda t: r(t) - level, -1.0, 1.0))
    assert len(roots) == 3


def test_phase_of_too_many_turns_goes_to_the_general_finder(monkeypatch):
    # about 3e8 crossings on [0, 1]: solving each one would never end
    r = SinPos(1e9, 0.0, 0.5, 2.0, (0.0, 0.5, 0.5))
    general = _general_calls(monkeypatch)
    assert len(_kinks(_sinpos_pair(r, 0.0, 1.0), _t15_level(0.5, 2.0), 0.0, 1.0)) <= 511
    assert general == [(0.0, 1.0)]


def test_phase_certified_on_part_of_the_interval(monkeypatch):
    # P' = 2t, so psi' >= 0.6 - |t|/2 > 0 on [0, 1.2) only; the rest of
    # [0, 3] goes to the general finder, and each part holds a crossing
    r = SinPos(0.6, 3.0, 0.5, 2.0, (0.0, 0.0, 1.0))
    pair = _sinpos_pair(r, 0.0, 3.0)
    level = _t15_level(0.5, 2.0)
    general = _general_calls(monkeypatch)
    roots = _kinks(pair, level, 0.0, 3.0)
    assert general == [(1.2, 3.0)]
    crossings = _dense_crossings(lambda t: r(t) - level, 0.0, 3.0)
    _assert_one_root_per_crossing(roots, crossings)
    assert np.any(crossings[0] < 1.2) and np.any(crossings[0] > 1.2)


def test_t15_kinks_searched_past_the_pair_domain():
    # x = 2 integrates over [0, 2]; the second kink lies past the domain
    pair = generate_ratio_pair(4, 0.5, 2.0, (0.0, 1.0))
    params = default_operator_grid()[0]
    assert _kinks(pair, _t15_level(0.5, 2.0), params.lower, 2.0) == pytest.approx(
        (0.3303137, 1.1183216), abs=1e-7)
    chk = check_theorem(TheoremId.T15, pair, params, 2.0, CheckConfig(p=2.0))
    assert chk.status == "pass"
