"""Theorem checks: constants, equality cases, random trials, suite plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.errors import DomainError
from genfrac.functions import (
    Const,
    PairKind,
    PositivePair,
    Sum,
    TestFunction,
    generate_box_pair,
    generate_ratio_pair,
)
from genfrac.inequalities import (
    CheckConfig,
    HadamardOp,
    SuiteConfig,
    TheoremId,
    c1,
    c2,
    c3,
    c4,
    c5,
    c6,
    check_forward_minkowski,
    check_scalar_lemmas,
    check_t8,
    check_t9,
    check_t10,
    check_t11,
    check_t12,
    check_t13,
    check_t14,
    check_t15,
    run_suite,
)
from genfrac.inequalities import _sign_crossings
from genfrac.operator_core import OperatorParams
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
    chk = check_t8(pair, params, X, CheckConfig(p=2.0))
    assert chk.satisfied and not chk.inconclusive
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)
    assert chk.constant == pytest.approx(1.0)


def test_equality_tightness_t9():
    pair = generate_ratio_pair(6, 1.0, 1.0, DOMAIN)
    chk = check_t9(pair, RL_HALF, X, CheckConfig(p=3.0))
    assert chk.satisfied
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)
    assert chk.constant == pytest.approx(2.0)


def test_equality_tightness_t14():
    pair = generate_ratio_pair(8, 1.0, 1.0, DOMAIN)
    chk = check_t14(pair, KAT, X, CheckConfig())
    assert chk.satisfied
    assert abs(chk.lhs - chk.mid) <= 1e-10 * abs(chk.mid)
    assert abs(chk.mid - chk.rhs) <= 1e-10 * abs(chk.rhs)


def test_equality_tightness_t15():
    pair = generate_ratio_pair(9, 1.0, 1.0, DOMAIN)
    chk = check_t15(pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.satisfied
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)


def test_t10_identity_case():
    pair = generate_ratio_pair(10, 1.0, 1.0, DOMAIN)
    chk = check_t10(pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.satisfied
    # both sides reduce to I f
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)
    assert chk.aux is not None and "outer_exponent_rhs" in chk.aux


# ---------------------------------------------------------------------------
# constant-pair arithmetic cases
# ---------------------------------------------------------------------------


def test_t9_constants_p1_equality():
    # f=2, g=1, m=M=2, p=1: both sides equal 5 (I 1)^2
    pair = _const_pair(2.0, 1.0)
    chk = check_t9(pair, RL_ONE, X, CheckConfig(p=1.0))
    assert chk.satisfied
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
    assert chk.constant == pytest.approx(c2(2.0, 2.0))


def test_t11_constants_equality():
    # f=g=1, p=q=2, m=M=1, alpha=1, x=1: lhs = 1 and rhs = (c3+c4)*2 = 1
    pair = _const_pair(1.0, 1.0)
    chk = check_t11(pair, RL_ONE, X, CheckConfig(p=2.0))
    assert chk.satisfied
    assert chk.lhs == pytest.approx(1.0, rel=1e-11)
    assert chk.rhs == pytest.approx(1.0, rel=1e-11)


def test_t12_proportional_pair_equality():
    # f = 2 g, m=M=2, c=1: f - c g = g and all three quantities coincide
    pair = _const_pair(3.0, 1.5)
    chk = check_t12(pair, RL_HALF, X, CheckConfig(p=2.0, c=1.0))
    assert chk.satisfied
    assert chk.lhs == pytest.approx(chk.mid, rel=1e-11)
    assert chk.mid == pytest.approx(chk.rhs, rel=1e-11)


def test_t12_rejects_c_at_or_above_m():
    pair = _const_pair(3.0, 1.5)
    with pytest.raises(DomainError):
        check_t12(pair, RL_HALF, X, CheckConfig(p=2.0, c=2.0))
    with pytest.raises(DomainError):
        check_t12(pair, RL_HALF, X, CheckConfig(p=2.0))  # c missing


def test_t13_constant_boxes_equality():
    pair = generate_box_pair(3, 2.0, 2.0, 0.5, 0.5, DOMAIN)
    chk = check_t13(pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.satisfied
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-11)


def test_t13_requires_box_pair():
    pair = generate_ratio_pair(4, 0.5, 2.0, DOMAIN)
    with pytest.raises(DomainError):
        check_t13(pair, RL_HALF, X, CheckConfig(p=2.0))


def test_t14_constants_equality():
    pair = _const_pair(3.0, 2.0)
    chk = check_t14(pair, RL_ONE, X, CheckConfig())
    assert chk.satisfied
    assert chk.lhs == pytest.approx(chk.mid, rel=1e-12)
    assert chk.mid == pytest.approx(chk.rhs, rel=1e-12)


def test_t15_constants_arithmetic():
    # f=3, g=2, m=M=1.5: h = max(1.5*(2.5*3/1.5 - 1.5*2), (3.5*2-3)/1.5)... = 4.5
    pair = _const_pair(3.0, 2.0)
    chk = check_t15(pair, RL_ONE, X, CheckConfig(p=2.0))
    assert chk.satisfied
    assert chk.lhs == pytest.approx(5.0, rel=1e-11)
    assert chk.rhs == pytest.approx(9.0, rel=1e-11)


def test_t8_p1_ratio_is_exactly_c1():
    # at p=1 linearity makes lhs = I(f+g), so rhs/lhs equals c1
    pair = generate_ratio_pair(21, 0.5, 2.0, DOMAIN)
    chk = check_t8(pair, RL_HALF, X, CheckConfig(p=1.0))
    assert chk.satisfied
    assert chk.rhs / chk.lhs == pytest.approx(c1(0.5, 2.0), rel=1e-9)


def test_t10_constants_arithmetic():
    # f=2, g=1, m=M=2, p=q=2: lhs = sqrt(2 I1) sqrt(I1), mixed = sqrt(2) I1
    pair = _const_pair(2.0, 1.0)
    chk = check_t10(pair, RL_ONE, X, CheckConfig(p=2.0))
    assert chk.satisfied
    assert chk.constant == pytest.approx(1.0)
    assert chk.lhs == pytest.approx(math.sqrt(2.0), rel=1e-11)
    assert chk.rhs == pytest.approx(math.sqrt(2.0), rel=1e-11)


def test_t10_requires_p_above_one():
    pair = _const_pair(2.0, 1.0)
    with pytest.raises(DomainError):
        check_t10(pair, RL_ONE, X, CheckConfig(p=1.0))
    with pytest.raises(DomainError):
        check_t11(pair, RL_ONE, X, CheckConfig(p=1.0))


def test_forward_minkowski_equality_and_linearity():
    pair = generate_ratio_pair(12, 1.0, 1.0, DOMAIN)
    chk = check_forward_minkowski(pair, RL_HALF, X, CheckConfig(p=2.0))
    assert chk.satisfied
    assert abs(chk.lhs - chk.rhs) <= 1e-10 * abs(chk.rhs)
    # p = 1 is exact equality by linearity of the operator
    pair = generate_ratio_pair(13, 0.5, 2.0, DOMAIN)
    chk = check_forward_minkowski(pair, RL_HALF, X, CheckConfig(p=1.0))
    assert chk.satisfied
    assert abs(chk.lhs - chk.rhs) <= 1e-9 * abs(chk.rhs)


# ---------------------------------------------------------------------------
# random trials
# ---------------------------------------------------------------------------

ALL_PARAMS = [RL_HALF, RL_ONE, KAT, EK]


@pytest.mark.parametrize("theorem_check, needs_c", [
    (check_t8, False), (check_t9, False), (check_t10, False),
    (check_t11, False), (check_t12, True), (check_t14, False),
    (check_t15, False), (check_forward_minkowski, False),
])
def test_random_trials_hold(theorem_check, needs_c):
    for seed in range(6):
        params = ALL_PARAMS[seed % len(ALL_PARAMS)]
        pair = generate_ratio_pair(100 + seed, 0.5, 2.0, DOMAIN)
        cfg = CheckConfig(p=2.0, c=0.25 if needs_c else None)
        chk = theorem_check(pair, params, X, cfg)
        assert not chk.inconclusive
        assert chk.satisfied, (theorem_check.__name__, seed, chk)


def test_random_box_trials_hold():
    for seed in range(6):
        pair = generate_box_pair(200 + seed, 1.0, 2.0, 1.0, 3.0, DOMAIN)
        chk = check_t13(pair, ALL_PARAMS[seed % len(ALL_PARAMS)], X, CheckConfig(p=3.0))
        assert chk.satisfied and not chk.inconclusive


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
    for check in (check_t8, check_t9, check_t14, check_t15):
        chk = check(widened, RL_HALF, X, CheckConfig(p=2.0))
        assert chk.satisfied, check.__name__


# ---------------------------------------------------------------------------
# special-case coverage: classical parameterizations
# ---------------------------------------------------------------------------


def test_riemann_case_alpha_one():
    # alpha=1, rho=1 reduces the operator to the plain integral
    for seed in range(3):
        pair = generate_ratio_pair(300 + seed, 0.5, 2.0, DOMAIN)
        assert check_t8(pair, RL_ONE, X, CheckConfig(p=2.0)).satisfied
        assert check_t9(pair, RL_ONE, X, CheckConfig(p=2.0)).satisfied


def test_hadamard_direct_coverage():
    op = HadamardOp(alpha=0.6, lower=1.0)
    for seed in range(3):
        pair = generate_ratio_pair(400 + seed, 0.5, 2.0, (1.0, 2.0))
        assert check_t8(pair, op, 2.0, CheckConfig(p=2.0)).satisfied
        assert check_t9(pair, op, 2.0, CheckConfig(p=3.0)).satisfied


# ---------------------------------------------------------------------------
# scalar lemmas
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# inconclusive handling
# ---------------------------------------------------------------------------


def test_inconclusive_marked_not_passed():
    pair = generate_ratio_pair(501, 0.5, 2.0, DOMAIN, complexity=4)
    tight = CheckConfig(
        p=3.0,
        quad=QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=40),
    )
    chk = check_t8(pair, OperatorParams(0.35, 0.0, 1.0, 0.9, 0.0), X, tight)
    assert chk.inconclusive
    assert not chk.satisfied


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


def test_suite_thread_determinism():
    base = dict(trials=10, seed=3)
    r1 = run_suite(SuiteConfig(threads=1, **base), timestamp="T")
    r2 = run_suite(SuiteConfig(threads=4, **base), timestamp="T")
    j1 = json.dumps(r1.to_json_dict(), sort_keys=True)
    j2 = json.dumps(r2.to_json_dict(), sort_keys=True)
    assert j1 == j2


def test_suite_records_allow_exact_replay():
    cfg = SuiteConfig(trials=6, seed=11)
    report = run_suite(cfg, timestamp="fixed")
    for theorem, check in ((TheoremId.T8, check_t8), (TheoremId.T11, check_t11),
                           (TheoremId.T15, check_t15)):
        for record in (r for r in report.records if r.theorem is theorem):
            pair = generate_ratio_pair(record.pair_seed, record.m, record.M,
                                       (record.params.lower, record.x), cfg.complexity)
            chk = check(pair, record.params, record.x,
                        CheckConfig(p=record.p, slack_factor=cfg.slack_factor))
            assert chk.lhs == record.check.lhs
            assert chk.rhs == record.check.rhs


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
    """Reference: 80 scalar bisection steps per sign-changing grid cell."""
    t = np.linspace(lo, hi, n)
    d = diff(t)
    roots = []
    for i in range(n - 1):
        if d[i] == 0.0 or d[i] * d[i + 1] > 0.0:
            continue
        a, b, da = t[i], t[i + 1], d[i]
        for _ in range(80):
            mid = 0.5 * (a + b)
            dm = float(diff(mid))
            if dm == 0.0:
                a = b = mid
                break
            if (dm > 0.0) == (da > 0.0):
                a, da = mid, dm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


def _t15_arms_difference(pair):
    # the two arms of the T15 maximum, built as expression trees
    m, M = pair.m, pair.M
    arm1 = TestFunction(Sum(((M * (M / m + 1.0), pair.f.expr), (-M * M, pair.g.expr))),
                        pair.f.domain)
    arm2 = TestFunction(Sum((((m + M) / m, pair.g.expr), (-1.0 / m, pair.f.expr))),
                        pair.f.domain)
    return lambda t: np.asarray(arm1(t)) - np.asarray(arm2(t))


def test_kink_finder_matches_scalar_bisection_on_t15_pairs():
    found = 0
    for seed in range(40):
        m, M = ((0.5, 2.0), (0.9, 1.1))[seed % 2]
        diff = _t15_arms_difference(generate_ratio_pair(seed, m, M, DOMAIN))
        roots = _sign_crossings(diff, *DOMAIN)
        reference = _bisection_roots(diff, *DOMAIN)
        assert len(roots) == len(reference)
        for r, ref in zip(roots, reference):
            assert abs(r - ref) <= 4.0 * np.spacing(ref)
        found += len(roots)
    assert found >= 10


def test_kink_finder_several_brackets():
    roots = _sign_crossings(lambda t: np.sin(20.0 * t), 0.05, 1.0)
    exact = np.arange(1, 7) * np.pi / 20.0
    assert len(roots) == 6
    assert np.allclose(roots, exact, rtol=0.0, atol=1e-15)
    reference = _bisection_roots(lambda t: np.sin(20.0 * t), 0.05, 1.0)
    assert np.all(np.abs(np.subtract(roots, reference)) <= 4.0 * np.spacing(reference))


def test_kink_finder_exact_zero_on_grid_node():
    node = np.linspace(0.0, 1.0, 512)[100]
    assert _sign_crossings(lambda t: t - node, 0.0, 1.0) == (node,)


def test_kink_finder_no_crossing():
    assert _sign_crossings(lambda t: 1.0 + t, 0.0, 1.0) == ()
