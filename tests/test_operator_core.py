"""Validation, classification table, and operator evaluation paths."""

import math

import pytest

from genfrac.errors import ConvergenceError, DomainError, ParameterError
from genfrac.functions import Const, ExpPoly, Monomial, SinPos, TestFunction
from genfrac.operator_core import (
    ClassicalKind,
    OperatorParams,
    Side,
    evaluate,
    evaluate_classical,
    reduce_to_classical,
    validate,
)
from genfrac.quadrature import closed_form_monomial

NEG_INF = float("-inf")


def _fn(expr, domain=(0.0, 10.0)):
    return TestFunction(expr, domain)


ONE = _fn(Const(1.0))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_accepts_baseline():
    validate(OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0))


def test_validate_alpha():
    with pytest.raises(ParameterError, match="alpha must be positive"):
        validate(OperatorParams(alpha=-1.0, beta=0.0, rho=1.0, eta=0.0, kappa=0.0))


def test_validate_rho():
    with pytest.raises(ParameterError, match="rho must be positive"):
        validate(OperatorParams(alpha=0.5, beta=0.0, rho=0.0, eta=0.0, kappa=0.0))


def test_validate_origin_integrability():
    with pytest.raises(ParameterError, match=r"rho\*\(eta\+1\) must be positive"):
        validate(OperatorParams(alpha=0.5, beta=0.0, rho=1.0, eta=-1.0, kappa=0.0))


def test_validate_negative_lower():
    with pytest.raises(ParameterError, match="nonnegative"):
        validate(OperatorParams(alpha=0.5, beta=0.0, rho=1.0, eta=0.0, kappa=0.0, lower=-0.5))


def test_validate_infinite_lower_constraints():
    validate(OperatorParams(alpha=0.5, beta=0.0, rho=1.0, eta=0.0, kappa=0.0, lower=NEG_INF))
    with pytest.raises(ParameterError, match="infinite lower bound"):
        validate(OperatorParams(alpha=0.5, beta=0.0, rho=2.0, eta=0.0, kappa=0.0, lower=NEG_INF))
    with pytest.raises(ParameterError, match="infinite lower bound"):
        validate(OperatorParams(alpha=0.5, beta=0.0, rho=1.0, eta=0.3, kappa=0.0, lower=NEG_INF))


def test_validate_right_side_needs_upper():
    with pytest.raises(ParameterError, match="finite upper bound"):
        validate(
            OperatorParams(alpha=0.5, beta=0.0, rho=1.0, eta=0.0, kappa=0.0, side=Side.RIGHT)
        )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params, expected",
    [
        (OperatorParams(0.5, 0.5, 1.0, 0.0, 0.0, 0.5), ClassicalKind.RIEMANN_LIOUVILLE),
        # beta immaterial at rho=1
        (OperatorParams(0.5, 0.123, 1.0, 0.0, 0.0, 0.0), ClassicalKind.RIEMANN_LIOUVILLE),
        (OperatorParams(0.5, 0.0, 2.0, 0.3, -2.0 * (0.5 + 0.3), 0.0), ClassicalKind.ERDELYI_KOBER),
        (OperatorParams(0.5, 0.5, 2.5, 0.0, 0.0, 0.0), ClassicalKind.KATUGAMPOLA),
        (OperatorParams(0.9, 0.9, 1.0, 0.0, 0.0, NEG_INF), ClassicalKind.WEYL),
        (OperatorParams(0.7, 0.7, 1e-8, 0.0, 0.0, 1.0), ClassicalKind.HADAMARD),
        (OperatorParams(0.7, 0.2, 1.7, 0.3, 0.4, 1.0), ClassicalKind.GENERALIZED),
    ],
)
def test_reduce_table(params, expected):
    assert reduce_to_classical(params) is expected


def test_reduce_tolerance_window():
    p = OperatorParams(0.5, 0.5, 1.0 + 1e-13, 1e-14, -1e-14, 0.5)
    assert reduce_to_classical(p) is ClassicalKind.RIEMANN_LIOUVILLE
    p = OperatorParams(0.5, 0.5, 1.0 + 1e-9, 0.0, 0.0, 0.5)
    assert reduce_to_classical(p) is ClassicalKind.KATUGAMPOLA  # no longer rho=1


# ---------------------------------------------------------------------------
# generalized evaluation
# ---------------------------------------------------------------------------


def test_evaluate_plain():
    p = OperatorParams(alpha=1.0, beta=1.0, rho=1.0, eta=0.0, kappa=0.0)
    assert evaluate(p, ONE, 2.0).value == pytest.approx(2.0, rel=1e-10)


def test_evaluate_half_order():
    p = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    assert evaluate(p, ONE, 1.0).value == pytest.approx(1.1283791670955126, rel=1e-10)


def test_evaluate_matches_monomial_oracle():
    p = OperatorParams(alpha=2.0, beta=0.3, rho=2.0, eta=0.5, kappa=1.0)
    res = evaluate(p, _fn(Monomial(2.0)), 1.0)
    assert res.value == pytest.approx(closed_form_monomial(p, 2.0, 1.0), rel=1e-10)


def test_evaluate_smooth_function_frozen_reference():
    # f = exp(0.3 + 0.2 t - 0.4 t^2); reference from 40-digit quadrature
    p = OperatorParams(alpha=0.7, beta=0.2, rho=1.7, eta=0.3, kappa=0.5)
    f = _fn(ExpPoly((0.3, 0.2, -0.4)))
    res = evaluate(p, f, 1.2)
    assert res.value == pytest.approx(1.3769076391578244, rel=1e-10)


def test_evaluate_requires_x_above_lower():
    p = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0, lower=2.0)
    with pytest.raises(DomainError):
        evaluate(p, ONE, 1.5)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_non_finite_evaluation_point_is_rejected(x):
    # every side and every classical kind; inf used to give value = nan
    for p in (
        OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0),
        OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0, lower=NEG_INF),
        OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0,
                       upper=2.0, side=Side.RIGHT),
    ):
        with pytest.raises(DomainError, match="evaluation point must be finite"):
            evaluate(p, ONE, x)
    for kind in ClassicalKind:
        if kind is not ClassicalKind.GENERALIZED:
            with pytest.raises(DomainError, match="evaluation point must be finite"):
                evaluate_classical(kind, 0.5, ONE, (0.5,), x)


def test_beta_invariance_at_rho_one():
    x = 1.7
    f = _fn(SinPos(2.0, 0.4, 0.5, 1.5))
    values = []
    for beta in (0.0, 0.7, 1.0, 2.3):
        p = OperatorParams(alpha=0.8, beta=beta, rho=1.0, eta=0.0, kappa=0.0)
        values.append(evaluate(p, f, x).value)
    assert all(v == values[0] for v in values)


def test_kappa_prefactor_scaling():
    x = 1.6
    f = _fn(ExpPoly((0.2, 0.1)))
    base = OperatorParams(alpha=0.9, beta=0.3, rho=1.4, eta=0.2, kappa=0.0)
    shifted = OperatorParams(alpha=0.9, beta=0.3, rho=1.4, eta=0.2, kappa=1.7)
    v0 = evaluate(base, f, x).value
    v1 = evaluate(shifted, f, x).value
    assert v1 / v0 == pytest.approx(x ** 1.7, rel=1e-13)


# ---------------------------------------------------------------------------
# classical direct forms
# ---------------------------------------------------------------------------


def test_classical_rl_plain():
    res = evaluate_classical(ClassicalKind.RIEMANN_LIOUVILLE, 1.0, ONE, (0.0,), 3.0)
    assert res.value == pytest.approx(3.0, rel=1e-10)


def test_classical_rl_power_rule():
    # J^alpha 1 = x^alpha / Gamma(alpha + 1)
    res = evaluate_classical(ClassicalKind.RIEMANN_LIOUVILLE, 0.5, ONE, (0.0,), 1.0)
    assert res.value == pytest.approx(1.1283791670955126, rel=1e-10)


def test_classical_hadamard_power_rule():
    # value (log x/a)^alpha / Gamma(alpha+1) at x=e, alpha=2 is 1/2
    res = evaluate_classical(ClassicalKind.HADAMARD, 2.0, ONE, (1.0,), math.e)
    assert res.value == pytest.approx(0.5, rel=1e-10)


def test_classical_hadamard_frozen_reference():
    # 1/Gamma(0.7) int_0^1 w^(-0.3) e^(1-w) dw, 40-digit reference
    f = _fn(Monomial(1.0), (1.0, 3.0))
    res = evaluate_classical(ClassicalKind.HADAMARD, 0.7, f, (1.0,), math.e)
    assert res.value == pytest.approx(2.0691224851781018, rel=1e-10)


def test_classical_erdelyi_kober_frozen_reference():
    f = _fn(Monomial(2.0), (0.0, 2.0))
    res = evaluate_classical(
        ClassicalKind.ERDELYI_KOBER, 0.6, f, (0.0,), 1.3, sigma=1.5, eta=0.8
    )
    assert res.value == pytest.approx(0.88445440056480686, rel=1e-10)


def test_classical_generalized_kind_rejected():
    with pytest.raises(DomainError):
        evaluate_classical(ClassicalKind.GENERALIZED, 0.5, ONE, (0.0,), 1.0)


# ---------------------------------------------------------------------------
# reduction consistency: generalized == direct classical
# ---------------------------------------------------------------------------

SMOOTH_FUNCTIONS = [
    _fn(Const(1.3)),
    _fn(Monomial(2.0)),
    _fn(ExpPoly((0.1, 0.4, -0.2))),
    _fn(SinPos(2.5, 0.7, 0.5, 1.5)),
]


@pytest.mark.parametrize("a", [0.0, 0.4])
def test_consistency_riemann_liouville(a):
    alpha, x = 0.8, 1.5
    gen = OperatorParams(alpha=alpha, beta=alpha, rho=1.0, eta=0.0, kappa=0.0, lower=a)
    for f in SMOOTH_FUNCTIONS:
        v1 = evaluate(gen, f, x).value
        v2 = evaluate_classical(ClassicalKind.RIEMANN_LIOUVILLE, alpha, f, (a,), x).value
        assert v1 == pytest.approx(v2, rel=1e-8)


@pytest.mark.parametrize("a", [0.0, 0.4])
def test_consistency_katugampola(a):
    alpha, rho, x = 0.6, 2.0, 1.5
    gen = OperatorParams(alpha=alpha, beta=alpha, rho=rho, eta=0.0, kappa=0.0, lower=a)
    for f in SMOOTH_FUNCTIONS:
        v1 = evaluate(gen, f, x).value
        v2 = evaluate_classical(
            ClassicalKind.KATUGAMPOLA, alpha, f, (a,), x, rho=rho
        ).value
        assert v1 == pytest.approx(v2, rel=1e-8)


@pytest.mark.parametrize("a", [0.0, 0.4])
def test_consistency_erdelyi_kober(a):
    alpha, sigma, eta, x = 0.6, 2.0, 0.5, 1.5
    gen = OperatorParams(
        alpha=alpha, beta=0.0, rho=sigma, eta=eta, kappa=-sigma * (alpha + eta), lower=a
    )
    for f in SMOOTH_FUNCTIONS:
        v1 = evaluate(gen, f, x).value
        v2 = evaluate_classical(
            ClassicalKind.ERDELYI_KOBER, alpha, f, (a,), x, sigma=sigma, eta=eta
        ).value
        assert v1 == pytest.approx(v2, rel=1e-8)


# ---------------------------------------------------------------------------
# logarithmic-kernel limit
# ---------------------------------------------------------------------------


def test_hadamard_limit_convergence():
    alpha, x = 0.7, math.e
    f = _fn(Monomial(1.0), (1.0, 3.0))
    direct = evaluate_classical(ClassicalKind.HADAMARD, alpha, f, (1.0,), x).value
    diffs = []
    for rho in (1e-2, 1e-3, 1e-4):
        p = OperatorParams(alpha=alpha, beta=alpha, rho=rho, eta=0.0, kappa=0.0, lower=1.0)
        diffs.append(abs(evaluate(p, f, x).value - direct) / abs(direct))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] <= 1e-3


# ---------------------------------------------------------------------------
# truncated infinite-interval forms
# ---------------------------------------------------------------------------

DECAYING = _fn(ExpPoly((0.0, 0.0, -0.5)), (NEG_INF, 5.0))


def test_weyl_frozen_reference():
    res = evaluate_classical(ClassicalKind.WEYL, 0.5, DECAYING, (NEG_INF,), 1.0)
    assert res.value == pytest.approx(1.4255118254075215, rel=1e-9)
    assert abs(res.value - 1.4255118254075215) <= 10.0 * res.error_estimate


def test_liouville_matches_weyl_form():
    w = evaluate_classical(ClassicalKind.WEYL, 0.5, DECAYING, (NEG_INF,), 1.0)
    l = evaluate_classical(ClassicalKind.LIOUVILLE, 0.5, DECAYING, (NEG_INF,), 1.0)
    assert w.value == l.value


def test_weyl_generalized_vs_direct_truncation():
    p = OperatorParams(alpha=0.5, beta=1.0, rho=1.0, eta=0.0, kappa=0.0, lower=NEG_INF)
    gen = evaluate(p, DECAYING, 1.0)
    direct = evaluate_classical(
        ClassicalKind.WEYL, 0.5, DECAYING, (NEG_INF,), 1.0, truncation_start=1.7
    )
    budget = gen.error_estimate + direct.error_estimate
    assert abs(gen.value - direct.value) <= 10.0 * budget


def test_weyl_rejects_nondecaying_function():
    with pytest.raises(ConvergenceError):
        evaluate_classical(
            ClassicalKind.WEYL, 0.5, _fn(Const(1.0), (NEG_INF, 5.0)), (NEG_INF,), 1.0
        )


# ---------------------------------------------------------------------------
# right-sided form
# ---------------------------------------------------------------------------


def test_right_side_frozen_references():
    p = OperatorParams(
        alpha=0.5, beta=0.25, rho=1.5, eta=0.4, kappa=0.7,
        lower=0.0, upper=2.0, side=Side.RIGHT,
    )
    f1 = _fn(Const(1.0), (0.5, 2.0))
    ft = _fn(Monomial(1.0), (0.5, 2.0))
    assert evaluate(p, f1, 0.5).value == pytest.approx(1.0861567085967312, rel=1e-10)
    assert evaluate(p, ft, 0.5).value == pytest.approx(1.3115746294713537, rel=1e-10)


def test_right_side_domain_checks():
    p = OperatorParams(
        alpha=0.5, beta=0.25, rho=1.5, eta=0.4, kappa=0.7,
        lower=0.0, upper=2.0, side=Side.RIGHT,
    )
    with pytest.raises(DomainError):
        evaluate(p, ONE, 2.5)  # x beyond upper
    with pytest.raises(DomainError):
        evaluate(p, ONE, 0.0)  # x must be positive
