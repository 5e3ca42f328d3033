"""Validation, classification table, and operator evaluation paths."""

import math
import sys

import numpy as np
import pytest

from genfrac import quadrature
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
from genfrac.quadrature import QuadratureConfig, closed_form_monomial, integrate_kernel
from genfrac.special_functions import log_gamma

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


@pytest.mark.parametrize("name", ["beta", "eta", "kappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_requires_finite_beta_eta_kappa(name, value):
    fields = dict(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    fields[name] = value
    with pytest.raises(ParameterError, match="%s must be finite" % name):
        validate(OperatorParams(**fields))


@pytest.mark.parametrize("name", ["alpha", "rho"])
def test_validate_requires_finite_alpha_rho(name):
    # an infinite alpha or rho used to pass and give value = nan
    fields = dict(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    fields[name] = math.inf
    with pytest.raises(ParameterError, match="%s must be positive and finite" % name):
        validate(OperatorParams(**fields))


def test_validate_nan_lower():
    # -inf stays allowed for the truncated form; NaN compares false everywhere
    with pytest.raises(ParameterError, match="lower bound must not be NaN"):
        validate(OperatorParams(alpha=0.5, beta=0.0, rho=1.0, eta=0.0, kappa=0.0, lower=math.nan))


VALID = dict(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)


@pytest.mark.parametrize("fields, message", [
    (dict(alpha=0.0, rho=math.nan), "alpha must be positive and finite"),
    (dict(alpha=math.inf), "alpha must be positive and finite"),
    (dict(alpha=math.nan), "alpha must be positive and finite"),
    (dict(rho=-1.0, beta=math.nan), "rho must be positive and finite"),
    (dict(rho=math.inf), "rho must be positive and finite"),
    (dict(beta=math.inf, eta=math.nan), "beta must be finite"),
    (dict(eta=math.nan, kappa=math.inf), "eta must be finite"),
    (dict(kappa=-math.inf, lower=math.nan), "kappa must be finite"),
    (dict(lower=math.nan, side=Side.RIGHT), "lower bound must not be NaN"),
    (dict(lower=math.inf), "lower bound must be finite or -inf"),
    (dict(lower=NEG_INF, rho=2.0), "infinite lower bound requires rho=1, eta=0, kappa=0"),
    (dict(lower=NEG_INF, kappa=0.5), "infinite lower bound requires rho=1, eta=0, kappa=0"),
    (dict(lower=-0.5, side=Side.RIGHT), "lower bound must be nonnegative"),
    (dict(eta=-1.0, side=Side.RIGHT), "rho*(eta+1) must be positive when a=0"),
    (dict(side=Side.RIGHT), "right-sided operator requires a finite upper bound"),
    (dict(side=Side.RIGHT, upper=math.inf), "right-sided operator requires a finite upper bound"),
    (dict(side=Side.RIGHT, upper=0.0), "upper bound must exceed the lower bound"),
    (dict(side=Side.RIGHT, lower=2.0, upper=1.0), "upper bound must exceed the lower bound"),
])
def test_validate_names_the_first_violated_condition(fields, message):
    # fields that break several conditions pin the order of the checks
    with pytest.raises(ParameterError) as exc_info:
        validate(OperatorParams(**{**VALID, **fields}))
    assert str(exc_info.value) == message


def _two_loop_validate(params):
    """validate with its two loops over the field names: the reference for
    any rewrite, which must raise the same messages in the same order."""
    for name in ("alpha", "rho"):
        if not 0.0 < getattr(params, name) < math.inf:
            raise ParameterError("%s must be positive and finite" % name)
    for name in ("beta", "eta", "kappa"):
        if not math.isfinite(getattr(params, name)):
            raise ParameterError("%s must be finite" % name)
    if math.isnan(params.lower):
        raise ParameterError("lower bound must not be NaN")
    if math.isinf(params.lower):
        if params.lower > 0:
            raise ParameterError("lower bound must be finite or -inf")
        if abs(params.rho - 1.0) > 1e-12 or params.eta != 0.0 or params.kappa != 0.0:
            raise ParameterError(
                "infinite lower bound requires rho=1, eta=0, kappa=0"
            )
    elif params.lower < 0.0:
        raise ParameterError("lower bound must be nonnegative")
    elif params.lower == 0.0 and params.rho * (params.eta + 1.0) <= 0.0:
        raise ParameterError("rho*(eta+1) must be positive when a=0")
    if params.side is Side.RIGHT:
        if params.upper is None or not math.isfinite(params.upper):
            raise ParameterError("right-sided operator requires a finite upper bound")
        if not params.upper > max(params.lower, 0.0):
            raise ParameterError("upper bound must exceed the lower bound")


def _validate_message(validator, params):
    try:
        validator(params)
    except ParameterError as exc:
        return str(exc)
    return None


def test_validate_matches_the_two_loop_version_on_a_seeded_grid():
    # each field valid three times in four, else 0, a negative value, NaN or
    # +-inf; rho = 1 and eta = kappa = 0 come up often enough that
    # lower = -inf also passes
    special = [0.0, -1.5, math.nan, math.inf, NEG_INF]
    valid = dict(alpha=[0.5], beta=[0.5], rho=[1.0, 2.0], eta=[0.3, 0.0],
                 kappa=[0.7, 0.0], lower=[0.5, 3.0])
    uppers = [None, 2.0, math.inf]
    rng = np.random.default_rng(20261018)
    n = 20000
    use_valid = (rng.random((n, len(valid))) < 0.75).tolist()
    picks = rng.integers(0, 60, size=(n, len(valid) + 2)).tolist()
    seen = set()
    for flags, pick in zip(use_valid, picks):
        fields = {}
        for (name, values), flag, k in zip(valid.items(), flags, pick):
            pool = values if flag else special
            fields[name] = pool[k % len(pool)]
        fields["upper"] = uppers[pick[-2] % len(uppers)]
        fields["side"] = (Side.LEFT, Side.RIGHT)[pick[-1] % 2]
        params = OperatorParams(**fields)
        want = _validate_message(_two_loop_validate, params)
        assert _validate_message(validate, params) == want, params
        seen.add(want if want or params.lower > NEG_INF else "accepted at -inf")
    # every message, and acceptance, came up
    assert seen == {
        None,
        "accepted at -inf",
        "alpha must be positive and finite",
        "rho must be positive and finite",
        "beta must be finite",
        "eta must be finite",
        "kappa must be finite",
        "lower bound must not be NaN",
        "lower bound must be finite or -inf",
        "infinite lower bound requires rho=1, eta=0, kappa=0",
        "lower bound must be nonnegative",
        "rho*(eta+1) must be positive when a=0",
        "right-sided operator requires a finite upper bound",
        "upper bound must exceed the lower bound",
    }


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


@pytest.mark.parametrize("alpha, beta, rho, lower", [
    (0.7, 0.7, 2.0, 0.0),  # x^rho
    (0.7, 0.7, 2.0, 1.0),  # expm1(rho log(x/a))
    (2.0, 1.0, 1.0, 0.0),  # exp(log_scale)
])
def test_kernel_scale_past_the_float_range_is_a_domain_error(alpha, beta, rho, lower):
    p = OperatorParams(alpha=alpha, beta=beta, rho=rho, eta=0.0, kappa=0.0, lower=lower)
    with pytest.raises(DomainError, match="^kernel scale is beyond the float range$"):
        evaluate(p, ONE, 1e200)


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


def test_classical_erdelyi_kober_at_a_huge_x_never_forms_x_to_the_sigma():
    # at a = 0 the value of 1 is Gamma(eta+1)/Gamma(eta+alpha+1) for every x;
    # x^sigma = 1e400 is past the float range
    res = evaluate_classical(
        ClassicalKind.ERDELYI_KOBER, 0.7, ONE, (0.0,), 1e200, sigma=2.0, eta=0.5
    )
    assert res.value == pytest.approx(math.gamma(1.5) / math.gamma(2.2), rel=2e-15)


@pytest.mark.parametrize("kind, alpha, a, rho", [
    (ClassicalKind.KATUGAMPOLA, 0.7, 0.0, 2.0),  # x^rho
    (ClassicalKind.KATUGAMPOLA, 0.7, 1.0, 2.0),  # expm1(rho log(x/a))
    (ClassicalKind.RIEMANN_LIOUVILLE, 2.0, 0.0, 1.0),  # (x - a)^alpha
])
def test_classical_factor_past_the_float_range_is_a_domain_error(kind, alpha, a, rho):
    with pytest.raises(DomainError, match="^operator factor is beyond the float range$"):
        evaluate_classical(kind, alpha, ONE, (a,), 1e200, rho=rho)


@pytest.mark.parametrize("kind, alpha, a, x", [
    # x / a = inf, though (log(x/a))^alpha / Gamma(alpha+1) = 173.7
    (ClassicalKind.HADAMARD, 0.7, 1e-300, 1e300),
    # x - a = inf, though (x - a)^alpha / Gamma(alpha+1) = 1.6e154
    (ClassicalKind.RIEMANN_LIOUVILLE, 0.5, -1e308, 1e308),
])
def test_classical_silent_overflow_is_a_domain_error(kind, alpha, a, x):
    # these used to return value = inf, error_estimate = inf without an error
    with pytest.raises(DomainError, match="^operator value is beyond the float range$"):
        evaluate_classical(kind, alpha, ONE, (a,), x)


@pytest.mark.parametrize("kind", [ClassicalKind.WEYL, ClassicalKind.LIOUVILLE])
def test_classical_truncated_value_past_the_float_range_is_a_domain_error(kind):
    # every segment converges, but their sum times 1/Gamma(0.5) is past the float range
    huge = lambda t: 1.5e308 * np.exp(-t * t)
    with pytest.raises(DomainError, match="^operator value is beyond the float range$"):
        evaluate_classical(kind, 0.5, huge, (NEG_INF,), 3.0)


def test_classical_rows_are_left_to_the_caller():
    # rows past the float range come back as computed, for the caller to judge
    rows = lambda t: np.stack([np.ones_like(t), np.ones_like(t)])
    res = evaluate_classical(ClassicalKind.RIEMANN_LIOUVILLE, 0.5, rows, (-1e308,), 1e308)
    assert np.isinf(res.value).all()


@pytest.mark.parametrize("alpha, rho, x", [(0.6, 2.0, 1.5), (1.3, 0.5, 2.7), (0.25, 3.0, 0.8)])
def test_classical_katugampola_of_one_at_zero(alpha, rho, x):
    res = evaluate_classical(ClassicalKind.KATUGAMPOLA, alpha, ONE, (0.0,), x, rho=rho)
    want = rho ** -alpha * x ** (rho * alpha) / math.gamma(alpha + 1.0)
    assert res.value == pytest.approx(want, rel=2e-15)


def test_classical_erdelyi_kober_frozen_reference_above_zero_without_weight():
    # x^(-sigma alpha)/Gamma(alpha) int_a^x sigma t^(sigma-1) (x^sigma - t^sigma)^(alpha-1)
    # f(t) dt by 30-digit mpmath quadrature: 1.332495209249859103784884
    f = _fn(ExpPoly((0.1, 0.4, -0.2)), (0.0, 2.0))
    res = evaluate_classical(
        ClassicalKind.ERDELYI_KOBER, 0.6, f, (0.4,), 1.3, sigma=1.5, eta=0.0
    )
    assert res.value == pytest.approx(1.3324952092498591, rel=2e-15)


@pytest.mark.parametrize("a", [0.0, 0.4])
def test_classical_erdelyi_kober_rejects_non_finite_eta(a):
    # a NaN eta used to run to the node budget and raise ConvergenceError
    f = _fn(Monomial(2.0), (0.0, 2.0))
    with pytest.raises(ParameterError, match="eta must be finite"):
        evaluate_classical(
            ClassicalKind.ERDELYI_KOBER, 0.6, f, (a,), 1.3, sigma=1.5, eta=math.nan
        )


@pytest.mark.parametrize("kind, name, extra", [
    (ClassicalKind.RIEMANN_LIOUVILLE, "alpha", {}),
    (ClassicalKind.KATUGAMPOLA, "rho", {"rho": math.inf}),
    (ClassicalKind.ERDELYI_KOBER, "sigma", {"sigma": math.inf}),
])
def test_classical_rejects_infinite_parameters(kind, name, extra):
    # these used to return 0.0 with a zero error estimate
    alpha = math.inf if name == "alpha" else 0.5
    with pytest.raises(ParameterError, match="%s must be positive and finite" % name):
        evaluate_classical(kind, alpha, ONE, (0.0,), 1.0, **extra)


@pytest.mark.parametrize("name", ["alpha", "rho"])
def test_closed_form_rejects_infinite_alpha_rho(name):
    fields = dict(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    fields[name] = math.inf
    with pytest.raises(DomainError, match="%s must be positive and finite" % name):
        closed_form_monomial(OperatorParams(**fields), 1.0, 1.0)


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


# ---------------------------------------------------------------------------
# the path to the quadrature primitive
# ---------------------------------------------------------------------------


@pytest.fixture
def unit_integrals(monkeypatch):
    """Evaluations of every weighted_unit_integral call, one entry each.

    Every genfrac module's binding of the function is replaced by a
    counting wrapper, as perfbench/tracing.py does to count integrals.
    """
    original = quadrature.weighted_unit_integral
    seen = []

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        seen.append(res.evaluations)
        return res

    for name, module in list(sys.modules.items()):
        if name == "genfrac" or name.startswith("genfrac."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return seen


SMOOTH = _fn(ExpPoly((0.0, 0.5)))
GENERAL = dict(alpha=0.6, beta=0.3, rho=1.5, eta=0.4, kappa=0.2)


@pytest.mark.parametrize("integrals, run", [
    (1, lambda: evaluate(OperatorParams(**GENERAL), SMOOTH, 1.3)),
    (1, lambda: evaluate(OperatorParams(**GENERAL, lower=0.5), SMOOTH, 1.3)),
    (3, lambda: evaluate(OperatorParams(**GENERAL), SMOOTH, 1.3, breakpoints=(0.4, 0.9))),
    (3, lambda: evaluate(OperatorParams(**GENERAL, lower=0.2), SMOOTH, 1.3,
                         breakpoints=(0.4, 0.9))),
    (1, lambda: evaluate(OperatorParams(**GENERAL, upper=2.0, side=Side.RIGHT), SMOOTH, 0.8)),
    (None, lambda: evaluate(OperatorParams(0.5, 1.0, 1.0, 0.0, 0.0, lower=NEG_INF),
                            DECAYING, 1.0)),
    (1, lambda: evaluate_classical(ClassicalKind.RIEMANN_LIOUVILLE, 0.6, SMOOTH, (0.2,), 1.3)),
    (1, lambda: evaluate_classical(ClassicalKind.HADAMARD, 0.6, SMOOTH, (0.5,), 1.3)),
    (1, lambda: evaluate_classical(ClassicalKind.KATUGAMPOLA, 0.6, SMOOTH, (0.0,), 1.3,
                                   rho=1.5)),
    (1, lambda: evaluate_classical(ClassicalKind.KATUGAMPOLA, 0.6, SMOOTH, (0.5,), 1.3,
                                   rho=1.5)),
    (1, lambda: evaluate_classical(ClassicalKind.ERDELYI_KOBER, 0.6, SMOOTH, (0.0,), 1.3,
                                   sigma=1.5, eta=0.4)),
    (1, lambda: evaluate_classical(ClassicalKind.ERDELYI_KOBER, 0.6, SMOOTH, (0.5,), 1.3,
                                   sigma=1.5, eta=0.4)),
    (None, lambda: evaluate_classical(ClassicalKind.WEYL, 0.5, DECAYING, (NEG_INF,), 1.0)),
    (None, lambda: evaluate_classical(ClassicalKind.LIOUVILLE, 0.5, DECAYING, (NEG_INF,), 1.0)),
], ids=["left-a0", "left-a", "left-breaks-a0", "left-breaks-a", "right", "truncated-weyl",
        "rl", "hadamard", "katugampola-a0", "katugampola-a", "ek-a0", "ek-a", "weyl",
        "liouville"])
def test_every_integral_goes_through_the_traced_primitive(unit_integrals, integrals, run):
    res = run()
    if integrals is None:  # one integral per truncation segment
        assert len(unit_integrals) > 2
    else:
        assert len(unit_integrals) == integrals
    assert sum(unit_integrals) == res.evaluations


def _rows(t):
    return np.array([SMOOTH(t), np.cos(t) + 2.0])


def _left_prefactor(params, x):
    return math.exp(
        (1.0 - params.beta) * math.log(params.rho)
        + params.kappa * math.log(x)
        - log_gamma(params.alpha)
    )


@pytest.mark.parametrize("lower", [0.0, 0.4])
@pytest.mark.parametrize("eta", [0.0, 0.4])
@pytest.mark.parametrize("f", [SMOOTH, _rows], ids=["one", "rows"])
@pytest.mark.parametrize("breakpoints", [(), (0.7, 1.1)], ids=["whole", "split"])
def test_evaluate_is_prefactor_times_integrate_kernel_bit_for_bit(lower, eta, f, breakpoints):
    params = OperatorParams(**{**GENERAL, "eta": eta, "lower": lower})
    pref = _left_prefactor(params, 1.3)
    res = evaluate(params, f, 1.3, breakpoints=breakpoints)
    kernel = integrate_kernel(f, params, 1.3, breakpoints=breakpoints)
    assert np.array_equal(res.value, pref * kernel.value)
    assert np.array_equal(res.error_estimate, abs(pref) * kernel.error_estimate)
    assert res.evaluations == kernel.evaluations


@pytest.mark.parametrize("lower", [0.0, 0.4])
@pytest.mark.parametrize("breakpoints", [(), (0.7, 1.1)], ids=["whole", "split"])
def test_convergence_error_is_prefactor_times_integrate_kernel_bit_for_bit(lower, breakpoints):
    params = OperatorParams(**{**GENERAL, "lower": lower})
    f = _fn(SinPos(90.0, 0.2, 0.5, 1.5))  # fast oscillation needs many nodes
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=60)
    with pytest.raises(ConvergenceError) as operator_error:
        evaluate(params, f, 1.3, cfg, breakpoints)
    with pytest.raises(ConvergenceError) as kernel_error:
        integrate_kernel(f, params, 1.3, cfg, breakpoints)
    best, kernel = operator_error.value.result, kernel_error.value.result
    pref = _left_prefactor(params, 1.3)
    assert best.value == pref * kernel.value
    assert best.error_estimate == abs(pref) * kernel.error_estimate
    assert best.evaluations == kernel.evaluations > 0
