"""Kernel quadrature against the closed-form monomial oracle."""

import math
import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from genfrac.errors import ConvergenceError, DomainError, ParameterError
from genfrac.functions import (
    Const,
    ExpPoly,
    Monomial,
    PMax,
    Polynomial,
    SinPos,
    TestFunction,
)
from genfrac.operator_core import (
    ClassicalKind,
    OperatorParams,
    Side,
    evaluate,
    evaluate_classical,
    validate,
)
import genfrac
from genfrac import oracle, quadrature
from genfrac.quadrature import (
    IntegralResult,
    QuadratureConfig,
    closed_form_monomial,
    integrate_kernel,
    weighted_unit_integral,
)


def _fn(expr, hi=10.0):
    return TestFunction(expr, (0.0, hi))


ONE = _fn(Const(1.0))
TSQ = _fn(Monomial(2.0))


def test_config_invariants():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)
    # NaN compares false with every budget, so it would disable the budget
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=float("nan"))
    # small budgets stay legal: they force non-convergence in tests
    assert QuadratureConfig(max_subdivisions=1).max_subdivisions == 1


def test_integral_result_is_an_immutable_record():
    res = IntegralResult(0.1, 2.5e-17, 73)
    with pytest.raises(AttributeError):
        res.value = 1.0
    # the text of the frozen dataclass it used to be
    assert repr(res) == "IntegralResult(value=0.1, error_estimate=2.5e-17, evaluations=73)"
    assert IntegralResult(value=0.1, error_estimate=2.5e-17, evaluations=73) == res
    rows = IntegralResult(np.array([1.0, -2.0]), np.array([1e-16, 2e-16]), 65)
    assert repr(rows) == ("IntegralResult(value=array([ 1., -2.]), "
                          "error_estimate=array([1.e-16, 2.e-16]), evaluations=65)")
    for record in (res, rows):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is IntegralResult
        assert all(_bits(got) == _bits(want) for got, want in zip(back, record))
    assert genfrac.IntegralResult is IntegralResult
    # a named tuple unpacks, and equals the plain tuple of its fields
    assert tuple(res) == res == (0.1, 2.5e-17, 73)


@pytest.mark.parametrize("factor, inner", [(1.0, 1.0), (0.7, 1.0), (-3.1, 0.3), (2.0 ** 600, 1e-300)])
@pytest.mark.parametrize("value, error", [(0.1, 2.5e-17), (-0.0, 0.0), (1.7e308, 3e-300)])
def test_scaled_is_inner_first_then_factor_bit_for_bit(factor, inner, value, error):
    for res in (IntegralResult(value, error, 9),
                IntegralResult(np.array([value, 1.0]), np.array([error, 1e-16]), 9)):
        got = res.scaled(factor, inner)
        assert type(got) is IntegralResult
        assert _bits(got.value) == _bits(factor * (inner * res.value))
        assert _bits(got.error_estimate) == _bits(abs(factor) * (abs(inner) * res.error_estimate))
        assert got.evaluations == 9
    assert _bits(IntegralResult(value, error, 9).scaled(factor).value) == _bits(factor * value)


def test_budget_below_levels_0_to_2_reports_the_evaluations_made():
    # levels 0-2 (33 nodes at this weight) are summed before the first
    # budget test, so the count made exceeds a budget of 10
    cfg = QuadratureConfig(max_subdivisions=10)
    with pytest.raises(ConvergenceError,
                       match=r"within 10 evaluations \(33 made\)") as exc_info:
        weighted_unit_integral(lambda u: np.exp(u), 0.0, 0.0, cfg)
    assert exc_info.value.result.evaluations == 33


def test_kernel_plain_integral():
    # alpha=1, rho=1, eta=0: kernel is identically 1
    params = OperatorParams(alpha=1.0, beta=1.0, rho=1.0, eta=0.0, kappa=0.0)
    res = integrate_kernel(ONE, params, 2.0)
    assert res.value == pytest.approx(2.0, rel=1e-10)
    assert res.evaluations >= 1
    assert res.error_estimate >= 0.0


def test_kernel_square_root_singularity():
    # int_0^1 (1-t)^(-1/2) dt = 2 from the antiderivative -2(1-t)^(1/2)
    params = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    res = integrate_kernel(ONE, params, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-10)


def test_kernel_monomial_beta_reduction():
    # f=t^2, alpha=2, rho=2, eta=0.5, x=1: substitution gives B(2.5, 2)/rho
    params = OperatorParams(alpha=2.0, beta=0.0, rho=2.0, eta=0.5, kappa=0.0)
    res = integrate_kernel(TSQ, params, 1.0)
    assert res.value == pytest.approx(2.0 / 35.0, rel=1e-10)


def test_kernel_rejects_nonintegrable_origin():
    # integrand t^(rho*(eta+1)-1) = t^(-1) is not integrable at 0
    params = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=-1.0, kappa=0.0)
    with pytest.raises(DomainError):
        integrate_kernel(ONE, params, 1.0)


@pytest.mark.parametrize("one_minus_u_pow, u_pow", [(math.nan, 0.0), (0.0, math.nan)])
def test_weighted_unit_integral_rejects_nan_exponents(one_minus_u_pow, u_pow):
    # NaN compares false, so it used to pass the check and run to the node budget
    with pytest.raises(DomainError, match="weight exponents must exceed -1"):
        weighted_unit_integral(ONE, one_minus_u_pow, u_pow)


def test_closed_form_examples():
    p = OperatorParams(alpha=1.0, beta=1.0, rho=1.0, eta=0.0, kappa=0.0)
    assert closed_form_monomial(p, 0.0, 2.0) == pytest.approx(2.0, rel=1e-13)

    p = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
    assert closed_form_monomial(p, 0.0, 1.0) == pytest.approx(
        1.1283791670955126, rel=1e-13
    )

    p = OperatorParams(alpha=2.0, beta=0.3, rho=2.0, eta=0.5, kappa=1.0)
    # 2^(-0.3) * B(2.5, 2) / Gamma(2), high-precision reference
    assert closed_form_monomial(p, 2.0, 1.0) == pytest.approx(
        0.092828845297855488, rel=1e-13
    )


def test_closed_form_domain_errors():
    p = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0, lower=0.5)
    with pytest.raises(DomainError):
        closed_form_monomial(p, 0.0, 1.0)
    p = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.5, kappa=0.0)
    with pytest.raises(DomainError):
        closed_form_monomial(p, -2.0, 1.0)  # eta + sigma/rho + 1 <= 0


def test_closed_form_below_the_float_range_raises_and_subnormals_stay():
    # the value is x^100: about 1.1e-323 at x = 5.9e-4, a subnormal, and
    # about 4e-325 at x = 5.7e-4, which rounds to 0.0
    p = OperatorParams(alpha=1.0, beta=0.0, rho=1.0, eta=0.0, kappa=99.0)
    assert 0.0 < closed_form_monomial(p, 0.0, 5.9e-4) < sys.float_info.min
    with pytest.raises(DomainError, match="^closed-form value is below the float range$"):
        closed_form_monomial(p, 0.0, 5.7e-4)


def _decaying(t):
    return np.exp(-t * t)


def _kernel_value(params, x):
    return integrate_kernel(_decaying, params, x).value


def _oracle_value(params, x):
    return closed_form_monomial(params, 1.0, x)


def test_kernel_and_oracle_check_params_as_validate_does():
    # the special-value grid of validate's seeded-grid test, left-sided: where
    # validate raises, both raise its ParameterError; elsewhere each gives a
    # finite value or raises DomainError or ConvergenceError, nothing else
    special = [0.0, -1.5, math.nan, math.inf, -math.inf]
    valid = dict(alpha=[0.5], beta=[0.5], rho=[1.0, 2.0], eta=[0.3, 0.0],
                 kappa=[0.7, 0.0], lower=[0.5, 3.0])
    rng = np.random.default_rng(20261019)
    n = 300
    use_valid = (rng.random((n, len(valid))) < 0.75).tolist()
    picks = rng.integers(0, 60, size=(n, len(valid))).tolist()
    seen = set()
    for flags, pick in zip(use_valid, picks):
        fields = {}
        for (name, values), flag, k in zip(valid.items(), flags, pick):
            pool = values if flag else special
            fields[name] = pool[k % len(pool)]
        params = OperatorParams(**fields)
        try:
            validate(params)
            want = None
        except ParameterError as exc:
            want = str(exc)
        for x in (0.7, -1.0, 0.0, math.inf, math.nan):
            for call in (_kernel_value, _oracle_value):
                if want is not None:
                    with pytest.raises(ParameterError) as info:
                        call(params, x)
                    assert str(info.value) == want, (call, params, x)
                    seen.add("ParameterError")
                    continue
                try:
                    value = call(params, x)
                except (DomainError, ConvergenceError) as exc:
                    assert not isinstance(exc, ParameterError), (call, params, x)
                    seen.add((call.__name__, type(exc).__name__))
                    continue
                assert isinstance(value, float) and math.isfinite(value), (call, params, x)
                seen.add((call.__name__, "finite"))
    assert seen == {
        "ParameterError",
        ("_kernel_value", "DomainError"),
        ("_kernel_value", "finite"),
        ("_oracle_value", "DomainError"),
        ("_oracle_value", "finite"),
    }


@pytest.mark.parametrize("call, fields, x, message", [
    (_kernel_value, dict(lower=0.5, rho=0.0), 0.7, "rho must be positive and finite"),
    (_kernel_value, dict(lower=0.5, rho=math.inf), 0.7, "rho must be positive and finite"),
    (_kernel_value, dict(lower=-math.inf), 0.7,
     "kernel integral requires the finite left-sided form"),
    (_kernel_value, dict(upper=2.0, side=Side.RIGHT), 0.7,
     "kernel integral requires the finite left-sided form"),
    (_kernel_value, {}, math.inf, "evaluation point must be finite, got inf"),
    (_oracle_value, dict(beta=math.nan), 0.7, "beta must be finite"),
    (_oracle_value, dict(kappa=math.inf), 0.7, "kappa must be finite"),
    (_oracle_value, dict(upper=2.0, side=Side.RIGHT), 0.7,
     "closed form requires the left-sided form with lower bound 0"),
    (_oracle_value, {}, -1.0, "closed form requires x > 0"),
    (_oracle_value, {}, 0.0, "closed form requires x > 0"),
    (_oracle_value, {}, math.inf, "evaluation point must be finite, got inf"),
    (_oracle_value, {}, math.nan, "evaluation point must be finite, got nan"),
    (_oracle_value, dict(kappa=1000.0), 1e200, "closed-form value is beyond the float range"),
])
def test_kernel_and_oracle_name_the_violated_condition(call, fields, x, message):
    # these returned NaN or inf, or raised ZeroDivisionError, ValueError or
    # OverflowError; a right-sided spec got the left-sided value
    params = OperatorParams(**{**dict(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0),
                               **fields})
    with pytest.raises(DomainError) as info:
        call(params, x)
    assert str(info.value) == message


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("rho", [0.5, 2.0])
@pytest.mark.parametrize("sigma", [0.0, 2.0])
def test_oracle_equivalence_spot(alpha, rho, sigma):
    params = OperatorParams(alpha=alpha, beta=alpha, rho=rho, eta=0.5, kappa=1.0)
    f = _fn(Monomial(sigma))
    x = 1.5
    numeric = evaluate(params, f, x)
    exact = closed_form_monomial(params, sigma, x)
    assert abs(numeric.value - exact) / abs(exact) <= 1e-8


def test_linearity():
    params = OperatorParams(alpha=0.7, beta=0.4, rho=1.3, eta=0.2, kappa=0.6)
    x = 1.2
    f = _fn(ExpPoly((0.1, 0.3)))
    g = _fn(SinPos(2.0, 0.3, 0.5, 1.5))
    rng = np.random.default_rng(5)
    for lam in rng.uniform(-2.0, 2.0, size=5):
        def combo(t, lam=float(lam)):
            return f(t) + lam * g(t)

        lhs = evaluate(params, combo, x)
        rf = evaluate(params, f, x)
        rg = evaluate(params, g, x)
        budget = lhs.error_estimate + rf.error_estimate + abs(lam) * rg.error_estimate
        assert abs(lhs.value - (rf.value + lam * rg.value)) <= 10.0 * budget + 1e-12


def test_monotonicity():
    # f <= g pointwise implies I f <= I g (kernel is nonnegative)
    params = OperatorParams(alpha=0.6, beta=0.1, rho=0.8, eta=0.4, kappa=0.0)
    x = 1.4
    f = _fn(SinPos(3.0, 1.0, 0.5, 1.0))
    g = _fn(SinPos(3.0, 1.0, 1.0, 1.5))  # same phase profile, higher band
    rf = evaluate(params, f, x)
    rg = evaluate(params, g, x)
    assert rf.value <= rg.value + 2.0 * (rf.error_estimate + rg.error_estimate)


def test_error_estimate_honesty_spot():
    for alpha, rho, eta, sigma in [(0.3, 0.5, 1.0, 2.0), (1.7, 2.0, 0.0, 1.0)]:
        params = OperatorParams(alpha=alpha, beta=0.0, rho=rho, eta=eta, kappa=1.0)
        f = _fn(Monomial(sigma))
        numeric = evaluate(params, f, 1.5)
        exact = closed_form_monomial(params, sigma, 1.5)
        assert abs(numeric.value - exact) <= 10.0 * numeric.error_estimate


def test_error_estimate_honesty_full_grid():
    from genfrac.oracle import grid_points

    x = 1.5
    for pt in grid_points():
        f = _fn(Monomial(pt.sigma), hi=x)
        numeric = evaluate(pt.params, f, x)
        exact = closed_form_monomial(pt.params, pt.sigma, x)
        assert abs(numeric.value - exact) <= 10.0 * numeric.error_estimate, pt


def test_nonconvergence_carries_best_estimate():
    params = OperatorParams(alpha=0.35, beta=0.0, rho=1.0, eta=0.0, kappa=0.0)
    f = _fn(SinPos(90.0, 0.2, 0.5, 1.5))  # fast oscillation needs many nodes
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=60)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_kernel(f, params, 1.0, cfg)
    best = exc_info.value.result
    assert best is not None
    assert best.evaluations >= 1
    assert math.isfinite(best.value)


def test_breakpoint_split_matches_single_shot():
    params = OperatorParams(alpha=0.7, beta=0.3, rho=1.5, eta=0.5, kappa=0.0)
    f = _fn(ExpPoly((0.0, 0.4, -0.3)))
    whole = integrate_kernel(f, params, 1.3)
    split = integrate_kernel(f, params, 1.3, breakpoints=(0.3, 0.9))
    assert split.value == pytest.approx(whole.value, rel=1e-10)
    # out-of-range breakpoints are ignored
    same = integrate_kernel(f, params, 1.3, breakpoints=(-1.0, 5.0))
    assert same.value == whole.value
    # a numpy array of breakpoints works as a tuple does
    assert integrate_kernel(f, params, 1.3, breakpoints=np.array([0.3, 0.9])) == split
    assert integrate_kernel(f, params, 1.3, breakpoints=np.array([])) == whole


def test_weighted_unit_integral_rejects_bad_exponents():
    with pytest.raises(DomainError):
        weighted_unit_integral(lambda u: u, -1.0, 0.0)
    with pytest.raises(DomainError):
        weighted_unit_integral(lambda u: u, 0.0, -1.5)


# ---------------------------------------------------------------------------
# several integrands per call: one row each, one node set
# ---------------------------------------------------------------------------

SMOOTH = _fn(ExpPoly((0.1, 0.3, -0.2)))
FAST = _fn(SinPos(40.0, 0.3, 0.5, 1.5))


def _stacked(*fns):
    return lambda t: np.array([np.asarray(f(t), dtype=float) for f in fns])


@pytest.mark.parametrize(
    "params",
    [
        OperatorParams(alpha=0.7, beta=0.4, rho=1.3, eta=0.2, kappa=0.6),
        OperatorParams(alpha=0.3, beta=0.0, rho=0.5, eta=1.0, kappa=1.0, lower=0.2),
        OperatorParams(alpha=1.5, beta=0.5, rho=2.0, eta=0.0, kappa=0.0,
                       upper=2.0, side=Side.RIGHT),
    ],
)
def test_rows_match_separate_scalar_calls(params):
    fns = (SMOOTH, FAST, TSQ)
    # only the left-sided form takes breakpoints
    breakpoints = (0.7,) if params.side is Side.LEFT else ()
    rows = evaluate(params, _stacked(*fns), 1.2, breakpoints=breakpoints)
    assert rows.value.shape == rows.error_estimate.shape == (3,)
    for i, f in enumerate(fns):
        one = evaluate(params, f, 1.2, breakpoints=breakpoints)
        assert abs(rows.value[i] - one.value) <= rows.error_estimate[i] + one.error_estimate


def test_rows_refine_until_the_slowest_row_converges():
    smooth = weighted_unit_integral(SMOOTH, -0.5, 0.0)
    fast = weighted_unit_integral(FAST, -0.5, 0.0)
    both = weighted_unit_integral(_stacked(SMOOTH, FAST), -0.5, 0.0)
    assert smooth.evaluations < fast.evaluations
    assert both.evaluations == fast.evaluations
    assert both.value[1] == pytest.approx(fast.value, rel=1e-13)


def test_monomial_rows_match_closed_form_with_honest_estimates():
    sigmas = (0.0, 0.5, 1.0, 2.0, 3.0)
    monomials = [_fn(Monomial(s), hi=1.5) for s in sigmas]
    for alpha, rho, eta in [(0.3, 0.5, 1.0), (1.0, 1.0, 0.0), (2.5, 2.0, 0.5)]:
        params = OperatorParams(alpha=alpha, beta=0.3, rho=rho, eta=eta, kappa=1.0)
        rows = evaluate(params, _stacked(*monomials), 1.5)
        for sigma, value, err in zip(sigmas, rows.value, rows.error_estimate):
            exact = closed_form_monomial(params, sigma, 1.5)
            assert abs(value - exact) / exact <= 1e-8
            assert abs(value - exact) <= 10.0 * err


def test_row_nonconvergence_carries_per_row_arrays():
    params = OperatorParams(alpha=0.35, beta=0.0, rho=1.0, eta=0.0, kappa=0.0)
    fast = _fn(SinPos(90.0, 0.2, 0.5, 1.5))
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=60)
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate(params, _stacked(ONE, fast), 1.0, cfg)
    best = exc_info.value.result
    assert best.value.shape == best.error_estimate.shape == (2,)
    assert np.all(np.isfinite(best.value))
    # the constant row is the exact operator value of 1, in operator units
    assert best.value[0] == pytest.approx(1.0 / math.gamma(1.35), rel=1e-10)


# ---------------------------------------------------------------------------
# a failed integral reports its best estimate of the operator value
# ---------------------------------------------------------------------------

KINKED = _fn(PMax(Polynomial((1.0, -1.0)), Polynomial((0.2, 1.0))), hi=1.0)
KINK_PARAMS = OperatorParams(alpha=0.5, beta=0.5, rho=1.0, eta=0.0, kappa=0.0)
KINK_VALUE = 1.0753573846107687  # split at the kink t = 0.4


def test_kinked_reference_converges_with_its_breakpoint():
    res = evaluate(KINK_PARAMS, KINKED, 1.0, breakpoints=(0.4,))
    assert res.value == pytest.approx(KINK_VALUE, rel=1e-13)


@pytest.mark.parametrize("breakpoints", [(), (0.3,), (0.6,)])
def test_nonconvergence_best_estimate_is_in_operator_units(breakpoints):
    # without the breakpoint at the kink the default budget runs out; the
    # best estimate must be the operator value, not the raw unit integral
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate(KINK_PARAMS, KINKED, 1.0, breakpoints=breakpoints)
    best = exc_info.value.result
    assert abs(best.value - KINK_VALUE) <= 1e-5
    assert abs(best.value - KINK_VALUE) <= 10.0 * best.error_estimate


def test_nonconvergence_best_estimate_scales_prefactor_and_rows():
    params = OperatorParams(alpha=0.5, beta=0.2, rho=1.0, eta=0.0, kappa=1.5)
    x = 2.0  # rho^(1-beta) x^kappa / Gamma(alpha) and the substitution scale
    kinked = TestFunction(PMax(Polynomial((2.0, -1.0)), Polynomial((0.4, 1.0))), (0.0, x))
    reference = evaluate(params, kinked, x, breakpoints=(0.8,)).value
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate(params, _stacked(kinked, TestFunction(Const(1.0), (0.0, x))), x)
    best = exc_info.value.result
    assert best.value[0] == pytest.approx(reference, rel=1e-5)
    assert best.value[1] == pytest.approx(evaluate(params, ONE, x).value, rel=1e-12)


def test_classical_nonconvergence_best_estimate_is_in_operator_units():
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate_classical(ClassicalKind.RIEMANN_LIOUVILLE, 0.5, KINKED, (0.0,), 1.0)
    assert abs(exc_info.value.result.value - KINK_VALUE) <= 1e-5


def test_truncated_form_rows_and_divergence():
    # Weyl integral of e^(c t) from -inf is c^(-alpha) e^(c x)
    params = OperatorParams(alpha=0.6, beta=0.6, rho=1.0, eta=0.0, kappa=0.0,
                            lower=-math.inf)
    rows = evaluate(params, _stacked(_fn(ExpPoly((0.0, 1.0))), _fn(ExpPoly((0.0, 2.0)))), 0.5)
    for c, value, err in zip((1.0, 2.0), rows.value, rows.error_estimate):
        exact = c ** -0.6 * math.exp(0.5 * c)
        assert abs(value - exact) <= max(1e-8 * exact, 10.0 * err)
    # a row that does not decay stops the whole call; the estimate is unbounded
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate(params, _stacked(_fn(ExpPoly((0.0, 1.0))), ONE), 0.5)
    best = exc_info.value.result
    assert best.value.shape == (2,)
    assert np.all(np.isinf(best.error_estimate))
    # so is one whose first, singular segment does not converge
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate(params, _stacked(_fn(ExpPoly((0.0, 1.0))), ONE), 0.5,
                 QuadratureConfig(max_subdivisions=1))
    best = exc_info.value.result
    assert best.error_estimate.shape == best.value.shape == (2,)
    assert np.all(np.isinf(best.error_estimate))


# ---------------------------------------------------------------------------
# levels 0-4 sampled in one integrand call
# ---------------------------------------------------------------------------


def _level_sizes(one_minus_u_pow, u_pow):
    t_max = quadrature._pick_t_max(one_minus_u_pow, u_pow)
    return [quadrature._compute_level_nodes(t_max, level)[0].size
            for level in range(quadrature._MAX_LEVEL + 1)]


def _per_level_reference(g, one_minus_u_pow, u_pow, cfg):
    """The refinement loop, level by level, with a stop test at every level.

    Levels 0-3 are laid out as one array of nodes, weights and g values,
    and each level sums its slice of it, as weighted_unit_integral does: a
    BLAS dot kernel may round a sum differently at another offset in
    memory.  For the same reason g's leading dimensions beyond one are
    flattened into rows before any slice, and restored in the result.
    Deeper levels call g once each, on fresh arrays of nodes, values and
    weights, whatever _BLOCK_LEVEL is: so a level that weighted_unit_integral
    takes from its block must sum to the bits of a call of its own.

    From _MIN_LEVEL on, a level that misses the tolerance with a value that
    is not finite ends refinement, as no deeper level can make it finite.

    Returns (outcome, value, error estimate, evaluations); the outcome names
    the ConvergenceError that weighted_unit_integral raises, if any.
    """

    def weights(log_u, log_1mu, log_jac):
        return np.exp(log_jac + (u_pow + 1.0) * log_u + (one_minus_u_pow + 1.0) * log_1mu)

    t_max = quadrature._pick_t_max(one_minus_u_pow, u_pow)
    min_level = quadrature._MIN_LEVEL
    block = [quadrature._compute_level_nodes(t_max, level) for level in range(4)]
    offsets = np.cumsum([0] + [nodes[0].size for nodes in block]).tolist()
    u, log_u, log_1mu, log_jac = (np.concatenate(parts) for parts in zip(*block))
    block_g, block_w = np.asarray(g(u)), weights(log_u, log_1mu, log_jac)
    shape = block_g.shape[:-1]

    def rows(vals):
        return vals.reshape(-1, vals.shape[-1]) if vals.ndim > 2 else vals

    def result(outcome, value, estimate, evals):
        if len(shape) > 1:
            value, estimate = np.reshape(value, shape), np.reshape(estimate, shape)
        return outcome, value, estimate, evals

    block_g = rows(block_g)
    evals, total, value, prev, estimate = 0, 0.0, 0.0, None, math.inf
    for level in range(quadrature._MAX_LEVEL + 1):
        if level < len(block):
            lo, hi = offsets[level], offsets[level + 1]
            level_g, w = block_g[..., lo:hi], block_w[lo:hi]
        else:
            u, log_u, log_1mu, log_jac = quadrature._compute_level_nodes(t_max, level)
            level_g, w = rows(np.asarray(g(u))), weights(log_u, log_1mu, log_jac)
        if level >= min_level and evals + w.size > cfg.max_subdivisions:
            return result("budget", value, estimate, evals)
        total = total + np.dot(level_g, w)
        evals += w.size
        value = 2.0 ** (-level) * total
        if prev is not None:
            estimate = np.abs(value - prev)
            if level >= min_level and np.all(
                estimate <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
            ):
                floor = quadrature._ROUNDOFF * np.abs(value)
                return result("ok", value, np.maximum(estimate, floor), evals)
            if level >= min_level and not np.all(np.isfinite(value)):
                return result("not finite", value, estimate, evals)
        prev = value
    return result("levels", value, estimate, evals)


def _outcome(g, one_minus_u_pow, u_pow, cfg):
    try:
        res = weighted_unit_integral(g, one_minus_u_pow, u_pow, cfg)
        outcome = "ok"
    except ConvergenceError as exc:
        res = exc.result
        if "not finite" in str(exc):
            outcome = "not finite"
        else:
            outcome = "budget" if "evaluations" in str(exc) else "levels"
    return outcome, res.value, res.error_estimate, res.evaluations


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


WEIGHTS = [(-0.5, 0.0), (0.0, 0.0), (1.5, -0.7), (-0.95, 0.2)]  # t_max 4.5, 4, 5, 7

# the Weyl reproducer's [x-8, x-4] truncation segment (tests/test_reference.py)
# as _kernel_segment hands it to weighted_unit_integral, at weight (0, 0):
# its levels 1 and 2 agree by chance, so a stop at level 2 takes 33 nodes
# where refinement to level 3 and beyond takes 129
_WEYL_C = (-0.35273568848580283, 0.18884244124957472, -0.9432538960629218)
_WEYL_ALPHA, _WEYL_X = 0.6070039823465437, 0.8420226549937566
_WEYL_F = TestFunction(ExpPoly(_WEYL_C), (-math.inf, _WEYL_X))


def WEYL_SEGMENT(u):
    return _WEYL_F(_WEYL_X - 8.0 + 4.0 * u) * (4.0 + 4.0 * (1.0 - u)) ** (_WEYL_ALPHA - 1.0)


def NEGATIVE_ZERO_SUM(u):
    """The smallest negative subnormal, and -0.0 near u = 1/2.

    At weight (0, 0) every level-0 weight but the one at u = 1/2 is below
    one half, so each level-0 product rounds to -0.0, and on a BLAS kernel
    that accumulates by fused multiply-add so does the level-0 sum.  Both
    paths start the running total as 0.0 + s0; a -0.0 start would show in
    the value only if every later level summed to -0.0 as well.  OpenBLAS's
    SkylakeX kernel gives -0.0 at level 0 only, and its Prescott kernel at
    no level.
    """
    return np.where(np.abs(u - 0.5) < 0.1, -0.0, -5e-324)


def NAN_PAST_LEVEL_3(u):
    """1 + u, but NaN on a band of u that holds no node of levels 0-3.

    The band lies between their nodes at t = 0 and t = 1/8 (u = 0.5 and
    0.598 whatever the weight), around level 4's node t = 1/16 (u = 0.549),
    so the row's value turns NaN at level 4, which the block samples.
    """
    return np.where((0.53 < u) & (u < 0.57), np.nan, 1.0 + u)


# Under OpenBLAS's generic kernel (OPENBLAS_CORETYPE=Prescott) the level-4
# sums of these, alone or as one row, round differently when summed over
# slices of the block's values and weights than over arrays of their own,
# and the level-4 value shows it: u^5.55 at weight (-0.5, 0), u^2.35 at
# (0, 0), u^2.1 at (1.5, -0.7), e^(-3.6u) at (-0.95, 0.2).  Kernels that
# round both sums alike make them integrands like any other.
LEVEL_4_PROBES = [lambda u: u ** 5.55, lambda u: u ** 2.35, lambda u: u ** 2.1,
                  lambda u: np.exp(-3.6 * u)]

INTEGRANDS = [SMOOTH, FAST, KINKED, WEYL_SEGMENT,
              _stacked(SMOOTH, FAST), _stacked(ONE, KINKED), _stacked(WEYL_SEGMENT, SMOOTH),
              _stacked(SMOOTH, KINKED, WEYL_SEGMENT),
              lambda u: _stacked(FAST, ONE, KINKED, SMOOTH)(u).reshape(2, 2, -1),
              _stacked(NEGATIVE_ZERO_SUM, SMOOTH), _stacked(NEGATIVE_ZERO_SUM, FAST),
              _stacked(KINKED, NAN_PAST_LEVEL_3), _stacked(NAN_PAST_LEVEL_3, SMOOTH)]
INTEGRANDS += LEVEL_4_PROBES + [_stacked(probe) for probe in LEVEL_4_PROBES]


def _assert_same_outcome(got, want):
    assert got[0] == want[0]
    assert _bits(got[1]) == _bits(want[1])
    assert _bits(got[2]) == _bits(want[2])
    assert got[3] == want[3]


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
def test_first_call_samples_the_block_then_one_level_per_call(one_minus_u_pow, u_pow):
    # the block is levels 0-4: an integral that stops at level 3 or 4 makes
    # one call, and each level past the block one more
    sizes = _level_sizes(one_minus_u_pow, u_pow)
    faster = _fn(SinPos(120.0, 0.3, 0.5, 1.5))
    for base, stop in ((SMOOTH, 3), (WEYL_SEGMENT, 4), (FAST, 5), (faster, 6)):
        calls = []

        def g(u):
            calls.append(u.size)
            return base(u)

        res = weighted_unit_integral(g, one_minus_u_pow, u_pow)
        assert res.evaluations == sum(sizes[:stop + 1])
        assert calls == [sum(sizes[:5])] + sizes[5:stop + 1]


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
@pytest.mark.parametrize(
    "cfg",
    [QuadratureConfig(),
     QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=300),
     QuadratureConfig(max_subdivisions=100000)],
)
def test_block_pass_matches_per_level_loop_bit_for_bit(one_minus_u_pow, u_pow, cfg):
    for g in INTEGRANDS:
        got = _outcome(g, one_minus_u_pow, u_pow, cfg)
        want = _per_level_reference(g, one_minus_u_pow, u_pow, cfg)
        _assert_same_outcome(got, want)
        want_type = float if np.ndim(want[1]) == 0 else np.ndarray
        assert type(got[1]) is want_type
        assert type(got[2]) is want_type


def test_weyl_segment_refines_past_level_two():
    cfg = QuadratureConfig()
    assert _outcome(WEYL_SEGMENT, 0.0, 0.0, cfg)[3] == 129
    assert _outcome(_stacked(WEYL_SEGMENT, WEYL_SEGMENT), 0.0, 0.0, cfg)[3] == 129


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
@pytest.mark.parametrize("levels", [4, 5])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_pass_matches_per_level_loop_at_block_boundary_budgets(
    one_minus_u_pow, u_pow, levels, offset
):
    # budgets of exactly levels 0-3 or 0-4 nodes, and one either side
    budget = sum(_level_sizes(one_minus_u_pow, u_pow)[:levels]) + offset
    for cfg in (QuadratureConfig(max_subdivisions=budget),
                QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=budget)):
        for g in INTEGRANDS:
            _assert_same_outcome(_outcome(g, one_minus_u_pow, u_pow, cfg),
                                 _per_level_reference(g, one_minus_u_pow, u_pow, cfg))


@pytest.mark.parametrize("g", [FAST, _stacked(SMOOTH, FAST)])
def test_budget_below_the_block_reports_the_level_2_estimate(g):
    sizes = _level_sizes(-0.5, 0.0)
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=sum(sizes[:4]) - 1)
    calls = []

    def recorded(u):
        calls.append(u.size)
        return g(u)

    with pytest.raises(ConvergenceError, match="within %d evaluations" % cfg.max_subdivisions) as exc_info:
        weighted_unit_integral(recorded, -0.5, 0.0, cfg)
    best = exc_info.value.result
    # the level-3 and level-4 nodes were sampled with the block but are not counted
    assert calls == [sum(sizes[:5])]
    assert best.evaluations == sum(sizes[:3]) == 37
    want = _per_level_reference(g, -0.5, 0.0, cfg)
    assert want[0] == "budget"
    assert _bits(best.value) == _bits(want[1])
    assert _bits(best.error_estimate) == _bits(want[2])


@pytest.mark.parametrize("g", [FAST, _stacked(SMOOTH, FAST)])
@pytest.mark.parametrize("past_level_3", [0, 35, 71], ids=["0-3", "inside", "0-4-minus-1"])
def test_budget_inside_the_block_reports_the_level_3_value(g, past_level_3):
    # a budget of levels 0-3 and fewer than all 72 nodes of level 4
    sizes = _level_sizes(-0.5, 0.0)
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15,
                           max_subdivisions=sum(sizes[:4]) + past_level_3)
    calls = []

    def recorded(u):
        calls.append(u.size)
        return g(u)

    with pytest.raises(ConvergenceError, match=r"within %d evaluations \(73 made\)"
                       % cfg.max_subdivisions) as exc_info:
        weighted_unit_integral(recorded, -0.5, 0.0, cfg)
    best = exc_info.value.result
    # level 4 was sampled with the block, in the one call, but not summed
    assert calls == [sum(sizes[:5])]
    assert best.evaluations == sum(sizes[:4]) == 73
    want = _per_level_reference(g, -0.5, 0.0, cfg)
    assert want[0] == "budget" and want[3] == 73
    assert _bits(best.value) == _bits(want[1])
    assert _bits(best.error_estimate) == _bits(want[2])


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel the OPENBLAS_CORETYPE variable picks per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, "
                           "so OPENBLAS_CORETYPE cannot pick another kernel")
def test_block_sums_agree_with_the_reference_under_the_generic_openblas_kernel():
    # the bit-for-bit tests above, in a child process on the generic kernel
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "matches_per_level_loop or reports_the_level_2_estimate"
               " or reports_the_level_3_value"],
        env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# weights cached per pair of weight exponents
# ---------------------------------------------------------------------------


def _formula_weights(one_minus_u_pow, u_pow, levels):
    """Weights of the given levels, concatenated, from uncached nodes."""
    t_max = quadrature._pick_t_max(one_minus_u_pow, u_pow)
    parts = [quadrature._compute_level_nodes(t_max, level) for level in levels]
    u, log_u, log_1mu, log_jac = (np.concatenate(p) for p in zip(*parts))
    w = np.exp(log_jac + (u_pow + 1.0) * log_u + (one_minus_u_pow + 1.0) * log_1mu)
    return u, w


def _entry(one_minus_u_pow, u_pow):
    """The cache entry of a weight after an integral that reaches level 6."""
    cfg = QuadratureConfig(max_subdivisions=100000)
    evaluations = _outcome(KINKED, one_minus_u_pow, u_pow, cfg)[3]
    assert evaluations >= sum(_level_sizes(one_minus_u_pow, u_pow)[:7])
    return quadrature._cached_levels(one_minus_u_pow, u_pow)


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
def test_cached_weights_equal_the_formula_bit_for_bit(one_minus_u_pow, u_pow):
    quadrature._cached_levels.cache_clear()
    t_max, offsets, views, levels = _entry(one_minus_u_pow, u_pow)
    assert t_max == quadrature._pick_t_max(one_minus_u_pow, u_pow)
    assert list(offsets) == np.cumsum([0] + _level_sizes(one_minus_u_pow, u_pow)[:5]).tolist()
    # the block's nodes are levels 0-4, its weights levels 0-3; level 4's
    # weights are an array of their own, as level 5's
    want = [(range(5), range(4)), ([4], [4]), ([5], [5])]
    assert len(levels) == len(want) == quadrature._CACHED_LEVEL - quadrature._MIN_LEVEL + 1
    for (u, w), (node_levels, weight_levels) in zip(levels, want):
        assert _bits(u) == _bits(_formula_weights(one_minus_u_pow, u_pow, node_levels)[0])
        assert _bits(w) == _bits(_formula_weights(one_minus_u_pow, u_pow, weight_levels)[1])
        for array in (u, w):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
    assert levels[1][1].base is None
    # one view per level 0-3, slicing the block's weights, not copying them
    block = levels[0][1]
    assert len(views) == len(offsets) - 2 == 4
    for level, view in enumerate(views):
        assert _bits(view) == _bits(_formula_weights(one_minus_u_pow, u_pow, [level])[1])
        assert _bits(view) == _bits(block[offsets[level]:offsets[level + 1]])
        assert np.shares_memory(view, block)
        assert view.base is block
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0.0


def test_weight_cache_is_bounded_and_stops_at_level_5():
    info = quadrature._cached_levels.cache_info()
    assert info.maxsize == quadrature._WEIGHT_CACHE_SIZE == 256
    t_max, _, _, levels = _entry(-0.5, 0.0)
    a1, b1 = 0.5, 1.0
    assert quadrature._deep_level(levels, t_max, 5, a1, b1) is levels[2]
    # level 6 computes its weights afresh on every call, and keeps none
    first = quadrature._deep_level(levels, t_max, 6, a1, b1)
    second = quadrature._deep_level(levels, t_max, 6, a1, b1)
    assert first[1] is not second[1]
    assert _bits(first[1]) == _bits(second[1]) == _bits(_formula_weights(-0.5, 0.0, [6])[1])
    assert len(levels) == 3


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
def test_cold_and_warm_weight_cache_give_identical_results(one_minus_u_pow, u_pow):
    cfgs = [QuadratureConfig(), QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=300)]
    runs = []
    for _ in range(2):
        quadrature._cached_levels.cache_clear()
        for _ in range(2):  # cold, then warm
            runs.append([_outcome(g, one_minus_u_pow, u_pow, cfg)
                         for g in INTEGRANDS for cfg in cfgs])
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            _assert_same_outcome(got, want)


def test_rows_with_an_infinite_row_fail_without_warnings():
    def g(u):
        return np.stack([np.exp(u), np.full_like(u, np.inf)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc_info:
            weighted_unit_integral(g, -0.5, 0.0)
    best = exc_info.value.result
    assert best.value.shape == best.error_estimate.shape == (2,)
    assert best.value[0] == pytest.approx(weighted_unit_integral(np.exp, -0.5, 0.0).value)
    assert np.isinf(best.value[1])
    assert np.isnan(best.error_estimate[1])


def test_rows_keep_leading_dimensions():
    def flat(u):
        return np.stack([u ** k for k in range(6)])

    want = weighted_unit_integral(flat, -0.5, 0.3)
    got = weighted_unit_integral(lambda u: flat(u).reshape(2, 3, -1), -0.5, 0.3)
    assert got.value.shape == got.error_estimate.shape == (2, 3)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.error_estimate) == _bits(want.error_estimate)
    assert got.evaluations == want.evaluations


@pytest.mark.parametrize("rows", [False, True])
def test_a_non_finite_integrand_stops_at_level_3(rows):
    # a NaN row used to refine to the node budget: 1153 evaluations
    def g(u):
        nan = np.full_like(u, np.nan)
        return np.stack([np.exp(u), nan]) if rows else nan

    with pytest.raises(ConvergenceError) as exc_info:
        weighted_unit_integral(g, -0.5, 0.0)
    levels_0_to_3 = sum(_level_sizes(-0.5, 0.0)[:4])
    assert str(exc_info.value) == (
        "integrand is not finite at the quadrature nodes (%d evaluations made)" % levels_0_to_3
    )
    best = exc_info.value.result
    assert best.evaluations == levels_0_to_3
    if rows:
        assert best.value.shape == best.error_estimate.shape == (2,)
        assert math.isfinite(best.value[0]) and math.isnan(best.value[1])
    else:
        assert math.isnan(best.value) and math.isnan(best.error_estimate)


# ---------------------------------------------------------------------------
# the nodes f receives
# ---------------------------------------------------------------------------


def _counted_sweep(x, monkeypatch):
    """oracle.sweep(x) over the oracle's rhos and the suite's rho = 1.5.

    Returns the bits of each result (value, error estimate, node count),
    and f's calls and points as `--trace 1` counts them.
    """
    results = []
    counts = {"calls": 0, "points": 0}
    call, evaluate_ = TestFunction.__call__, oracle.evaluate

    def counted_call(f, t):
        counts["calls"] += 1
        counts["points"] += int(np.size(t))
        return call(f, t)

    def recorded(*args):
        results.append(evaluate_(*args))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(TestFunction, "__call__", counted_call)
        m.setattr(oracle, "evaluate", recorded)
        m.setattr(oracle, "GRID_RHOS", oracle.GRID_RHOS + (1.5,))
        oracle.sweep(x)
    assert len(results) == 720
    bits = [(_bits(r.value), _bits(r.error_estimate), r.evaluations) for r in results]
    return bits, counts


@pytest.mark.parametrize("x", [0.7, 1.5, 2.3])
def test_a_repeated_sweep_gives_the_same_bits_in_one_call_per_integral(x, monkeypatch):
    first, first_counts = _counted_sweep(x, monkeypatch)
    again, again_counts = _counted_sweep(x, monkeypatch)
    assert first == again
    # every sweep integral stops by level 4, so each makes one call
    assert first_counts["calls"] == again_counts["calls"] == 720
    assert first_counts["points"] == again_counts["points"]


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.5, 2.0])
def test_a_zero_samples_f_at_x_times_u_to_the_one_over_rho(rho):
    # 1/rho = 2, 1 and 0.5 take numpy's fast paths for **; 1/1.5 does not.
    # The fast oscillation takes the integral past the block, to level 5
    # and deeper, each level's nodes in a call of its own.
    params = OperatorParams(alpha=0.5, beta=0.5, rho=rho, eta=0.3, kappa=0.1)
    x = 1.3
    base = _fn(SinPos(40.0, 0.3, 0.5, 1.5))
    received = []

    def f(t):
        received.append(t.copy())
        return base(t)

    evaluate(params, f, x)
    t_max = quadrature._cached_levels(params.alpha - 1.0, params.eta)[0]
    nodes = [quadrature._block_nodes(t_max)[0]]
    nodes += [quadrature._level_nodes(t_max, level)[0]
              for level in range(quadrature._BLOCK_LEVEL + 1,
                                 quadrature._BLOCK_LEVEL + len(received))]
    assert len(received) > 1
    assert [_bits(t) for t in received] == [_bits(x * u ** (1.0 / rho)) for u in nodes]


def test_x_of_any_numeric_type_gives_the_float_bits():
    params = OperatorParams(alpha=0.5, beta=0.5, rho=1.5, eta=0.3, kappa=0.1)
    want = _bits(evaluate(params, TSQ, 2.0))
    for x in (2, np.float64(2.0), np.array(2.0)):
        assert _bits(evaluate(params, TSQ, x)) == want


def _scribbling(base, writeable):
    """base, after which f fills its argument with NaN; each argument's
    writeable flag goes to ``writeable``.  Writing raises on a read-only
    array, and would corrupt later integrals if the array were shared."""
    def f(t):
        writeable.append(t.flags.writeable)
        vals = np.array(base(t))
        t[...] = np.nan
        return vals
    return f


_SMOOTH_3 = _fn(ExpPoly((0.1, -0.3)), hi=3.0)
_WEYL = OperatorParams(_WEYL_ALPHA, 0.0, 1.0, 0.0, 0.0, lower=-math.inf)
_FULL_SPAN = OperatorParams(alpha=0.5, beta=0.5, rho=1.5, eta=0.3, kappa=0.1)
# (base f, how the path evaluates an f)
_PATHS = {
    "a > 0": (_SMOOTH_3, lambda f: evaluate(OperatorParams(0.5, 0.5, 2.0, 0.3, 0.1, lower=0.5),
                                            f, 1.5)),
    "right": (_SMOOTH_3, lambda f: evaluate(
        OperatorParams(0.7, 0.2, 1.5, 0.3, 0.1, side=Side.RIGHT, upper=2.0), f, 0.8)),
    "breakpoints": (KINKED, lambda f: evaluate(KINK_PARAMS, f, 1.0, breakpoints=(0.4,))),
    # the truncated form's first segment, [x - 1, x], spans [0, 1] once
    # shifted to start at 0, and f receives the shifted nodes lo + s
    "weyl": (_WEYL_F, lambda f: evaluate(_WEYL, f, _WEYL_X)),
    "weyl classical": (_WEYL_F, lambda f: evaluate_classical(
        ClassicalKind.WEYL, _WEYL_ALPHA, f, (-math.inf,), _WEYL_X)),
    **{kind.value: (_SMOOTH_3, lambda f, kind=kind, a=a: evaluate_classical(
        kind, 0.5, f, (a,), 1.5, rho=2.0, sigma=2.0))
       for kind, a in ((ClassicalKind.RIEMANN_LIOUVILLE, 0.0), (ClassicalKind.HADAMARD, 0.5),
                       (ClassicalKind.KATUGAMPOLA, 0.0), (ClassicalKind.ERDELYI_KOBER, 0.0))},
    # the segment spanning [0, x], at each numeric type x may come in
    **{"a = 0, %s x" % name: (TSQ, lambda f, x=x: evaluate(_FULL_SPAN, f, x))
       for name, x in (("float", 2.0), ("int", 2), ("float64", np.float64(2.0)),
                       ("0-d array", np.array(2.0)))},
}


@pytest.mark.parametrize("path", list(_PATHS))
def test_every_path_hands_f_a_private_writeable_array(path):
    base, run = _PATHS[path]
    want = run(base)
    writeable = []
    # twice, so a second integral would see what the first one wrote
    for _ in range(2):
        got = run(_scribbling(base, writeable))
        assert all(_bits(g) == _bits(w) for g, w in zip(got, want))
    assert writeable and all(writeable)
    assert all(_bits(g) == _bits(w) for g, w in zip(run(base), want))


def test_threads_give_serial_bits():
    # four threads on two cores, switching every microsecond, each going
    # through the x values in its own order; the weight cache stores a
    # level's nodes and weights without a lock (see _deep_level)
    points = [(p.params, p.sigma) for p in oracle.grid_points()[::6]]
    xs = [1.0 + k / 32 for k in range(24)]
    starts = (0, 6, 12, 18)

    def run(xs):
        return [[_bits(evaluate(params, _fn(Monomial(sigma), x), x)) for params, sigma in points]
                for x in xs]

    want = run(xs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(starts)) as pool:
            futures = [pool.submit(run, xs[k:] + xs[:k]) for k in starts]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[k:] + want[:k] for k in starts]
