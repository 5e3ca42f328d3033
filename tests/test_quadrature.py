"""Kernel quadrature against the closed-form monomial oracle."""

import math

import numpy as np
import pytest

from genfrac.errors import ConvergenceError, DomainError
from genfrac.functions import (
    Const,
    ExpPoly,
    Monomial,
    PMax,
    Polynomial,
    SinPos,
    Sum,
    TestFunction,
)
from genfrac.operator_core import (
    ClassicalKind,
    OperatorParams,
    Side,
    evaluate,
    evaluate_classical,
)
from genfrac import quadrature
from genfrac.quadrature import (
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
        combo = TestFunction(Sum(((1.0, f.expr), (float(lam), g.expr))), f.domain)
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
    rows = evaluate(params, _stacked(*fns), 1.2, breakpoints=(0.7,))
    assert rows.value.shape == rows.error_estimate.shape == (3,)
    for i, f in enumerate(fns):
        one = evaluate(params, f, 1.2, breakpoints=(0.7,))
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
# levels 0-3 sampled in one integrand call
# ---------------------------------------------------------------------------


def _level_sizes(one_minus_u_pow, u_pow):
    t_max = quadrature._pick_t_max(one_minus_u_pow, u_pow)
    return [quadrature._compute_level_nodes(t_max, level)[0].size
            for level in range(quadrature._MAX_LEVEL + 1)]


def _per_level_reference(g, one_minus_u_pow, u_pow, cfg):
    """The refinement loop with one integrand call per level.

    Returns (outcome, value, error estimate, evaluations); the outcome names
    the ConvergenceError that weighted_unit_integral raises, if any.
    """
    t_max = quadrature._pick_t_max(one_minus_u_pow, u_pow)
    evals, total, value, prev, estimate = 0, 0.0, 0.0, None, math.inf
    for level in range(quadrature._MAX_LEVEL + 1):
        u, log_u, log_1mu, log_jac = quadrature._compute_level_nodes(t_max, level)
        if level > 2 and evals + u.size > cfg.max_subdivisions:
            return "budget", value, estimate, evals
        w = np.exp(log_jac + (u_pow + 1.0) * log_u + (one_minus_u_pow + 1.0) * log_1mu)
        total = total + np.dot(g(u), w)
        evals += u.size
        value = 2.0 ** (-level) * total
        if prev is not None:
            estimate = np.abs(value - prev)
            if level >= 2 and np.all(
                estimate <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
            ):
                floor = quadrature._ROUNDOFF * np.abs(value)
                return "ok", value, np.maximum(estimate, floor), evals
        prev = value
    return "levels", value, estimate, evals


def _outcome(g, one_minus_u_pow, u_pow, cfg):
    try:
        res = weighted_unit_integral(g, one_minus_u_pow, u_pow, cfg)
        outcome = "ok"
    except ConvergenceError as exc:
        res = exc.result
        outcome = "budget" if "evaluations" in str(exc) else "levels"
    return outcome, res.value, res.error_estimate, res.evaluations


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


WEIGHTS = [(-0.5, 0.0), (0.0, 0.0), (1.5, -0.7), (-0.95, 0.2)]  # t_max 4.5, 4, 5, 7


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
def test_first_call_samples_the_block_then_one_level_per_call(one_minus_u_pow, u_pow):
    sizes = _level_sizes(one_minus_u_pow, u_pow)
    calls = []

    def g(u):
        calls.append(u.size)
        return FAST(u)

    res = weighted_unit_integral(g, one_minus_u_pow, u_pow)
    deepest = len(calls) + 2
    assert deepest > 4  # FAST needs levels past the block
    assert calls == [sum(sizes[:4])] + sizes[4:deepest + 1]
    assert res.evaluations == sum(sizes[:deepest + 1])


@pytest.mark.parametrize("one_minus_u_pow, u_pow", WEIGHTS)
@pytest.mark.parametrize(
    "cfg",
    [QuadratureConfig(),
     QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=300),
     QuadratureConfig(max_subdivisions=100000)],
)
def test_block_pass_matches_per_level_loop_bit_for_bit(one_minus_u_pow, u_pow, cfg):
    integrands = [SMOOTH, FAST, KINKED, _stacked(SMOOTH, FAST), _stacked(ONE, KINKED)]
    for g in integrands:
        got = _outcome(g, one_minus_u_pow, u_pow, cfg)
        want = _per_level_reference(g, one_minus_u_pow, u_pow, cfg)
        assert got[0] == want[0]
        assert _bits(got[1]) == _bits(want[1])
        assert _bits(got[2]) == _bits(want[2])
        assert got[3] == want[3]
        assert type(got[1]) is (float if np.ndim(want[1]) == 0 else np.ndarray)


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
    # the level-3 nodes were sampled with the block but are not counted
    assert calls == [sum(sizes[:4])]
    assert best.evaluations == sum(sizes[:3]) == 37
    want = _per_level_reference(g, -0.5, 0.0, cfg)
    assert want[0] == "budget"
    assert _bits(best.value) == _bits(want[1])
    assert _bits(best.error_estimate) == _bits(want[2])
