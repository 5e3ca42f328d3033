"""Operator parameterization, classification, and evaluation.

The five-parameter left-sided operator

    rho^(1-beta) * x^kappa / Gamma(alpha)
        * int_a^x t^(rho*(eta+1)-1) / (x^rho - t^rho)^(1-alpha) * f(t) dt

covers the classical fractional integrals as parameter points (or, for the
logarithmic-kernel case, as a rho -> 0+ limit that is exposed only as a
dedicated direct evaluator).  Direct evaluators for the classical forms are
kept separate from the generalized path so the two can cross-check each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError
from .quadrature import (
    DEFAULT_CONFIG,
    IntegralResult,
    QuadratureConfig,
    _kernel_segment,
    _left_kernel,
    scaled_integral,
    weighted_unit_integral,
)
from .special_functions import log_gamma

__all__ = [
    "Side",
    "ClassicalKind",
    "OperatorParams",
    "validate",
    "reduce_to_classical",
    "evaluate",
    "evaluate_classical",
]


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class ClassicalKind(Enum):
    RIEMANN_LIOUVILLE = "riemann-liouville"
    HADAMARD = "hadamard"
    ERDELYI_KOBER = "erdelyi-kober"
    KATUGAMPOLA = "katugampola"
    WEYL = "weyl"
    LIOUVILLE = "liouville"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class OperatorParams:
    """Parameters (alpha, beta, rho, eta, kappa) plus interval and side.

    ``lower`` is the lower integration bound a >= 0; ``lower = -inf`` is
    accepted for the truncated infinite-interval forms and then requires
    rho = 1, eta = 0, kappa = 0 so the kernel stays well defined for
    negative t.  ``upper`` is only consulted by the right-sided form.
    """

    alpha: float
    beta: float
    rho: float
    eta: float
    kappa: float
    lower: float = 0.0
    upper: Optional[float] = None
    side: Side = Side.LEFT


def validate(params: OperatorParams) -> None:
    """Raise ParameterError naming the first violated condition."""
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


def reduce_to_classical(
    params: OperatorParams,
    tol: float = 1e-12,
    rho_limit_tol: float = 1e-6,
) -> ClassicalKind:
    """Classify a parameter point against the classical reduction table.

    The logarithmic-kernel case is not a parameter point (rho = 0 is
    invalid); rho at or below ``rho_limit_tol`` with the matching companion
    parameters is flagged as HADAMARD purely as a limit advisory.

    The plain power-kernel form (kappa = eta = 0, rho = 1) is reported as
    RIEMANN_LIOUVILLE for every finite lower bound; with lower = -inf it is
    the truncated infinite-interval form (WEYL, whose printed definition
    coincides with LIOUVILLE's).
    """
    validate(params)
    near = lambda v, target: abs(v - target) <= tol
    if (
        params.rho <= rho_limit_tol
        and near(params.beta, params.alpha)
        and near(params.kappa, 0.0)
        and near(params.eta, 0.0)
    ):
        return ClassicalKind.HADAMARD
    if near(params.kappa, 0.0) and near(params.eta, 0.0) and near(params.rho, 1.0):
        # beta immaterial at rho=1 since rho^(1-beta) = 1
        if math.isinf(params.lower):
            return ClassicalKind.WEYL
        return ClassicalKind.RIEMANN_LIOUVILLE
    if near(params.beta, params.alpha) and near(params.kappa, 0.0) and near(params.eta, 0.0):
        return ClassicalKind.KATUGAMPOLA
    if near(params.beta, 0.0) and near(
        params.kappa, -params.rho * (params.alpha + params.eta)
    ):
        return ClassicalKind.ERDELYI_KOBER
    return ClassicalKind.GENERALIZED


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    params: OperatorParams,
    f,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: tuple = (),
) -> IntegralResult:
    """Full operator value at x: prefactor times kernel integral.

    ``breakpoints`` marks interior non-smooth points of f (see
    integrate_kernel); it applies to the finite left-sided form only.

    The finite forms hand the prefactor to the kernel segment, which
    applies the substitution's scale to the unit integral first and the
    prefactor after it: pref * (scale * value), and the same for the error
    estimate.  With interior breakpoints the scaled segments are summed and
    the sum is multiplied by the prefactor.  So a left-sided value is
    exp(log prefactor) times integrate_kernel's, bit for bit.  The
    truncated form scales its summed segments by 1/Gamma(alpha).

    ``f`` may return one row per integrand for an array of points (see
    weighted_unit_integral); value and error estimate then have one entry
    per row.  A ConvergenceError carries the best estimate of the operator
    value, in the same units as a result.
    """
    validate(params)
    _require_finite_point(x)
    if params.side is Side.RIGHT:
        if not 0.0 < x < params.upper:
            raise DomainError("right-sided evaluation requires 0 < x < upper")
        # kernel t^(kappa+rho-1) (t^rho - x^rho)^(alpha-1) on [x, upper]
        pref = _prefactor(params, params.rho * params.eta, x)
        res = _kernel_segment(f, x, params.upper, x, params.rho,
                              params.kappa / params.rho, params.alpha, cfg, pref)
    elif math.isinf(params.lower):
        res = _truncated_power_kernel(params.alpha, f, x, cfg)
    else:
        if not x > params.lower:
            raise DomainError("evaluation point must exceed the lower bound")
        pref = _prefactor(params, params.kappa, x)
        res = _left_kernel(f, params, x, cfg, breakpoints, pref)
    return _require_finite_value(res)


def _require_finite_point(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite, got %r" % (x,))


def _require_finite_value(res: IntegralResult) -> IntegralResult:
    """res, unless its one value is not finite.  Its integral converged, so
    a value past the float range means a factor, or factor times integral,
    overflowed; rows are left to the caller, which judges each one."""
    if isinstance(res.value, float) and not math.isfinite(res.value):
        raise DomainError("operator value is beyond the float range")
    return res


def _prefactor(params: OperatorParams, x_power: float, x: float) -> float:
    """rho^(1-beta) x^x_power / Gamma(alpha): x^kappa on the left side,
    x^(rho*eta) on the right."""
    log_pref = (
        (1.0 - params.beta) * math.log(params.rho)
        + x_power * math.log(x)
        - log_gamma(params.alpha)
    )
    try:
        return math.exp(log_pref)
    except OverflowError:
        raise DomainError("operator prefactor is beyond the float range") from None


def _truncated_power_kernel(
    alpha: float,
    f,
    x: float,
    cfg: QuadratureConfig,
    start_width: float = 1.0,
) -> IntegralResult:
    """int_{-inf}^x (x-t)^(alpha-1) f(t) dt / Gamma(alpha) by geometric
    truncation.

    Segments [x - 2^(k+1) T, x - 2^k T] are added until their contribution
    falls below tolerance; that requires f to decay and is intended for the
    built-in decaying test functions.  The last segment (doubled) is folded
    into the error estimate as the tail bound.  For an f with several rows
    every row must meet the tolerance, and the divergence test follows the
    largest row.  The summed segments are scaled by 1/Gamma(alpha) last.

    When a segment does not converge, or f does not decay, the
    ConvergenceError carries the sum so far, scaled alike, with an infinite
    error estimate: the tail beyond it was never bounded.
    """
    scale = math.exp(-log_gamma(alpha))
    # x, x - T, x - 2T, x - 4T, ...: [x - T, x] first, then 48 doublings
    edges = [x] + [x - 2.0 ** k * start_width for k in range(49)]
    total = 0.0
    err = 0.0
    evals = 0
    history = []
    for k, (hi, lo) in enumerate(zip(edges, edges[1:]), start=-1):
        try:
            # (x - t)^(alpha-1) is the rho = 1 kernel, shifted to start at 0
            seg = _kernel_segment(
                lambda s: f(lo + s), 0.0, hi - lo, x - lo, 1.0, 0.0, alpha, cfg
            )
        except ConvergenceError as exc:
            best = exc.result
            # adding the failed segment's estimate keeps the shape of the rows
            exc.result = IntegralResult(
                total + best.value,
                err + best.error_estimate + math.inf,
                evals + best.evaluations,
            ).scaled(scale)
            raise
        total += seg.value
        err += seg.error_estimate
        evals += seg.evaluations
        if k < 0:
            continue
        size = np.abs(seg.value)
        history.append(float(np.max(size)))
        if np.all(size <= 0.25 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))):
            err += 2.0 * size  # tail bound
            return IntegralResult(total, err, evals).scaled(scale)
        if k >= 6 and history[-1] > history[-3]:
            raise ConvergenceError(
                "integrand does not decay; truncated evaluation diverges",
                result=IntegralResult(total, err + math.inf, evals).scaled(scale),
            )
    raise ConvergenceError(
        "truncated evaluation did not reach tolerance within 48 doublings",
        result=IntegralResult(total, err, evals).scaled(scale),
    )


def evaluate_classical(
    kind: ClassicalKind,
    alpha: float,
    f,
    interval: tuple,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    rho: float = 1.0,
    sigma: float = 1.0,
    eta: float = 0.0,
    truncation_start: float = 1.0,
) -> IntegralResult:
    """Evaluate a classical fractional integral from its own definition.

    These paths never call the generalized evaluator, which makes them
    usable as independent cross-checks of the reduction table.  ``rho`` is
    consulted by the power-substitution kind, (``sigma``, ``eta``) by the
    power-weighted kind; WEYL and LIOUVILLE share the truncated
    infinite-interval form and report the tail bound in the error estimate.
    As in evaluate, a single value that is not finite raises DomainError.
    """
    if not 0.0 < alpha < math.inf:
        raise ParameterError("alpha must be positive and finite")
    if kind is ClassicalKind.GENERALIZED:
        raise DomainError("use evaluate() for the generalized operator")
    _require_finite_point(x)
    a = interval[0]

    if kind in (ClassicalKind.WEYL, ClassicalKind.LIOUVILLE):
        # same printed form, truncated lower limit
        return _require_finite_value(_truncated_power_kernel(alpha, f, x, cfg, truncation_start))

    # each kind below integrates g against (1-u)^a_pow u^u_pow, times factor;
    # ** and math.exp/expm1 raise OverflowError past the float range
    try:
        a_pow, u_pow = alpha - 1.0, 0.0
        if kind is ClassicalKind.RIEMANN_LIOUVILLE:
            if not x > a:
                raise DomainError("evaluation point must exceed the lower bound")
            width = x - a

            def g(u):
                return f(a + width * u)

            factor = width ** alpha * math.exp(-log_gamma(alpha))

        elif kind is ClassicalKind.HADAMARD:
            if not 0.0 < a < x:
                raise DomainError("logarithmic kernel requires 0 < a < x")
            big_w = math.log(x / a)

            def g(u):
                return f(x * np.exp(-big_w * u))

            a_pow, u_pow = 0.0, alpha - 1.0
            factor = big_w ** alpha * math.exp(-log_gamma(alpha))

        else:
            # KATUGAMPOLA (s = rho, eta = 0) and ERDELYI_KOBER (s = sigma, with
            # the weight (t^s)^eta) substitute t^s = a^s + u (x^s - a^s)
            if not x > a >= 0.0:
                raise DomainError("requires 0 <= a < x")
            katugampola = kind is ClassicalKind.KATUGAMPOLA
            s = rho if katugampola else sigma
            if not 0.0 < s < math.inf:
                raise ParameterError("%s must be positive and finite"
                                     % ("rho" if katugampola else "sigma"))
            if katugampola:
                eta = 0.0
            elif not math.isfinite(eta):
                raise ParameterError("eta must be finite")
            inv_s = 1.0 / s
            if a == 0.0:
                # t = x u^(1/s); (t^s)^eta is x^(s eta) times the weight u^eta
                if eta <= -1.0:
                    raise DomainError("eta must exceed -1 when a=0")
                if katugampola:
                    d = x ** s  # Erdelyi-Kober's x powers cancel, so never form it

                def g(u):
                    return f(x * u ** inv_s)

                u_pow = eta
            else:
                # t = a (1 + u D/a^s)^(1/s), stable for s -> 0+
                a_s = a ** s
                d = a_s * math.expm1(s * math.log(x / a))
                ratio = d / a_s
                if eta == 0.0:

                    def g(u):
                        return f(a * np.exp(inv_s * np.log1p(u * ratio)))
                else:
                    log_a_s = s * math.log(a)

                    def g(u):
                        z = np.log1p(u * ratio)
                        return np.exp(eta * (log_a_s + z)) * f(a * np.exp(inv_s * z))

            if katugampola:
                factor = s ** (-alpha) * d ** alpha * math.exp(-log_gamma(alpha))
            elif a == 0.0:
                factor = math.exp(-log_gamma(alpha))
            else:
                factor = math.exp(
                    -s * (alpha + eta) * math.log(x) + alpha * math.log(d) - log_gamma(alpha)
                )
    except OverflowError:
        raise DomainError("operator factor is beyond the float range") from None

    # a float operation above can also overflow to inf without raising:
    # x / a for Hadamard, x - a for Riemann-Liouville
    return _require_finite_value(
        scaled_integral(factor, weighted_unit_integral, g, a_pow, u_pow, cfg))
