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
    integrate_kernel,
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
    if not params.alpha > 0.0:
        raise ParameterError("alpha must be positive")
    if not params.rho > 0.0:
        raise ParameterError("rho must be positive")
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

    ``f`` may return one row per integrand for an array of points (see
    weighted_unit_integral); value and error estimate then have one entry
    per row.  A ConvergenceError carries the best estimate of the operator
    value, in the same units as a result.
    """
    validate(params)
    _require_finite_point(x)
    if params.side is Side.RIGHT:
        return _evaluate_right(params, f, x, cfg)
    if math.isinf(params.lower):
        return scaled_integral(
            math.exp(-log_gamma(params.alpha)),
            _truncated_power_kernel, params.alpha, f, x, cfg,
        )
    if not x > params.lower:
        raise DomainError("evaluation point must exceed the lower bound")
    log_pref = (
        (1.0 - params.beta) * math.log(params.rho)
        + params.kappa * math.log(x)
        - log_gamma(params.alpha)
    )
    return scaled_integral(
        math.exp(log_pref), integrate_kernel, f, params, x, cfg, breakpoints
    )


def _require_finite_point(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite, got %r" % (x,))


def _evaluate_right(params, f, x, cfg) -> IntegralResult:
    b = params.upper
    if not (0.0 < x < b):
        raise DomainError("right-sided evaluation requires 0 < x < upper")
    # kernel t^(kappa+rho-1) (t^rho - x^rho)^(alpha-1) on [x, b]
    log_pref = (
        (1.0 - params.beta) * math.log(params.rho)
        + params.rho * params.eta * math.log(x)
        - log_gamma(params.alpha)
    )
    return scaled_integral(
        math.exp(log_pref), _kernel_segment, f, x, b, x, params.rho,
        params.kappa / params.rho, params.alpha, cfg,
    )


def _truncated_power_kernel(
    alpha: float,
    f,
    x: float,
    cfg: QuadratureConfig,
    start_width: float = 1.0,
) -> IntegralResult:
    """int_{-inf}^x (x-t)^(alpha-1) f(t) dt by geometric truncation.

    Segments [x - 2^(k+1) T, x - 2^k T] are added until their contribution
    falls below tolerance; that requires f to decay and is intended for the
    built-in decaying test functions.  The last segment (doubled) is folded
    into the error estimate as the tail bound.  For an f with several rows
    every row must meet the tolerance, and the divergence test follows the
    largest row.

    When a segment does not converge, or f does not decay, the
    ConvergenceError carries the sum so far with an infinite error
    estimate: the tail beyond it was never bounded.
    """
    t0 = start_width
    total = 0.0
    err = 0.0
    evals = 0

    def add(lo, hi):
        nonlocal total, err, evals
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
            )
            raise
        total += seg.value
        err += seg.error_estimate
        evals += seg.evaluations
        return seg

    add(x - t0, x)
    history = []
    for k in range(48):
        seg = add(x - 2.0 ** (k + 1) * t0, x - 2.0 ** k * t0)
        size = np.abs(seg.value)
        history.append(float(np.max(size)))
        if np.all(size <= 0.25 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))):
            err += 2.0 * size  # tail bound
            return IntegralResult(total, err, evals)
        if k >= 6 and history[-1] > history[-3]:
            raise ConvergenceError(
                "integrand does not decay; truncated evaluation diverges",
                result=IntegralResult(total, err + math.inf, evals),
            )
    raise ConvergenceError(
        "truncated evaluation did not reach tolerance within 48 doublings",
        result=IntegralResult(total, err, evals),
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
    """
    if not alpha > 0.0:
        raise ParameterError("alpha must be positive")
    if kind is ClassicalKind.GENERALIZED:
        raise DomainError("use evaluate() for the generalized operator")
    _require_finite_point(x)
    a = interval[0]

    if kind in (ClassicalKind.WEYL, ClassicalKind.LIOUVILLE):
        # same printed form, truncated lower limit
        return scaled_integral(
            math.exp(-log_gamma(alpha)),
            _truncated_power_kernel, alpha, f, x, cfg, truncation_start,
        )

    # each kind below integrates g against (1-u)^a_pow u^u_pow, times factor
    a_pow, u_pow = alpha - 1.0, 0.0
    if kind is ClassicalKind.RIEMANN_LIOUVILLE:
        if not x > a:
            raise DomainError("evaluation point must exceed the lower bound")
        width = x - a

        def g(u):
            return np.asarray(f(a + width * u), dtype=float)

        factor = width ** alpha * math.exp(-log_gamma(alpha))

    elif kind is ClassicalKind.HADAMARD:
        if not 0.0 < a < x:
            raise DomainError("logarithmic kernel requires 0 < a < x")
        big_w = math.log(x / a)

        def g(u):
            return np.asarray(f(x * np.exp(-big_w * u)), dtype=float)

        a_pow, u_pow = 0.0, alpha - 1.0
        factor = big_w ** alpha * math.exp(-log_gamma(alpha))

    elif kind is ClassicalKind.KATUGAMPOLA:
        if not x > a >= 0.0:
            raise DomainError("requires 0 <= a < x")
        if not rho > 0.0:
            raise ParameterError("rho must be positive")
        if a == 0.0:
            d = x ** rho
            inv_rho = 1.0 / rho

            def g(u):
                return np.asarray(f(x * u ** inv_rho), dtype=float)
        else:
            a_rho = a ** rho
            d = a_rho * math.expm1(rho * math.log(x / a))
            ratio = d / a_rho
            inv_rho = 1.0 / rho

            def g(u):
                return np.asarray(f(a * np.exp(inv_rho * np.log1p(u * ratio))), dtype=float)

        factor = rho ** (-alpha) * d ** alpha * math.exp(-log_gamma(alpha))

    else:  # ERDELYI_KOBER
        if not x > a >= 0.0:
            raise DomainError("requires 0 <= a < x")
        if not sigma > 0.0:
            raise ParameterError("sigma must be positive")
        if a == 0.0:
            # x powers cancel exactly in the dimensionless form
            if eta <= -1.0:
                raise DomainError("eta must exceed -1 when a=0")
            inv_sigma = 1.0 / sigma

            def g(u):
                return np.asarray(f(x * u ** inv_sigma), dtype=float)

            u_pow = eta
            factor = math.exp(-log_gamma(alpha))
        else:
            a_sig = a ** sigma
            d = a_sig * math.expm1(sigma * math.log(x / a))
            ratio = d / a_sig
            log_a_sig = sigma * math.log(a)
            inv_sigma = 1.0 / sigma

            def g(u):
                z = np.log1p(u * ratio)
                t = a * np.exp(inv_sigma * z)
                w = np.exp(eta * (log_a_sig + z)) if eta != 0.0 else 1.0
                return w * np.asarray(f(t), dtype=float)

            factor = math.exp(
                -sigma * (alpha + eta) * math.log(x) + alpha * math.log(d) - log_gamma(alpha)
            )

    return scaled_integral(factor, weighted_unit_integral, g, a_pow, u_pow, cfg)
