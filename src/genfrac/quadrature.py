"""Error-controlled integration of the weakly singular operator kernel.

Every kernel integral is normalized to the unit interval first, so the
endpoint singularity always appears as an explicit (1-u)^(alpha-1) weight
(u^(alpha-1) for the right-sided kernel, and with a zero lower bound the
t-power as u^eta).  A double-exponential (tanh-sinh)
rule then integrates weight times smooth remainder: node weights are
assembled in log space, so the algebraic blow-up at either endpoint is
cancelled analytically instead of being sampled.

The closed-form value of the full operator on monomials t^sigma lives here
as well; it is the independent oracle the quadrature is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConvergenceError, DomainError
from .special_functions import log_beta, log_gamma

if TYPE_CHECKING:  # pragma: no cover
    from .operator_core import OperatorParams

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "scaled_integral",
    "weighted_unit_integral",
    "integrate_kernel",
    "closed_form_monomial",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and node budget for one integral."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate and node count of one integral.

    For an integrand that returns one row per integrand, ``value`` and
    ``error_estimate`` are arrays with one entry per row, and
    ``evaluations`` counts nodes, not nodes times rows.
    """

    value: float
    error_estimate: float
    evaluations: int

    def scaled(self, factor: float) -> "IntegralResult":
        return IntegralResult(
            factor * self.value, abs(factor) * self.error_estimate, self.evaluations
        )


def scaled_integral(factor: float, integral: Callable, *args) -> IntegralResult:
    """``factor`` times ``integral(*args)``.

    A ConvergenceError raised by ``integral`` is re-raised with its best
    estimate scaled alike, so a failure reports its value in the same
    units as a success.
    """
    try:
        res = integral(*args)
    except ConvergenceError as exc:
        if exc.result is not None:
            exc.result = exc.result.scaled(factor)
        raise
    return res.scaled(factor)


# ---------------------------------------------------------------------------
# tanh-sinh nodes
#
# u(t) = 1/(1 + exp(-pi*sinh(t))) maps R onto (0,1); endpoints are approached
# double-exponentially but never hit.  We cache log(u), log(1-u) and log of
# the Jacobian, so each integral pays one vectorized exp per integrand call.
# Levels 0.._BLOCK_LEVEL are cached as one block per t_max, sampled in one
# call; each deeper level is cached, and sampled, on its own.
# ---------------------------------------------------------------------------

_MAX_LEVEL = 12
# The block ends at level 3 because no integral in the three benchmark
# workloads stops before it.  Stop levels of perfbench seed 801, first 8
# verify-suite rounds: 650 at level 3, 408 at 4; first 2 oracle-sweep
# rounds: 760 at 3, 320 at 4; first 2 eval-mix rounds: 451 at 3, 177 at 4,
# 32 at 5.  So sampling levels 0-3 together costs them no extra nodes, while
# a deeper block would sample nodes that most of them never sum.
_BLOCK_LEVEL = 3
_ROUNDOFF = 16.0 * np.finfo(float).eps
_T_MAX_CAP = 8.5
_node_cache: dict[tuple[float, int], tuple] = {}


def _log1p_exp(y: np.ndarray) -> np.ndarray:
    # log(1 + e^y) without overflow
    out = np.empty_like(y)
    pos = y > 0.0
    out[pos] = y[pos] + np.log1p(np.exp(-y[pos]))
    out[~pos] = np.log1p(np.exp(y[~pos]))
    return out


def _compute_level_nodes(t_max: float, level: int):
    h = 2.0 ** (-level)
    if level == 0:
        n = int(math.floor(t_max / h))
        t = h * np.arange(-n, n + 1, dtype=float)
    else:
        # only the odd multiples of h are new at this level
        n = int(math.floor((t_max - h) / (2.0 * h))) + 1
        t = h * (2.0 * np.arange(-n, n, dtype=float) + 1.0)
    s = 0.5 * math.pi * np.sinh(t)
    log_u = -_log1p_exp(-2.0 * s)
    log_1mu = -_log1p_exp(2.0 * s)
    u = np.exp(log_u)
    log_jac = math.log(math.pi) + np.log(np.cosh(t))
    return u, log_u, log_1mu, log_jac


def _level_nodes(t_max: float, level: int):
    """(u, log_u, log_1mu, log_jac) of one level deeper than _BLOCK_LEVEL."""
    key = (t_max, level)
    cached = _node_cache.get(key)
    if cached is None:
        cached = _node_cache[key] = _compute_level_nodes(t_max, level)
    return cached


def _block_nodes(t_max: float):
    """Levels 0.._BLOCK_LEVEL as one (u, log_u, log_1mu, log_jac, offsets).

    Level k owns the slice offsets[k]:offsets[k + 1].  The block is cached
    under level -1.
    """
    key = (t_max, -1)
    cached = _node_cache.get(key)
    if cached is None:
        levels = [_compute_level_nodes(t_max, k) for k in range(_BLOCK_LEVEL + 1)]
        offsets = np.cumsum([0] + [nodes[0].size for nodes in levels]).tolist()
        cached = tuple(np.concatenate(parts) for parts in zip(*levels)) + (offsets,)
        _node_cache[key] = cached
    return cached


def _pick_t_max(one_minus_u_pow: float, u_pow: float) -> float:
    # truncate where the weaker endpoint weight has decayed below ~1e-24
    mu = min(one_minus_u_pow + 1.0, u_pow + 1.0, 1.0)
    t_max = math.asinh(56.0 / (math.pi * mu))
    t_max = min(_T_MAX_CAP, t_max)
    # snap up to a coarse grid so the node cache stays small
    return math.ceil(t_max * 2.0) / 2.0


def _out_of_budget(cfg: QuadratureConfig, best: IntegralResult) -> ConvergenceError:
    return ConvergenceError(
        "quadrature did not converge within %d evaluations" % cfg.max_subdivisions,
        result=best,
    )


def _out_of_levels(best: IntegralResult) -> ConvergenceError:
    return ConvergenceError(
        "quadrature did not converge within refinement level %d" % _MAX_LEVEL,
        result=best,
    )


def weighted_unit_integral(
    g: Callable[[np.ndarray], np.ndarray],
    one_minus_u_pow: float,
    u_pow: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> IntegralResult:
    """Integrate (1-u)^a * u^b * g(u) over (0, 1).

    ``g`` must accept a numpy array of n nodes strictly inside (0, 1) and
    evaluate pointwise.  It returns either n values, or a (k, n) array
    holding k integrands, one row each.  Both weight exponents must exceed
    -1, otherwise the integral does not exist.

    Refinement halves the tanh-sinh step until the last two passes agree
    within tolerance; the reported error estimate is that last difference,
    which in practice overestimates the true error of the final pass.

    The first call samples g at the nodes of levels 0.._BLOCK_LEVEL at
    once, and each deeper level makes one call of its own.  So g may be
    sampled at nodes that an early stop or the node budget leaves unused;
    ``evaluations`` counts only the nodes of the levels summed.

    The tanh-sinh nodes and weights depend only on the weight, not on the
    integrand, so k rows share them: each call computes the weights once
    and takes one matrix-vector product per level.  Refinement then stops
    only when every row meets the tolerance, and ``value`` and
    ``error_estimate`` come back with one entry per row.
    """
    if one_minus_u_pow <= -1.0 or u_pow <= -1.0:
        raise DomainError(
            "weight exponents must exceed -1 for an integrable kernel, got "
            "(1-u)^%r u^%r" % (one_minus_u_pow, u_pow)
        )
    t_max = _pick_t_max(one_minus_u_pow, u_pow)
    a1 = one_minus_u_pow + 1.0
    b1 = u_pow + 1.0
    u, log_u, log_1mu, log_jac, offsets = _block_nodes(t_max)
    w = np.exp(log_jac + b1 * log_u + a1 * log_1mu)
    vals = np.asarray(g(u))
    if vals.ndim > 1:
        return _rows_integral(g, vals, w, offsets, t_max, a1, b1, cfg)

    # one integrand: plain float arithmetic, which costs less per level
    # than the same steps on numpy scalars
    evals = 0
    total = 0.0
    value = 0.0
    prev = None
    estimate = math.inf
    for level in range(_MAX_LEVEL + 1):
        if level > _BLOCK_LEVEL:
            u, log_u, log_1mu, log_jac = _level_nodes(t_max, level)
            lo, hi = 0, u.size
        else:
            lo, hi = offsets[level], offsets[level + 1]
        if level > 2 and evals + hi - lo > cfg.max_subdivisions:
            raise _out_of_budget(cfg, IntegralResult(value, estimate, evals))
        if level > _BLOCK_LEVEL:
            w = np.exp(log_jac + b1 * log_u + a1 * log_1mu)
            vals = np.asarray(g(u))
        total += float(vals[lo:hi].dot(w[lo:hi]))
        evals += hi - lo
        value = 2.0 ** (-level) * total
        if prev is not None:
            estimate = abs(value - prev)
            if level >= 2 and estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                # floor at the roundoff level of the node summation
                estimate = max(estimate, _ROUNDOFF * abs(value))
                return IntegralResult(value, estimate, evals)
        prev = value
    raise _out_of_levels(IntegralResult(value, estimate, evals))


def _rows_integral(g, vals, w, offsets, t_max, a1, b1, cfg) -> IntegralResult:
    """weighted_unit_integral for a g returning k rows.

    ``vals`` and ``w`` hold the block of levels 0.._BLOCK_LEVEL.  The steps
    are those of the one-integrand loop, in array arithmetic over the rows.
    """
    evals = 0
    total = 0.0
    value = None
    estimate = None
    for level in range(_MAX_LEVEL + 1):
        if level > _BLOCK_LEVEL:
            u, log_u, log_1mu, log_jac = _level_nodes(t_max, level)
            lo, hi = 0, u.size
        else:
            lo, hi = offsets[level], offsets[level + 1]
        if level > 2 and evals + hi - lo > cfg.max_subdivisions:
            raise _out_of_budget(cfg, IntegralResult(value, estimate, evals))
        if level > _BLOCK_LEVEL:
            w = np.exp(log_jac + b1 * log_u + a1 * log_1mu)
            vals = np.asarray(g(u))
        total = total + vals[..., lo:hi].dot(w[lo:hi])
        evals += hi - lo
        prev, value = value, 2.0 ** (-level) * total
        if level:
            estimate = np.abs(value - prev)
            if level >= 2 and np.all(
                estimate <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
            ):
                estimate = np.maximum(estimate, _ROUNDOFF * np.abs(value))
                return IntegralResult(value, estimate, evals)
    raise _out_of_levels(IntegralResult(value, estimate, evals))


# ---------------------------------------------------------------------------
# the substituted kernel integral shared by every generalized form
# ---------------------------------------------------------------------------


def _kernel_segment(
    f,
    lo: float,
    hi: float,
    x: float,
    rho: float,
    power: float,
    alpha: float,
    cfg: QuadratureConfig,
) -> IntegralResult:
    """int_lo^hi t^(rho-1) (t^rho)^power |x^rho - t^rho|^(alpha-1) f(t) dt.

    ``x`` is ``hi`` (the left-sided kernel), ``lo`` (the right-sided
    kernel) or above ``hi`` (an interior segment).  The substitution
    u = (t^rho - lo^rho)/(hi^rho - lo^rho) turns (t^rho)^power into an
    exact u^power weight when lo = 0, and the singular factor into an
    exact (1-u)^(alpha-1) weight when x = hi or u^(alpha-1) when x = lo.
    For x above hi the then-smooth singular factor stays in the integrand.
    """
    inv_rho = 1.0 / rho

    if lo == 0.0:
        # t = hi * u^(1/rho); (t^rho)^power becomes u^power exactly
        log_scale = rho * (power + 1.0) * math.log(hi) - math.log(rho)
        d = hi ** rho
        u_pow = power

        def subst(u):
            return hi * u ** inv_rho, None
    else:
        log_lo_rho = rho * math.log(lo)
        lo_rho = math.exp(log_lo_rho)
        d = lo_rho * math.expm1(rho * math.log(hi / lo))
        log_scale = math.log(d) - math.log(rho)
        ratio = d / lo_rho
        u_pow = 0.0

        def subst(u):
            # t = lo * (1 + u*D/lo^rho)^(1/rho), stable for rho -> 0+,
            # and the weight (t^rho)^power
            z = np.log1p(u * ratio)
            t = lo * np.exp(inv_rho * z)
            return t, (np.exp(power * (log_lo_rho + z)) if power != 0.0 else None)

    a_pow = 0.0
    e_gap = None
    if x == hi:
        log_scale += (alpha - 1.0) * math.log(d)
        a_pow = alpha - 1.0
    elif x == lo:
        log_scale += (alpha - 1.0) * math.log(d)
        u_pow += alpha - 1.0
    else:
        # remaining gap x^rho - hi^rho > 0 keeps the factor smooth
        e_gap = hi ** rho * math.expm1(rho * math.log(x / hi))

    def g(u):
        t, weight = subst(u)
        vals = np.asarray(f(t), dtype=float)
        if e_gap is not None:
            vals = vals * (e_gap + d * (1.0 - u)) ** (alpha - 1.0)
        return vals if weight is None else weight * vals

    return scaled_integral(math.exp(log_scale), weighted_unit_integral, g, a_pow, u_pow, cfg)


def integrate_kernel(
    f,
    params: "OperatorParams",
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: tuple = (),
) -> IntegralResult:
    """Integral factor of the left-sided operator on [a, x].

    Computes int_a^x t^(rho*(eta+1)-1) * (x^rho - t^rho)^(alpha-1) * f(t) dt
    with the canonical substitution u = (t^rho - a^rho)/(x^rho - a^rho)
    (u = (t/x)^rho when a = 0), which isolates the upper-endpoint
    singularity as an exact (1-u)^(alpha-1) weight.  The raw integrand is
    never sampled at t = x.

    ``breakpoints`` lists interior points where f is continuous but not
    smooth (pointwise maxima); the integral is split there so each piece
    converges at the double-exponential rate.

    ``f`` may return one row per integrand (see weighted_unit_integral);
    every segment then integrates all rows.  When a segment does not
    converge, the remaining ones are still integrated and the
    ConvergenceError carries the sum over all segments.
    """
    a = params.lower
    if not x > a:
        raise DomainError("evaluation point must exceed the lower bound")
    if a == 0.0 and params.rho * (params.eta + 1.0) <= 0.0:
        raise DomainError("rho*(eta+1) must be positive when a=0")
    cuts = sorted({float(b) for b in breakpoints if a < b < x})
    edges = [a] + cuts + [x]
    value = 0.0
    err = 0.0
    evals = 0
    failure = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        try:
            seg = _kernel_segment(
                f, lo, hi, x, params.rho, params.eta, params.alpha, cfg
            )
        except ConvergenceError as exc:
            # keep going, so the best estimate covers every segment
            failure, seg = exc, exc.result
        value += seg.value
        err += seg.error_estimate
        evals += seg.evaluations
    res = IntegralResult(value, err, evals)
    if failure is not None:
        failure.result = res
        raise failure
    return res


def closed_form_monomial(params: "OperatorParams", sigma: float, x: float) -> float:
    """Exact operator value on f(t) = t^sigma with lower bound 0.

    The substitution u = (t/x)^rho collapses the kernel integral to a Beta
    function:

        rho^(-beta) * x^(kappa + rho*(eta+alpha) + sigma)
            * B(eta + sigma/rho + 1, alpha) / Gamma(alpha)

    This is the primary analytic oracle for the quadrature path.
    """
    if params.lower != 0.0:
        raise DomainError("closed form requires lower bound 0")
    if not params.rho > 0.0:
        raise DomainError("rho must be positive")
    if not params.alpha > 0.0:
        raise DomainError("alpha must be positive")
    b1 = params.eta + sigma / params.rho + 1.0
    if b1 <= 0.0:
        raise DomainError(
            "eta + sigma/rho + 1 must be positive for an integrable monomial"
        )
    log_val = (
        -params.beta * math.log(params.rho)
        + (params.kappa + params.rho * (params.eta + params.alpha) + sigma)
        * math.log(x)
        + log_beta(b1, params.alpha)
        - log_gamma(params.alpha)
    )
    return math.exp(log_val)
