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

import functools
import math
import sys
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
        if not self.max_subdivisions >= 1:  # NaN would disable the budget
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

    def scaled(self, factor: float, inner: float = 1.0) -> "IntegralResult":
        """factor * (inner * value), and alike for the error estimate.

        The inner factor goes first, so one call does the arithmetic of
        scaled(inner).scaled(factor); 1.0 * v is v, bit for bit.
        """
        return IntegralResult(
            factor * (inner * self.value),
            abs(factor) * (abs(inner) * self.error_estimate),
            self.evaluations,
        )


def scaled_integral(
    factor: float, integral: Callable, *args, inner: float = 1.0
) -> IntegralResult:
    """``factor`` times (``inner`` times ``integral(*args)``).

    A ConvergenceError raised by ``integral`` is re-raised with its best
    estimate scaled alike, so a failure reports its value in the same
    units as a success.
    """
    try:
        res = integral(*args)
    except ConvergenceError as exc:
        if exc.result is not None:
            exc.result = exc.result.scaled(factor, inner)
        raise
    return res.scaled(factor, inner)


# ---------------------------------------------------------------------------
# tanh-sinh nodes
#
# u(t) = 1/(1 + exp(-pi*sinh(t))) maps R onto (0,1); endpoints are approached
# double-exponentially but never hit.  We cache log(u), log(1-u) and log of
# the Jacobian per t_max, and the weights built from them per pair of weight
# exponents, so an integral with a weight seen before pays no exp up to
# level _CACHED_LEVEL.
# Levels 0.._BLOCK_LEVEL are cached as one block per t_max, sampled in one
# call; each deeper level is cached, and sampled, on its own.
# ---------------------------------------------------------------------------

_MAX_LEVEL = 12
# No integral stops before _MIN_LEVEL: levels 1 and 2 can agree by chance
# (a Weyl truncation segment did, at 33 nodes, with a true error 30 times
# its estimate).
_MIN_LEVEL = 3
# The block ends at _MIN_LEVEL, so sampling levels 0-3 together costs no
# integral extra nodes, while a deeper block would sample nodes that most
# integrals never sum.  Both refinement loops sum levels 0-3 straight
# through from the block, with the one budget test before level 3 and no
# stop test before _MIN_LEVEL; they unpack exactly five block offsets, so
# a change of _BLOCK_LEVEL fails loudly there.  Stop levels of perfbench
# seed 801, first 8 verify-suite rounds: 650 at level 3, 408 at 4; first 2
# oracle-sweep rounds: 760 at 3, 320 at 4; first 2 eval-mix rounds: 451 at
# 3, 177 at 4, 32 at 5.
#
# None of those integrals goes past level 5, so the weights of the block,
# and of levels 4 and 5 once an integral reaches them, are cached per
# exponent pair, in at most _WEIGHT_CACHE_SIZE entries; deeper levels
# compute theirs per call.  At the largest t_max, 8.5, an entry holds
# 137 + 136 + 272 = 545 weights, 4360 bytes, so the cache holds at most
# about 1.1 MB of weights; the nodes are shared per t_max.
_BLOCK_LEVEL = _MIN_LEVEL
_CACHED_LEVEL = 5
_WEIGHT_CACHE_SIZE = 256
_ROUNDOFF = 16.0 * sys.float_info.epsilon
_T_MAX_CAP = 8.5


def _log1p_exp(y: np.ndarray) -> np.ndarray:
    # log(1 + e^y) without overflow
    out = np.empty_like(y)
    pos = y > 0.0
    out[pos] = y[pos] + np.log1p(np.exp(-y[pos]))
    out[~pos] = np.log1p(np.exp(y[~pos]))
    return out


def _read_only(arrays: tuple) -> tuple:
    # cached arrays reach every caller, so none of them may write to one
    for array in arrays:
        array.setflags(write=False)
    return arrays


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


# t_max lies on _pick_t_max's half-step grid up to _T_MAX_CAP and the level
# goes up to _MAX_LEVEL, so these unbounded caches hold few entries
@functools.cache
def _level_nodes(t_max: float, level: int):
    """(u, log_u, log_1mu, log_jac) of one level deeper than _BLOCK_LEVEL."""
    return _read_only(_compute_level_nodes(t_max, level))


@functools.cache
def _block_nodes(t_max: float):
    """Levels 0.._BLOCK_LEVEL as one (u, log_u, log_1mu, log_jac, offsets).

    Level k owns the slice offsets[k]:offsets[k + 1].
    """
    levels = [_compute_level_nodes(t_max, k) for k in range(_BLOCK_LEVEL + 1)]
    offsets = tuple(np.cumsum([0] + [nodes[0].size for nodes in levels]).tolist())
    return _read_only(tuple(np.concatenate(parts) for parts in zip(*levels))) + (offsets,)


def _weights(log_u, log_1mu, log_jac, a1: float, b1: float) -> np.ndarray:
    w = np.exp(log_jac + b1 * log_u + a1 * log_1mu)
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _cached_levels(one_minus_u_pow: float, u_pow: float):
    """(t_max, offsets, levels) of the weight (1-u)^a u^b.

    levels[0] is the block's (nodes, weights), with level k at
    offsets[k]:offsets[k + 1]; levels[k] is the (nodes, weights) of level
    _BLOCK_LEVEL + k, filled in by _deep_level when first used.  Every
    array is read-only.
    """
    t_max = _pick_t_max(one_minus_u_pow, u_pow)
    u, log_u, log_1mu, log_jac, offsets = _block_nodes(t_max)
    w = _weights(log_u, log_1mu, log_jac, one_minus_u_pow + 1.0, u_pow + 1.0)
    levels = [None] * (_CACHED_LEVEL - _BLOCK_LEVEL + 1)
    levels[0] = (u, w)
    return t_max, offsets, levels


def _deep_level(levels, t_max: float, level: int, a1: float, b1: float):
    """(nodes, weights) of one level deeper than _BLOCK_LEVEL.

    Levels up to _CACHED_LEVEL are kept in ``levels``, the exponent pair's
    entry of _cached_levels.  Storing by index is safe without a lock: two
    threads can only store equal arrays.
    """
    k = level - _BLOCK_LEVEL
    cached = levels[k] if k < len(levels) else None
    if cached is not None:
        return cached
    u, log_u, log_1mu, log_jac = _level_nodes(t_max, level)
    w = _weights(log_u, log_1mu, log_jac, a1, b1)
    if k < len(levels):
        levels[k] = (u, w)
    return u, w


def _pick_t_max(one_minus_u_pow: float, u_pow: float) -> float:
    # truncate where the weaker endpoint weight has decayed below ~1e-24
    mu = min(one_minus_u_pow + 1.0, u_pow + 1.0, 1.0)
    t_max = math.asinh(56.0 / (math.pi * mu))
    t_max = min(_T_MAX_CAP, t_max)
    # snap up to a coarse grid so the node cache stays small
    return math.ceil(t_max * 2.0) / 2.0


def _out_of_budget(cfg: QuadratureConfig, best: IntegralResult) -> ConvergenceError:
    # levels 0-2 are summed before the first budget test, so a budget
    # below their nodes is exceeded by the count reported here
    return ConvergenceError(
        "quadrature did not converge within %d evaluations (%d made)"
        % (cfg.max_subdivisions, best.evaluations),
        result=best,
    )


def _not_finite(best: IntegralResult) -> ConvergenceError:
    return ConvergenceError(
        "integrand is not finite at the quadrature nodes (%d evaluations made)"
        % best.evaluations,
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
    within tolerance, at level _MIN_LEVEL at the earliest; the reported
    error estimate is that last difference, which in practice
    overestimates the true error of the final pass.  A pass whose value is
    not finite (g returned NaN or inf, or its sum overflowed) stops
    refinement with a ConvergenceError at once, since no deeper level can
    make it finite; the test runs only when the stop test fails.

    The first call samples g at the nodes of levels 0.._BLOCK_LEVEL (0-3)
    at once, and those levels are summed straight through, with no stop
    test before _MIN_LEVEL.  Levels 0-2 are always summed; the one budget
    test before level 3 raises with the level-2 value and estimate when
    levels 0-3 together exceed the node budget.  Each deeper level makes
    one call of its own, within the budget.  So g may be sampled at
    level-3 nodes that the budget leaves unused; ``evaluations`` counts
    only the nodes of the levels summed.

    The tanh-sinh nodes and weights depend only on the weight, not on the
    integrand, so k rows share them, and the weights of levels
    0.._CACHED_LEVEL are cached per pair of weight exponents (bounded, see
    _BLOCK_LEVEL).  Each level takes one matrix-vector product.  Refinement
    then stops only when every row meets the tolerance, and ``value`` and
    ``error_estimate`` come back with one entry per row.
    """
    if not (one_minus_u_pow > -1.0 and u_pow > -1.0):
        raise DomainError(
            "weight exponents must exceed -1 for an integrable kernel, got "
            "(1-u)^%r u^%r" % (one_minus_u_pow, u_pow)
        )
    t_max, offsets, levels = _cached_levels(one_minus_u_pow, u_pow)
    a1 = one_minus_u_pow + 1.0
    b1 = u_pow + 1.0
    u, w = levels[0]
    vals = np.asarray(g(u))
    if vals.ndim > 1:
        return _rows_integral(g, vals, offsets, levels, t_max, a1, b1, cfg)

    # one integrand: plain float arithmetic, which costs less per level
    # than the same steps on numpy scalars.  Levels 0-3 are summed straight
    # through from the block's values; the unpacking fails if _BLOCK_LEVEL
    # moves.  Level k's value is 2^-k times the running total, which starts
    # at 0.0 as a loop's would, so a -0.0 first sum still comes out 0.0.
    o0, o1, o2, o3, o4 = offsets
    total = 0.0 + float(vals[o0:o1].dot(w[o0:o1]))
    total += float(vals[o1:o2].dot(w[o1:o2]))
    prev = 0.5 * total
    total += float(vals[o2:o3].dot(w[o2:o3]))
    value = 0.25 * total
    if o4 > cfg.max_subdivisions:
        # the level-2 estimate is kept for this error only
        raise _out_of_budget(cfg, IntegralResult(value, abs(value - prev), o3))
    total += float(vals[o3:o4].dot(w[o3:o4]))
    evals = o4
    level = _BLOCK_LEVEL
    prev, value = value, 0.125 * total
    estimate = abs(value - prev)
    while not estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        if not math.isfinite(value):
            raise _not_finite(IntegralResult(value, estimate, evals))
        if level == _MAX_LEVEL:
            raise _out_of_levels(IntegralResult(value, estimate, evals))
        level += 1
        u, w = _deep_level(levels, t_max, level, a1, b1)
        if evals + u.size > cfg.max_subdivisions:
            raise _out_of_budget(cfg, IntegralResult(value, estimate, evals))
        total += float(np.asarray(g(u)).dot(w))
        evals += u.size
        prev, value = value, 2.0 ** (-level) * total
        estimate = abs(value - prev)
    # floor at the roundoff level of the node summation
    return IntegralResult(value, max(estimate, _ROUNDOFF * abs(value)), evals)


def _row_totals(total, vals, w, lo: int, hi: int) -> list:
    """total plus the rows' sums over the nodes lo:hi, one float per row."""
    return [t + s for t, s in zip(total, vals[:, lo:hi].dot(w[lo:hi]).tolist())]


def _rows_integral(g, vals, offsets, levels, t_max, a1, b1, cfg) -> IntegralResult:
    """weighted_unit_integral for a g returning k rows.

    ``vals`` holds the block of levels 0.._BLOCK_LEVEL; leading dimensions
    beyond one are flattened into rows and restored in the result.  Each
    level takes one matrix-vector product; the steps after it are those of
    the one-integrand path, on a list of Python floats, one per row, which
    performs the same IEEE operations as numpy would on these few values.
    Only ``max`` differs from ``np.maximum``, on a NaN argument; a NaN value
    makes its estimate NaN, so the tolerance test fails either way.
    """
    shape = vals.shape[:-1]
    vals = vals.reshape(-1, vals.shape[-1])
    w = levels[0][1]
    o0, o1, o2, o3, o4 = offsets
    total = _row_totals([0.0] * len(vals), vals, w, o0, o1)
    total = _row_totals(total, vals, w, o1, o2)
    prev = [0.5 * t for t in total]
    total = _row_totals(total, vals, w, o2, o3)
    value = [0.25 * t for t in total]
    if o4 > cfg.max_subdivisions:
        estimate = [abs(v - p) for v, p in zip(value, prev)]
        raise _out_of_budget(cfg, _rows_result(shape, value, estimate, o3))
    total = _row_totals(total, vals, w, o3, o4)
    evals = o4
    level = _BLOCK_LEVEL
    prev, value = value, [0.125 * t for t in total]
    estimate = [abs(v - p) for v, p in zip(value, prev)]
    while not all(
        e <= max(cfg.abs_tol, cfg.rel_tol * abs(v)) for e, v in zip(estimate, value)
    ):
        if not all(math.isfinite(v) for v in value):
            raise _not_finite(_rows_result(shape, value, estimate, evals))
        if level == _MAX_LEVEL:
            raise _out_of_levels(_rows_result(shape, value, estimate, evals))
        level += 1
        u, w = _deep_level(levels, t_max, level, a1, b1)
        if evals + u.size > cfg.max_subdivisions:
            raise _out_of_budget(cfg, _rows_result(shape, value, estimate, evals))
        vals = np.asarray(g(u)).reshape(-1, u.size)
        total = _row_totals(total, vals, w, 0, u.size)
        evals += u.size
        scale = 2.0 ** (-level)
        prev, value = value, [scale * t for t in total]
        estimate = [abs(v - p) for v, p in zip(value, prev)]
    estimate = [max(e, _ROUNDOFF * abs(v)) for e, v in zip(estimate, value)]
    return _rows_result(shape, value, estimate, evals)


def _rows_result(shape, value, estimate, evals) -> IntegralResult:
    return IntegralResult(
        np.array(value).reshape(shape), np.array(estimate).reshape(shape), evals
    )


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
    pref: float = 1.0,
) -> IntegralResult:
    """pref * int_lo^hi t^(rho-1) (t^rho)^power |x^rho - t^rho|^(alpha-1) f(t) dt.

    ``x`` is ``hi`` (the left-sided kernel), ``lo`` (the right-sided
    kernel) or above ``hi`` (an interior segment).  The substitution
    u = (t^rho - lo^rho)/(hi^rho - lo^rho) turns (t^rho)^power into an
    exact u^power weight when lo = 0, and the singular factor into an
    exact (1-u)^(alpha-1) weight when x = hi or u^(alpha-1) when x = lo.
    For x above hi the then-smooth singular factor stays in the integrand.

    The substitution's scale is applied to the unit integral first and the
    operator prefactor ``pref`` after it, as pref * (scale * value); a
    ConvergenceError's best estimate is scaled alike.
    """
    inv_rho = 1.0 / rho
    # ** and math.exp/expm1 raise OverflowError past the float range
    try:
        if lo == 0.0:
            # t = hi * u^(1/rho); (t^rho)^power becomes u^power exactly
            log_scale = rho * (power + 1.0) * math.log(hi) - math.log(rho)
            d = hi ** rho
            u_pow = power
        else:
            # t = lo * (1 + u*D/lo^rho)^(1/rho), stable for rho -> 0+, with the
            # weight (t^rho)^power in the integrand
            log_lo_rho = rho * math.log(lo)
            lo_rho = math.exp(log_lo_rho)
            d = lo_rho * math.expm1(rho * math.log(hi / lo))
            log_scale = math.log(d) - math.log(rho)
            ratio = d / lo_rho
            u_pow = 0.0

        a_pow = 0.0
        interior = False
        if x == hi:
            log_scale += (alpha - 1.0) * math.log(d)
            a_pow = alpha - 1.0
        elif x == lo:
            log_scale += (alpha - 1.0) * math.log(d)
            u_pow += alpha - 1.0
        else:
            # remaining gap x^rho - hi^rho > 0 keeps the factor smooth
            interior = True
            e_gap = hi ** rho * math.expm1(rho * math.log(x / hi))
        inner = math.exp(log_scale)
    except OverflowError:
        raise DomainError("kernel scale is beyond the float range") from None

    # weight * (f * gap factor), in that order
    def g(u):
        if lo == 0.0:
            vals = f(hi * u ** inv_rho)
        else:
            z = np.log1p(u * ratio)
            vals = f(lo * np.exp(inv_rho * z))
        if interior:
            vals = vals * (e_gap + d * (1.0 - u)) ** (alpha - 1.0)
        if lo != 0.0 and power != 0.0:
            vals = np.exp(power * (log_lo_rho + z)) * vals
        return vals

    return scaled_integral(
        pref, weighted_unit_integral, g, a_pow, u_pow, cfg, inner=inner
    )


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

    The operator value is prefactor times this result; ``evaluate`` applies
    the prefactor inside the same computation (see _left_kernel), so the
    two agree bit for bit.
    """
    a = params.lower
    if not x > a:
        raise DomainError("evaluation point must exceed the lower bound")
    if a == 0.0 and params.rho * (params.eta + 1.0) <= 0.0:
        raise DomainError("rho*(eta+1) must be positive when a=0")
    return _left_kernel(f, params, x, cfg, breakpoints, 1.0)


def _left_kernel(f, params, x, cfg, breakpoints, pref) -> IntegralResult:
    """``pref`` times integrate_kernel(f, params, x, cfg, breakpoints), for
    arguments already checked.

    Without interior breakpoints the one segment applies ``pref``; with
    them the segments are summed first and the sum is scaled by ``pref``.
    """
    a = params.lower
    cuts = ()
    if len(breakpoints):
        cuts = sorted({float(b) for b in breakpoints if a < b < x})
    if not cuts:
        return _kernel_segment(
            f, a, x, x, params.rho, params.eta, params.alpha, cfg, pref
        )
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
    res = IntegralResult(value, err, evals).scaled(pref)
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
    for name in ("alpha", "rho"):
        if not 0.0 < getattr(params, name) < math.inf:
            raise DomainError("%s must be positive and finite" % name)
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
