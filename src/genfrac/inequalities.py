"""Numerical certification of the reverse-Minkowski-type inequalities.

Each check evaluates both sides of one inequality with the operator
applied to pointwise-composed integrands (powers, products, differences
and maxima are folded into the integrand expression, never applied to
operator values), and accepts the trial only if the inequality holds
within a slack budget proportional to the reported quadrature errors.

Quadrature non-convergence marks a trial inconclusive rather than failed:
an inequality is never silently passed or failed on a value we do not
trust.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .functions import (
    PairKind,
    PositivePair,
    generate_box_pair,
    generate_ratio_pair,
)
from .operator_core import ClassicalKind, OperatorParams, evaluate, evaluate_classical
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = [
    "TheoremId",
    "CheckConfig",
    "InequalityCheck",
    "HadamardOp",
    "c1",
    "c2",
    "c3",
    "c4",
    "c5",
    "c6",
    "check_t8",
    "check_t9",
    "check_t10",
    "check_t11",
    "check_t12",
    "check_t13",
    "check_t14",
    "check_t15",
    "check_forward_minkowski",
    "check_scalar_lemmas",
    "SuiteConfig",
    "TrialRecord",
    "SuiteReport",
    "default_operator_grid",
    "run_suite",
]


class TheoremId(Enum):
    T8 = "T8"
    T9 = "T9"
    T10 = "T10"
    T11 = "T11"
    T12 = "T12"
    T13 = "T13"
    T14 = "T14"
    T15 = "T15"
    FORWARD_MINKOWSKI = "ForwardMinkowski"


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def c1(m: float, M: float) -> float:
    _require(0.0 < m <= M, "require 0 < m <= M")
    return (M * (m + 1.0) + (M + 1.0)) / ((m + 1.0) * (M + 1.0))


def c2(m: float, M: float) -> float:
    _require(0.0 < m <= M, "require 0 < m <= M")
    return (M + 1.0) * (m + 1.0) / M - 2.0


def c3(p: float, M: float) -> float:
    _require(p > 1.0, "require p > 1")
    _require(M > 0.0, "require M > 0")
    return 2.0 ** (p - 1.0) * M ** p / (p * (M + 1.0) ** p)


def c4(q: float, m: float, statement_constants: bool = False) -> float:
    """Second constant of the product bound.

    The binding derivation carries 2^(q-1); the alternative 2^(p-1) form
    (with p conjugate to q) is available behind ``statement_constants``
    for side-by-side comparison.
    """
    _require(q > 1.0, "require q > 1")
    _require(m > 0.0, "require m > 0")
    expo = q - 1.0
    if statement_constants:
        p = q / (q - 1.0)
        expo = p - 1.0
    return 2.0 ** expo / (q * (m + 1.0) ** q)


def c5(a_lo: float, A_hi: float, b_lo: float, B_hi: float) -> float:
    _require(0.0 < a_lo <= A_hi, "require 0 < a_lo <= A_hi")
    _require(0.0 < b_lo <= B_hi, "require 0 < b_lo <= B_hi")
    return (A_hi * (a_lo + B_hi) + B_hi * (A_hi + b_lo)) / (
        (A_hi + b_lo) * (a_lo + B_hi)
    )


def c6(m: float, M: float) -> float:
    _require(0.0 < m <= M, "require 0 < m <= M")
    return 1.0 / ((m + 1.0) * (M + 1.0))


# ---------------------------------------------------------------------------
# operator application with error tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HadamardOp:
    """Stand-in operator spec: evaluate checks through the direct
    logarithmic-kernel form instead of a generalized parameter point."""

    alpha: float
    lower: float = 1.0


@dataclass(frozen=True)
class _Val:
    value: float
    err: float

    def powered(self, e: float) -> "_Val":
        if e == 1.0:
            return self
        v = self.value ** e
        return _Val(v, abs(e) * self.value ** (e - 1.0) * self.err)

    def times(self, other: "_Val") -> "_Val":
        return _Val(
            self.value * other.value,
            abs(self.value) * other.err + abs(other.value) * self.err,
        )

    def scaled(self, c: float) -> "_Val":
        return _Val(c * self.value, abs(c) * self.err)

    def plus(self, other: "_Val") -> "_Val":
        return _Val(self.value + other.value, self.err + other.err)


def _apply_op(op, integrand, x: float, quad: QuadratureConfig, breakpoints: tuple = ()):
    """Operator values of every row of ``integrand``; None when one is untrusted."""
    try:
        if isinstance(op, HadamardOp):
            res = evaluate_classical(
                ClassicalKind.HADAMARD, op.alpha, integrand, (op.lower,), x, quad
            )
        else:
            res = evaluate(op, integrand, x, quad, breakpoints)
    except ConvergenceError:
        return None
    if not np.all(np.isfinite(res.value) & (res.value >= 0.0)):
        return None
    return [_Val(float(v), float(e)) for v, e in zip(res.value, res.error_estimate)]


_BISECT_LEVELS = 80  # bisection steps per grid cell of the kink finder
_BISECT_DEPTH = 7  # of which one call of the difference resolves this many


def _sign_crossings(diff, lo: float, hi: float, n: int = 512) -> tuple:
    """Interior points where ``diff`` changes sign (kinks of a pointwise max).

    ``diff`` is sampled on an n-point grid.  Each grid cell whose left end
    is nonzero and whose ends do not share a sign is bisected until its
    ends are adjacent doubles (at most _BISECT_LEVELS steps, rounded up to
    whole k-sections), and the root is their midpoint; a bisection point
    where ``diff`` is exactly zero is the root itself.

    The bisection runs on all cells at once, as a k-section with
    k = 2^_BISECT_DEPTH: one call of ``diff`` evaluates every midpoint the
    next _BISECT_DEPTH bisection steps could visit, k-1 per cell, and the
    bisection's path through them is then replayed.  Each midpoint is
    computed from its two parents as 0.5 * (left + right), exactly as a
    scalar bisection computes it, so the roots are the ones it finds.
    """
    t = np.linspace(lo, hi, n)
    d = np.asarray(diff(t), dtype=float)
    cells = np.flatnonzero((d[:-1] != 0.0) & (d[:-1] * d[1:] <= 0.0))
    ends = np.stack([t[cells], t[cells + 1]], axis=1)  # one bracket per row
    positive = (d[cells] > 0.0).tolist()
    k = 2 ** _BISECT_DEPTH
    for _ in range(-(-_BISECT_LEVELS // _BISECT_DEPTH)):
        live = np.flatnonzero(np.nextafter(ends[:, 0], np.inf) < ends[:, 1])
        if not live.size:
            break
        # column i holds the dyadic point a + (b - a) * i / k, built from its parents
        pts = np.empty((live.size, k + 1))
        pts[:, 0], pts[:, k] = ends[live, 0], ends[live, 1]
        h = k // 2
        while h:
            pts[:, h::2 * h] = 0.5 * (pts[:, 0:k:2 * h] + pts[:, 2 * h::2 * h])
            h //= 2
        vals = np.asarray(diff(pts[:, 1:k].ravel()), dtype=float)
        for row, (cell, v) in enumerate(zip(live.tolist(), vals.reshape(live.size, -1).tolist())):
            # replay the bisection; v[i - 1] is the value at column i
            pos, h = 0, k // 2
            while h:
                dm = v[pos + h - 1]
                if dm == 0.0:
                    ends[cell] = pts[row, pos + h]
                    break
                if (dm > 0.0) == positive[cell]:
                    pos += h
                h //= 2
            else:
                ends[cell] = pts[row, pos:pos + 2]
    return tuple(float(r) for r in 0.5 * (ends[:, 0] + ends[:, 1]))


# ---------------------------------------------------------------------------
# check records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by all theorem checks."""

    p: float = 2.0
    c: Optional[float] = None  # 0 < c < m, consulted by the sandwich check T12
    slack_factor: float = 2.0
    statement_constants: bool = False
    quad: QuadratureConfig = DEFAULT_CONFIG

    def __post_init__(self):
        _require(self.p >= 1.0, "require p >= 1")
        _require(self.slack_factor > 0.0, "require positive slack_factor")

    @property
    def q(self) -> float:
        """Conjugate exponent; infinite when p = 1."""
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class InequalityCheck:
    theorem_id: TheoremId
    lhs: float
    rhs: float
    constant: float
    slack: float
    satisfied: bool
    lhs_err: float
    rhs_err: float
    mid: Optional[float] = None  # sandwich checks: the bracketed quantity
    mid_err: float = 0.0
    inconclusive: bool = False
    aux: Optional[dict] = None

    @property
    def margin(self) -> float:
        """Smallest relative distance from violation (negative = violated)."""
        scale = max(abs(self.rhs), abs(self.lhs), 1e-300)
        if self.mid is None:
            return (self.rhs - self.lhs) / scale
        scale = max(scale, abs(self.mid))
        return min(self.mid - self.lhs, self.rhs - self.mid) / scale


def _inconclusive_check(theorem: TheoremId, constant: float) -> InequalityCheck:
    return InequalityCheck(
        theorem_id=theorem,
        lhs=math.nan,
        rhs=math.nan,
        constant=constant,
        slack=math.nan,
        satisfied=False,
        lhs_err=math.nan,
        rhs_err=math.nan,
        inconclusive=True,
    )


# ---------------------------------------------------------------------------
# theorem checks
#
# Each check is data: the integrands as functions of the pair's values
# (f(t), g(t)) at the quadrature nodes, one row each, and a rule combining
# their operator values into the compared sides.  _run_check integrates all
# rows of a check on one node set, calling f and g once per node set.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sides:
    lhs: _Val
    rhs: _Val
    mid: Optional[_Val] = None  # sandwich checks: lhs <= mid <= rhs
    aux: Optional[dict] = None


@dataclass(frozen=True)
class _Check:
    """One inequality: ``rows(fv, gv)`` gives the integrands, ``combine`` maps
    their operator values, in row order, to ``_Sides``.  ``kinks(fv, gv)``,
    when set, is a function whose sign changes are the kinks of the rows."""

    theorem: TheoremId
    constant: float
    rows: Callable
    combine: Callable
    kinks: Optional[Callable] = None


def _run_check(check: _Check, pair: PositivePair, params, x: float,
               cfg: CheckConfig) -> InequalityCheck:
    """Integrate every row of ``check`` in one call and judge the inequality.

    Quadrature non-convergence, or an unusable value in any row, makes the
    trial inconclusive.
    """

    def on_pair(fn):
        return lambda t: fn(pair.f(t), pair.g(t))

    breakpoints = ()
    if check.kinks is not None and not isinstance(params, HadamardOp):
        lo, hi = pair.f.domain
        breakpoints = _sign_crossings(
            on_pair(check.kinks), max(lo, params.lower), min(hi, x)
        )
    rows = on_pair(lambda fv, gv: np.array(check.rows(fv, gv)))
    vals = _apply_op(params, rows, x, cfg.quad, breakpoints)
    if vals is None:
        return _inconclusive_check(check.theorem, check.constant)
    sides = check.combine(*vals)
    lhs, rhs, mid = sides.lhs, sides.rhs, sides.mid
    # the slack on each compared pair is slack_factor times its summed errors
    if mid is None:
        slack = cfg.slack_factor * (lhs.err + rhs.err)
        satisfied = lhs.value <= rhs.value + slack
    else:
        slack_lo = cfg.slack_factor * (lhs.err + mid.err)
        slack_hi = cfg.slack_factor * (mid.err + rhs.err)
        satisfied = (lhs.value <= mid.value + slack_lo) and (
            mid.value <= rhs.value + slack_hi
        )
        slack = slack_lo + slack_hi
    return InequalityCheck(
        theorem_id=check.theorem,
        lhs=lhs.value,
        rhs=rhs.value,
        constant=check.constant,
        slack=slack,
        satisfied=satisfied,
        lhs_err=lhs.err,
        rhs_err=rhs.err,
        mid=None if mid is None else mid.value,
        mid_err=0.0 if mid is None else mid.err,
        aux=sides.aux,
    )


def _root_sum(fp: _Val, gp: _Val, p: float) -> _Val:
    return fp.powered(1.0 / p).plus(gp.powered(1.0 / p))


def _sum_powers(theorem: TheoremId, const: float, p: float, forward: bool = False) -> _Check:
    """Rows f^p, g^p, (f+g)^p: the reverse bound puts the sum of p-th roots
    below const times the p-th root of the sum; ``forward`` flips it."""

    def combine(fp, gp, spp):
        root = spp.powered(1.0 / p)
        if forward:
            return _Sides(root, _root_sum(fp, gp, p))
        return _Sides(_root_sum(fp, gp, p), root.scaled(const))

    return _Check(theorem, const, lambda f, g: (f ** p, g ** p, (f + g) ** p), combine)


def check_t8(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Sum of p-th roots bounded by c1 times the p-th root of the sum."""
    check = _sum_powers(TheoremId.T8, c1(pair.m, pair.M), cfg.p)
    return _run_check(check, pair, params, x, cfg)


def check_t9(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """c2 times the product of p-th roots bounded by the sum of squared roots."""
    const = c2(pair.m, pair.M)
    p = cfg.p

    def combine(fp, gp):
        lhs = fp.powered(1.0 / p).times(gp.powered(1.0 / p)).scaled(const)
        return _Sides(lhs, fp.powered(2.0 / p).plus(gp.powered(2.0 / p)))

    check = _Check(TheoremId.T9, const, lambda f, g: (f ** p, g ** p), combine)
    return _run_check(check, pair, params, x, cfg)


def check_t10(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Split-exponent product bound with constant (M/m)^(1/(pq)).

    The sound conclusion carries no outer exponent on the right-hand
    operator term (the two proof branches contribute exponents 1/p and 1/q
    which sum to one); the variant with a spurious outer 1/p that appears
    in one display is recorded in ``aux`` for comparison but not asserted.
    """
    _require(cfg.p > 1.0, "T10 requires p > 1")
    p, q = cfg.p, cfg.q
    const = (pair.M / pair.m) ** (1.0 / (p * q))

    def combine(fi, gi, mixed):
        return _Sides(fi.powered(1.0 / p).times(gi.powered(1.0 / q)), mixed.scaled(const),
                      aux={"outer_exponent_rhs": const * mixed.value ** (1.0 / p)})

    check = _Check(TheoremId.T10, const,
                   lambda f, g: (f, g, f ** (1.0 / p) * g ** (1.0 / q)), combine)
    return _run_check(check, pair, params, x, cfg)


def check_t11(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Product integral bounded by c3, c4 combinations of power sums."""
    _require(cfg.p > 1.0, "T11 requires p > 1")
    p, q = cfg.p, cfg.q
    const3 = c3(p, pair.M)
    const4 = c4(q, pair.m, cfg.statement_constants)

    def combine(prod, psum, qsum):
        return _Sides(prod, psum.scaled(const3).plus(qsum.scaled(const4)),
                      aux={"c4": const4})

    check = _Check(TheoremId.T11, const3,
                   lambda f, g: (f * g, f ** p + g ** p, f ** q + g ** q), combine)
    return _run_check(check, pair, params, x, cfg)


def check_t12(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Two-sided bound through the p-th power of f - c g.

    Implements the derivation's form with the p-th power inside the
    operator; the bracketed middle quantity is the sum of p-th roots.
    """
    m, M = pair.m, pair.M
    c = cfg.c
    _require(c is not None and 0.0 < c < m, "require 0 < c < m")
    p = cfg.p

    def combine(dp, fp, gp):
        root = dp.powered(1.0 / p)
        return _Sides(root.scaled((M + 1.0) / (M - c)), root.scaled((m + 1.0) / (m - c)),
                      mid=_root_sum(fp, gp, p))

    check = _Check(TheoremId.T12, c,
                   lambda f, g: ((f - c * g) ** p, f ** p, g ** p), combine)
    return _run_check(check, pair, params, x, cfg)


def check_t13(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Box-bounded version of the reverse sum bound with constant c5."""
    _require(pair.kind is PairKind.BOX_BOUNDED and pair.box is not None,
             "T13 requires a box-bounded pair")
    check = _sum_powers(TheoremId.T13, c5(*pair.box), cfg.p)
    return _run_check(check, pair, params, x, cfg)


def check_t14(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Sandwich of c6 times the squared-sum integral between scaled product integrals."""
    m, M = pair.m, pair.M
    const = c6(m, M)

    def combine(prod, sq):
        return _Sides(prod.scaled(1.0 / M), prod.scaled(1.0 / m), mid=sq.scaled(const))

    check = _Check(TheoremId.T14, const, lambda f, g: (f * g, (f + g) ** 2.0), combine)
    return _run_check(check, pair, params, x, cfg)


def check_t15(pair: PositivePair, params, x: float, cfg: CheckConfig) -> InequalityCheck:
    """Sum of p-th roots bounded by twice the root of the max-function integral."""
    m, M = pair.m, pair.M
    p = cfg.p

    # h = max(M*((M/m + 1) f - M g), ((m + M) g - f)/m), evaluated pointwise
    def arms(f, g):
        return (M * (M / m + 1.0) * f + (-M * M) * g,
                (m + M) / m * g + (-1.0 / m) * f)

    def rows(f, g):
        return f ** p, g ** p, np.maximum(*arms(f, g)) ** p

    def kinks(f, g):
        left, right = arms(f, g)
        return left - right

    def combine(fp, gp, hp):
        return _Sides(_root_sum(fp, gp, p), hp.powered(1.0 / p).scaled(2.0))

    return _run_check(_Check(TheoremId.T15, 2.0, rows, combine, kinks), pair, params, x, cfg)


def check_forward_minkowski(
    pair: PositivePair, params, x: float, cfg: CheckConfig
) -> InequalityCheck:
    """Ordinary triangle-inequality direction, used as a proof-step sanity check."""
    check = _sum_powers(TheoremId.FORWARD_MINKOWSKI, 1.0, cfg.p, forward=True)
    return _run_check(check, pair, params, x, cfg)


def check_scalar_lemmas(r: float, a: float, b: float) -> bool:
    """Pointwise lemmas used inside the derivations.

    Checks a*b <= a^r/r + b^s/s with s conjugate to r, and the power-mean
    bound (a+b)^r <= 2^(r-1) (a^r + b^r); the exponent is r-1 (the value a
    dimension check forces), not the constant p-1 printed alongside it.
    Requires r > 1 and a, b >= 0.  A few-ulp guard absorbs float rounding.
    """
    _require(r > 1.0, "require r > 1")
    _require(a >= 0.0 and b >= 0.0, "require a, b >= 0")
    s = r / (r - 1.0)

    def pw(base, expo):
        # conjugate exponents blow up as r -> 1+; overflow means the bound
        # side is huge, not that the inequality fails
        try:
            return base ** expo
        except OverflowError:
            return math.inf

    young_rhs = pw(a, r) / r + pw(b, s) / s
    guard = 8.0 * 2.220446049250313e-16
    young_ok = a * b <= young_rhs + guard * max(a * b, young_rhs, 1e-300)
    pm_lhs = pw(a + b, r)
    pm_rhs = pw(2.0, r - 1.0) * (pw(a, r) + pw(b, r))
    pm_ok = pm_lhs <= pm_rhs + guard * max(pm_lhs, pm_rhs, 1e-300)
    return young_ok and pm_ok


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


_OPERATOR_CHECKS = {
    TheoremId.T8: check_t8,
    TheoremId.T9: check_t9,
    TheoremId.T10: check_t10,
    TheoremId.T11: check_t11,
    TheoremId.T12: check_t12,
    TheoremId.T13: check_t13,
    TheoremId.T14: check_t14,
    TheoremId.T15: check_t15,
    TheoremId.FORWARD_MINKOWSKI: check_forward_minkowski,
}

_NEEDS_P_GT_1 = {TheoremId.T10, TheoremId.T11}

DEFAULT_THEOREMS = (
    TheoremId.T8,
    TheoremId.T9,
    TheoremId.T10,
    TheoremId.T11,
    TheoremId.T12,
    TheoremId.T13,
    TheoremId.T14,
    TheoremId.T15,
)


def default_operator_grid() -> tuple:
    """Parameter points spanning the classical reductions used by the suite."""
    grid = []
    for alpha in (0.5, 1.0, 2.0):
        grid.append(OperatorParams(alpha=alpha, beta=alpha, rho=1.0, eta=0.0, kappa=0.0))
    for alpha in (0.5, 1.5):
        grid.append(OperatorParams(alpha=alpha, beta=alpha, rho=2.0, eta=0.0, kappa=0.0))
    for alpha, rho, eta in ((0.5, 2.0, 0.5), (1.2, 1.5, 0.0)):
        grid.append(
            OperatorParams(
                alpha=alpha, beta=0.0, rho=rho, eta=eta, kappa=-rho * (alpha + eta)
            )
        )
    return tuple(grid)


@dataclass(frozen=True)
class SuiteConfig:
    theorems: tuple = DEFAULT_THEOREMS
    trials: int = 100
    seed: int = 0
    p_values: tuple = (1.0, 2.0, 3.0)
    ratio_bounds: tuple = ((0.5, 2.0), (1.0, 1.0), (0.9, 1.1))
    c_fraction: float = 0.5
    x: float = 1.0
    slack_factor: float = 2.0
    statement_constants: bool = False
    quad: QuadratureConfig = DEFAULT_CONFIG
    complexity: int = 2
    threads: int = 1
    operator_grid: tuple = field(default_factory=default_operator_grid)


@dataclass(frozen=True)
class TrialRecord:
    theorem: TheoremId
    index: int
    pair_seed: int
    params: OperatorParams
    m: float
    M: float
    p: float
    c: Optional[float]
    x: float
    kind: PairKind
    check: InequalityCheck

    @property
    def status(self) -> str:
        if self.check.inconclusive:
            return "inconclusive"
        return "pass" if self.check.satisfied else "fail"


_RECORD_FIELDS = (
    "theorem", "trial", "pair_seed", "kind", "alpha", "beta", "rho",
    "eta", "kappa", "lower", "x", "m", "M", "p", "c",
    "lhs", "mid", "rhs", "constant", "slack", "margin", "status",
)


def _record_values(r: TrialRecord) -> tuple:
    """One trial's values in _RECORD_FIELDS order; None where a field does
    not apply (JSON writes null, CSV an empty cell)."""
    return (
        r.theorem.value, r.index, r.pair_seed, r.kind.value,
        r.params.alpha, r.params.beta, r.params.rho, r.params.eta,
        r.params.kappa, r.params.lower, r.x, r.m, r.M, r.p, r.c,
        r.check.lhs, r.check.mid, r.check.rhs, r.check.constant, r.check.slack,
        None if r.status == "inconclusive" else r.check.margin,
        r.status,
    )


@dataclass
class SuiteReport:
    config: SuiteConfig
    records: list
    version: str
    timestamp: str

    def summary(self) -> dict:
        out = {}
        for theorem in self.config.theorems:
            recs = [r for r in self.records if r.theorem is theorem]
            passes = sum(1 for r in recs if r.status == "pass")
            fails = sum(1 for r in recs if r.status == "fail")
            inconclusive = sum(1 for r in recs if r.status == "inconclusive")
            margins = [r.check.margin for r in recs if r.status != "inconclusive"]
            out[theorem.value] = {
                "trials": len(recs),
                "passes": passes,
                "failures": fails,
                "inconclusive": inconclusive,
                "min_margin": min(margins) if margins else None,
            }
        return out

    @property
    def total_failures(self) -> int:
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def total_inconclusive(self) -> int:
        return sum(1 for r in self.records if r.status == "inconclusive")

    def inconclusive_over_threshold(self, fraction: float = 0.01) -> bool:
        total = len(self.records)
        return total > 0 and self.total_inconclusive > fraction * total

    def to_json_dict(self) -> dict:
        failures = [
            dict(zip(_RECORD_FIELDS, _record_values(r)))
            for r in self.records
            if r.status == "fail"
        ]
        return {
            "metadata": {
                "version": self.version,
                "master_seed": self.config.seed,
                "timestamp": self.timestamp,
                "trials_per_theorem": self.config.trials,
                "slack_factor": self.config.slack_factor,
                "statement_constants": self.config.statement_constants,
                "x": self.config.x,
            },
            "grid": {
                "operators": [
                    {
                        "alpha": g.alpha,
                        "beta": g.beta,
                        "rho": g.rho,
                        "eta": g.eta,
                        "kappa": g.kappa,
                        "lower": g.lower,
                    }
                    for g in self.config.operator_grid
                ],
                "p_values": list(self.config.p_values),
                "ratio_bounds": [list(b) for b in self.config.ratio_bounds],
            },
            "theorems": self.summary(),
            "failures": failures,
        }

    def csv_rows(self) -> list:
        rows = [list(_RECORD_FIELDS)]
        for r in self.records:
            rows.append(["" if v is None else v for v in _record_values(r)])
        return rows


def _trial_seed(master_seed: int, theorem_ordinal: int, index: int) -> int:
    return (int(master_seed) * 1_000_003 + theorem_ordinal * 10_007 + index) & 0x7FFFFFFF


def _run_trial(cfg: SuiteConfig, theorem: TheoremId, index: int) -> TrialRecord:
    p_options = [p for p in cfg.p_values if p > 1.0] if theorem in _NEEDS_P_GT_1 else list(cfg.p_values)
    if not p_options:
        raise DomainError("%s requires at least one p > 1 in p_values" % theorem.value)
    combos = [
        (op, bounds, p)
        for op in cfg.operator_grid
        for bounds in cfg.ratio_bounds
        for p in p_options
    ]
    op, (m, M), p = combos[index % len(combos)]
    ordinal = list(TheoremId).index(theorem)
    seed = _trial_seed(cfg.seed, ordinal, index)
    domain = (op.lower, cfg.x)
    if theorem is TheoremId.T13:
        pair = generate_box_pair(seed, m, M, m, M, domain, cfg.complexity)
    else:
        pair = generate_ratio_pair(seed, m, M, domain, cfg.complexity)
    c = cfg.c_fraction * m if theorem is TheoremId.T12 else None
    check_cfg = CheckConfig(
        p=p,
        c=c,
        slack_factor=cfg.slack_factor,
        statement_constants=cfg.statement_constants,
        quad=cfg.quad,
    )
    check = _OPERATOR_CHECKS[theorem](pair, op, cfg.x, check_cfg)
    return TrialRecord(
        theorem=theorem,
        index=index,
        pair_seed=seed,
        params=op,
        m=m,
        M=M,
        p=p,
        c=c,
        x=cfg.x,
        kind=pair.kind,
        check=check,
    )


def suite_threads_default() -> int:
    raw = os.environ.get("GENFRAC_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_suite(cfg: SuiteConfig, version: str = "0.1.0", timestamp: str = "") -> SuiteReport:
    """Run every selected theorem over ``trials`` seeded pairs.

    Results are deterministic for a fixed master seed regardless of the
    thread count: each trial derives its own seed and records are sorted
    by (theorem, trial index) before aggregation.
    """
    jobs = [(theorem, i) for theorem in cfg.theorems for i in range(cfg.trials)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            records = list(pool.map(lambda job: _run_trial(cfg, *job), jobs))
    else:
        records = [_run_trial(cfg, theorem, i) for theorem, i in jobs]
    order = {t: k for k, t in enumerate(TheoremId)}
    records.sort(key=lambda r: (order[r.theorem], r.index))
    return SuiteReport(config=cfg, records=records, version=version, timestamp=timestamp)
