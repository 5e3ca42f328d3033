"""Numerical certification of the reverse-Minkowski-type inequalities.

Each check evaluates both sides of one inequality with the operator
applied to pointwise-composed integrands (powers, products, differences
and maxima are folded into the integrand expression, never applied to
operator values), and accepts the trial only if the inequality holds
between the sides' interval ends, which widen each operator value by
``slack_factor`` times its quadrature error estimate.

Quadrature non-convergence marks a trial inconclusive rather than failed:
an inequality is never silently passed or failed on a value we do not
trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .functions import (
    PairKind,
    PositivePair,
    Product,
    SinPos,
    check_grid,
    generate_box_pair,
    generate_ratio_pair,
)
from .operator_core import OperatorParams, Side, evaluate
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = [
    "TheoremId",
    "CheckConfig",
    "InequalityCheck",
    "c1",
    "c2",
    "c3",
    "c4",
    "c5",
    "c6",
    "check_theorem",
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


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _require_finite(**values) -> None:
    for name, value in values.items():
        _require(math.isfinite(value), "%s must be finite, got %r" % (name, value))


def c1(m: float, M: float) -> float:
    _require(0.0 < m <= M, "require 0 < m <= M")
    return (M * (m + 1.0) + (M + 1.0)) / ((m + 1.0) * (M + 1.0))


def c2(m: float, M: float) -> float:
    _require(0.0 < m <= M, "require 0 < m <= M")
    return (M + 1.0) * (m + 1.0) / M - 2.0


def _in_range(name: str, direct: Callable[[], float], log_form: Callable[[], float]) -> float:
    """A constant from ``direct()``, or exp(``log_form()``) where the direct
    form overflows: the log form is the fallback only, so a constant the
    direct form reaches keeps its bits.  DomainError when the constant
    itself is beyond the float range."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    try:
        return math.exp(log_form())
    except OverflowError:
        raise DomainError("%s is beyond the float range" % name) from None


def c3(p: float, M: float) -> float:
    _require(p > 1.0, "require p > 1")
    _require(M > 0.0, "require M > 0")
    # 2^(p-1) (M / (M + 1))^p / p
    return _in_range(
        "c3",
        lambda: 2.0 ** (p - 1.0) * M ** p / (p * (M + 1.0) ** p),
        lambda: (p - 1.0) * math.log(2.0) - p * math.log1p(1.0 / M) - math.log(p),
    )


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
    return _in_range(
        "c4",
        lambda: 2.0 ** expo / (q * (m + 1.0) ** q),
        lambda: expo * math.log(2.0) - math.log(q) - q * math.log1p(m),
    )


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
# the kink finder
# ---------------------------------------------------------------------------


_BISECT_LEVELS = 80  # steps per grid cell of the general kink finder, and per phase solve
_KINK_GRID = 512  # points of the grid the general kink finder samples first
_TWO_PI = 2.0 * math.pi
_PHASE_TURNS = 4096  # a wider phase range goes to the general finder, bounding a check's work


def _sign_crossings(diff, lo: float, hi: float) -> tuple:
    """Interior points where ``diff`` changes sign: the general kink finder.

    ``diff`` is sampled on a _KINK_GRID-point grid.  Each grid cell whose
    left end has a sign and whose right end is zero or of the other sign (a
    NaN has neither) is bisected, each midpoint being 0.5 * (left + right)
    of its bracket, with the midpoints of all live cells in one call of
    ``diff`` per step.  A cell stops once its ends are adjacent doubles or
    after _BISECT_LEVELS steps, and its root is then the midpoint of its
    ends; a midpoint where ``diff`` is exactly zero is the root itself.  The
    scan compares signs: the product of two ends underflows to zero below
    about 1e-162.  Two crossings inside one grid cell are not seen.
    """
    t = check_grid(lo, hi, _KINK_GRID)
    d = np.asarray(diff(t), dtype=float)
    left, right = d[:-1], d[1:]
    cells = np.flatnonzero(((left > 0.0) & (right <= 0.0)) | ((left < 0.0) & (right >= 0.0)))
    a, b, positive = t[cells], t[cells + 1], left[cells] > 0.0
    live = np.arange(cells.size)
    for _ in range(_BISECT_LEVELS):
        live = live[np.nextafter(a[live], np.inf) < b[live]]
        if not live.size:
            break
        mid = 0.5 * (a[live] + b[live])
        dm = np.asarray(diff(mid), dtype=float)
        zero = dm == 0.0
        on_left = ((dm > 0.0) == positive[live]) & ~zero  # mid has the left end's sign
        a[live] = np.where(on_left | zero, mid, a[live])
        b[live] = np.where(on_left, b[live], mid)
    return tuple((0.5 * (a + b)).tolist())


def _phase(r: SinPos, t: float) -> tuple:
    """The phase psi(t) = w t + phi + s(P(t)) of ``r`` and its derivative, in
    floats; s is the logistic and P the shift polynomial (SinPos.eval)."""
    psi, dpsi = r.w * t + r.phi, r.w
    if r.shift is not None:
        h = dh = 0.0
        for c in reversed(r.shift):  # Horner for P and P'
            h, dh = h * t + c, dh * t + h
        e = math.exp(-abs(h))
        s = 1.0 / (1.0 + e) if h >= 0.0 else e / (1.0 + e)
        psi, dpsi = psi + s, dpsi + s * (1.0 - s) * dh
    return psi, dpsi


def _increasing_span(r: SinPos, lo: float, hi: float) -> Optional[tuple]:
    """The part of [lo, hi] where ``r``'s phase is certified increasing, or
    None.  psi' = w + s'(P) P' >= w - |P'|/4, as 0 < s' <= 1/4, so psi rises
    wherever |P'| < 4 w; for a shift of degree <= 2, P' is linear and that
    set is one interval."""
    shift = r.shift or ()
    if not (r.w > 0.0 and len(shift) <= 3):
        return None
    c1, c2 = (shift + (0.0, 0.0, 0.0))[1:3]  # P' = c1 + 2 c2 t
    bound = 4.0 * r.w
    if c2 == 0.0:
        return (lo, hi) if abs(c1) < bound else None
    ends = sorted(((-bound - c1) / (2.0 * c2), (bound - c1) / (2.0 * c2)))
    a, b = max(lo, ends[0]), min(hi, ends[1])
    return (a, b) if a < b else None


def _solve_phase(r: SinPos, theta: float, a: float, b: float, pa: float, pb: float) -> float:
    """The t in [a, b] where ``r``'s increasing phase equals ``theta``, given
    pa = psi(a) < theta <= psi(b) = pb: Newton's method from the secant's
    root, bisecting where a step leaves the bracket, to a few ulps."""
    t = a + (b - a) * ((theta - pa) / (pb - pa))
    for _ in range(_BISECT_LEVELS):
        psi, dpsi = _phase(r, t)
        if psi == theta:
            return t
        a, b = (t, b) if psi < theta else (a, t)
        step = t - (psi - theta) / dpsi if dpsi > 0.0 else math.nan
        if not a < step < b:  # NaN too
            step = 0.5 * (a + b)
        if abs(step - t) <= 2.0 * math.ulp(t):
            return step
        t = step
    return t


def _phase_crossings(r: SinPos, level: float, lo: float, hi: float, diff) -> tuple:
    """Points of (lo, hi) where the profile ``r`` crosses ``level``.

    r = lo_r + (hi_r - lo_r)(1 + sin psi)/2 equals level where sin psi = c,
    c = 2 (level - lo_r)/(hi_r - lo_r) - 1.  So r - level keeps one sign for
    a constant r or |c| >= 1, and otherwise changes sign exactly where psi
    meets a target theta in {asin c, pi - asin c} + 2 pi k.  On the span
    where psi is certified increasing (_increasing_span) there is one
    crossing per target in (psi(a), psi(b)], each solved on psi alone;
    _sign_crossings finds those of every other part as the sign changes of
    ``diff``.
    """
    width = r.hi - r.lo
    if width == 0.0:
        return ()
    c = 2.0 * (level - r.lo) / width - 1.0
    if not abs(c) < 1.0:  # NaN too
        return ()
    span = _increasing_span(r, lo, hi)
    if span is None:
        return _sign_crossings(diff, lo, hi)
    a, b = span
    pa, pb = _phase(r, a)[0], _phase(r, b)[0]
    if not pb - pa < _PHASE_TURNS * _TWO_PI:  # NaN and inf too
        return _sign_crossings(diff, lo, hi)
    roots = list(_sign_crossings(diff, lo, a)) if lo < a else []
    if b < hi:
        roots += _sign_crossings(diff, b, hi)
    base = math.asin(c)
    for start in (base, math.pi - base):
        k = math.ceil((pa - start) / _TWO_PI) - 1
        while (theta := start + _TWO_PI * k) <= pb:
            if theta > pa:
                roots.append(_solve_phase(r, theta, a, b, pa, pb))
            k += 1
    return tuple(sorted(roots))


def _kinks(pair: PositivePair, level: float, lo: float, hi: float) -> tuple:
    """Points of (lo, hi) where f/g crosses ``level``, the sign changes of
    f - level g.

    When f is ``Product((r, g))`` over a ``SinPos`` profile r and the pair's
    g (equal by value), f - level g = g (r - level) with g > 0, so the
    crossings are r's and follow from its phase without evaluating the
    pair (_phase_crossings).  Every other pair, and every part of the
    interval where that phase is not certified increasing, goes to
    _sign_crossings.
    """
    if not -math.inf < lo < hi < math.inf:
        return ()

    def diff(t):
        fv, gv = pair.values(t)
        return fv - level * gv

    fe = pair.f.expr
    if (isinstance(fe, Product) and len(fe.factors) == 2 and isinstance(fe.factors[0], SinPos)
            and fe.factors[1] == pair.g.expr):
        return _phase_crossings(fe.factors[0], level, lo, hi, diff)
    return _sign_crossings(diff, lo, hi)


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

    def __post_init__(self):
        _require_finite(p=self.p)
        _require(self.p >= 1.0, "require p >= 1")
        _require(0.0 < self.slack_factor < math.inf, "require positive finite slack_factor")

    @property
    def q(self) -> float:
        """Conjugate exponent; infinite when p = 1."""
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    constant: float
    slack: float
    status: str  # "pass", "fail", or "inconclusive" (lhs, rhs and slack are NaN)
    mid: Optional[float] = None  # sandwich checks: the bracketed quantity

    @property
    def margin(self) -> float:
        """Smallest relative distance from violation (negative = violated)."""
        scale = max(abs(self.rhs), abs(self.lhs), 1e-300)
        if self.mid is None:
            return (self.rhs - self.lhs) / scale
        scale = max(scale, abs(self.mid))
        return min(self.mid - self.lhs, self.rhs - self.mid) / scale


# ---------------------------------------------------------------------------
# theorem checks
#
# Each check is data: the integrands as functions of the pair's values
# (f(t), g(t)) at the quadrature nodes, one row each, and a rule combining
# their operator values into the compared sides.  One table maps each
# theorem to the builder of its check, and every check runs in two steps:
# _row_values integrates all rows on one node set, taking f and g from one
# ``PositivePair.values`` call per node set, and _verdict judges the
# inequality from those values and their error estimates alone.
# ---------------------------------------------------------------------------


class _Sides(NamedTuple):
    lhs: float
    rhs: float
    mid: Optional[float] = None  # sandwich checks: lhs <= mid <= rhs

    def chain(self) -> tuple:
        """The sides in the order the inequality ranks them, smallest first."""
        return (self.lhs, self.rhs) if self.mid is None else (self.lhs, self.mid, self.rhs)


@dataclass(frozen=True)
class _Check:
    """One inequality: ``rows(fv, gv)`` gives the integrands, ``combine`` maps
    their operator values, floats in row order, to ``_Sides`` of floats,
    each side monotone in each row.  ``kink_ratio``, when set, is the level
    of f/g whose crossings are the kinks of the rows."""

    constant: float
    rows: Callable
    combine: Callable
    kink_ratio: Optional[float] = None


def _row_values(check: _Check, pair: PositivePair, params: OperatorParams, x: float,
                quad: QuadratureConfig) -> Optional[tuple]:
    """The operator values of ``check``'s rows on ``pair`` and their error
    estimates, as two lists of floats in row order, integrated in one call;
    None when quadrature does not converge or a value is not finite and
    nonnegative.  The kinks are searched over all of [lower, x], the interval
    integrated, which may reach past the pair's domain.  The rows and the
    kink finder's difference may overflow (f**p for a large M, say); they
    are sampled without numpy's overflow and invalid-value warnings, as
    every value is judged here.
    """

    def rows(t):
        return np.array(check.rows(*pair.values(t)))

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            breakpoints = ()
            if check.kink_ratio is not None:
                breakpoints = _kinks(pair, check.kink_ratio, params.lower, x)
            res = evaluate(params, rows, x, quad, breakpoints)
    except ConvergenceError:
        return None
    values = res.value.tolist()
    if not all(0.0 <= v < math.inf for v in values):  # NaN fails too
        return None
    return values, res.error_estimate.tolist()


def _side_ends(check: _Check, vals: list, errs: list, slack_factor: float) -> tuple:
    """The sides' lower and upper interval ends, in ``_Sides.chain`` order.
    ``combine`` runs at every row's lower bar end max(v - s*e, 0) and at
    every upper end v + s*e, s = ``slack_factor``, and each side's ends are
    the lesser and the greater of its two values: a side may fall as its
    rows rise (T9's lhs carries c2, which is negative for M/m large)."""
    bars = [slack_factor * e for e in errs]
    low = check.combine(*[max(v - b, 0.0) for v, b in zip(vals, bars)]).chain()
    high = check.combine(*[v + b for v, b in zip(vals, bars)]).chain()
    return list(map(min, low, high)), list(map(max, low, high))


def _verdict(check: _Check, rows: Optional[tuple], slack_factor: float) -> InequalityCheck:
    """Judge ``check`` from its rows' operator values and error estimates
    ``rows``, as _row_values gives them (None: the trial is inconclusive).

    The sides are ``combine`` at the values.  Each compared pair of sides,
    a below b, holds when a_lo <= b_hi (ends from _side_ends), and a
    sandwich must hold both of its pairs.  The slack of a pair is
    (a - a_lo) + (b_hi - b); a sandwich reports the sum over its two."""
    if rows is None:
        return InequalityCheck(math.nan, math.nan, check.constant, math.nan, "inconclusive")
    vals, errs = rows
    sides = check.combine(*vals)
    points = sides.chain()
    lows, highs = _side_ends(check, vals, errs, slack_factor)
    holds, slack = True, 0.0
    for k in range(1, len(points)):
        holds = holds and lows[k - 1] <= highs[k]
        slack += (points[k - 1] - lows[k - 1]) + (highs[k] - points[k])
    return InequalityCheck(sides.lhs, sides.rhs, check.constant, slack,
                           "pass" if holds else "fail", sides.mid)


def _root_sum(fp: float, gp: float, p: float) -> float:
    return fp ** (1.0 / p) + gp ** (1.0 / p)


def _sum_powers(const: float, p: float) -> _Check:
    """Rows f^p, g^p, (f+g)^p: the sum of p-th roots below const times the
    p-th root of the sum."""

    def combine(fp, gp, spp):
        return _Sides(_root_sum(fp, gp, p), const * spp ** (1.0 / p))

    return _Check(const, lambda f, g: (f ** p, g ** p, (f + g) ** p), combine)


def _t8(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Sum of p-th roots bounded by c1 times the p-th root of the sum."""
    return _sum_powers(c1(pair.m, pair.M), cfg.p)


def _t9(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """c2 times the product of p-th roots bounded by the sum of squared roots."""
    const = c2(pair.m, pair.M)
    p = cfg.p

    def combine(fp, gp):
        return _Sides(const * (fp ** (1.0 / p) * gp ** (1.0 / p)),
                      fp ** (2.0 / p) + gp ** (2.0 / p))

    return _Check(const, lambda f, g: (f ** p, g ** p), combine)


def _t10(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Split-exponent product bound with constant (M/m)^(1/(pq)).

    The sound conclusion carries no outer exponent on the right-hand
    operator term (the two proof branches contribute exponents 1/p and 1/q,
    which sum to one).  One display of the paper puts an outer 1/p on it;
    ``statement_constants`` checks that variant instead.  It is not
    homogeneous in the operator, and random pairs violate it.
    """
    p, q = cfg.p, cfg.q
    const = (pair.M / pair.m) ** (1.0 / (p * q))
    outer = 1.0 / p if cfg.statement_constants else 1.0

    def combine(fi, gi, mixed):
        return _Sides(fi ** (1.0 / p) * gi ** (1.0 / q), const * mixed ** outer)

    return _Check(const, lambda f, g: (f, g, f ** (1.0 / p) * g ** (1.0 / q)), combine)


def _t11(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Product integral bounded by c3, c4 combinations of power sums."""
    p, q = cfg.p, cfg.q
    const3 = c3(p, pair.M)
    const4 = c4(q, pair.m, cfg.statement_constants)

    def combine(prod, psum, qsum):
        return _Sides(prod, const3 * psum + const4 * qsum)

    return _Check(const3, lambda f, g: (f * g, f ** p + g ** p, f ** q + g ** q), combine)


def _t12(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Two-sided bound through the p-th power of f - c g.

    Implements the derivation's form with the p-th power inside the
    operator; the bracketed middle quantity is the sum of p-th roots.
    """
    m, M = pair.m, pair.M
    c = cfg.c
    _require(c is not None and 0.0 < c < m, "require 0 < c < m")
    p = cfg.p

    def combine(dp, fp, gp):
        root = dp ** (1.0 / p)
        return _Sides((M + 1.0) / (M - c) * root, (m + 1.0) / (m - c) * root,
                      mid=_root_sum(fp, gp, p))

    return _Check(c, lambda f, g: ((f - c * g) ** p, f ** p, g ** p), combine)


def _t13(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Box-bounded version of the reverse sum bound with constant c5."""
    _require(pair.kind is PairKind.BOX_BOUNDED and pair.box is not None,
             "T13 requires a box-bounded pair")
    return _sum_powers(c5(*pair.box), cfg.p)


def _t14(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Sandwich of c6 times the squared-sum integral between scaled product integrals."""
    m, M = pair.m, pair.M
    const = c6(m, M)

    def combine(prod, sq):
        return _Sides(1.0 / M * prod, 1.0 / m * prod, mid=const * sq)

    return _Check(const, lambda f, g: (f * g, (f + g) ** 2.0), combine)


def _t15(pair: PositivePair, cfg: CheckConfig) -> _Check:
    """Sum of p-th roots bounded by twice the root of the max-function integral."""
    m, M = pair.m, pair.M
    p = cfg.p

    # h = max(M*((M/m + 1) f - M g), ((m + M) g - f)/m), evaluated pointwise
    def rows(f, g):
        arms = (M * (M / m + 1.0) * f + (-M * M) * g, (m + M) / m * g + (-1.0 / m) * f)
        return f ** p, g ** p, np.maximum(*arms) ** p

    def combine(fp, gp, hp):
        return _Sides(_root_sum(fp, gp, p), 2.0 * hp ** (1.0 / p))

    # the arms differ by A f - B g, A > 0: h is kinked where f/g crosses B/A
    A = M * (M / m + 1.0) + 1.0 / m
    B = M * M + (m + M) / m
    return _Check(2.0, rows, combine, B / A)


_BUILDERS = {
    TheoremId.T8: _t8,
    TheoremId.T9: _t9,
    TheoremId.T10: _t10,
    TheoremId.T11: _t11,
    TheoremId.T12: _t12,
    TheoremId.T13: _t13,
    TheoremId.T14: _t14,
    TheoremId.T15: _t15,
}

_NEEDS_P_GT_1 = {TheoremId.T10, TheoremId.T11}


def check_theorem(theorem: TheoremId, pair: PositivePair, params: OperatorParams,
                  x: float, cfg: CheckConfig) -> InequalityCheck:
    """Check ``theorem`` on ``pair`` under ``params`` at ``x``.  DomainError
    where the theorem does not apply: T10 and T11 need p > 1, T12
    0 < cfg.c < m, T13 a box pair; and T15 runs under the finite left-sided
    form only, the one form that takes breakpoints at the kinks of its
    max-function row.  Each of these is raised before any integral."""
    if not cfg.p > 1.0 and theorem in _NEEDS_P_GT_1:
        raise DomainError("%s requires p > 1" % theorem.value)
    check = _BUILDERS[theorem](pair, cfg)
    if check.kink_ratio is not None and (params.side is Side.RIGHT or math.isinf(params.lower)):
        raise DomainError("%s needs breakpoints at its kinks, which only the finite "
                          "left-sided form takes" % theorem.value)
    return _verdict(check, _row_values(check, pair, params, x, DEFAULT_CONFIG), cfg.slack_factor)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


DEFAULT_THEOREMS = tuple(TheoremId)


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
    """Each selected theorem over ``trials`` seeded pairs, cycling through
    default_operator_grid(), the ratio bounds (m, M) and the p values (only
    p > 1 for T10 and T11).  ``c`` is T12's 0 < c < m; None means m / 2 per
    bound.

    Construction raises DomainError for a bad configuration, so before any
    trial runs; m > M is the pair generators' BoundsError.
    """

    theorems: tuple = DEFAULT_THEOREMS
    trials: int = 100
    seed: int = 0
    p_values: tuple = (1.0, 2.0, 3.0)
    ratio_bounds: tuple = ((0.5, 2.0), (1.0, 1.0), (0.9, 1.1))
    c: Optional[float] = None
    x: float = 1.0
    slack_factor: float = 2.0
    statement_constants: bool = False
    threads: int = 1  # no effect, the suite is serial; kept because perfbench/workloads.py passes it

    def __post_init__(self):
        _require(self.trials >= 1, "trials must be >= 1")
        _require(len(self.theorems) > 0, "select at least one theorem")
        _require(all(isinstance(t, TheoremId) for t in self.theorems)
                 and len(set(self.theorems)) == len(self.theorems),
                 "theorems must be distinct TheoremId members")
        _require(len(self.p_values) > 0, "p_values must not be empty")
        _require(len(self.ratio_bounds) > 0, "ratio_bounds must not be empty")
        _require_finite(x=self.x)
        for p in self.p_values:
            CheckConfig(p=p, slack_factor=self.slack_factor)  # finite p >= 1, slack_factor
        for theorem in self.theorems:
            _require(theorem not in _NEEDS_P_GT_1 or any(p > 1.0 for p in self.p_values),
                     "%s requires at least one p > 1 in p_values" % theorem.value)
        for m, M in self.ratio_bounds:
            _require_finite(m=m, M=M)
            _require(self.c is None or 0.0 < self.c < m, "require 0 < c < m")


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
        None if r.check.status == "inconclusive" else r.check.margin,
        r.check.status,
    )


# the summary key counting each InequalityCheck.status
_STATUS_COUNTS = {"pass": "passes", "fail": "failures", "inconclusive": "inconclusive"}

# more inconclusive trials than this share of a run make `verify` exit
# with the non-convergence code
_INCONCLUSIVE_SHARE = 0.01


@dataclass
class SuiteReport:
    config: SuiteConfig
    records: list
    version: str
    timestamp: str

    def summary(self) -> dict:
        """Each theorem's outcome counts and least margin over its decided
        trials (None when it has none), in ``config.theorems`` order, from
        one pass over the records."""
        out = {t.value: {"trials": 0, "passes": 0, "failures": 0, "inconclusive": 0,
                         "min_margin": None} for t in self.config.theorems}
        for r in self.records:
            stats = out[r.theorem.value]
            stats["trials"] += 1
            stats[_STATUS_COUNTS[r.check.status]] += 1
            if r.check.status != "inconclusive":
                margin = r.check.margin
                if stats["min_margin"] is None or margin < stats["min_margin"]:
                    stats["min_margin"] = margin
        return out

    @property
    def total_failures(self) -> int:
        return sum(stats["failures"] for stats in self.summary().values())

    @property
    def total_inconclusive(self) -> int:
        return sum(stats["inconclusive"] for stats in self.summary().values())

    def inconclusive_over_threshold(self) -> bool:
        """More than _INCONCLUSIVE_SHARE of the trials are inconclusive."""
        total = len(self.records)
        return total > 0 and self.total_inconclusive > _INCONCLUSIVE_SHARE * total

    def to_json_dict(self) -> dict:
        failures = [
            dict(zip(_RECORD_FIELDS, _record_values(r)))
            for r in self.records
            if r.check.status == "fail"
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
                    for g in default_operator_grid()
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


def _run_theorem(cfg: SuiteConfig, theorem: TheoremId, ordinal: int) -> list:
    """The records of ``theorem``'s trials, in index order."""
    p_options = [p for p in cfg.p_values if p > 1.0] if theorem in _NEEDS_P_GT_1 else list(cfg.p_values)
    combos = [
        (op, (m, M), p, CheckConfig(
            p=p,
            c=(0.5 * m if cfg.c is None else cfg.c) if theorem is TheoremId.T12 else None,
            slack_factor=cfg.slack_factor,
            statement_constants=cfg.statement_constants,
        ))
        for op in default_operator_grid()
        for m, M in cfg.ratio_bounds
        for p in p_options
    ]
    records = []
    for index in range(cfg.trials):
        op, (m, M), p, check_cfg = combos[index % len(combos)]
        seed = _trial_seed(cfg.seed, ordinal, index)
        domain = (op.lower, cfg.x)
        if theorem is TheoremId.T13:
            pair = generate_box_pair(seed, m, M, m, M, domain)
        else:
            pair = generate_ratio_pair(seed, m, M, domain)
        check = check_theorem(theorem, pair, op, cfg.x, check_cfg)
        records.append(TrialRecord(
            theorem=theorem,
            index=index,
            pair_seed=seed,
            params=op,
            m=m,
            M=M,
            p=p,
            c=check_cfg.c,
            x=cfg.x,
            kind=pair.kind,
            check=check,
        ))
    return records


def run_suite(cfg: SuiteConfig, version: str = "0.1.0", timestamp: str = "") -> SuiteReport:
    """Run every selected theorem over ``trials`` seeded pairs.

    Theorems run in TheoremId order and the trials of each in index order.
    Each trial derives its pair seed from the master seed, the theorem and
    its index, so a fixed master seed gives the same report on every run.

    An integrand row that overflows (f**p for a large M, say) makes its
    trial inconclusive without a numpy warning (see _row_values).
    """
    ordinals = {t: k for k, t in enumerate(TheoremId)}
    records = []
    for theorem in sorted(cfg.theorems, key=ordinals.get):
        records.extend(_run_theorem(cfg, theorem, ordinals[theorem]))
    return SuiteReport(config=cfg, records=records, version=version, timestamp=timestamp)
