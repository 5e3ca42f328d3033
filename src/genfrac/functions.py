"""Positive test functions and constrained pair generation.

Functions are small expression trees evaluated exactly at arbitrary
points (scalars or numpy arrays), so quadrature never sees interpolation
error.  Pair generators build the constraint into the construction —
the ratio f/g (or the value boxes) is exact by algebra — and a dense
grid check re-asserts it numerically as defense in depth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import BoundsError, FunctionSpecError

__all__ = [
    "Expr",
    "Const",
    "Monomial",
    "Polynomial",
    "ExpPoly",
    "SinPos",
    "Product",
    "PMax",
    "TestFunction",
    "PairKind",
    "PositivePair",
    "generate_ratio_pair",
    "generate_box_pair",
    "parse_function_spec",
]

ArrayLike = Union[float, np.ndarray]


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression-tree nodes.

    ``eval`` maps a float array (0-d included) to an array of its shape;
    calling a node also accepts a scalar and then returns a Python float.
    """

    def eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t: ArrayLike) -> ArrayLike:
        t = np.asarray(t, dtype=float)
        out = self.eval(t)
        return out if t.ndim else float(out)


def _horner(coeffs: tuple, t: np.ndarray) -> np.ndarray:
    # c0 + c1 t + c2 t^2 + ..., from the top: (cn t + c(n-1)) t + c(n-2) ...
    if len(coeffs) == 1:
        return np.full_like(t, coeffs[0])
    acc = t * coeffs[-1] + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, t):
        return np.full_like(t, self.value)


@dataclass(frozen=True)
class Monomial(Expr):
    sigma: float

    def eval(self, t):
        return t ** self.sigma if self.sigma != 0.0 else np.ones_like(t)


@dataclass(frozen=True)
class Polynomial(Expr):
    coeffs: tuple  # c0 + c1 t + c2 t^2 + ...

    def eval(self, t):
        return _horner(self.coeffs, t)


@dataclass(frozen=True)
class ExpPoly(Expr):
    """exp of a polynomial; strictly positive wherever the polynomial is finite."""

    coeffs: tuple

    def eval(self, t):
        return np.exp(_horner(self.coeffs, t))


@dataclass(frozen=True)
class SinPos(Expr):
    """lo + (hi-lo) * (1 + sin(w t + phi + shift(t))) / 2, range [lo, hi] exactly.

    ``shift`` is an optional logistic of a low-degree polynomial; it only
    moves the phase, so the range bound is unaffected.

    When lo == hi (finite), the profile is the constant lo, as a ratio
    profile is for m = M.  It is then returned without the sine and the
    shift: the formula gives lo + (+0.0) wherever its argument is finite,
    and NaN where it is not.  The shift's logistic lies in [0, 1] for finite
    coefficients, so the argument is finite exactly where w t + phi is.
    """

    w: float
    phi: float
    lo: float
    hi: float
    shift: Optional[tuple] = None

    def eval(self, t):
        arg = self.w * t + self.phi
        if self.hi - self.lo == 0.0:
            return 0.0 * arg + (self.lo + 0.0)
        if self.shift is not None:
            arg = arg + 1.0 / (1.0 + np.exp(-_horner(self.shift, t)))
        return self.lo + (self.hi - self.lo) * 0.5 * (1.0 + np.sin(arg))


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple

    def eval(self, t):
        acc = np.ones_like(t)
        for e in self.factors:
            acc = acc * e.eval(t)
        return acc


@dataclass(frozen=True)
class PMax(Expr):
    left: Expr
    right: Expr

    def eval(self, t):
        return np.maximum(self.left.eval(t), self.right.eval(t))


# ---------------------------------------------------------------------------
# test functions on an interval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Expression tree restricted to a closed interval."""

    __test__ = False  # not a pytest class despite the name

    expr: Expr
    domain: tuple  # (lo, hi)

    def __call__(self, t: ArrayLike) -> ArrayLike:
        return self.expr(t)


# ---------------------------------------------------------------------------
# constrained pairs
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def check_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)``, built once per (lo, hi, n) and read-only,
    because every caller gets the same array."""
    t = np.linspace(lo, hi, n)
    t.setflags(write=False)
    return t


class PairKind(Enum):
    RATIO_BOUNDED = "ratio"
    BOX_BOUNDED = "box"


@dataclass(frozen=True)
class PositivePair:
    f: TestFunction
    g: TestFunction
    m: float
    M: float
    kind: PairKind
    box: Optional[tuple] = None  # (a_lo, A_hi, b_lo, B_hi) for BOX_BOUNDED

    def values(self, t: ArrayLike) -> tuple:
        """``(f(t), g(t))``.  When f is ``Product((r, g.expr))``, as for a ratio
        pair, g's tree is evaluated once and f(t) = r(t) * g(t), which is
        bit for bit what ``Product`` computes, (1 * r) * g."""
        fe = self.f.expr
        if isinstance(fe, Product) and len(fe.factors) == 2 and fe.factors[1] is self.g.expr:
            gv = self.g(t)
            return fe.factors[0](t) * gv, gv
        return self.f(t), self.g(t)

    def _grid_values(self, n: int) -> tuple:
        """f and g on an n-point grid of the domain; BoundsError unless finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            fv, gv = self.values(check_grid(*self.f.domain, n))
        if not (np.isfinite(fv).all() and np.isfinite(gv).all()):
            raise BoundsError("pair is not finite on the check grid (bounds too large?)")
        return fv, gv

    def ratio_range_on_grid(self, n: int = 1000) -> tuple:
        fv, gv = self._grid_values(n)
        r = fv / gv
        return float(r.min()), float(r.max())

    def box_range_on_grid(self, n: int = 1000) -> tuple:
        fv, gv = self._grid_values(n)
        return float(fv.min()), float(fv.max()), float(gv.min()), float(gv.max())


_RATIO_STREAM = 0x67656E66  # namespace tags keep generator streams apart
_BOX_STREAM = 0x67656E67


def _bounded_exp_poly(rng: np.random.Generator, domain: tuple) -> ExpPoly:
    degree = int(rng.integers(0, 3))  # 0, 1 or 2
    coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
    peak = float(np.max(np.abs(_horner(coeffs, check_grid(domain[0], domain[1], 256)))))
    if peak > 1.5:
        coeffs = coeffs * (1.5 / peak)
    return ExpPoly(tuple(float(c) for c in coeffs))


def _unit_profile(rng: np.random.Generator, lo: float, hi: float) -> SinPos:
    w = float(rng.uniform(0.5, 4.0))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    shift = tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=3))
    return SinPos(w, phi, lo, hi, shift)


def generate_ratio_pair(
    seed: int,
    m: float,
    M: float,
    domain: tuple,
) -> PositivePair:
    """Seeded pair (f, g) with m <= f/g <= M guaranteed by construction.

    g is the exponential of a bounded random polynomial; the ratio profile
    r(t) lands in [m, M] exactly, and f = r * g.  A 1000-point grid check
    re-asserts the bound numerically.
    """
    if not (0.0 < m <= M):
        raise BoundsError("require 0 < m <= M, got m=%r M=%r" % (m, M))
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise BoundsError("degenerate domain [%r, %r]" % (lo, hi))
    rng = np.random.default_rng([_RATIO_STREAM, int(seed)])
    g_expr = _bounded_exp_poly(rng, (lo, hi))
    ratio = _unit_profile(rng, m, M)
    f_expr = Product((ratio, g_expr))
    f = TestFunction(f_expr, (lo, hi))
    g = TestFunction(g_expr, (lo, hi))
    pair = PositivePair(f, g, m, M, PairKind.RATIO_BOUNDED)
    rmin, rmax = pair.ratio_range_on_grid(1000)
    if rmin < m - 1e-12 or rmax > M + 1e-12:
        raise RuntimeError(
            "ratio grid check failed: [%r, %r] not within [%r, %r]" % (rmin, rmax, m, M)
        )
    return pair


def generate_box_pair(
    seed: int,
    a_lo: float,
    A_hi: float,
    b_lo: float,
    B_hi: float,
    domain: tuple,
) -> PositivePair:
    """Seeded pair with a_lo <= f <= A_hi and b_lo <= g <= B_hi.

    Bounds must be strictly positive: a zero lower box bound would make the
    induced ratio bounds A_hi/b_lo, a_lo/B_hi degenerate.
    """
    if not (0.0 < a_lo <= A_hi):
        raise BoundsError("require 0 < a_lo <= A_hi, got (%r, %r)" % (a_lo, A_hi))
    if not (0.0 < b_lo <= B_hi):
        raise BoundsError("require 0 < b_lo <= B_hi, got (%r, %r)" % (b_lo, B_hi))
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise BoundsError("degenerate domain [%r, %r]" % (lo, hi))
    rng = np.random.default_rng([_BOX_STREAM, int(seed)])
    f = TestFunction(_unit_profile(rng, a_lo, A_hi), (lo, hi))
    g = TestFunction(_unit_profile(rng, b_lo, B_hi), (lo, hi))
    pair = PositivePair(
        f,
        g,
        m=a_lo / B_hi,
        M=A_hi / b_lo,
        kind=PairKind.BOX_BOUNDED,
        box=(a_lo, A_hi, b_lo, B_hi),
    )
    fmin, fmax, gmin, gmax = pair.box_range_on_grid(1000)
    eps = 1e-12
    if fmin < a_lo - eps or fmax > A_hi + eps or gmin < b_lo - eps or gmax > B_hi + eps:
        raise RuntimeError("box grid check failed")
    return pair


# ---------------------------------------------------------------------------
# CLI function-spec mini-language
# ---------------------------------------------------------------------------


def _parse_float(tok: str, what: str, spec: str) -> float:
    # a NaN or infinite value would reach quadrature as a non-finite integrand
    try:
        val = float(tok)
    except ValueError:
        raise FunctionSpecError("bad %s token %r in %r" % (what, tok, spec)) from None
    if not math.isfinite(val):
        raise FunctionSpecError("non-finite %s token %r in %r" % (what, tok, spec))
    return val


def _parse_floats(body: str, spec: str) -> tuple:
    return tuple(_parse_float(tok.strip(), "numeric", spec) for tok in body.split(","))


def parse_function_spec(spec: str, domain: tuple) -> TestFunction:
    """Parse ``const:3``, ``mono:sigma=2``, ``poly:...``, ``expoly:...``, ``sinpos:w,phi,lo,hi``.

    Every value must be a finite number; FunctionSpecError names the first
    token that is not.
    """
    head, sep, body = spec.partition(":")
    if not sep:
        raise FunctionSpecError("missing ':' in function spec %r" % (spec,))
    head = head.strip().lower()
    if head == "const":
        vals = _parse_floats(body, spec)
        if len(vals) != 1:
            raise FunctionSpecError(
                "const needs one value (got %d values) in %r" % (len(vals), spec)
            )
        return TestFunction(Const(vals[0]), domain)
    if head == "mono":
        tok = body.strip()
        if tok.startswith("sigma="):
            tok = tok[len("sigma="):]
        return TestFunction(Monomial(_parse_float(tok, "sigma", spec)), domain)
    if head == "poly":
        return TestFunction(Polynomial(_parse_floats(body, spec)), domain)
    if head == "expoly":
        return TestFunction(ExpPoly(_parse_floats(body, spec)), domain)
    if head == "sinpos":
        vals = _parse_floats(body, spec)
        if len(vals) != 4:
            raise FunctionSpecError(
                "sinpos needs w,phi,lo,hi (got %d values) in %r" % (len(vals), spec)
            )
        w, phi, lo, hi = vals
        return TestFunction(SinPos(w, phi, lo, hi), domain)
    raise FunctionSpecError("unknown function kind %r in %r" % (head, spec))
