"""Positive test functions and constrained pair generation.

Functions are small expression trees evaluated exactly at arbitrary
points (scalars or numpy arrays), so quadrature never sees interpolation
error.  Pair generators build the constraint into the construction —
the ratio f/g (or the value boxes) is exact by algebra — and a dense
grid check re-asserts it numerically as defense in depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import BoundsError, DomainError, FunctionSpecError

__all__ = [
    "Expr",
    "Const",
    "Monomial",
    "Polynomial",
    "ExpPoly",
    "SinPos",
    "Sum",
    "Product",
    "Power",
    "PMax",
    "TestFunction",
    "PairKind",
    "PositivePair",
    "generate_ratio_pair",
    "generate_box_pair",
    "eval_fn",
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
    # c0 + c1 t + c2 t^2 + ...
    acc = np.zeros_like(t)
    for c in reversed(coeffs):
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
    """

    w: float
    phi: float
    lo: float
    hi: float
    shift: Optional[tuple] = None

    def eval(self, t):
        arg = self.w * t + self.phi
        if self.shift is not None:
            arg = arg + 1.0 / (1.0 + np.exp(-_horner(self.shift, t)))
        return self.lo + (self.hi - self.lo) * 0.5 * (1.0 + np.sin(arg))


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple  # of (coefficient, Expr)

    def eval(self, t):
        acc = np.zeros_like(t)
        for c, e in self.terms:
            acc = acc + c * e.eval(t)
        return acc


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple

    def eval(self, t):
        acc = np.ones_like(t)
        for e in self.factors:
            acc = acc * e.eval(t)
        return acc


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: float

    def eval(self, t):
        return self.base.eval(t) ** self.exponent


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


def eval_fn(f: TestFunction, t: float) -> float:
    """Evaluate at a point, rejecting points outside the domain."""
    lo, hi = f.domain
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < lo - tol) or np.any(t_arr > hi + tol):
        raise DomainError("point %r outside domain [%r, %r]" % (t, lo, hi))
    return f(t)


# ---------------------------------------------------------------------------
# constrained pairs
# ---------------------------------------------------------------------------


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
    seed: int = field(default=0, compare=False)

    def ratio_range_on_grid(self, n: int = 1000) -> tuple:
        lo, hi = self.f.domain
        t = np.linspace(lo, hi, n)
        r = np.asarray(self.f(t)) / np.asarray(self.g(t))
        return float(r.min()), float(r.max())

    def box_range_on_grid(self, n: int = 1000) -> tuple:
        lo, hi = self.f.domain
        t = np.linspace(lo, hi, n)
        fv = np.asarray(self.f(t))
        gv = np.asarray(self.g(t))
        return float(fv.min()), float(fv.max()), float(gv.min()), float(gv.max())


_RATIO_STREAM = 0x67656E66  # namespace tags keep generator streams apart
_BOX_STREAM = 0x67656E67


def _bounded_exp_poly(rng: np.random.Generator, domain: tuple, complexity: int) -> ExpPoly:
    degree = int(rng.integers(0, min(3, max(1, complexity)) + 1))
    coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
    grid = np.linspace(domain[0], domain[1], 256)
    peak = float(np.max(np.abs(_horner(coeffs, grid))))
    if peak > 1.5:
        coeffs = coeffs * (1.5 / peak)
    return ExpPoly(tuple(float(c) for c in coeffs))


def _unit_profile(rng: np.random.Generator, lo: float, hi: float, complexity: int) -> SinPos:
    w = float(rng.uniform(0.5, 2.0 + complexity))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    shift = None
    if complexity >= 2:
        shift = tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=3))
    return SinPos(w, phi, lo, hi, shift)


def generate_ratio_pair(
    seed: int,
    m: float,
    M: float,
    domain: tuple,
    complexity: int = 2,
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
    g_expr = _bounded_exp_poly(rng, (lo, hi), complexity)
    ratio = _unit_profile(rng, m, M, complexity)
    f_expr = Product((ratio, g_expr))
    f = TestFunction(f_expr, (lo, hi))
    g = TestFunction(g_expr, (lo, hi))
    pair = PositivePair(f, g, m, M, PairKind.RATIO_BOUNDED, seed=int(seed))
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
    complexity: int = 2,
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
    f = TestFunction(_unit_profile(rng, a_lo, A_hi, complexity), (lo, hi))
    g = TestFunction(_unit_profile(rng, b_lo, B_hi, complexity), (lo, hi))
    pair = PositivePair(
        f,
        g,
        m=a_lo / B_hi,
        M=A_hi / b_lo,
        kind=PairKind.BOX_BOUNDED,
        box=(a_lo, A_hi, b_lo, B_hi),
        seed=int(seed),
    )
    fmin, fmax, gmin, gmax = pair.box_range_on_grid(1000)
    eps = 1e-12
    if fmin < a_lo - eps or fmax > A_hi + eps or gmin < b_lo - eps or gmax > B_hi + eps:
        raise RuntimeError("box grid check failed")
    return pair


# ---------------------------------------------------------------------------
# CLI function-spec mini-language
# ---------------------------------------------------------------------------


def _parse_floats(body: str, spec: str) -> tuple:
    out = []
    for tok in body.split(","):
        tok = tok.strip()
        try:
            out.append(float(tok))
        except ValueError:
            raise FunctionSpecError("bad numeric token %r in %r" % (tok, spec)) from None
    return tuple(out)


def parse_function_spec(spec: str, domain: tuple) -> TestFunction:
    """Parse ``const:3``, ``mono:sigma=2``, ``poly:...``, ``expoly:...``, ``sinpos:w,phi,lo,hi``."""
    head, sep, body = spec.partition(":")
    if not sep:
        raise FunctionSpecError("missing ':' in function spec %r" % (spec,))
    head = head.strip().lower()
    if head == "const":
        (value,) = _parse_floats(body, spec)
        return TestFunction(Const(value), domain)
    if head == "mono":
        tok = body.strip()
        if tok.startswith("sigma="):
            tok = tok[len("sigma="):]
        try:
            sigma = float(tok)
        except ValueError:
            raise FunctionSpecError("bad sigma token %r in %r" % (tok, spec)) from None
        return TestFunction(Monomial(sigma), domain)
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
