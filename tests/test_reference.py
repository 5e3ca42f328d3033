"""Right-sided and Weyl values against an independent mpmath reference.

The reference integrates the substituted form int_0^hi s^(alpha-1) h(s) ds
at 40 digits.  It absorbs the singular weight exactly with s = w^(1/alpha),
so s^(alpha-1) ds = dw/alpha and mpmath sees a bounded integrand; with the
weight left in, mp.quad reached only about 1e-14 relative at alpha = 0.3.
Weyl values of Gaussians are also checked against their closed form in the
parabolic cylinder function.
"""

import itertools
import math

import numpy as np
import pytest

from genfrac import quadrature
from genfrac.functions import ExpPoly, TestFunction
from genfrac.operator_core import OperatorParams, Side, evaluate

mp = pytest.importorskip("mpmath")

NEG_INF = float("-inf")


def _weighted(h, alpha, hi):
    """int_0^hi s^(alpha-1) h(s) ds at 40 digits."""
    with mp.workdps(40):
        a = mp.mpf(alpha)
        integral = mp.quad(lambda w: h(w ** (1 / a)), [0, mp.mpf(hi) ** a], maxdegree=10)
        return integral / a


def _assert_matches(res, ref):
    err = abs(res.value - float(ref))
    assert err <= 1e-12 * abs(float(ref))
    assert err <= res.error_estimate


EXPOLY = (0.2, -0.4, 0.3)
UPPER = 2.5


@pytest.mark.parametrize(
    "alpha, rho, eta_kappa, x",
    list(itertools.product((0.3, 0.5, 1.7), (0.5, 1.0, 2.0), ((0.0, 0.0), (0.4, 0.7)),
                           (0.4, 1.3))),
)
def test_right_side_matches_reference(alpha, rho, eta_kappa, x):
    eta, kappa = eta_kappa
    beta = 0.25
    p = OperatorParams(alpha, beta, rho, eta, kappa, lower=0.0, upper=UPPER, side=Side.RIGHT)
    res = evaluate(p, TestFunction(ExpPoly(EXPOLY), (x, UPPER)), x)

    with mp.workdps(40):
        r = mp.mpf(rho)
        x_rho = mp.mpf(x) ** r

        def h(v):
            # v = t^rho - x^rho; t^(kappa+rho-1) dt = t^kappa dv / rho
            t = (x_rho + v) ** (1 / r)
            return t ** kappa * mp.exp(EXPOLY[0] + EXPOLY[1] * t + EXPOLY[2] * t * t)

        integral = _weighted(h, alpha, mp.mpf(UPPER) ** r - x_rho)
        ref = r ** (1 - beta) * mp.mpf(x) ** (r * eta) / mp.gamma(alpha) / r * integral
    _assert_matches(res, ref)


@pytest.mark.parametrize(
    "alpha, x", list(itertools.product((0.3, 0.5, 1.0, 1.7, 2.5), (-1.0, 0.0, 1.0, 2.0)))
)
def test_weyl_matches_reference(alpha, x):
    decaying = TestFunction(ExpPoly((0.0, 0.0, -0.5)), (NEG_INF, 5.0))
    p = OperatorParams(alpha, alpha, 1.0, 0.0, 0.0, lower=NEG_INF)
    res = evaluate(p, decaying, x)
    with mp.workdps(40):
        # s = x - t
        integral = _weighted(lambda s: mp.exp(-(x - s) ** 2 / 2), alpha, mp.inf)
        ref = integral / mp.gamma(alpha)
    _assert_matches(res, ref)


# f(t) = exp(c0 + c1 t + c2 t^2), alpha, x: the truncated Weyl value's
# [x-8, x-4] segment once stopped at level 2, where levels 1 and 2 agreed by
# chance, and the value came out 0.9292203319689233 +- 2.2e-12 with a true
# error of 7.0e-11
WEYL_REPRODUCER = (
    (-0.35273568848580283, 0.18884244124957472, -0.9432538960629218),
    0.6070039823465437,
    0.8420226549937566,
)


def _gaussian_weyl(c, alpha, x):
    """Weyl integral of exp(c0 + c1 t + c2 t^2), c2 < 0, at x in closed form.

    With s = x - t the exponent is F(x) - B s - A s^2, A = -c2 and
    B = c1 + 2 c2 x, so the value is
    exp(F(x)) (2A)^(-alpha/2) exp(B^2/8A) D_(-alpha)(B/sqrt(2A)).
    """
    with mp.workdps(30):
        c0, c1, c2 = (mp.mpf(v) for v in c)
        x = mp.mpf(x)
        a, b = -c2, c1 + 2 * c2 * x
        return (mp.exp(c0 + c1 * x + c2 * x * x) * (2 * a) ** (-alpha / 2)
                * mp.exp(b * b / (8 * a)) * mp.pcfd(-alpha, b / mp.sqrt(2 * a)))


def _gaussian_draws(n, seed):
    # alpha log-uniform on 0.05-2.5 and x on -1 to 2, as in the draws that
    # found the reproducer
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        c = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)),
             -float(rng.uniform(0.2, 1.5)))
        alpha = math.exp(rng.uniform(math.log(0.05), math.log(2.5)))
        draws.append((c, alpha, float(rng.uniform(-1.0, 2.0))))
    return draws


@pytest.mark.parametrize("draws", [[WEYL_REPRODUCER], _gaussian_draws(100, seed=2024)],
                         ids=["reproducer", "survey"])
def test_weyl_gaussian_matches_closed_form(draws):
    for c, alpha, x in draws:
        p = OperatorParams(alpha, 0.0, 1.0, 0.0, 0.0, lower=NEG_INF)
        res = evaluate(p, TestFunction(ExpPoly(c), (NEG_INF, x)), x)
        _assert_matches(res, _gaussian_weyl(c, alpha, x))


@pytest.mark.parametrize("rows", [1, 2])
def test_truncation_segment_refines_past_level_two(rows):
    # the reproducer's [x-8, x-4] segment, as _truncated_power_kernel
    # integrates it; a stop at level 2 took 33 nodes and gave
    # 2.828986e-6 +- 3.3e-12 against a true 2.828883e-6
    c, alpha, x = WEYL_REPRODUCER
    lo = x - 8.0
    f = TestFunction(ExpPoly(c), (NEG_INF, x))

    def g(s):
        return f(lo + s) if rows == 1 else np.stack([f(lo + s)] * rows)

    res = quadrature._kernel_segment(
        g, 0.0, 4.0, x - lo, 1.0, 0.0, alpha, quadrature.DEFAULT_CONFIG
    )
    with mp.workdps(40):
        ref = mp.quad(lambda t: (x - t) ** (alpha - 1) * mp.exp(c[0] + c[1] * t + c[2] * t * t),
                      [lo, x - 4.0])
    assert res.evaluations > 33
    assert np.all(np.abs(np.asarray(res.value) - float(ref)) <= res.error_estimate)
