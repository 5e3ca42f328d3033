"""Right-sided and Weyl values against an independent mpmath reference.

The reference integrates the substituted form int_0^hi s^(alpha-1) h(s) ds
at 40 digits.  It absorbs the singular weight exactly with s = w^(1/alpha),
so s^(alpha-1) ds = dw/alpha and mpmath sees a bounded integrand; with the
weight left in, mp.quad reached only about 1e-14 relative at alpha = 0.3.
"""

import itertools

import pytest

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
