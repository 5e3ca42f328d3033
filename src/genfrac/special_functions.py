"""Gamma and Beta functions for real positive arguments.

Checked wrappers over the C library's tgamma and lgamma (``math.gamma``,
``math.lgamma``): a non-positive or NaN argument raises DomainError, a
result beyond double range reads ``inf``, and Beta is always formed in log
space so large-argument combinations cannot overflow intermediates.
"""

import math

from .errors import DomainError


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0. Raises DomainError otherwise."""
    if not x > 0.0:
        raise DomainError("gamma_fn requires a positive argument, got %r" % (x,))
    try:
        return math.gamma(x)
    except OverflowError:
        # Gamma(x) exceeds double range; signal with inf rather than raise,
        # log_gamma stays finite for callers that need the magnitude.
        return math.inf


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError("log_gamma requires a positive argument, got %r" % (x,))
    try:
        return math.lgamma(x)
    except OverflowError:
        # only above about 2.5e305, where log Gamma(x) exceeds double range
        return math.inf


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError("log_beta requires positive arguments, got (%r, %r)" % (a, b))
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    return math.exp(log_beta(a, b))
