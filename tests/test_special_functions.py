"""Gamma/Beta accuracy against the C library and analytic identities."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.errors import DomainError
from genfrac.special_functions import beta_fn, gamma_fn, log_beta, log_gamma


def test_gamma_known_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_matches_reference_to_1e13():
    rng = random.Random(20240811)
    for _ in range(5000):
        x = rng.uniform(1e-3, 171.0)
        ref = math.gamma(x)
        assert abs(gamma_fn(x) - ref) / abs(ref) <= 1e-13


def test_gamma_factorials():
    for n in range(1, 21):
        ref = math.factorial(n - 1)
        assert abs(gamma_fn(float(n)) - ref) / ref <= 1e-13


def test_gamma_domain_error():
    for x in (0.0, -3.2, math.nan):
        with pytest.raises(DomainError):
            gamma_fn(x)
        with pytest.raises(DomainError):
            log_gamma(x)


def test_gamma_overflow_is_inf_but_log_stays_finite():
    assert gamma_fn(180.0) == math.inf
    assert math.isfinite(log_gamma(180.0))
    assert log_gamma(180.0) == pytest.approx(math.lgamma(180.0), rel=1e-14)
    assert log_gamma(1e308) == math.inf
    assert log_gamma(math.inf) == math.inf


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=50.0))
def test_gamma_recurrence(x):
    lhs = gamma_fn(x + 1.0)
    rhs = x * gamma_fn(x)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-12


def test_beta_known_values():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # Gamma(2.5)Gamma(2)/Gamma(4.5) = 4/35, cross-checked against math.gamma
    ref = math.gamma(2.5) * math.gamma(2.0) / math.gamma(4.5)
    assert ref == pytest.approx(4.0 / 35.0, rel=1e-15)
    assert beta_fn(2.5, 2.0) == pytest.approx(0.11428571428571428, rel=1e-13)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1e-2, max_value=20.0),
    st.floats(min_value=1e-2, max_value=20.0),
)
def test_beta_symmetry(a, b):
    assert beta_fn(a, b) == beta_fn(b, a)


def test_beta_log_space_survives_large_arguments():
    # direct Gamma(400) overflows; the log-space product must not
    v = beta_fn(400.0, 250.0)
    assert 0.0 < v < 1.0
    assert math.isfinite(log_beta(400.0, 250.0))


def test_beta_domain_error():
    for a, b in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            beta_fn(a, b)
        with pytest.raises(DomainError):
            log_beta(a, b)


def test_reciprocal_gamma_and_beta_match_mpmath():
    # independent 40-digit reference over the alpha range operators draw from;
    # 1/Gamma is the form the operator prefactor takes
    mp = pytest.importorskip("mpmath")
    rng = random.Random(5)
    with mp.workdps(40):
        for _ in range(400):
            a = rng.uniform(0.01, 6.0)
            b = rng.uniform(0.01, 6.0)
            ref = mp.rgamma(a)
            assert abs(math.exp(-log_gamma(a)) - ref) <= 1e-14 * abs(ref)
            ref = mp.beta(a, b)
            assert abs(beta_fn(a, b) - ref) <= 2e-14 * abs(ref)
