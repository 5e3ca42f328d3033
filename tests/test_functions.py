"""Function model: exact evaluation, seeded generation, certified bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.errors import BoundsError, DomainError, FunctionSpecError
from genfrac.functions import (
    Const,
    ExpPoly,
    Monomial,
    PMax,
    PairKind,
    Polynomial,
    Power,
    Product,
    SinPos,
    Sum,
    TestFunction,
    eval_fn,
    generate_box_pair,
    generate_ratio_pair,
    parse_function_spec,
)

DOMAIN = (0.0, 1.0)


def test_eval_examples():
    assert eval_fn(TestFunction(Const(3.0), DOMAIN), 0.5) == 3.0
    assert eval_fn(TestFunction(Monomial(2.0), (0.0, 5.0)), 3.0) == 9.0
    assert eval_fn(TestFunction(ExpPoly((0.0, 0.0)), DOMAIN), 0.7) == 1.0


def test_eval_fn_domain_error():
    f = TestFunction(Const(1.0), DOMAIN)
    with pytest.raises(DomainError):
        eval_fn(f, 1.5)


def test_vectorized_evaluation():
    f = TestFunction(Polynomial((1.0, 2.0, 3.0)), DOMAIN)
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(f(t), 1.0 + 2.0 * t + 3.0 * t * t)


def test_scalar_input_gives_python_float():
    exprs = [
        Const(2.0), Monomial(0.0), Monomial(1.5), Polynomial((1.0, 2.0)),
        ExpPoly((0.1, -0.3)), SinPos(2.0, 0.3, 0.5, 1.5, shift=(0.1, 0.2)),
        Sum(((2.0, Monomial(1.0)), (-0.5, Const(1.0)))),
        Product((Monomial(2.0), ExpPoly((0.2,)))),
        Power(Polynomial((1.0, 1.0)), 1.5),
        PMax(Polynomial((1.0, -1.0)), Polynomial((0.2, 1.0))),
    ]
    t = np.array([0.25, 0.7])
    for expr in exprs:
        f = TestFunction(expr, DOMAIN)
        values = f(t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        for i, ti in enumerate(t.tolist()):
            for point in (ti, np.asarray(ti)):
                v = f(point)
                assert type(v) is float
                assert v == values[i]


def test_sinpos_stays_in_band():
    f = SinPos(7.3, 0.4, 0.25, 1.75, shift=(0.1, -0.3, 0.2))
    t = np.linspace(-5.0, 5.0, 4001)
    v = f.eval(t)
    assert v.min() >= 0.25 and v.max() <= 1.75


def test_ratio_pair_determinism():
    a = generate_ratio_pair(42, 0.5, 2.0, DOMAIN)
    b = generate_ratio_pair(42, 0.5, 2.0, DOMAIN)
    assert a.f == b.f and a.g == b.g  # identical expression trees
    c = generate_ratio_pair(43, 0.5, 2.0, DOMAIN)
    assert a.f != c.f


def test_ratio_pair_grid_certified():
    pair = generate_ratio_pair(42, 0.5, 2.0, DOMAIN)
    rmin, rmax = pair.ratio_range_on_grid(1000)
    assert rmin >= 0.5 - 1e-12
    assert rmax <= 2.0 + 1e-12


def test_ratio_pair_equal_bounds_forces_identity():
    pair = generate_ratio_pair(7, 1.0, 1.0, DOMAIN)
    t = np.linspace(0.0, 1.0, 257)
    np.testing.assert_array_equal(np.asarray(pair.f(t)), np.asarray(pair.g(t)))


def test_ratio_pair_invalid_bounds():
    with pytest.raises(BoundsError):
        generate_ratio_pair(1, 2.0, 1.0, DOMAIN)
    with pytest.raises(BoundsError):
        generate_ratio_pair(1, 0.0, 1.0, DOMAIN)
    with pytest.raises(BoundsError):
        generate_ratio_pair(1, 0.5, 2.0, (1.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1.0, max_value=20.0),
)
def test_ratio_certification_fuzz(seed, m, scale):
    M = m * scale
    pair = generate_ratio_pair(seed, m, M, DOMAIN)
    rmin, rmax = pair.ratio_range_on_grid(1000)
    assert rmin >= m - 1e-12
    assert rmax <= M + 1e-12


def test_ratio_pair_dense_grid_spot():
    # test-suite level certification at 10k points
    for seed in (0, 9, 1234):
        pair = generate_ratio_pair(seed, 0.9, 1.1, DOMAIN)
        rmin, rmax = pair.ratio_range_on_grid(10_000)
        assert rmin >= 0.9 - 1e-12 and rmax <= 1.1 + 1e-12


def test_ratio_certification_bulk_10000_draws():
    rng = np.random.default_rng(1)
    for k in range(10_000):
        m = float(rng.uniform(0.05, 2.0))
        M = m * float(rng.uniform(1.0, 10.0))
        pair = generate_ratio_pair(int(rng.integers(0, 2 ** 31)), m, M, DOMAIN)
        rmin, rmax = pair.ratio_range_on_grid(1000)
        assert rmin >= m - 1e-12 and rmax <= M + 1e-12, (k, m, M)


def test_box_pair_certified():
    pair = generate_box_pair(7, 1.0, 2.0, 1.0, 3.0, DOMAIN)
    assert pair.kind is PairKind.BOX_BOUNDED
    fmin, fmax, gmin, gmax = pair.box_range_on_grid(1000)
    assert 1.0 - 1e-12 <= fmin and fmax <= 2.0 + 1e-12
    assert 1.0 - 1e-12 <= gmin and gmax <= 3.0 + 1e-12
    # induced ratio bounds
    assert pair.m == pytest.approx(1.0 / 3.0)
    assert pair.M == pytest.approx(2.0)


def test_box_pair_constant_degenerate():
    pair = generate_box_pair(3, 2.0, 2.0, 0.5, 0.5, DOMAIN)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(np.asarray(pair.f(t)), 2.0)
    np.testing.assert_allclose(np.asarray(pair.g(t)), 0.5)


def test_box_pair_rejects_zero_lower_bound():
    with pytest.raises(BoundsError):
        generate_box_pair(1, 0.0, 1.0, 1.0, 2.0, DOMAIN)
    with pytest.raises(BoundsError):
        generate_box_pair(1, 2.0, 1.0, 1.0, 2.0, DOMAIN)


def test_composition_closure():
    pair = generate_ratio_pair(11, 0.5, 2.0, DOMAIN)
    t = np.linspace(0.0, 1.0, 501)
    f, g = pair.f.expr, pair.g.expr
    for expr in (
        Sum(((1.0, f), (1.0, g))),
        Product((f, g)),
        Power(f, 2.5),
        PMax(f, g),
    ):
        v = np.asarray(TestFunction(expr, DOMAIN)(t))
        assert np.all(np.isfinite(v))
        assert np.all(v > 0.0)


def test_parse_function_specs():
    assert eval_fn(parse_function_spec("const:3", DOMAIN), 0.1) == 3.0
    assert eval_fn(parse_function_spec("mono:sigma=2", (0.0, 5.0)), 3.0) == 9.0
    assert eval_fn(parse_function_spec("poly:1,0,2", DOMAIN), 0.5) == pytest.approx(1.5)
    assert eval_fn(parse_function_spec("expoly:0", DOMAIN), 0.9) == 1.0
    v = eval_fn(parse_function_spec("sinpos:2,0,0.5,1.5", DOMAIN), 0.3)
    assert 0.5 <= v <= 1.5


def test_parse_errors_name_token():
    with pytest.raises(FunctionSpecError, match="abc"):
        parse_function_spec("poly:1,abc,2", DOMAIN)
    with pytest.raises(FunctionSpecError, match="nope"):
        parse_function_spec("nope:1", DOMAIN)
    with pytest.raises(FunctionSpecError, match="missing"):
        parse_function_spec("const", DOMAIN)
    with pytest.raises(FunctionSpecError, match="sinpos"):
        parse_function_spec("sinpos:1,2", DOMAIN)
