"""Function model: exact evaluation, seeded generation, certified bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.errors import BoundsError, FunctionSpecError
from genfrac.functions import (
    Const,
    ExpPoly,
    Monomial,
    PMax,
    PairKind,
    Polynomial,
    Product,
    SinPos,
    TestFunction,
    check_grid,
    generate_box_pair,
    generate_ratio_pair,
    parse_function_spec,
)
from genfrac.functions import _horner

DOMAIN = (0.0, 1.0)


def test_eval_examples():
    assert TestFunction(Const(3.0), DOMAIN)(0.5) == 3.0
    assert TestFunction(Monomial(2.0), (0.0, 5.0))(3.0) == 9.0
    assert TestFunction(ExpPoly((0.0, 0.0)), DOMAIN)(0.7) == 1.0


def test_vectorized_evaluation():
    f = TestFunction(Polynomial((1.0, 2.0, 3.0)), DOMAIN)
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(f(t), 1.0 + 2.0 * t + 3.0 * t * t)


def test_scalar_input_gives_python_float():
    exprs = [
        Const(2.0), Monomial(0.0), Monomial(1.5), Polynomial((1.0, 2.0)),
        ExpPoly((0.1, -0.3)), SinPos(2.0, 0.3, 0.5, 1.5, shift=(0.1, 0.2)),
        Product((Monomial(2.0), ExpPoly((0.2,)))),
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


def _general_sinpos(s, t):
    """Reference: the SinPos formula, whatever lo and hi are."""
    arg = s.w * t + s.phi
    if s.shift is not None:
        arg = arg + 1.0 / (1.0 + np.exp(-_horner(s.shift, t)))
    return s.lo + (s.hi - s.lo) * 0.5 * (1.0 + np.sin(arg))


def _assert_same_bits(a, b):
    # same type and shape, NaN at the same places, every other value with
    # the same bits (the sign of a zero included)
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("c", [1.0, 0.7])
@pytest.mark.parametrize("shift", [None, (0.1, -0.3, 0.2)])
def test_constant_sinpos_matches_the_general_formula_bit_for_bit(c, shift):
    s = SinPos(2.0, 0.4, c, c, shift)
    finite = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0, 1e300]])
    t = np.concatenate([finite, [1e308, np.inf, -np.inf, np.nan]])  # 2e308 overflows w t
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_bits(s.eval(t), _general_sinpos(s, t))
        for ti in t.tolist():
            _assert_same_bits(s.eval(np.asarray(ti)), _general_sinpos(s, np.asarray(ti)))
        assert np.all(s.eval(finite) == c)
        for bad in (np.inf, -np.inf, np.nan):
            assert np.isnan(s.eval(np.asarray(bad)))


def test_shifted_sinpos_matches_the_general_formula_bit_for_bit():
    # seeded draws of every field, shift degrees 0 to 3
    rng = np.random.default_rng(24)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e3, -1e3, 1e150, -1e150, 1e300, -1e300]
    t = np.concatenate([check_grid(*DOMAIN, 1000), edges])
    for k in range(40):
        lo = float(rng.uniform(0.05, 2.0))
        hi = lo + float(rng.uniform(1e-3, 3.0))
        shift = tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=1 + k % 4))
        s = SinPos(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.0, 2.0 * np.pi)),
                   lo, hi, shift)
        with np.errstate(over="ignore", invalid="ignore"):  # t^3 at 1e300
            _assert_same_bits(s.eval(t), _general_sinpos(s, t))
            for ti in edges:
                _assert_same_bits(s.eval(np.asarray(ti)), _general_sinpos(s, np.asarray(ti)))


def test_horner_matches_zero_start_loop():
    # reference: the loop from 0, which the leading step c_n t + c_(n-1) replaces
    def reference(coeffs, t):
        acc = np.zeros_like(t)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(-3.0, 3.0, 200), [0.0, -0.0, 1e-300, -1e50]])
    for degree in range(6):
        coeffs = tuple(float(c) for c in rng.uniform(-2.0, 2.0, degree + 1))
        for x in (t, np.asarray(0.37)):
            got = _horner(coeffs, x)
            assert np.shape(got) == x.shape
            np.testing.assert_array_equal(got, reference(coeffs, x))
        np.testing.assert_array_equal(_horner(np.array(coeffs), t), reference(coeffs, t))


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


def test_pair_values_match_f_and_g():
    t = np.linspace(0.0, 1.0, 257)
    pairs = [generate_ratio_pair(seed, m, M, DOMAIN)
             for seed, (m, M) in enumerate(((0.5, 2.0), (1.0, 1.0), (0.9, 1.1)))]
    pairs.append(generate_box_pair(3, 1.0, 2.0, 1.0, 3.0, DOMAIN))
    for pair in pairs:
        fv, gv = pair.values(t)
        np.testing.assert_array_equal(fv, pair.f(t))
        np.testing.assert_array_equal(gv, pair.g(t))
        for point in (0.0, 0.3, 1.0):
            fs, gs = pair.values(point)
            assert type(fs) is float and type(gs) is float
            assert (fs, gs) == (pair.f(point), pair.g(point))


def test_check_grid_is_shared_read_only_and_bounded():
    grid = check_grid(0.0, 1.0, 1000)
    np.testing.assert_array_equal(grid, np.linspace(0.0, 1.0, 1000))
    assert check_grid(0.0, 1.0, 1000) is grid
    with pytest.raises(ValueError):
        grid[0] = 1.0
    with pytest.raises(ValueError):
        grid += 1.0
    assert grid[0] == 0.0
    maxsize = check_grid.cache_info().maxsize
    assert maxsize is not None
    for n in range(2, maxsize + 12):
        check_grid(-1.0, 2.0, n)
    assert check_grid.cache_info().currsize <= maxsize


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


@pytest.mark.parametrize("make", [
    lambda: generate_ratio_pair(7, 0.5, 1e308, DOMAIN),  # f = r * g overflows
    lambda: generate_ratio_pair(1, 0.5, np.inf, DOMAIN),
    lambda: generate_box_pair(1, 1.0, np.inf, 1.0, 2.0, DOMAIN),
])
def test_pair_not_finite_on_grid_is_a_bounds_error(make):
    # used to raise RuntimeError from the ratio check, or pass with NaN values
    with pytest.raises(BoundsError, match="not finite on the check grid"):
        make()


def test_composition_closure():
    pair = generate_ratio_pair(11, 0.5, 2.0, DOMAIN)
    t = np.linspace(0.0, 1.0, 501)
    f, g = pair.f.expr, pair.g.expr
    for expr in (
        Product((f, g)),
        PMax(f, g),
    ):
        v = np.asarray(TestFunction(expr, DOMAIN)(t))
        assert np.all(np.isfinite(v))
        assert np.all(v > 0.0)


def test_parse_function_specs():
    assert parse_function_spec("const:3", DOMAIN)(0.1) == 3.0
    assert parse_function_spec("mono:sigma=2", (0.0, 5.0))(3.0) == 9.0
    assert parse_function_spec("poly:1,0,2", DOMAIN)(0.5) == pytest.approx(1.5)
    assert parse_function_spec("expoly:0", DOMAIN)(0.9) == 1.0
    v = parse_function_spec("sinpos:2,0,0.5,1.5", DOMAIN)(0.3)
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


@pytest.mark.parametrize("spec, message", [
    ("const:nan", "non-finite numeric token 'nan' in 'const:nan'"),
    ("const:1e400", "non-finite numeric token '1e400' in 'const:1e400'"),
    ("mono:sigma=nan", "non-finite sigma token 'nan' in 'mono:sigma=nan'"),
    ("mono:-inf", "non-finite sigma token '-inf' in 'mono:-inf'"),
    ("poly:1,inf,2", "non-finite numeric token 'inf' in 'poly:1,inf,2'"),
    ("expoly:0,-inf", "non-finite numeric token '-inf' in 'expoly:0,-inf'"),
    ("sinpos:2,nan,0.5,1.5", "non-finite numeric token 'nan' in 'sinpos:2,nan,0.5,1.5'"),
])
def test_parse_rejects_non_finite_tokens(spec, message):
    # these used to parse, and quadrature then ran to its node budget
    with pytest.raises(FunctionSpecError) as exc_info:
        parse_function_spec(spec, DOMAIN)
    assert str(exc_info.value) == message
