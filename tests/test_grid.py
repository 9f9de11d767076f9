import numpy as np
import pytest
from fractions import Fraction
from math import gcd
from hypothesis import given, settings, strategies as st

import momentflow as mf
from momentflow.grid import GridFunction, Polynomial, one_minus_x_power

# non-integer rational coefficients, degrees 0..12 and the zero polynomial
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
POLYNOMIALS = st.lists(FRACTIONS, max_size=13).map(Polynomial)
KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
# every exact scalar kind a polynomial may be scaled by
SCALARS = st.one_of(
    FRACTIONS,
    st.integers(-50, 50),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.integers(-50, 50).map(np.int64),
)
# binary-expansion coefficients such as Fraction(0.1), mixed with short ones
FLOAT_DERIVED = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(Fraction),
    st.sampled_from([Fraction(0.1), Fraction(0.7), Fraction(1, 3)]),
    FRACTIONS,
)


def assert_canonical(p):
    """Integer numerators over a positive, coprime denominator, no trailing zero."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


def textbook_product(p, q):
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def textbook_value(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def textbook_sum(p, q, sign):
    size = max(len(p.coeffs), len(q.coeffs))
    out = [Fraction(0)] * size
    for i, a in enumerate(p.coeffs):
        out[i] += a
    for i, b in enumerate(q.coeffs):
        out[i] += sign * b
    return Polynomial(out)


def textbook_integral(p, a, b):
    prim = Polynomial([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
    return textbook_value(prim, b) - textbook_value(prim, a)


def test_quadrature_constant():
    for n_pts in (3, 17, 100):
        assert mf.quadrature(GridFunction(np.ones(n_pts))) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_exact_on_affine():
    x = mf.grid_points(101)
    assert mf.quadrature(GridFunction(x)) == pytest.approx(0.5, abs=1e-14)
    assert mf.quadrature(GridFunction(3.0 * x - 1.0)) == pytest.approx(0.5, abs=1e-14)


def test_quadrature_square_close_to_third():
    x = mf.grid_points(1025)
    q = mf.quadrature(GridFunction(x ** 2))
    assert abs(q - 1.0 / 3.0) < 1e-6
    # trapezoid overestimates a convex integrand by h^2/6 at leading order
    assert q > 1.0 / 3.0


def test_quadrature_second_order_convergence():
    p = Polynomial((0, 0, 0, 1))  # x^3
    exact = float(p.definite_integral())
    errs = [abs(mf.quadrature(mf.poly_to_grid(p, n)) - exact)
            for n in (65, 129, 257)]
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(ratios > 3.5) and np.all(ratios < 4.5)


def test_second_derivative_constant_and_quadratic():
    # endpoint stencils amplify rounding by 1/h^2, so allow that scale
    const = GridFunction(np.full(101, 4.2))
    assert np.max(np.abs(mf.second_derivative(const).values)) < 1e-10
    x = mf.grid_points(101)
    d2 = mf.second_derivative(GridFunction(x ** 2))
    assert np.max(np.abs(d2.values - 2.0)) < 1e-8


def test_second_derivative_refinement_order():
    errs = []
    for n_pts in (512, 1024):
        x = mf.grid_points(n_pts)
        d2 = mf.second_derivative(GridFunction(np.sin(2 * np.pi * x)))
        exact = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
        errs.append(np.max(np.abs(d2.values - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_second_derivative_linearity():
    rng = np.random.default_rng(0)
    f = GridFunction(rng.standard_normal(64))
    g = GridFunction(rng.standard_normal(64))
    lhs = mf.second_derivative(GridFunction(2.0 * f.values - 3.0 * g.values))
    rhs = 2.0 * mf.second_derivative(f).values - 3.0 * mf.second_derivative(g).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-7 * np.max(np.abs(rhs) + 1)


def test_second_derivative_needs_five_points():
    with pytest.raises(ValueError):
        mf.second_derivative(GridFunction(np.ones(4)))


def test_grid_function_invariants():
    with pytest.raises(ValueError):
        GridFunction(np.ones(2))
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, np.nan, 0.0]))
    f = GridFunction(np.zeros(5))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_polynomial_canonical_form():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert (Polynomial((1, 2, 0, 0)).nums, Polynomial((1, 2, 0, 0)).den) == ((1, 2), 1)
    assert Polynomial((0, 0)).is_zero()
    assert (Polynomial((0, 0)).nums, Polynomial((0, 0)).den) == ((), 1)
    assert Polynomial().degree == -1
    p = Polynomial((Fraction(-1, 6), Fraction(3, 4), 0))
    assert (p.nums, p.den) == ((-2, 9), 12)
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_equal_polynomials_from_different_paths_hash_equal():
    half = [
        Polynomial((Fraction(1, 2), 0)),
        Polynomial((0.5,)),
        Fraction(1, 2) * Polynomial((1,)),
        Polynomial((1,)) * 0.5,
        Polynomial.constant(Fraction(2, 4)),
        Polynomial((1, 3)) - Polynomial((Fraction(1, 2), 3)),
        (Polynomial((0, 1)) * Polynomial((Fraction(1, 2), 0, 0))).derivative(),
        -Polynomial((Fraction(-1, 2),)),
    ]
    for p in half:
        assert_canonical(p)
        assert p == half[0]
        assert hash(p) == hash(half[0])
    assert len(set(half)) == 1


def test_exact_evaluation_accepts_numpy_integers():
    p = Polynomial((1, 2, 3))
    for x in (2, np.int64(2), np.int32(2), np.uint8(2), Fraction(2)):
        assert p(x) == Fraction(17) and isinstance(p(x), Fraction)
    for x, value in ((np.int64(0), 1), (np.int64(1), 6), (np.int64(-3), 22)):
        assert p(x) == value and isinstance(p(x), Fraction)
    assert isinstance(p(2.0), float) and p(2.0) == 17.0
    assert p.definite_integral(np.int64(0), np.int64(2)) == Fraction(14)


def test_polynomial_arithmetic_exact():
    p = Polynomial((1, 2))        # 1 + 2x
    q = Polynomial((0, 0, 3))     # 3x^2
    assert (p + q).coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert (p * q).coeffs == (Fraction(0), Fraction(0), Fraction(3), Fraction(6))
    assert (p - p).is_zero()
    assert (Fraction(1, 2) * q).coeffs == (0, 0, Fraction(3, 2))
    assert p(Fraction(1, 3)) == Fraction(5, 3)


def test_polynomial_antiderivative_and_integral():
    one = Polynomial.constant(1)
    assert one.antiderivative() == Polynomial.identity()
    assert Polynomial.identity().definite_integral() == Fraction(1, 2)
    assert one_minus_x_power(2).definite_integral() == Fraction(1, 3)
    p = Polynomial((1, -4, 9))
    assert p.antiderivative().derivative() == p
    assert p.antiderivative()(0) == 0


def test_one_minus_x_power_expansion():
    assert one_minus_x_power(0) == Polynomial.constant(1)
    assert one_minus_x_power(2).coeffs == (1, -2, 1)
    assert one_minus_x_power(3)(Fraction(1, 2)) == Fraction(1, 8)


def test_poly_to_grid_values():
    ones = mf.poly_to_grid(Polynomial.constant(1), 7)
    assert np.array_equal(ones.values, np.ones(7))
    ident = mf.poly_to_grid(Polynomial.identity(), 3)
    assert np.array_equal(ident.values, np.array([0.0, 0.5, 1.0]))
    p = Polynomial((-2, 6))
    g = mf.poly_to_grid(p, 5)
    assert np.allclose(g.values, [-2.0, -0.5, 1.0, 2.5, 4.0], atol=1e-15)


@KERNEL_SETTINGS
@given(POLYNOMIALS, POLYNOMIALS)
def test_product_kernel_matches_textbook(p, q):
    assert (p * q).coeffs == textbook_product(p, q).coeffs
    assert (q * p).coeffs == textbook_product(p, q).coeffs
    assert_canonical(p)
    assert_canonical(p * q)


@KERNEL_SETTINGS
@given(POLYNOMIALS, FRACTIONS, FRACTIONS)
def test_integral_kernel_matches_textbook(p, a, b):
    unit = p.definite_integral()
    assert isinstance(unit, Fraction)
    assert unit == textbook_integral(p, Fraction(0), Fraction(1))
    assert p.definite_integral(a, b) == textbook_integral(p, a, b)


@KERNEL_SETTINGS
@given(POLYNOMIALS, FRACTIONS)
def test_evaluation_matches_horner(p, x):
    for point in (0, 1, Fraction(0), Fraction(1), x):
        value = p(point)
        assert isinstance(value, Fraction)
        assert value == textbook_value(p, Fraction(point))


@KERNEL_SETTINGS
@given(POLYNOMIALS, POLYNOMIALS)
def test_sum_and_difference_match_textbook(p, q):
    assert (p + q).coeffs == textbook_sum(p, q, 1).coeffs
    assert (p - q).coeffs == textbook_sum(p, q, -1).coeffs
    assert (q - p).coeffs == textbook_sum(q, p, -1).coeffs
    assert (p - p).is_zero()
    assert all(isinstance(c, Fraction) for c in (p - q).coeffs)
    for result in (p + q, p - q, q - p, p - p):
        assert_canonical(result)


@KERNEL_SETTINGS
@given(POLYNOMIALS)
def test_antiderivative_matches_textbook(p):
    textbook = Polynomial([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
    prim = p.antiderivative()
    assert prim.coeffs == textbook.coeffs
    assert all(isinstance(c, Fraction) for c in prim.coeffs)
    assert prim.derivative() == p
    assert_canonical(prim)


@KERNEL_SETTINGS
@given(POLYNOMIALS)
def test_derivative_matches_textbook(p):
    textbook = Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])
    deriv = p.derivative()
    assert deriv.coeffs == textbook.coeffs
    assert deriv.degree == max(p.degree - 1, -1)
    assert_canonical(deriv)
    assert_canonical(deriv.derivative())


@KERNEL_SETTINGS
@given(POLYNOMIALS, SCALARS)
def test_scalar_product_matches_textbook(p, c):
    exact = Fraction(int(c)) if isinstance(c, np.integer) else Fraction(c)
    textbook = Polynomial([exact * a for a in p.coeffs])
    for scaled in (c * p, p * c):
        assert scaled.coeffs == textbook.coeffs
        assert scaled == textbook and hash(scaled) == hash(textbook)
        assert_canonical(scaled)


@KERNEL_SETTINGS
@given(POLYNOMIALS)
def test_negation_matches_textbook(p):
    neg = -p
    assert neg.coeffs == tuple(-c for c in p.coeffs)
    assert neg == (-1) * p and -neg == p
    assert (p + neg).is_zero()
    assert_canonical(neg)


@KERNEL_SETTINGS
@given(st.lists(FLOAT_DERIVED, max_size=13).map(Polynomial),
       st.sampled_from([3, 4, 17, 100, 129, 513]))
def test_values_on_is_bitwise_float_horner(p, n_points):
    x = mf.grid_points(n_points)
    horner = np.zeros_like(x)
    for c in reversed(p.coeffs):
        horner = horner * x + float(c)
    assert p.values_on(x).tobytes() == horner.tobytes()
    assert mf.poly_to_grid(p, n_points).values.tobytes() == horner.tobytes()
