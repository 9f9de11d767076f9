import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import momentflow as mf
from momentflow.grid import GridFunction, Polynomial, one_minus_x_power

# non-integer rational coefficients, degrees 0..12 and the zero polynomial
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
POLYNOMIALS = st.lists(FRACTIONS, max_size=13).map(Polynomial)
KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


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
    assert Polynomial((0, 0)).is_zero()
    assert Polynomial().degree == -1


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


@KERNEL_SETTINGS
@given(POLYNOMIALS)
def test_antiderivative_matches_textbook(p):
    textbook = Polynomial([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
    prim = p.antiderivative()
    assert prim.coeffs == textbook.coeffs
    assert all(isinstance(c, Fraction) for c in prim.coeffs)
    assert prim.derivative() == p
