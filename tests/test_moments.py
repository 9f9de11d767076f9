import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import momentflow as mf
from momentflow.grid import Polynomial, one_minus_x_power
from momentflow.moments import moment_weight_row


def test_moment_of_constant():
    for n in range(6):
        assert mf.moment(Polynomial.constant(1), n) == Fraction(1, n + 1)


def test_moment_examples():
    assert mf.moment(Polynomial.identity(), 2) == Fraction(1, 12)
    assert mf.moment(Polynomial((-2, 6)), 1) == 0
    assert mf.moment(Polynomial((-2, 6)), 0) == 1


def textbook_moment(f, n):
    """(1-x)^n f by the term-pair loop, then integrated term by term."""
    weight = one_minus_x_power(n).coeffs
    prod = [Fraction(0)] * (len(weight) + len(f.coeffs) - 1)
    for i, a in enumerate(weight):
        for j, b in enumerate(f.coeffs):
            prod[i + j] += a * b
    return sum((c / (k + 1) for k, c in enumerate(prod)), Fraction(0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                max_size=13).map(Polynomial),
       st.integers(min_value=0, max_value=8))
def test_moment_kernel_matches_textbook(f, n):
    mu = mf.moment(f, n)
    assert isinstance(mu, Fraction)
    assert mu == textbook_moment(f, n)
    assert mu == (one_minus_x_power(n) * f).definite_integral()


def test_moment_grid_matches_exact_at_second_order():
    rng = np.random.default_rng(1)
    p = mf.random_polynomial(rng, 6)
    for n in (0, 1, 3):
        exact = float(mf.moment(p, n))
        errs = [abs(mf.moment(mf.poly_to_grid(p, pts), n) - exact)
                for pts in (65, 129, 257)]
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.3)


def test_moment_of_weight_difference():
    # mu_n((1-x)^n - (1-x)) carries the cross term 1/(2n+1) - 1/(n+2)
    for n in range(2, 7):
        diff = one_minus_x_power(n) - one_minus_x_power(1)
        assert mf.moment(diff, n) == Fraction(1, 2 * n + 1) - Fraction(1, n + 2)


def test_primitive_polynomials():
    assert mf.primitive(Polynomial.constant(1)) == Polynomial.identity()
    assert mf.primitive(Polynomial((0, 2))) == Polynomial((0, 0, 1))


def test_moment_of_primitive_scaling():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = mf.random_polynomial(rng, 6)
        for n in range(1, 6):
            assert mf.moment(f, n) == n * mf.moment(mf.primitive(f), n - 1)


def test_centered_primitive_of_constant():
    for n in range(1, 5):
        cp = mf.centered_primitive(Polynomial.constant(1), n)
        assert cp == Polynomial.identity() - Polynomial.constant(Fraction(1, n + 1))


def test_centered_tail_integral_closed_form():
    for n in (2, 3, 5):
        tail = mf.centered_tail_integral(Polynomial.constant(1), n)
        assert tail == one_minus_x_power(1) - one_minus_x_power(n)
    assert mf.centered_tail_integral(Polynomial.constant(1), 1) == Polynomial()


def test_duality_pairing_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = mf.random_polynomial(rng, 6)
        phi = mf.random_polynomial(rng, 6)
        for n in range(1, 5):
            lhs = (mf.centered_primitive(u, n) * phi).definite_integral()
            rhs = (u * mf.centered_tail_integral(phi, n)).definite_integral()
            assert lhs == rhs


def test_shifted_legendre_low_orders():
    assert mf.shifted_legendre(0) == Polynomial.constant(1)
    assert mf.shifted_legendre(1) == Polynomial((-1, 2))
    assert mf.shifted_legendre(2) == Polynomial((1, -6, 6))


def test_shifted_legendre_orthogonality_and_norm():
    for j in range(25):
        for k in range(j, 25):
            val = (mf.shifted_legendre(j) * mf.shifted_legendre(k)).definite_integral()
            if j == k:
                assert val == Fraction(1, 2 * k + 1)
            else:
                assert val == 0


def test_polynomial_with_moments_examples():
    assert mf.polynomial_with_moments((1, 0)) == Polynomial((-2, 6))
    assert mf.polynomial_with_moments((Fraction(1), Fraction(0))) == \
        Polynomial((-2, 6))
    assert mf.polynomial_with_moments((0, 0, 0)) == Polynomial()
    p = mf.polynomial_with_moments((1, Fraction(3, 10)))
    assert mf.moment(p, 0) == 1
    assert mf.moment(p, 1) == Fraction(3, 10)


def test_polynomial_with_moments_float_targets_roundtrip():
    p = mf.polynomial_with_moments((1.0, 0.3))
    assert abs(float(mf.moment(p, 0)) - 1.0) < 1e-12
    assert abs(float(mf.moment(p, 1)) - 0.3) < 1e-12


@pytest.mark.parametrize("size", range(1, 17))
def test_polynomial_with_moments_roundtrip(size):
    rng = np.random.default_rng(6)
    targets = tuple(Fraction(int(c), 3) for c in rng.integers(-9, 10, size=size))
    p = mf.polynomial_with_moments(targets)
    assert p.degree <= size - 1
    for i, t in enumerate(targets):
        assert mf.moment(p, i) == t


def test_span_projection_reproduces_span():
    for n in (1, 2, 3, 5, 8):
        proj, rem = mf.span_projection(Polynomial.constant(1), n)
        assert proj == Polynomial.constant(1) and rem == Polynomial()
        proj, rem = mf.span_projection(one_minus_x_power(n), n)
        assert proj == one_minus_x_power(n) and rem == Polynomial()
    with pytest.raises(ValueError):
        mf.span_projection(Polynomial.constant(1), 0)


def test_span_projection_l2_orthogonal_remainder():
    f = Polynomial((0, 0, 1))
    proj, rem = mf.span_projection(f, 2)
    assert mf.moment(rem, 0) == 0
    assert mf.moment(rem, 2) == 0
    g = mf.poly_to_grid(f, 129)
    projg, remg = mf.span_projection(g, 2)
    w = moment_weight_row(0, 129)
    wn = moment_weight_row(2, 129)
    assert abs(w @ remg.values) < 1e-10
    assert abs(wn @ remg.values) < 1e-10
