"""Moment functionals and the integral operators built on them.

The n-th moment of f is mu_n(f) = int_0^1 (1-x)^n f(x) dx.  Around it the
module provides the running primitive, the centered primitive
f -> If - mu_n(f) (whose derivative recovers f and whose (n-1)-moment
vanishes), its pre-adjoint acting on test functions, the L2 projection
onto span{1, (1-x)^n}, shifted Legendre polynomials, and the polynomial
with prescribed moments mu_0..mu_m.  The exact systems behind the last
three have closed forms (Cramer's rule, integer Legendre coefficients,
the integer inverse of the Hilbert matrix), so no eliminator is needed.

The moments and the span projection have an exact branch on
``Polynomial`` inputs and a trapezoid branch on ``GridFunction`` inputs,
which initial states use.  The primitives are exact only: on grid values
the centered primitive lives inside ``heat.OperatorAssembly``, the one
float form of the metric, and a grid operand raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .grid import (
    GridFunction,
    Polynomial,
    _as_fraction,
    _integer_form,
    beta_moment,
    grid_points,
    one_minus_x_power,
    trapezoid_weights,
)


def moment_weight_row(n: int, n_points: int) -> np.ndarray:
    """Quadrature functional for mu_n as a row vector on grid values."""
    w = trapezoid_weights(n_points)
    return w * (1.0 - grid_points(n_points)) ** n


def moment(f, n: int):
    """mu_n(f); exact Fraction on polynomials, trapezoid value on grids."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if isinstance(f, Polynomial):
        return beta_moment(f, n)
    if isinstance(f, GridFunction):
        return float(moment_weight_row(n, f.n_points) @ f.values)
    raise TypeError(f"unsupported operand {type(f).__name__}")


def primitive(f):
    """Running integral If(x) = int_0^x f, vanishing at x = 0; exact."""
    if isinstance(f, Polynomial):
        return f.antiderivative()
    raise TypeError(f"unsupported operand {type(f).__name__}")


def centered_primitive(f, n: int):
    """If - mu_n(f): an antiderivative of f normalized through mu_n.

    Its value at 0 is -mu_n(f), at 1 is mu_0(f) - mu_n(f), and its own
    (n-1)-moment vanishes.
    """
    if n < 1:
        raise ValueError("center index must be positive")
    return primitive(f) - Polynomial.constant(moment(f, n))


def centered_tail_integral(phi, n: int):
    """x -> int_x^1 phi - mu_0(phi)(1-x)^n; vanishes at both endpoints."""
    if n < 1:
        raise ValueError("center index must be positive")
    prim = primitive(phi)
    tail = Polynomial.constant(prim(1)) - prim
    return tail - moment(phi, 0) * one_minus_x_power(n)


def shifted_legendre(k: int) -> Polynomial:
    """Degree-k Legendre polynomial mapped to (0, 1); exact coefficients.

    P_k(2x - 1) = sum_j (-1)^(k+j) C(k, j) C(k+j, j) x^j, all integers.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return Polynomial._of([(-1) ** (k + j) * comb(k, j) * comb(k + j, j)
                           for j in range(k + 1)], 1)


def polynomial_with_moments(targets) -> Polynomial:
    """Polynomial of degree < s whose moments mu_0..mu_(s-1) hit s targets.

    In the basis (1-x)^j the moment matrix is the Hilbert matrix
    mu_i((1-x)^j) = 1/(i+j+1), whose inverse has the integer entries
    (-1)^(i+j) (i+j+1) C(s+i, s-j-1) C(s+j, s-i-1) C(i+j, i)^2 (M.-D. Choi,
    Amer. Math. Monthly 90, 1983).  So the solution is unique: c = H^-1 t on
    the targets' numerators over one denominator, expanded into monomials.
    """
    values = [_as_fraction(v) for v in targets]
    if not values:
        raise ValueError("at least the total mass must be prescribed")
    size = len(values)
    nums, den = _integer_form(values)
    c = [sum((-1) ** (i + j) * (i + j + 1) * comb(size + i, size - j - 1)
             * comb(size + j, size - i - 1) * comb(i + j, i) ** 2 * t
             for i, t in enumerate(nums))
         for j in range(size)]
    return Polynomial._of([(-1) ** k * sum(comb(j, k) * c[j] for j in range(k, size))
                           for k in range(size)], den)


# random polynomials have integer coefficients in [-COEFF_SPAN, COEFF_SPAN]
COEFF_SPAN = 9


def random_polynomial(rng: np.random.Generator, degree: int) -> Polynomial:
    """Random polynomial with small integer coefficients, never the zero one."""
    while True:
        coeffs = rng.integers(-COEFF_SPAN, COEFF_SPAN + 1, size=degree + 1)
        if np.any(coeffs != 0):
            return Polynomial(tuple(int(c) for c in coeffs))


def _span_basis_values(n: int, n_points: int) -> np.ndarray:
    x = grid_points(n_points)
    return np.stack([np.ones_like(x), (1.0 - x) ** n])


def span_basis(f, n: int) -> tuple:
    """The pair (1, (1-x)^n) in the carrier of f."""
    if isinstance(f, Polynomial):
        return Polynomial.constant(1), one_minus_x_power(n)
    return tuple(GridFunction(v) for v in _span_basis_values(n, f.n_points))


def span_projection(f, n: int):
    """Split f into its L2 projection onto span{1, (1-x)^n} and a remainder.

    On the polynomial path the Gram matrix [[1, 1/(n+1)], [1/(n+1),
    1/(2n+1)]] has determinant n^2/((2n+1)(n+1)^2) > 0 and is solved
    exactly by Cramer's rule; on the grid path with the shared quadrature,
    so the remainder is discretely orthogonal to both basis vectors.
    """
    if n < 1:
        raise ValueError("span index must be positive")
    if isinstance(f, Polynomial):
        one, wn = span_basis(f, n)
        m0, mn = moment(f, 0), moment(f, n)
        a = Fraction(n + 1, n * n) * ((n + 1) * m0 - (2 * n + 1) * mn)
        b = Fraction((n + 1) * (2 * n + 1), n * n) * ((n + 1) * mn - m0)
        proj = a * one + b * wn
        return proj, f - proj
    ones, wn = _span_basis_values(n, f.n_points)
    m0 = moment_weight_row(0, f.n_points)
    mn = moment_weight_row(n, f.n_points)
    gram = np.array([[m0 @ ones, m0 @ wn], [mn @ ones, mn @ wn]])
    a, b = np.linalg.solve(gram, np.array([m0 @ f.values, mn @ f.values]))
    return GridFunction(a * ones + b * wn), GridFunction(f.values - a * ones - b * wn)
