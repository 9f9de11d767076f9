"""Moment functionals and the integral operators built on them.

The n-th moment of f is mu_n(f) = int_0^1 (1-x)^n f(x) dx.  Around it the
module provides the running primitive, the centered primitive
f -> If - mu_n(f) (whose derivative recovers f and whose (n-1)-moment
vanishes), its pre-adjoint acting on test functions, the L2 projection
onto span{1, (1-x)^n}, shifted Legendre polynomials, and a solver that
builds a polynomial with prescribed moments mu_0..mu_m.

The moments and the span projection have an exact branch on
``Polynomial`` inputs and a trapezoid branch on ``GridFunction`` inputs,
which initial states use.  The primitives are exact only: on grid values
the centered primitive lives inside ``heat.OperatorAssembly``, the one
float form of the metric, and a grid operand raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .grid import (
    GridFunction,
    Polynomial,
    _as_fraction,
    beta_moment,
    beta_row,
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


@lru_cache(maxsize=None)
def shifted_legendre(k: int) -> Polynomial:
    """Degree-k Legendre polynomial mapped to (0, 1); exact coefficients.

    Built by the three-term recurrence in rational arithmetic, which keeps
    the family orthogonal without cancellation up to k of a few dozen.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return Polynomial.constant(1)
    if k == 1:
        return Polynomial((-1, 2))
    t = Polynomial((-1, 2))
    prev, cur = shifted_legendre(k - 2), shifted_legendre(k - 1)
    return Fraction(1, k) * ((2 * k - 1) * (t * cur) - (k - 1) * prev)


def _fraction_solve(matrix, rhs):
    """Exact Gaussian elimination with partial pivoting over the rationals."""
    m = [list(row) for row in matrix]
    b = list(rhs)
    size = len(b)
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            raise ArithmeticError("moment system is singular")
        m[col], m[pivot] = m[pivot], m[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, size):
            factor = m[r][col] / m[col][col]
            if factor == 0:
                continue
            for c in range(col, size):
                m[r][c] -= factor * m[col][c]
            b[r] -= factor * b[col]
    out = [Fraction(0)] * size
    for row in range(size - 1, -1, -1):
        acc = b[row]
        for c in range(row + 1, size):
            acc -= m[row][c] * out[c]
        out[row] = acc / m[row][row]
    return out


def polynomial_with_moments(targets) -> Polynomial:
    """Polynomial of degree <= m whose moments mu_0..mu_m hit the targets.

    The moment map from degree-m polynomials onto the first m+1 moments is
    invertible, so the system always has exactly one solution, found in the
    monomial basis by exact rational elimination.  Row i of the system is
    the Beta row mu_i(x^j) = B(j+1, i+1).
    """
    values = tuple(targets)
    if not values:
        raise ValueError("at least the total mass must be prescribed")
    size = len(values)
    matrix = []
    for i in range(size):
        common, row = beta_row(i, size)
        matrix.append([Fraction(w, common) for w in row])
    return Polynomial(_fraction_solve(matrix, [_as_fraction(v) for v in values]))


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

    On the polynomial path the 2x2 Gram system is solved exactly; on the
    grid path with the shared quadrature, so the remainder is discretely
    orthogonal to both basis vectors.
    """
    if n < 1:
        raise ValueError("span index must be positive")
    if isinstance(f, Polynomial):
        one, wn = span_basis(f, n)
        gram = [[Fraction(1), Fraction(1, n + 1)],
                [Fraction(1, n + 1), Fraction(1, 2 * n + 1)]]
        rhs = [moment(f, 0), moment(f, n)]
        a, b = _fraction_solve(gram, rhs)
        proj = a * one + b * wn
        return proj, f - proj
    ones, wn = _span_basis_values(n, f.n_points)
    m0 = moment_weight_row(0, f.n_points)
    mn = moment_weight_row(n, f.n_points)
    gram = np.array([[m0 @ ones, m0 @ wn], [mn @ ones, mn @ wn]])
    a, b = np.linalg.solve(gram, np.array([m0 @ f.values, mn @ f.values]))
    return GridFunction(a * ones + b * wn), GridFunction(f.values - a * ones - b * wn)
