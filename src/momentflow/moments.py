"""Moment functionals and the integral operators built on them.

The n-th moment of f is mu_n(f) = int_0^1 (1-x)^n f(x) dx.  Around it the
module provides the running primitive, the centered primitive
f -> If - mu_n(f) (whose derivative recovers f and whose (n-1)-moment
vanishes), its pre-adjoint acting on test functions, projections onto
span{1, (1-x)^n}, shifted Legendre polynomials, and a solver that builds a
polynomial with prescribed moments mu_0..mu_m.

Every operation has an exact branch on ``Polynomial`` inputs and a
quadrature branch on ``GridFunction`` inputs; the two branches share the
trapezoid rule so that grid identities close to quadrature error only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .grid import (
    GridFunction,
    Polynomial,
    grid_points,
    one_minus_x_power,
    poly_to_grid,
    running_integral,
    trapezoid_weights,
)


@dataclass(frozen=True)
class MomentVector:
    """Moment values mu_{m_1}, ..., mu_{m_k} for distinct nonnegative orders."""

    indices: tuple
    entries: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) != len(set(idx)) or any(i < 0 for i in idx):
            raise ValueError("moment orders must be distinct and nonnegative")
        if len(idx) != len(self.entries):
            raise ValueError("orders and entries must align")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "entries", tuple(self.entries))


def moment_weight_row(n: int, n_points: int) -> np.ndarray:
    """Quadrature functional for mu_n as a row vector on grid values."""
    w = trapezoid_weights(n_points)
    return w * (1.0 - grid_points(n_points)) ** n


def moment(f, n: int):
    """mu_n(f); exact Fraction on polynomials, trapezoid value on grids."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if isinstance(f, Polynomial):
        return (one_minus_x_power(n) * f).definite_integral()
    if isinstance(f, GridFunction):
        return float(moment_weight_row(n, f.n_points) @ f.values)
    raise TypeError(f"unsupported operand {type(f).__name__}")


def primitive(f):
    """Running integral If(x) = int_0^x f, vanishing at x = 0."""
    if isinstance(f, Polynomial):
        return f.antiderivative()
    if isinstance(f, GridFunction):
        return running_integral(f)
    raise TypeError(f"unsupported operand {type(f).__name__}")


def centered_primitive(f, n: int):
    """If - mu_n(f): an antiderivative of f normalized through mu_n.

    Its value at 0 is -mu_n(f), at 1 is mu_0(f) - mu_n(f), and its own
    (n-1)-moment vanishes.
    """
    if n < 1:
        raise ValueError("center index must be positive")
    prim = primitive(f)
    mn = moment(f, n)
    if isinstance(f, Polynomial):
        return prim - Polynomial.constant(mn)
    return GridFunction(prim.values - mn)


def centered_tail_integral(phi, n: int):
    """x -> int_x^1 phi - mu_0(phi)(1-x)^n; vanishes at both endpoints."""
    if n < 1:
        raise ValueError("center index must be positive")
    mass = moment(phi, 0)
    if isinstance(phi, Polynomial):
        prim = phi.antiderivative()
        tail = Polynomial.constant(prim(1)) - prim
        return tail - mass * one_minus_x_power(n)
    prim = running_integral(phi)
    weight = (1.0 - grid_points(phi.n_points)) ** n
    return GridFunction(prim.values[-1] - prim.values - mass * weight)


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
    monomial basis by exact rational elimination.
    """
    if isinstance(targets, MomentVector):
        if targets.indices != tuple(range(len(targets.indices))):
            raise ValueError("prescription requires consecutive orders 0..m")
        values = targets.entries
    else:
        values = tuple(targets)
    if not values:
        raise ValueError("at least the total mass must be prescribed")
    m = len(values) - 1
    basis = [Polynomial((0,) * j + (1,)) for j in range(m + 1)]
    matrix = [[moment(basis[j], i) for j in range(m + 1)] for i in range(m + 1)]
    coeffs = _fraction_solve(matrix, [_to_fraction(v) for v in values])
    out = Polynomial()
    for c, base in zip(coeffs, basis):
        out = out + c * base
    return out


def _to_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def random_polynomial(rng: np.random.Generator, degree: int,
                      coeff_span: int = 9) -> Polynomial:
    """Random polynomial with small integer coefficients, never the zero one."""
    while True:
        coeffs = rng.integers(-coeff_span, coeff_span + 1, size=degree + 1)
        if np.any(coeffs != 0):
            return Polynomial(tuple(int(c) for c in coeffs))


def span_projection(f, n: int, mode: str = "l2", q: float | None = None):
    """Split f into its span{1, (1-x)^n} component and a remainder.

    In ``l2`` mode the projection is orthogonal; on the polynomial path the
    2x2 Gram system is solved exactly, on the grid path with the shared
    quadrature so the remainder is discretely orthogonal to both basis
    vectors.  In ``lq`` mode (q in (1, inf)) the pair (a, b) minimizes the
    L^q distance, a smooth strictly convex two-variable problem.
    """
    if n < 1:
        raise ValueError("span index must be positive")
    if mode == "l2":
        return _span_projection_l2(f, n)
    if mode == "lq":
        if q is None or not 1.0 < q < np.inf:
            raise ValueError("lq mode needs q in (1, inf)")
        return _span_projection_lq(f, n, float(q))
    raise ValueError(f"unknown projection mode {mode!r}")


def _span_basis_values(n: int, n_points: int) -> np.ndarray:
    x = grid_points(n_points)
    return np.stack([np.ones_like(x), (1.0 - x) ** n])


def span_basis(f, n: int) -> tuple:
    """The pair (1, (1-x)^n) in the carrier of f."""
    if isinstance(f, Polynomial):
        return Polynomial.constant(1), one_minus_x_power(n)
    return tuple(GridFunction(v) for v in _span_basis_values(n, f.n_points))


def _span_projection_l2(f, n: int):
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


def _span_projection_lq(f, n: int, q: float, internal_points: int = 4097):
    poly_input = isinstance(f, Polynomial)
    g = poly_to_grid(f, internal_points) if poly_input else f
    basis = _span_basis_values(n, g.n_points)
    w = trapezoid_weights(g.n_points)

    def objective(ab):
        r = g.values - ab[0] * basis[0] - ab[1] * basis[1]
        val = float(w @ np.abs(r) ** q)
        grad_r = q * np.abs(r) ** (q - 1.0) * np.sign(r)
        return val, np.array([-(w * grad_r) @ basis[0], -(w * grad_r) @ basis[1]])

    l2_proj, _ = _span_projection_l2(g, n)
    start = np.linalg.lstsq(basis.T, l2_proj.values, rcond=None)[0]
    res = minimize(objective, start, jac=True, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    a, b = res.x
    if poly_input:
        proj = Polynomial.constant(Fraction(float(a))) + \
            Fraction(float(b)) * one_minus_x_power(n)
        return proj, f - proj
    proj = GridFunction(a * basis[0] + b * basis[1])
    return proj, GridFunction(f.values - proj.values)
