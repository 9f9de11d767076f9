"""Exact polynomials and uniform-grid functions on the unit interval.

Two carriers are used throughout the package.  ``Polynomial`` keeps exact
rational coefficients so that closed-form identities can be verified to
machine precision; ``GridFunction`` holds samples on the uniform grid
x_i = i/(N-1) including both endpoints, with composite trapezoid quadrature.
The exact path is the oracle against which the O(h^2) grid path is tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul

import numpy as np


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, float):
        # exact binary expansion, keeps the polynomial path exact
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _integer_form(coeffs) -> tuple[list[int], int]:
    """Numerators over the common denominator: c_k = nums[k] / den."""
    dens = [c.denominator for c in coeffs]
    den = lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


@lru_cache(maxsize=None)
def beta_row(n: int, length: int) -> tuple[int, tuple[int, ...]]:
    """The moments mu_n(x^k), k < length, over one common denominator.

    mu_n(x^k) = int_0^1 (1-x)^n x^k dx = B(k+1, n+1) = 1/((n+k+1) C(n+k, k)).
    Returns (L, w) with mu_n(x^k) = w[k] / L and L the lcm of those
    denominators; for n = 0 it is lcm(1, ..., length).
    """
    dens = [(n + k + 1) * comb(n + k, k) for k in range(length)]
    common = lcm(*dens)
    return common, tuple(common // d for d in dens)


def beta_moment(p: "Polynomial", n: int) -> Fraction:
    """int_0^1 (1-x)^n p(x) dx as one integer dot product with the Beta row."""
    nums, den = _integer_form(p.coeffs)
    common, row = beta_row(n, len(nums))
    return Fraction(sum(map(mul, nums, row)), den * common)


class Polynomial:
    """Polynomial on (0, 1) with exact rational coefficients.

    Coefficients are stored in the monomial basis, lowest degree first.
    Trailing zeros are stripped, so the representation is canonical and the
    zero polynomial has an empty coefficient tuple.

    The exact kernels reduce one ``Fraction`` per result, not one per
    term.  A product brings both operands to a common denominator,
    convolves the integer numerators and builds one ``Fraction`` per output
    coefficient.  The integral over [0, 1] and the moments mu_n
    (``beta_moment``) are one integer dot product each with a cached Beta
    row; the value at 1 is the sum of the numerators and the value at 0 is
    c_0.  Other integration bounds go through the antiderivative, other
    points through Horner's rule.  A difference subtracts coefficient by
    coefficient without building the negated operand.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial x."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        """Evaluate exactly when x is int or Fraction, else in floats.

        At 0 and 1 the value is c_0 and the coefficient sum; elsewhere
        Horner's rule.
        """
        exact = isinstance(x, (int, Fraction))
        if exact and x == 0:
            return self.coeffs[0] if self.coeffs else Fraction(0)
        if exact and x == 1:
            nums, den = _integer_form(self.coeffs)
            return Fraction(sum(nums), den)
        acc = Fraction(0) if exact else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def values_on(self, x: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x, dtype=float)
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [-c for c in b[len(a):]]
        for i, c in enumerate(b[:len(a)]):
            out[i] -= c
        return Polynomial(out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            a, den_a = _integer_form(self.coeffs)
            b, den_b = _integer_form(other.coeffs)
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            den = den_a * den_b
            return Polynomial(tuple(Fraction(c, den) for c in out))
        c = _as_fraction(other)
        return Polynomial(tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial((Fraction(0),) + tuple(
            Fraction(c.numerator, c.denominator * (k + 1))
            for k, c in enumerate(self.coeffs)))

    def definite_integral(self, a=0, b=1) -> Fraction:
        if a == 0 and b == 1:
            return beta_moment(self, 0)
        prim = self.antiderivative()
        return prim(_as_fraction(b)) - prim(_as_fraction(a))


def one_minus_x_power(n: int) -> Polynomial:
    """(1-x)^n expanded in the monomial basis, exactly."""
    if n < 0:
        raise ValueError("nonnegative power required")
    return Polynomial(tuple(Fraction(comb(n, k) * (-1) ** k) for k in range(n + 1)))


@dataclass(frozen=True)
class GridFunction:
    """Samples of a real function on the uniform grid over [0, 1].

    The grid has n_points >= 3 nodes including both endpoints, so endpoint
    values such as f(0) and f(1) are directly readable.
    """

    values: np.ndarray = field()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 3:
            raise ValueError("grid functions need at least 3 nodes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n_points - 1)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.values * float(scalar))

    __rmul__ = __mul__


def grid_points(n_points: int) -> np.ndarray:
    if n_points < 3:
        raise ValueError("grid needs at least 3 points")
    return np.linspace(0.0, 1.0, n_points)


def trapezoid_weights(n_points: int) -> np.ndarray:
    """Composite trapezoid weights; second order, exact on affine data."""
    h = 1.0 / (n_points - 1)
    w = np.full(n_points, h)
    w[0] = w[-1] = h / 2
    return w


def quadrature(f: GridFunction) -> float:
    return float(trapezoid_weights(f.n_points) @ f.values)


def second_derivative(f: GridFunction) -> GridFunction:
    """Second differences; O(h^2) on C^4 data, exact on quadratics."""
    v = f.values
    if v.size < 5:
        raise ValueError("second differences need at least 5 nodes")
    h2 = f.spacing ** 2
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return GridFunction(out)


def poly_to_grid(p: Polynomial, n_points: int) -> GridFunction:
    return GridFunction(p.values_on(grid_points(n_points)))
