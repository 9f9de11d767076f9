"""Exact polynomials and uniform-grid functions on the unit interval.

Two carriers are used throughout the package.  ``Polynomial`` keeps exact
rational coefficients, stored as integer numerators over one positive
denominator, so that closed-form identities can be verified to machine
precision; ``GridFunction`` holds samples on the uniform grid
x_i = i/(N-1) including both endpoints, with composite trapezoid quadrature.
The exact path is the oracle against which the O(h^2) grid path is tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
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
    denominators; for n = 0 it is lcm(1, ..., length) and w[k] = L/(k+1),
    the row the antiderivative scales by.
    """
    dens = [(n + k + 1) * comb(n + k, k) for k in range(length)]
    common = lcm(*dens)
    return common, tuple(common // d for d in dens)


def beta_moment(p: "Polynomial", n: int) -> Fraction:
    """int_0^1 (1-x)^n p(x) dx as one integer dot product with the Beta row."""
    common, row = beta_row(n, len(p.nums))
    return Fraction(sum(map(mul, p.nums, row)), p.den * common)


class Polynomial:
    """Polynomial on (0, 1) with exact rational coefficients.

    The coefficient of x^k is ``nums[k] / den``, lowest degree first: integer
    numerators over one positive denominator with gcd(den, *nums) = 1 and no
    trailing zero numerator.  The form is canonical, so equality and hashing
    read ``(nums, den)``; the zero polynomial is ``((), 1)``.  ``coeffs``
    gives the same coefficients as reduced ``Fraction``s.

    Every kernel works on the integers and reduces once per result, with one
    gcd over the numerators and the denominator (content and primitive part).
    A product convolves the numerators over the product of denominators; a
    sum or difference brings both operands to the lcm of their denominators.
    The integral over [0, 1] and the moments mu_n (``beta_moment``) are one
    integer dot product each with a cached Beta row, and so is the
    antiderivative's scaling.  The value at 1 is the numerator sum over
    ``den`` and the value at 0 is c_0; other exact points use Horner's rule
    on the integers, other integration bounds the antiderivative.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        nums, den = _integer_form([_as_fraction(c) for c in coeffs])
        self.nums, self.den = _canonical(nums, den)

    @classmethod
    def _of(cls, nums, den: int) -> "Polynomial":
        """The polynomial sum_k nums[k] x^k / den, for integers and den > 0."""
        p = cls.__new__(cls)
        p.nums, p.den = _canonical(nums, den)
        return p

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = _as_fraction(c)
        return cls._of((c.numerator,), c.denominator)

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial x."""
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced ``Fraction``s, lowest degree first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __call__(self, x):
        """Evaluate exactly at int, NumPy integer and Fraction points, else
        in floats.

        At 0 and 1 the value is c_0 and the numerator sum over ``den``;
        elsewhere Horner's rule, on the integers at exact points.
        """
        nums, den = self.nums, self.den
        if not isinstance(x, (int, np.integer, Fraction)):
            acc = 0.0
            for c in reversed(nums):
                acc = acc * x + c / den
            return acc
        if not nums:
            return Fraction(0)
        if x == 0:
            return Fraction(nums[0], den)
        if x == 1:
            return Fraction(sum(nums), den)
        # x = p/q: sum_k nums[k] p^k q^(d-k) over den q^d
        x = _as_fraction(x)
        p, q = x.numerator, x.denominator
        acc, q_pow = nums[-1], 1
        for c in reversed(nums[:-1]):
            q_pow *= q
            acc = acc * p + c * q_pow
        return Fraction(acc, den * q_pow)

    def values_on(self, x: np.ndarray) -> np.ndarray:
        # integer true division rounds correctly, so c / den == float(c_k)
        acc = np.zeros_like(x, dtype=float)
        den = self.den
        for c in reversed(self.nums):
            acc = acc * x + c / den
        return acc

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over lcm of the two denominators."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a, b = self.nums, other.nums
        out = [c * fa for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c * fb
        return Polynomial._of(out, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of([-c for c in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self.nums, other.nums
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return Polynomial._of(out, self.den * other.den)
        c = _as_fraction(other)
        return Polynomial._of([c.numerator * a for a in self.nums],
                              c.denominator * self.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def derivative(self) -> "Polynomial":
        nums = self.nums
        return Polynomial._of([k * nums[k] for k in range(1, len(nums))], self.den)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        common, row = beta_row(0, len(self.nums))
        return Polynomial._of([0, *map(mul, self.nums, row)], self.den * common)

    def definite_integral(self, a=0, b=1) -> Fraction:
        if a == 0 and b == 1:
            return beta_moment(self, 0)
        prim = self.antiderivative()
        return prim(_as_fraction(b)) - prim(_as_fraction(a))


def _canonical(nums, den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) without trailing zeros and coprime; den must be > 0."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    if not end:
        return (), 1
    g = gcd(den, *nums[:end])
    if g == 1:
        return tuple(nums[:end]), den
    return tuple(c // g for c in nums[:end]), den // g


def one_minus_x_power(n: int) -> Polynomial:
    """(1-x)^n expanded in the monomial basis, exactly."""
    if n < 0:
        raise ValueError("nonnegative power required")
    return Polynomial._of([comb(n, k) * (-1) ** k for k in range(n + 1)], 1)


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


def poly_to_grid(p: Polynomial, n_points: int) -> GridFunction:
    return GridFunction(p.values_on(grid_points(n_points)))
