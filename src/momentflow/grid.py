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
from math import comb

import numpy as np
from scipy.integrate import cumulative_trapezoid


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, float):
        # exact binary expansion, keeps the polynomial path exact
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class Polynomial:
    """Polynomial on (0, 1) with exact rational coefficients.

    Coefficients are stored in the monomial basis, lowest degree first.
    Trailing zeros are stripped, so the representation is canonical and the
    zero polynomial has an empty coefficient tuple.
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
        """Evaluate by Horner's rule; exact when x is int or Fraction."""
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
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
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
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
            c / (k + 1) for k, c in enumerate(self.coeffs)))

    def definite_integral(self, a=0, b=1) -> Fraction:
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


def running_integral(f: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral, zero at the left endpoint."""
    return GridFunction(cumulative_trapezoid(f.values, dx=f.spacing, initial=0.0))


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
