"""Dual-space elements, constraint subspaces, and the equivalent metrics.

A ``DualElement`` models a distribution made of a density plus a scalar
point mass at x = 1.  The point mass is invisible to every moment of
positive order and to the centered primitive, but carries total mass, which
is exactly what is needed to identify zero-mass dual elements with ordinary
densities: ``zero_mass_embed`` attaches the balancing atom -mu_0(g).

The family of inner products

    (u | v)_n = int_0^1 Pu Pv dx + mass(u) mass(v),

with P the n-centered primitive of the density part, are mutually
equivalent; any of them realizes the ambient Hilbert metric in which the
diffusion flows of this package are gradient flows.

``dual_inner`` evaluates the metric exactly, on polynomial densities; on
grid values its one float form is ``heat.OperatorAssembly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import GridFunction, Polynomial
from .moments import centered_primitive, moment, moment_weight_row


@dataclass(frozen=True)
class DualElement:
    """Density part plus the coefficient of the point mass at x = 1."""

    regular: GridFunction | Polynomial
    atom: float | Fraction = 0


def as_dual(u) -> DualElement:
    if isinstance(u, DualElement):
        return u
    return DualElement(u, 0)


def total_mass(u: DualElement | GridFunction | Polynomial):
    """mu_0 including the atom; the atom contributes only at order zero."""
    u = as_dual(u)
    return moment(u.regular, 0) + u.atom


def zero_mass_embed(g: GridFunction | Polynomial) -> DualElement:
    """Attach the balancing atom so that the result has zero total mass.

    This is the inverse of the identification that drops the atom; the minus
    sign is the unique choice making the total mass vanish.
    """
    return DualElement(g, -moment(g, 0))


def dual_inner(u, v, n: int):
    """(u | v)_n, exactly; both density parts must be polynomials.

    A grid density raises TypeError: on grid values the metric is
    ``OperatorAssembly.apply``.
    """
    u, v = as_dual(u), as_dual(v)
    pu = centered_primitive(u.regular, n)
    pv = centered_primitive(v.regular, n)
    return (pu * pv).definite_integral() + total_mass(u) * total_mass(v)


# the constraint kinds, each with the number of moment rows it imposes
CONSTRAINT_KINDS = {"zero_zero": 2, "zero_free": 1, "line": 1, "full": 0}


@dataclass(frozen=True)
class ConstraintSpace:
    """Admissible subspace for the pair (mu_0, mu_n).

    The four canonical forms are both moments pinned to zero
    (``zero_zero``), only the mass pinned (``zero_free``), a proportionality
    mu_n = slope * mu_0 (``line``), and no constraint at all (``full``).
    """

    kind: str
    slope: float | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "line":
            if self.slope is None or not np.isfinite(self.slope):
                raise ValueError("line constraints need a finite slope")
        elif self.slope is not None:
            raise ValueError("slope only applies to line constraints")

    @classmethod
    def zero_zero(cls) -> "ConstraintSpace":
        return cls("zero_zero")

    @classmethod
    def zero_free(cls) -> "ConstraintSpace":
        return cls("zero_free")

    @classmethod
    def line(cls, slope: float) -> "ConstraintSpace":
        return cls("line", float(slope))

    @classmethod
    def full(cls) -> "ConstraintSpace":
        return cls("full")

    @property
    def forces_zero_mass(self) -> bool:
        return self.kind in ("zero_zero", "zero_free")

    @property
    def n_constraints(self) -> int:
        return CONSTRAINT_KINDS[self.kind]

    def constraint_rows(self, n: int, n_points: int) -> np.ndarray:
        """Quadrature functionals whose kernel is the admissible grid space."""
        m0 = moment_weight_row(0, n_points)
        mn = moment_weight_row(n, n_points)
        if self.kind == "zero_zero":
            return np.stack([m0, mn])
        if self.kind == "zero_free":
            return m0[None, :]
        if self.kind == "line":
            return (mn - self.slope * m0)[None, :]
        return np.empty((0, n_points))

    def line_residual(self, f, n: int):
        """mu_n(f) - slope mu_0(f) of a line constraint.

        Exact on polynomials; on grids one dot product with the constraint
        row, so it rounds exactly as ``violation`` does.
        """
        if isinstance(f, Polynomial):
            return moment(f, n) - Fraction(self.slope) * moment(f, 0)
        return float(self.constraint_rows(n, f.n_points)[0] @ f.values)

    def violation(self, f: GridFunction, n: int) -> float:
        rows = self.constraint_rows(n, f.n_points)
        if rows.size == 0:
            return 0.0
        return float(np.max(np.abs(rows @ f.values)))
