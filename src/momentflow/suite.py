"""Exact-arithmetic identity suite.

Every check below runs on the polynomial path, where all integrals are
rational numbers, so the residuals are exact zeros whenever the identities
hold; the 1e-12 tolerance only guards the final float conversion.  The
suite is the default workload of ``momentflow check`` and doubles as the
randomized half of the acceptance gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .dual import DualElement, as_dual, dual_inner
from .grid import Polynomial, one_minus_x_power
from .heat import integration_by_parts_residual
from .moments import (
    centered_primitive,
    centered_tail_integral,
    moment,
    polynomial_with_moments,
    primitive,
    random_polynomial,
    shifted_legendre,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    max_residual: float
    tolerance: float
    passed: bool


def _result(name: str, residuals, tolerance: float = 1e-12) -> CheckResult:
    worst = max((abs(float(r)) for r in residuals), default=0.0)
    return CheckResult(name=name, cases=len(residuals), max_residual=worst,
                       tolerance=tolerance, passed=worst <= tolerance)


def identity_suite(seed: int = 0, samples: int = 200,
                   max_degree: int = 6) -> dict:
    """Run the full identity suite; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    polys = [random_polynomial(rng, max_degree) for _ in range(samples)]
    partners = [random_polynomial(rng, max_degree) for _ in range(samples)]

    checks = []

    res_center, res_left, res_right, res_mass, res_prim = [], [], [], [], []
    for f in polys:
        for n in range(1, 6):
            pf = centered_primitive(f, n)
            res_center.append(moment(pf, n - 1))
            res_left.append(pf(Fraction(0)) + moment(f, n))
            res_right.append(pf(Fraction(1)) - moment(f, 0) + moment(f, n))
            res_mass.append(moment(pf, 0) - moment(f, 1) + moment(f, n))
            res_prim.append(moment(f, n) - n * moment(primitive(f), n - 1))
    checks.append(_result("centered_primitive_kills_previous_moment", res_center))
    checks.append(_result("centered_primitive_left_endpoint", res_left))
    checks.append(_result("centered_primitive_right_endpoint", res_right))
    checks.append(_result("mass_of_centered_primitive", res_mass))
    checks.append(_result("moment_of_primitive_scaling", res_prim))

    res_dual = []
    for f, phi in zip(polys, partners):
        for n in range(1, 5):
            lhs = (centered_primitive(f, n) * phi).definite_integral()
            rhs = (f * centered_tail_integral(phi, n)).definite_integral()
            res_dual.append(lhs - rhs)
    checks.append(_result("primitive_tail_duality", res_dual))

    # includes the closed-form case u = x^2, h = 1, n = 2 (both sides 2/9)
    res_ibp = [integration_by_parts_residual(
        Polynomial((0, 0, 1)), Polynomial.constant(1), 2)]
    for u, h in zip(polys, partners):
        for n in range(1, 5):
            res_ibp.append(integration_by_parts_residual(u, h, n))
    checks.append(_result("integration_by_parts", res_ibp))

    res_leg = []
    for j in range(7):
        for k in range(j + 1, 7):
            res_leg.append((shifted_legendre(j) * shifted_legendre(k))
                           .definite_integral())
    checks.append(_result("legendre_orthogonality", res_leg))

    res_pair = []
    for h in polys[: min(50, samples)]:
        for n in range(2, 6):
            lhs = (centered_primitive(one_minus_x_power(n - 2), n)
                   * centered_primitive(h, n)).definite_integral()
            rhs = Fraction(n, (n - 1) * (2 * n - 1)) * (moment(h, 1) - moment(h, n))
            res_pair.append(lhs - rhs)
    checks.append(_result("weight_pairing_identity", res_pair))

    res_atom = []
    atom_only = DualElement(Polynomial(), Fraction(1))
    for n in range(1, 6):
        # the atom carries mass but no centered primitive
        res_atom.append(dual_inner(atom_only, atom_only, n) - 1)
        res_atom.append(dual_inner(atom_only, as_dual(Polynomial.constant(1)), n) - 1)
    checks.append(_result("point_mass_annihilation", res_atom))

    res_round = []
    for k in range(min(40, samples)):
        m = 1 + int(k % 5)
        targets = tuple(Fraction(int(c), 7)
                        for c in rng.integers(-20, 21, size=m + 1))
        q = polynomial_with_moments(targets)
        for i, target in enumerate(targets):
            res_round.append(moment(q, i) - target)
    checks.append(_result("moment_prescription_roundtrip", res_round))

    return {
        "seed": seed,
        "samples": samples,
        "max_degree": max_degree,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
