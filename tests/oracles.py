"""Float cross-checks of the paper's strong form and of decay along a run.

The package defines the operator variationally (``heat.OperatorAssembly``).
Here the strong form -u'' + potential_coefficient(u) (1-x)^(n-2), with a
point mass correction for the unconstrained-mass cases, is computed
independently and paired against it.  These are discretization-order checks
with tolerances; the exact identities live in ``momentflow.suite``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momentflow.dual import ConstraintSpace, DualElement, zero_mass_embed
from momentflow.flow import EPS_REG, NEGLIGIBLE_NORM_SQ, FlowConfig, _density_gradient
from momentflow.grid import GridFunction, Polynomial, grid_points, poly_to_grid
from momentflow.heat import (
    OperatorAssembly,
    assemble_operator,
    endpoint_values,
    potential_coefficient,
)
from momentflow.moments import moment, moment_weight_row


def second_derivative(f: GridFunction) -> GridFunction:
    """Second differences; O(h^2) on C^4 data, exact on quadratics."""
    v = f.values
    if v.size < 5:
        raise ValueError("second differences need at least 5 nodes")
    h2 = (1.0 / (f.n_points - 1)) ** 2
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return GridFunction(out)


def _strong_image(u: GridFunction, n: int) -> GridFunction:
    """-u'' + potential_coefficient(u, n) (1-x)^(n-2) on the grid."""
    image = -1.0 * second_derivative(u)
    if n >= 2:
        weight = (1.0 - grid_points(u.n_points)) ** (n - 2)
        image = GridFunction(image.values + potential_coefficient(u, n) * weight)
    return image


def atom_coefficient(f0: float, f1: float, space: ConstraintSpace) -> float:
    """Point-mass coefficient c fixed by (c + f(1), f(0) - f(1)) lying in Y-perp.

    It applies to the unconstrained-mass cases.  When Y is the whole plane
    the condition also asks f(0) = f(1), which does not enter c.
    """
    if space.kind == "line":
        return -f1 - space.slope * (f0 - f1)
    if space.kind == "full":
        return -f1
    raise ValueError("atom coefficient only applies to line or full constraints")


def strong_apply(u: GridFunction, n: int, space: ConstraintSpace,
                 constraint_tol: float | None = None) -> DualElement:
    """Strong-form image: -u'' plus the induced potential, mass-balanced.

    For the unconstrained-mass spaces the point mass additionally carries
    the orthogonality coefficient.  This is the diagnostic counterpart of
    the variational operator; agreement between the two is a consistency
    check, not a definition.  Inputs must satisfy the moment constraints,
    by default to within 100 h^2 (the quadrature moments of an exactly
    admissible smooth function are themselves only O(h^2) small).
    """
    if constraint_tol is None:
        constraint_tol = 100.0 * (1.0 / (u.n_points - 1)) ** 2
    violation = space.violation(u, n)
    if violation > constraint_tol:
        raise ValueError(f"input violates moment constraints by {violation:.3e}")
    out = zero_mass_embed(_strong_image(u, n))
    if not space.forces_zero_mass:
        u0, u1 = endpoint_values(u)
        c = atom_coefficient(u0, u1, space)
        out = DualElement(out.regular, out.atom - c)
    return out


def weak_pairing_gap(image: DualElement, u: GridFunction, tests,
                     asm: OperatorAssembly) -> float:
    """Worst |(image | h)_metric - (u | h)_L2| over the grid tests h.

    The density of the image pairs through ``asm.apply``; its atom, which
    only total mass sees, pairs with mu_0(h).
    """
    worst = 0.0
    for h in tests:
        lhs = float(image.regular.values @ asm.apply(h.values)) + \
            image.atom * moment(h, 0)
        rhs = float(asm.weights @ (u.values * h.values))
        worst = max(worst, abs(lhs - rhs))
    return worst


def weak_strong_residual(u: Polynomial, tests, n: int, space: ConstraintSpace,
                         n_points: int) -> float:
    """Worst weak-form gap between the strong image and the L2 pairing.

    Both u and the test functions are exact polynomials admissible for the
    constraint space, evaluated on the grid; the gap decays at the scheme
    order O(h^2) under refinement.
    """
    ug = poly_to_grid(u, n_points)
    return weak_pairing_gap(strong_apply(ug, n, space), ug,
                            [poly_to_grid(h, n_points) for h in tests],
                            assemble_operator(n, space, n_points))


def regularity_residuals(u: GridFunction, n: int) -> tuple:
    """Moments (mu_0, mu_n) of u'' minus the induced potential term.

    Smooth states reached by the constrained flow at positive times
    annihilate both moments; on the grid the residuals decay at O(h^2).
    """
    image = _strong_image(u, n)
    return -moment(image, 0), -moment(image, n)


def atom_consistency_residual(before: GridFunction, mid: GridFunction,
                              after: GridFunction, dt: float, n: int,
                              space: ConstraintSpace) -> float:
    """Gap in the orthogonality condition fixing the point-mass coefficient.

    Along the flow the total mass evolves at exactly the point-mass
    coefficient, so a central difference of the mass over three consecutive
    states reconstructs it independently of the endpoint formula.  The
    reconstruction is then compared with ``atom_coefficient``, and for the
    whole plane the condition's second half f(0) = f(1) is checked too;
    flow states at positive times satisfy both to discretization error.  (A
    direct second-difference reconstruction is useless here: the grid image
    of the operator mimics the point mass with a boundary spike.)
    """
    mass = moment_weight_row(0, mid.n_points)
    c_hat = float(mass @ (after.values - before.values)) / (2.0 * dt)
    u0, u1 = endpoint_values(mid)
    gap = abs(c_hat - atom_coefficient(u0, u1, space))
    return gap if space.kind == "line" else max(gap, abs(u0 - u1))


def energy_gradient(f: GridFunction, p: float, eps_reg: float = 0.0) -> GridFunction:
    """Pointwise density |f|^(p-2) f of the energy derivative.

    For p < 2 the modulus is smoothed through sqrt(f^2 + eps^2) so the
    density stays differentiable across zeros; eps_reg = 0 gives the exact
    density.
    """
    if not p > 1.0:
        raise ValueError("exponent must exceed 1")
    if p < 2.0 and eps_reg == 0.0:
        # |f|^(p-2) f would be inf * 0 at a zero node
        return GridFunction(np.sign(f.values) * np.abs(f.values) ** (p - 1.0))
    return GridFunction(_density_gradient(f.values, p, eps_reg))


@dataclass(frozen=True)
class InequalityReport:
    max_violation: float
    c_empirical: float
    n_used: int


def decay_inequality_check(records, p: float) -> InequalityReport:
    """Check v' <= 0 and estimate C in v' <= -C v^(p/2) along the run.

    v' comes from central differences of the squared norm; the report
    carries the worst positive violation (zero for a monotone run) and the
    smallest observed ratio -v'/v^(p/2).
    """
    if len(records) < 3:
        raise ValueError("at least three records are needed")
    t = np.array([r.t for r in records])
    v = np.array([r.hy_norm_sq for r in records])
    dv = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    mid = v[1:-1]
    usable = mid > NEGLIGIBLE_NORM_SQ
    if not np.any(usable):
        raise ValueError("flow is identically negligible; nothing to check")
    worst = float(np.max(np.maximum(dv[usable], 0.0)))
    decaying = usable & (dv < 0.0)
    if np.any(decaying):
        c_emp = float(np.min(-dv[decaying] / mid[decaying] ** (p / 2.0)))
    else:
        c_emp = 0.0
    return InequalityReport(max_violation=worst, c_empirical=c_emp,
                            n_used=int(np.sum(usable)))


def trajectory_quotient_min(records, p: float) -> float:
    """min over records of ||u||_p^p / ||u||_metric^p, from stored data."""
    vals = [
        p * r.lp_energy / r.hy_norm_sq ** (p / 2.0)
        for r in records if r.hy_norm_sq > NEGLIGIBLE_NORM_SQ
    ]
    if not vals:
        raise ValueError("no usable records")
    return float(min(vals))


def nonlinear_strong_form_gap(state: GridFunction, cfg: FlowConfig,
                              asm: OperatorAssembly, tests) -> dict:
    """Exploratory check that the induced potential emerges from the prox.

    The energy-gradient density phi = |f|^(p-2) f of a converged state is
    pushed through the strong form -phi'' + coeff (1-x)^(n-2) with coeff
    given by the closed formula applied to phi, and the weak action of that
    image is compared against the L2 pairing of phi on admissible tests.
    The gap is a discretization-level diagnostic only.
    """
    phi = energy_gradient(state, cfg.p, EPS_REG)
    # phi itself need not be admissible, so the input check is off
    image = strong_apply(phi, asm.n, asm.space, constraint_tol=np.inf)
    grid_tests = [h if isinstance(h, GridFunction) else GridFunction(h)
                  for h in tests]
    return {"gap": weak_pairing_gap(image, phi, grid_tests, asm),
            "potential_coefficient": float(potential_coefficient(phi, asm.n))}
