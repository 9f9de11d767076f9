"""Diffusion on (0, 1) driven by moment conditions instead of boundary data.

The package realizes, on a uniform grid with an exact-polynomial oracle
path, the heat semigroup and porous-medium / fast-diffusion gradient flows
whose boundary behaviour is replaced by linear conditions on the moments of
order 0 and n, together with the operator calculus (moments, centered
primitives, equivalent dual metrics) the construction rests on.
"""

from .dual import (
    ConstraintSpace,
    DualElement,
    dual_inner,
    dual_norm_sq,
    total_mass,
    zero_mass_embed,
)
from .errors import ConfigError, NumericalError
from .flow import (
    DecayFit,
    FlowConfig,
    FlowRecord,
    FlowResult,
    decay_inequality_check,
    embedding_constant,
    energy,
    energy_gradient,
    fit_decay,
    project_admissible,
    prox_step,
    run_flow,
    run_linear_flow,
    trajectory_quotient_min,
)
from .grid import (
    GridFunction,
    Polynomial,
    grid_points,
    one_minus_x_power,
    poly_to_grid,
    quadrature,
    second_derivative,
    trapezoid_weights,
)
from .heat import (
    OperatorAssembly,
    assemble_operator,
    atom_coefficient,
    atom_consistency_residual,
    heat_step,
    integration_by_parts_residual,
    potential_coefficient,
    regularity_residuals,
    spectrum,
    strong_apply,
    weak_strong_residual,
)
from .moments import (
    centered_primitive,
    centered_tail_integral,
    moment,
    polynomial_with_moments,
    primitive,
    random_polynomial,
    shifted_legendre,
    span_projection,
)
from .suite import identity_suite

__version__ = "0.1.0"
