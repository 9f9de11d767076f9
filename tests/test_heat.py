import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

import momentflow as mf
from momentflow.dual import as_dual
from momentflow.flow import project_admissible
from momentflow.grid import GridFunction, Polynomial
from momentflow.heat import (
    atom_consistency_residual,
    endpoint_values,
    weak_strong_residual,
)

from conftest import standard_initial

ZZ = mf.ConstraintSpace.zero_zero()
ZF = mf.ConstraintSpace.zero_free()


def admissible_poly(rng, n, space):
    """Exactly admissible polynomial; for zero_free and full also matches
    endpoints."""
    r = mf.random_polynomial(rng, 6)
    if space.kind in ("zero_free", "full"):
        b = r(Fraction(1)) - r(Fraction(0))
        a = mf.moment(r, 0) - b * Fraction(1, 2) if space.kind == "zero_free" else 0
        return r - Polynomial((a, b))
    return project_admissible(r, n, space)


def test_potential_coefficient_vanishes_at_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = mf.random_polynomial(rng, 6)
        assert mf.potential_coefficient(f, 1) == 0


def test_potential_coefficient_zero_mass_case():
    rng = np.random.default_rng(1)
    f = project_admissible(mf.random_polynomial(rng, 6), 2, ZF)
    assert mf.moment(f, 0) == 0
    assert mf.potential_coefficient(f, 2) == 3 * f(Fraction(0))


def test_potential_coefficient_constant_n3():
    assert mf.potential_coefficient(Polynomial.constant(1), 3) == 0


def test_atom_coefficient():
    line0 = mf.ConstraintSpace.line(0.0)
    assert mf.atom_coefficient(0.0, 0.0, line0) == 0.0
    assert mf.atom_coefficient(5.0, 2.0, line0) == -2.0
    line1 = mf.ConstraintSpace.line(1.0)
    assert mf.atom_coefficient(1.0, 0.0, line1) == -1.0
    full = mf.ConstraintSpace.full()
    assert mf.atom_coefficient(1.0, 1.0, full) == -1.0
    assert mf.atom_coefficient(1.0, 0.0, full) == 0.0
    with pytest.raises(ValueError):
        mf.atom_coefficient(0.0, 0.0, ZZ)


def test_integration_by_parts_worked_case():
    u = Polynomial((0, 0, 1))
    h = Polynomial.constant(1)
    upp = u.derivative().derivative()
    lhs = mf.dual_inner(mf.zero_mass_embed(upp), as_dual(h), 2)
    assert lhs == Fraction(2, 9)
    assert mf.integration_by_parts_residual(u, h, 2) == 0.0


def test_integration_by_parts_affine_input():
    u = Polynomial((3, -2))
    h = Polynomial((1, 1, 1))
    lhs = mf.dual_inner(mf.zero_mass_embed(u.derivative().derivative()),
                        as_dual(h), 3)
    assert lhs == 0
    assert mf.integration_by_parts_residual(u, h, 3) == 0.0


def test_integration_by_parts_random_exact():
    rng = np.random.default_rng(2)
    for _ in range(25):
        u = mf.random_polynomial(rng, 6)
        h = mf.random_polynomial(rng, 6)
        for n in range(1, 5):
            assert mf.integration_by_parts_residual(u, h, n) <= 1e-12


def test_assembly_shapes_and_positivity():
    for space, expected_rows in ((ZZ, 2), (ZF, 1),
                                 (mf.ConstraintSpace.line(0.3), 1),
                                 (mf.ConstraintSpace.full(), 0)):
        asm = mf.assemble_operator(2, space, 65)
        assert asm.constraints.shape == (expected_rows, 65)
        lam, modes = asm.eigensystem(65 - expected_rows)
        assert lam.shape == (65 - expected_rows,)
        assert modes.shape == (65, 65 - expected_rows)
        assert np.max(np.abs(asm.constraints @ modes), initial=0.0) <= 1e-12
        reduced = modes.T @ asm.apply(modes)
        smallest = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0]
        assert smallest > 0
        assert np.all(lam > 0)


def test_assembly_rejects_tiny_grids():
    with pytest.raises(ValueError):
        mf.assemble_operator(2, ZZ, 16)
    with pytest.raises(ValueError, match="index must be positive"):
        mf.assemble_operator(0, ZZ, 65)


def test_spectrum_reference_eigenvalue():
    asm = mf.assemble_operator(1, ZF, 513)
    lam = mf.spectrum(asm, 2)
    target = 4 * np.pi ** 2
    assert abs(lam[0] - target) / target < 1e-3
    # the slowest mode is twofold (sine and cosine of one period)
    assert abs(lam[1] - lam[0]) / target < 1e-3


def test_spectrum_positive_and_ordered_by_constraints():
    lam = {}
    for name, space in (("zz", ZZ), ("zf", ZF),
                        ("line", mf.ConstraintSpace.line(0.5)),
                        ("full", mf.ConstraintSpace.full())):
        values = mf.spectrum(mf.assemble_operator(3, space, 129), 4)
        assert np.all(values > 0)
        lam[name] = values[0]
    # smaller admissible spaces push the bottom of the spectrum up
    assert lam["zz"] >= lam["zf"] - 1e-9
    assert lam["zf"] >= lam["full"] - 1e-9
    assert lam["zz"] >= lam["line"] - 1e-9
    assert lam["line"] >= lam["full"] - 1e-9


KINDS = (ZZ, ZF, mf.ConstraintSpace.line(0.5), mf.ConstraintSpace.full())


@pytest.mark.parametrize("n_points", (65, 257))
@pytest.mark.parametrize("n", (1, 2, 3, 5))
@pytest.mark.parametrize("space", KINDS, ids=lambda s: s.kind)
def test_lanczos_spectrum_matches_the_dense_eigensystem(n_points, n, space):
    asm = mf.assemble_operator(n, space, n_points)
    dim = n_points - asm.constraints.shape[0]
    dense = asm.eigensystem(dim)[0]
    # k = 8 and (dim - 1) // 2 run Lanczos; (dim + 1) // 2 reaches 2k >= dim
    # and runs the dense eigh
    for k in (8, (dim - 1) // 2, (dim + 1) // 2):
        lam = mf.spectrum(asm, k)
        assert lam.shape == (k,)
        rel = np.abs(lam - dense[:k]) / dense[:k]
        assert np.max(rel[:8]) <= 1e-12
        # a mode high in the band is resolved to eps times the top of the
        # metric's spectrum, 1/lam_1, so its relative error grows with
        # lam_j / lam_1 in either method
        assert np.max(rel / (dense[:k] / dense[0])) <= 1e-12
    again = mf.spectrum(asm, 8)
    assert np.array_equal(again, mf.spectrum(asm, 8))
    if n == 1 and space.kind == "zero_free":
        # both members of the near-twofold pair at 4 pi^2 are found
        target = 4 * np.pi ** 2
        assert np.all(np.abs(again[:2] - target) / target < 2e-3)
        assert again[2] > 3 * target


def test_lanczos_spectrum_is_matrix_free_at_scale():
    asm = mf.assemble_operator(1, ZF, 4097)
    tracemalloc.start()
    try:
        lam = mf.spectrum(asm, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 4097 x 4097 float array alone would take 128 MiB
    assert peak < 8 * 2 ** 20
    target = 4 * np.pi ** 2
    assert abs(lam[0] - target) / target < 1e-5


def test_exponential_step_is_matrix_free_at_scale():
    asm = mf.assemble_operator(2, ZZ, 4097)
    u = standard_initial(2, ZZ, 4097)
    tracemalloc.start()
    try:
        out = mf.heat_step(asm, u, 1e-3, scheme="exponential")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 4097 x 4097 float array alone would take 128 MiB
    assert peak < 16 * 2 ** 20
    assert 0.0 < asm.metric_norm_sq(out.values) < asm.metric_norm_sq(u.values)


@pytest.mark.parametrize("n_points", (129, 513))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("space", KINDS, ids=lambda s: s.kind)
def test_truncated_exponential_matches_every_mode(n_points, n, space):
    asm = mf.assemble_operator(n, space, n_points)
    u0 = standard_initial(n, space, n_points)
    dt, steps = 1e-3, 10
    u = u0
    for _ in range(steps):
        u = mf.heat_step(asm, u, dt, scheme="exponential")
    lam, modes = asm.eigensystem(n_points - asm.constraints.shape[0])
    coeff = modes.T @ (asm.weights * u0.values)
    full = modes @ (np.exp(-lam * dt * steps) * coeff)
    assert np.max(np.abs(u.values - full)) <= 1e-10 * np.max(np.abs(full))


def test_heat_step_zero_fixed_point():
    asm = mf.assemble_operator(2, ZZ, 65)
    zero = GridFunction(np.zeros(65))
    for scheme in ("implicit_euler", "exponential"):
        out = mf.heat_step(asm, zero, 1e-2, scheme=scheme)
        assert np.max(np.abs(out.values)) < 1e-14


def test_heat_step_eigenvector_decay():
    asm = mf.assemble_operator(2, ZZ, 129)
    # dense modes, while the step itself keeps a few Lanczos modes
    lam, modes = asm.eigensystem(127)
    mode = GridFunction(modes[:, 1])
    dt = 5e-3
    out = mf.heat_step(asm, mode, dt, scheme="exponential")
    assert np.max(np.abs(out.values - np.exp(-lam[1] * dt) * mode.values)) < 1e-10


def test_heat_step_scheme_consistency_first_order():
    asm = mf.assemble_operator(2, ZZ, 129)
    u0 = standard_initial(2, ZZ, 129)

    def gap(dt, steps):
        a = b = u0
        for _ in range(steps):
            a = mf.heat_step(asm, a, dt)
            b = mf.heat_step(asm, b, dt, scheme="exponential")
        return asm.metric_norm_sq(a.values - b.values) ** 0.5

    ratio = gap(2e-3, 50) / gap(1e-3, 100)
    assert 1.5 < ratio < 2.5


def test_heat_step_conserves_moments():
    asm = mf.assemble_operator(2, ZZ, 129)
    state = standard_initial(2, ZZ, 129)
    for _ in range(100):
        state = mf.heat_step(asm, state, 1e-3)
    assert ZZ.violation(state, 2) < 1e-10


def test_heat_step_potential_scaling():
    asm = mf.assemble_operator(2, ZZ, 65)
    u0 = standard_initial(2, ZZ, 65)
    bare = mf.heat_step(asm, u0, 1e-2, eta=0.0)
    induced = mf.heat_step(asm, u0, 1e-2, eta=1.0)
    assert np.max(np.abs(bare.values - induced.values)) > 1e-8
    assert ZZ.violation(bare, 2) < 1e-10
    # without induced potential there is nothing to scale at n = 1
    asm1 = mf.assemble_operator(1, ZZ, 65)
    u1 = standard_initial(1, ZZ, 65)
    a = mf.heat_step(asm1, u1, 1e-2, eta=0.0)
    b = mf.heat_step(asm1, u1, 1e-2, eta=1.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_heat_step_rejects_bad_arguments():
    asm = mf.assemble_operator(2, ZZ, 65)
    u0 = standard_initial(2, ZZ, 65)
    with pytest.raises(ValueError):
        mf.heat_step(asm, u0, 0.0)
    # unchecked, a non-finite step fails later as "grid values must be finite"
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            mf.heat_step(asm, u0, dt)
    with pytest.raises(ValueError):
        mf.heat_step(asm, u0, 1e-2, scheme="exponential", eta=0.5)
    with pytest.raises(ValueError):
        mf.heat_step(asm, u0, 1e-2, scheme="leapfrog")


def test_strong_apply_zero_and_bare_laplacian():
    zero = GridFunction(np.zeros(65))
    out = mf.strong_apply(zero, 2, ZZ)
    assert np.max(np.abs(out.regular.values)) == 0.0 and out.atom == 0.0
    rng = np.random.default_rng(4)
    u = project_admissible(mf.poly_to_grid(mf.random_polynomial(rng, 5), 65), 1, ZZ)
    image = mf.strong_apply(u, 1, ZZ)
    expected = -mf.second_derivative(u).values
    assert np.max(np.abs(image.regular.values - expected)) < 1e-12


def test_strong_apply_matches_induced_potential_form():
    rng = np.random.default_rng(5)
    u = project_admissible(mf.poly_to_grid(mf.random_polynomial(rng, 5), 129), 2, ZZ)
    image = mf.strong_apply(u, 2, ZZ)
    gamma = mf.potential_coefficient(u, 2)
    expected = -mf.second_derivative(u).values + gamma
    assert np.max(np.abs(image.regular.values - expected)) < 1e-12
    # with vanishing mass the coefficient collapses to 3 u(0)
    assert abs(gamma - 3.0 * u.values[0]) < 1e-10
    assert mf.total_mass(image) == pytest.approx(0.0, abs=1e-15)


def test_strong_apply_rejects_inadmissible():
    ones = GridFunction(np.ones(65))
    with pytest.raises(ValueError):
        mf.strong_apply(ones, 2, ZZ)


def test_weak_strong_consistency_order():
    rng = np.random.default_rng(6)
    # line and full carry a point mass in the strong image
    for space in (ZZ, ZF, mf.ConstraintSpace.line(0.5), mf.ConstraintSpace.full()):
        u = admissible_poly(rng, 2, space)
        tests = [admissible_poly(rng, 2, space) for _ in range(4)]
        errs = [weak_strong_residual(u, tests, 2, space, pts)
                for pts in (65, 129, 257)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8)


def test_regularity_residuals_zero_state():
    zero = GridFunction(np.zeros(65))
    r0, rn = mf.regularity_residuals(zero, 2)
    assert r0 == 0.0 and rn == 0.0


def test_regularity_residuals_shrink_for_flow_states():
    totals = []
    for pts in (129, 257):
        asm = mf.assemble_operator(2, ZZ, pts)
        state = mf.heat_step(asm, standard_initial(2, ZZ, pts), 0.1,
                             scheme="exponential")
        r0, rn = mf.regularity_residuals(state, 2)
        totals.append(abs(r0) + abs(rn))
    assert totals[1] < totals[0] / 3.0


def test_regularity_residuals_periodic_family():
    # one period of cosine: derivative matches at the ends, so the mass of
    # the second derivative vanishes at the discretization order
    x = mf.grid_points(257)
    u = GridFunction(np.cos(2 * np.pi * x))
    r0, _ = mf.regularity_residuals(u, 1)
    assert abs(r0) < 1e-3


def test_atom_consistency_for_line_flow():
    for space in (mf.ConstraintSpace.line(0.5), mf.ConstraintSpace.full()):
        residuals = []
        for pts in (129, 257):
            asm = mf.assemble_operator(2, space, pts)
            state = project_admissible(standard_initial(2, ZZ, pts), 2, space)
            dt = 1e-3
            for _ in range(500):
                state = mf.heat_step(asm, state, dt)
            mid = mf.heat_step(asm, state, dt)
            after = mf.heat_step(asm, mid, dt)
            residuals.append(atom_consistency_residual(state, mid, after, dt, 2,
                                                       space))
        assert residuals[0] < 5e-3
        assert residuals[1] < residuals[0]
    with pytest.raises(ValueError):
        atom_consistency_residual(state, mid, after, dt, 2, ZZ)


def test_endpoint_values_paths():
    p = Polynomial((1, 2))
    assert endpoint_values(p) == (1, 3)
    g = GridFunction(np.array([4.0, 0.0, 0.0, 0.0, 7.0]))
    assert endpoint_values(g) == (4.0, 7.0)
