import numpy as np
import pytest
from fractions import Fraction

import momentflow as mf
from momentflow.dual import DualElement, as_dual
from momentflow.grid import GridFunction, Polynomial


def test_total_mass_examples():
    assert mf.total_mass(DualElement(Polynomial(), 1)) == 1
    assert mf.total_mass(DualElement(Polynomial.constant(2), -2)) == 0
    assert mf.total_mass(DualElement(Polynomial((-2, 6)), 0)) == 1


def test_zero_mass_embed():
    zero = mf.zero_mass_embed(Polynomial())
    assert zero.atom == 0
    two = mf.zero_mass_embed(Polynomial.constant(2))
    assert two.atom == -2
    assert mf.total_mass(two) == 0


def test_zero_mass_embed_invisible_to_centered_primitive():
    # the attached atom never changes the density's centered primitive,
    # so pairings against embedded and raw data agree up to the mass term
    g = Polynomial((1, -3, 2))
    h = Polynomial((0, 1, 1))
    for n in (1, 2, 3):
        lhs = mf.dual_inner(mf.zero_mass_embed(g), as_dual(h), n)
        raw = mf.dual_inner(as_dual(g), as_dual(h), n)
        assert lhs - raw == -mf.moment(g, 0) * mf.moment(h, 0)


def test_dual_inner_examples():
    atom = DualElement(Polynomial(), 1)
    for n in (1, 2, 4):
        assert mf.dual_inner(atom, atom, n) == 1
    ones = DualElement(Polynomial.constant(1), 0)
    assert mf.dual_inner(ones, ones, 1) == Fraction(13, 12)
    zero = DualElement(Polynomial(), 0)
    assert mf.dual_inner(zero, zero, 3) == 0


def test_dual_inner_symmetric_bilinear_positive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = as_dual(mf.random_polynomial(rng, 5))
        v = as_dual(mf.random_polynomial(rng, 5))
        w = as_dual(mf.random_polynomial(rng, 5))
        for n in (1, 3):
            assert mf.dual_inner(u, v, n) == mf.dual_inner(v, u, n)
            combo = DualElement(2 * u.regular + 3 * v.regular, 0)
            lhs = mf.dual_inner(combo, w, n)
            rhs = 2 * mf.dual_inner(u, w, n) + 3 * mf.dual_inner(v, w, n)
            assert lhs == rhs
            assert mf.dual_inner(u, u, n) > 0


def test_dual_inner_rejects_mixed_kinds():
    # grid values pair through OperatorAssembly.apply, not dual_inner
    ones = GridFunction(np.ones(17))
    with pytest.raises(TypeError):
        mf.dual_inner(as_dual(Polynomial.constant(1)), as_dual(ones), 1)
    with pytest.raises(TypeError):
        mf.dual_inner(as_dual(ones), as_dual(ones), 1)
    with pytest.raises(TypeError):
        embedded = mf.zero_mass_embed(ones)
        mf.dual_inner(embedded, embedded, 2)
    with pytest.raises(TypeError):
        mf.integration_by_parts_residual(ones, ones, 2)
    with pytest.raises(TypeError):
        mf.integration_by_parts_residual(Polynomial.constant(1), ones, 2)
    for op in (mf.primitive, lambda g: mf.centered_primitive(g, 1),
               lambda g: mf.centered_tail_integral(g, 1)):
        with pytest.raises(TypeError):
            op(ones)


def test_dual_norms_vanish_together():
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = mf.zero_mass_embed(mf.random_polynomial(rng, 6))
        for n, m in ((1, 3), (2, 5)):
            a, b = mf.dual_inner(u, u, n), mf.dual_inner(u, u, m)
            assert (a == 0) == (b == 0)


def test_interpolation_ratio_stable_under_refinement():
    vals = []
    for n_pts in (257, 514):
        g = GridFunction(np.ones(n_pts))
        l2 = mf.quadrature(GridFunction(g.values ** 2)) ** 0.5
        asm = mf.assemble_operator(1, mf.ConstraintSpace.full(), n_pts)
        dual = asm.metric_norm_sq(g.values) ** 0.5
        vals.append(mf.moment(g, 1) ** 2 / (l2 * dual))
    assert abs(vals[0] - vals[1]) / vals[0] < 0.1


def test_constraint_space_rows_and_rank():
    n_pts = 33
    assert mf.ConstraintSpace.zero_zero().constraint_rows(2, n_pts).shape == (2, n_pts)
    assert mf.ConstraintSpace.zero_free().constraint_rows(2, n_pts).shape == (1, n_pts)
    assert mf.ConstraintSpace.line(0.5).constraint_rows(2, n_pts).shape == (1, n_pts)
    assert mf.ConstraintSpace.full().constraint_rows(2, n_pts).shape == (0, n_pts)
    rows = mf.ConstraintSpace.zero_zero().constraint_rows(2, n_pts)
    assert np.linalg.matrix_rank(rows) == 2


def test_constraint_space_validation():
    with pytest.raises(ValueError):
        mf.ConstraintSpace("diagonal")
    with pytest.raises(ValueError):
        mf.ConstraintSpace("line")
    with pytest.raises(ValueError):
        mf.ConstraintSpace("zero_zero", slope=1.0)
    assert mf.ConstraintSpace.zero_free().forces_zero_mass


def test_constraint_violation():
    ones = GridFunction(np.ones(33))
    assert mf.ConstraintSpace.zero_zero().violation(ones, 2) == pytest.approx(1.0)
    assert mf.ConstraintSpace.full().violation(ones, 2) == 0.0
