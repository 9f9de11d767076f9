"""The structured metric against its dense definition.

The oracle below is the dense construction the structured form replaced:
the running trapezoid integral as an explicit matrix, centered by mu_n, and
the Gram matrix C^T W C + m0 m0^T formed by matrix products.
"""

import numpy as np
import pytest

import momentflow as mf
from momentflow.flow import FlowConfig, run_flow, run_linear_flow
from momentflow.heat import _potential_metric_rep, _potential_row
from momentflow.moments import moment_weight_row

from conftest import standard_initial

SPACES = (mf.ConstraintSpace.zero_zero(), mf.ConstraintSpace.zero_free(),
          mf.ConstraintSpace.line(0.5), mf.ConstraintSpace.full())


def dense_metric(n: int, n_points: int) -> np.ndarray:
    h = 1.0 / (n_points - 1)
    cmat = h * np.tril(np.ones((n_points, n_points)), -1)
    cmat[:, 0] *= 0.5
    cmat += (h / 2.0) * np.eye(n_points)
    cmat[0, :] = 0.0
    centered = cmat - np.outer(np.ones(n_points), moment_weight_row(n, n_points))
    w = mf.trapezoid_weights(n_points)
    m0 = moment_weight_row(0, n_points)
    return centered.T @ (w[:, None] * centered) + np.outer(m0, m0)


def max_rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n_points", (17, 33, 257))
@pytest.mark.parametrize("n", (1, 2, 3, 5))
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_apply_and_norm_match_dense_oracle(n_points, n, space):
    asm = mf.assemble_operator(n, space, n_points)
    dense = dense_metric(n, n_points)
    rng = np.random.default_rng(n_points + n)
    v = rng.standard_normal(n_points)
    assert max_rel(asm.apply(v), dense @ v) <= 1e-13
    block = rng.standard_normal((n_points, 3))
    assert max_rel(asm.apply(block), dense @ block) <= 1e-13
    assert asm.metric_norm_sq(v) == pytest.approx(float(v @ dense @ v), rel=1e-13)
    assert max_rel(asm.apply(np.eye(asm.n_points)), dense) <= 1e-13


def assert_modes_diagonalize_the_dense_metric(asm, lam, modes):
    gram = modes.T @ (asm.weights[:, None] * modes)
    assert np.max(np.abs(gram - np.eye(lam.size))) <= 1e-12
    metric = modes.T @ dense_metric(asm.n, asm.n_points) @ modes
    assert max_rel(metric, np.diag(1.0 / lam)) <= 1e-10


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_eigenbasis_diagonalizes_the_dense_metric(n, space):
    # n = 1 is left out: there the alternating grid vector is admissible
    # and has metric norm 0, so the dense metric is only semidefinite
    asm = mf.assemble_operator(n, space, 65)
    lam, modes = asm.eigensystem(65 - asm.constraints.shape[0])
    assert_modes_diagonalize_the_dense_metric(asm, lam, modes)


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_lanczos_modes_diagonalize_the_dense_metric(n, space):
    asm = mf.assemble_operator(n, space, 257)
    lam, modes = asm.eigensystem(8)
    assert modes.shape == (257, 8)
    assert_modes_diagonalize_the_dense_metric(asm, lam, modes)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
@pytest.mark.parametrize("n_points", (17, 65))
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_checkerboard_has_positive_metric_norm_at_n1(n_points, space):
    # the trapezoid primitive of (-1)^i vanishes at every node, so at n = 1
    # the checkerboard is admissible and the metric cannot see it
    asm = mf.assemble_operator(1, space, n_points)
    checker = (-1.0) ** np.arange(n_points)
    assert asm.metric_norm_sq(checker) > 0


def dense_kkt_solution(asm, dt, d, r, t, coupling=None):
    n_pts, rows = asm.n_points, asm.constraints
    n_con = rows.shape[0]
    system = dense_metric(asm.n, n_pts) / dt + np.diag(d)
    if coupling is not None:
        system += np.outer(*coupling)
    kkt = np.zeros((n_pts + n_con, n_pts + n_con))
    kkt[:n_pts, :n_pts] = system
    kkt[:n_pts, n_pts:] = rows.T
    kkt[n_pts:, :n_pts] = rows
    return np.linalg.solve(kkt, np.concatenate([r, t]))[:n_pts]


def curvature_cases(asm):
    """Random positive curvature, and p = 4 curvature 3 w f^2 of a state
    with nodal zeros (f vanishes exactly on two grid points)."""
    rng = np.random.default_rng(3)
    x = mf.grid_points(asm.n_points)
    f = np.cos(3.0 * np.pi * x)
    f[[asm.n_points // 6, asm.n_points // 2]] = 0.0
    return {"random": asm.weights * rng.uniform(0.1, 3.0, asm.n_points),
            "p4_nodal_zeros": 3.0 * asm.weights * f ** 2}


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
@pytest.mark.parametrize("n_points", (65, 257))
def test_factor_solve_matches_dense_kkt(space, n_points):
    asm = mf.assemble_operator(2, space, n_points)
    rng = np.random.default_rng(n_points)
    n_con = asm.constraints.shape[0]
    dt = 1e-3
    for d in curvature_cases(asm).values():
        r = rng.standard_normal(n_points)
        t = 1e-3 * rng.standard_normal(n_con)
        expected = dense_kkt_solution(asm, dt, d, r, t)
        assert max_rel(asm.factor(dt, d).solve(r, t), expected) <= 1e-10


@pytest.mark.parametrize("n_points", (65, 257))
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_coupled_heat_step_matches_dense_kkt(space, n_points):
    # eta != 1 adds the rank-one term (eta - 1) c g^T to the step's
    # generator; heat_step solves it on the eta = 1 factors by
    # Sherman-Morrison, the oracle adds it to the dense system
    for n in (1, 2, 3, 5):
        asm = mf.assemble_operator(n, space, n_points)
        u = standard_initial(n, space, n_points)
        rep = _potential_metric_rep(n, n_points)
        row = _potential_row(n, n_points)
        t = np.zeros(asm.constraints.shape[0])
        for dt in (1e-3, 1e-2):
            r = asm.apply(u.values) / dt
            for eta in (0.0, 0.5, 2.0):
                expected = dense_kkt_solution(asm, dt, asm.weights, r, t,
                                              ((eta - 1.0) * rep, row))
                got = mf.heat_step(asm, u, dt, eta=eta).values
                assert max_rel(got, expected) <= 1e-10


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_factor_reuses_its_template_bitwise(n, space):
    # factor keeps the d-free part of its band for the assembly's current
    # dt and copies it before each in-place LU; whatever was factored
    # before on the same assembly, every solve equals the one on a freshly
    # assembled operator bit for bit, also after a change of dt dropped
    # the template and heat_step's factors, Sherman-Morrison pair and modes
    n_points, dt = 65, 1e-3
    asm = mf.assemble_operator(n, space, n_points)
    rng = np.random.default_rng(n)
    d1 = asm.weights * rng.uniform(0.1, 3.0, n_points)
    d2 = 50.0 * asm.weights * rng.uniform(0.1, 3.0, n_points)
    r = rng.standard_normal(n_points)
    t = 1e-3 * rng.standard_normal(asm.constraints.shape[0])
    u = standard_initial(n, space, n_points)

    def fresh_solve(step, d):
        return mf.assemble_operator(n, space, n_points).factor(step, d).solve(r, t)

    def check_heat_step(**kwargs):
        got = mf.heat_step(asm, u, dt, **kwargs).values
        fresh = mf.heat_step(mf.assemble_operator(n, space, n_points), u, dt,
                             **kwargs).values
        assert got.tobytes() == fresh.tobytes()

    for step, d in ((dt, d1), (dt, d2), (dt / 2, d2), (dt, d1)):
        got = asm.factor(step, d).solve(r, t)
        assert got.tobytes() == fresh_solve(step, d).tobytes()
    for kwargs in ({"eta": 0.5}, {"eta": 1.0}, {"scheme": "exponential"}):
        check_heat_step(**kwargs)
    assert asm.factor(dt / 2, d2).solve(r, t).tobytes() == \
        fresh_solve(dt / 2, d2).tobytes()
    for kwargs in ({"scheme": "exponential"}, {"eta": 0.5}):
        check_heat_step(**kwargs)
    assert asm.factor(dt, d2).solve(r, t).tobytes() == fresh_solve(dt, d2).tobytes()


def test_dense_metric_is_built_only_on_request():
    space = mf.ConstraintSpace.zero_zero()
    asm = mf.assemble_operator(2, space, 129)
    u0 = standard_initial(2, space, 129)
    run_flow(u0, FlowConfig(p=4.0, dt=1e-3, t_final=0.01), asm)
    linear = FlowConfig(p=2.0, dt=1e-3, t_final=0.01)
    run_linear_flow(u0, linear, asm, eta=0.5)
    run_linear_flow(u0, linear, asm, scheme="exponential")
    asm.eigensystem(8)
    asm.eigensystem(127)
    assert max_rel(asm.apply(np.eye(asm.n_points)), dense_metric(2, 129)) <= 1e-13

