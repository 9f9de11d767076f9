import subprocess
import sys

import numpy as np
import pytest
from fractions import Fraction

import momentflow as mf
import momentflow.flow as flow_module
from momentflow.cli import initial_state, resolve_manifest
from momentflow.flow import (
    FlowConfig,
    FlowRecord,
    decay_inequality_check,
    fit_decay,
    metric_distance,
    nonlinear_strong_form_gap,
    run_linear_flow,
)
from momentflow.errors import NumericalError
from momentflow.grid import GridFunction, Polynomial

from conftest import KINDS, ZZ, standard_initial


def small_config(p, dt=1e-3, t_final=0.05):
    return FlowConfig(p=p, dt=dt, t_final=t_final)


def zz_assembly(n_points=65):
    return mf.assemble_operator(2, ZZ, n_points)


def test_flow_config_validation():
    # n and the grid size belong to the assembly, which checks them
    with pytest.raises(ValueError):
        small_config(1.0)
    with pytest.raises(ValueError):
        small_config(0.5)
    with pytest.raises(ValueError):
        small_config(2.0, dt=-1.0)
    with pytest.raises(ValueError):
        small_config(2.0, t_final=0.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["p", "dt", "t_final"])
def test_flow_config_rejects_non_finite_numbers(name, value):
    # unchecked, p=inf runs 60 NaN Newton iterations before failing,
    # t_final=inf overflows the step count and a NaN fails a float-to-int cast
    numbers = {"p": 3.0, "dt": 1e-3, "t_final": 1e-2, name: value}
    with pytest.raises(ValueError, match="must be finite"):
        FlowConfig(**numbers)


def test_flow_config_takes_a_whole_number_of_steps():
    # rounded to a step count, 0.4 / 1.0 would run no step and 1.0 / 0.3
    # would stop at t = 0.9
    for dt, t_final in ((1.0, 0.4), (0.3, 1.0)):
        with pytest.raises(ValueError, match="whole number"):
            small_config(2.0, dt=dt, t_final=t_final)
    # 0.3 / 0.1 is 2.9999999999999996 in floats: three steps
    result = run_linear_flow(standard_initial(2, ZZ, 33),
                             small_config(2.0, dt=0.1, t_final=0.3),
                             mf.assemble_operator(2, ZZ, 33))
    assert len(result.records) == 4


def test_energy_examples():
    zero = GridFunction(np.zeros(65))
    assert mf.energy(zero, 3.0) == 0.0
    ones = GridFunction(np.ones(65))
    assert mf.energy(ones, 2.0) == pytest.approx(0.5, abs=1e-14)
    g = mf.poly_to_grid(Polynomial((-2, 6)), 513)
    assert mf.energy(g, 2.0) == pytest.approx(2.0, abs=1e-4)


def test_energy_gradient_identity_and_power():
    g = GridFunction(np.linspace(-1.0, 2.0, 65))
    assert np.array_equal(mf.energy_gradient(g, 2.0).values, g.values)
    twos = GridFunction(np.full(65, 2.0))
    assert np.allclose(mf.energy_gradient(twos, 4.0).values, 8.0)


def test_energy_gradient_is_exact_at_a_zero_node_for_p_below_2():
    # eps_reg = 0 is the exact density sign(f) |f|^(p-1), which is 0 where
    # f is; |f|^(p-2) f would be inf * 0 there
    values = np.linspace(-1.0, 1.0, 65)
    out = mf.energy_gradient(GridFunction(values), 1.5).values
    assert np.all(np.isfinite(out))
    assert out[32] == 0.0
    others = np.arange(65) != 32
    assert np.allclose(out[others],
                       np.sign(values[others]) * np.abs(values[others]) ** 0.5,
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_energy_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(9)
    vals = None
    while vals is None or np.min(np.abs(vals)) < 1e-2:
        vals = mf.poly_to_grid(mf.random_polynomial(rng, 5), 65).values / 5.0
    f = GridFunction(vals)
    h = GridFunction(mf.poly_to_grid(mf.random_polynomial(rng, 4), 65).values / 5.0)
    grad = mf.energy_gradient(f, p, eps_reg=1e-8)
    w = mf.trapezoid_weights(65)
    pairing = float(w @ (grad.values * h.values))
    delta = 1e-6
    fd = (mf.energy(GridFunction(f.values + delta * h.values), p)
          - mf.energy(GridFunction(f.values - delta * h.values), p)) / (2 * delta)
    assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))


def test_prox_step_zero_fixed_point():
    cfg = small_config(3.0)
    asm = zz_assembly()
    zero = GridFunction(np.zeros(asm.n_points))
    out = mf.prox_step(zero, cfg, asm)
    assert np.max(np.abs(out.values)) < 1e-12


def test_prox_step_p2_matches_linear_solver():
    cfg = small_config(2.0)
    asm = zz_assembly(129)
    state_lin = state_prox = standard_initial(2, ZZ, 129)
    for _ in range(20):
        state_lin = mf.heat_step(asm, state_lin, cfg.dt)
        state_prox = mf.prox_step(state_prox, cfg, asm, warm=state_prox)
        assert np.max(np.abs(state_lin.values - state_prox.values)) < 1e-10


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_prox_step_descends_energy(p):
    cfg = small_config(p)
    asm = zz_assembly()
    rng = np.random.default_rng(10)
    for _ in range(100):
        poly = mf.random_polynomial(rng, 8)
        scale = float(rng.uniform(0.1, 3.0))
        u = mf.project_admissible(
            GridFunction(scale * mf.poly_to_grid(poly, asm.n_points).values),
            2, ZZ)
        out = mf.prox_step(u, cfg, asm)
        assert mf.energy(out, p) <= mf.energy(u, p) + 1e-12


def test_p11_stall_configuration_completes():
    # fast-diffusion run whose proximal solve once stalled at the noise
    # floor (Newton residual a few times PROX_TOL, under the old stall rule
    # on that residual) and failed even after a single half-step retry:
    # N = 33, seed 0, p = 1.1, n = 2, zero_free
    space = mf.ConstraintSpace.zero_free()
    cfg = FlowConfig(p=1.1, dt=1e-3, t_final=0.01)
    result = mf.run_flow(standard_initial(2, space, 33, seed=0), cfg,
                         mf.assemble_operator(2, space, 33))
    assert len(result.records) == 11
    assert max(abs(r.mu0) for r in result.records) <= 1e-8
    norms = np.sqrt([r.hy_norm_sq for r in result.records])
    assert np.all(np.diff(norms) <= 1e-8)


def test_p105_full_run_completes_where_the_residual_stalled():
    # the infinity-norm residual of this fast-diffusion run stalls at 2.5e-3
    # while its objective still falls; a stall rule on the residual failed
    # it even after halving the step down to dt / 8.  `full` prescribes no
    # moment, so descent is what is checked
    manifest = resolve_manifest({
        "kind": "nonlinear_flow", "seed": 1, "p": 1.05, "n": 3,
        "y": {"kind": "full"}, "n_points": 513, "dt": 1e-3, "t_final": 0.01,
        "initial": {"preset": "random", "degree": 6}})
    cfg = FlowConfig(p=1.05, dt=1e-3, t_final=0.01)
    asm = mf.assemble_operator(3, mf.ConstraintSpace.full(), 513)
    result = mf.run_flow(initial_state(manifest), cfg, asm)
    assert len(result.records) == 11
    norms = np.sqrt([r.hy_norm_sq for r in result.records])
    assert np.all(np.diff(norms) <= 1e-8)
    energies = np.array([r.lp_energy for r in result.records])
    assert np.all(np.diff(energies) <= 1e-12)


def fast_diffusion_manifest(p, n_points, dt, t_final, seed):
    return resolve_manifest({
        "kind": "nonlinear_flow", "seed": seed, "p": p, "n": 2,
        "y": {"kind": "zero_zero"}, "n_points": n_points, "dt": dt,
        "t_final": t_final, "initial": {"preset": "random", "degree": 6}})


def test_fast_diffusion_newton_work_is_flat_in_n(monkeypatch):
    # the density (f^2 + eps^2)^(p/2) / p is nearly non-smooth at its
    # zeros; Newton linearized in f alone overshoots there and takes more
    # iterations as the grid resolves the zeros more sharply (1.32x and
    # 1.75x from N = 257 to 4097, 36.7 per step at p = 1.01, N = 4097)
    factored = []
    real_factor = mf.OperatorAssembly.factor

    def counting_factor(self, dt, d):
        factored.append(1)
        return real_factor(self, dt, d)

    monkeypatch.setattr(mf.OperatorAssembly, "factor", counting_factor)
    steps = 20
    per_step = {}
    for p in (1.01, 1.5):
        for n_points in (257, 4097):
            manifest = fast_diffusion_manifest(p, n_points, 1e-3, steps * 1e-3, 3)
            factored.clear()
            mf.run_flow(initial_state(manifest), FlowConfig(p, 1e-3, steps * 1e-3),
                        mf.assemble_operator(2, ZZ, n_points))
            per_step[p, n_points] = len(factored) / steps
    for p in (1.01, 1.5):
        assert per_step[p, 4097] <= 1.25 * per_step[p, 257], per_step
    assert per_step[1.01, 4097] <= 16.0, per_step


def test_p102_large_step_needs_no_continuation():
    # the one solve at EPS_REG converges on every step; linearized in f
    # alone it stalled here and needed a relaxed-smoothing continuation
    manifest = fast_diffusion_manifest(1.02, 257, 1e-2, 5e-2, 0)
    result = mf.run_flow(initial_state(manifest), FlowConfig(1.02, 1e-2, 5e-2),
                         mf.assemble_operator(2, ZZ, 257))
    assert len(result.records) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_p102_runs_complete_in_every_kind(n):
    # p = 1.02 is where the direct solve once needed the continuation most
    cfg = FlowConfig(1.02, 1e-2, 5e-2)
    for space in KINDS:
        asm = mf.assemble_operator(n, space, 129)
        for seed in (0, 1):
            for amplitude in (1.0, 10.0):
                u0 = standard_initial(n, space, 129, seed=seed, scale=amplitude)
                result = mf.run_flow(u0, cfg, asm, store_states=True)
                drift = np.max(np.abs(result.states @ asm.constraints.T),
                               initial=0.0)
                assert drift <= 1e-8 * amplitude, (space.kind, seed, amplitude)


def test_newton_prox_fails_fast_when_no_step_helps(monkeypatch):
    # a line search that never moves leaves the objective where it was, so
    # the solve gives up on its sixth iteration, not after the whole budget
    cfg = small_config(1.5)
    asm = zz_assembly(33)
    u = standard_initial(2, ZZ, 33)
    iterations, factorizations = [], []
    real_density = flow_module._density_terms
    real_factor = type(asm).factor

    def counting_density(values, p, eps):
        iterations.append(eps)
        return real_density(values, p, eps)

    def counting_factor(self, dt, d):
        factorizations.append(dt)
        return real_factor(self, dt, d)

    monkeypatch.setattr(flow_module, "_density_terms", counting_density)
    monkeypatch.setattr(type(asm), "factor", counting_factor)
    monkeypatch.setattr(flow_module, "_step_scale", lambda slope, g0: 0.0)
    with pytest.raises(NumericalError, match="stalled"):
        mf.prox_step(u, cfg, asm)
    assert len(iterations) == 6
    assert len(factorizations) == 5


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_failed_solve_is_one_newton_call(monkeypatch, p):
    # no continuation and no shorter step is tried: the one direct solve,
    # at EPS_REG and the full dt, is the whole step
    cfg = small_config(p)
    asm = zz_assembly(33)
    u = standard_initial(2, ZZ, 33)
    smoothings, factorizations = [], []
    real_density = flow_module._density_terms

    def counting_density(values, p_, eps):
        smoothings.append(eps)
        return real_density(values, p_, eps)

    def refuse(self, dt, d):
        factorizations.append(dt)
        raise np.linalg.LinAlgError("refused")

    monkeypatch.setattr(flow_module, "_density_terms", counting_density)
    monkeypatch.setattr(type(asm), "factor", refuse)
    with pytest.raises(NumericalError, match="refused"):
        mf.prox_step(u, cfg, asm)
    assert smoothings == [flow_module.EPS_REG]
    assert factorizations == [cfg.dt]


def damping_trace(monkeypatch, p, scales, log=None):
    """(d, curvature) of every factorization of one proximal solve whose
    line search returns ``scales`` in turn, then full steps; and w.  A
    ``log`` list receives (f, density gradient, Newton step) for each."""
    asm = zz_assembly(65)
    u = standard_initial(2, ZZ, 65, scale=10.0)
    curvatures, factored, iterates = [], [], []
    real_density = flow_module._density_terms
    real_factor = type(asm).factor

    def recording_density(values, p_, eps):
        terms = real_density(values, p_, eps)
        curvatures.append(terms[2])
        iterates.append((values, terms[1]))
        return terms

    def recording_factor(self, dt, d):
        factored.append((d, curvatures[-1]))
        kkt = real_factor(self, dt, d)
        if log is None:
            return kkt
        real_solve = kkt.solve

        def recording_solve(r, t):
            step = real_solve(r, t)
            log.append((*iterates[-1], step))
            return step

        kkt.solve = recording_solve
        return kkt

    queue = list(scales)
    monkeypatch.setattr(flow_module, "_density_terms", recording_density)
    monkeypatch.setattr(type(asm), "factor", recording_factor)
    monkeypatch.setattr(flow_module, "_step_scale",
                        lambda slope, g0: queue.pop(0) if queue else 1.0)
    # a zero tolerance runs the solve until it stalls or exhausts its budget
    monkeypatch.setattr(flow_module, "PROX_TOL", 0.0)
    with pytest.raises(NumericalError):
        mf.prox_step(u, FlowConfig(p, 1e-3, 1e-3), asm)
    return factored, asm.weights


def test_damping_rises_after_short_steps_and_falls_after_full_ones(monkeypatch):
    short = [0.1, 0.2, 0.1]
    factored, w = damping_trace(monkeypatch, 4.0, short)
    assert len(factored) > 20
    # replay the rule on the recorded curvatures: mu grows after a scale
    # below 1/4, shrinks by 4 after a full step, and is 0 below 1e-12 c
    mu = 0.0
    damped = []
    for i, (d, curvature) in enumerate(factored):
        assert np.array_equal(d, w * (curvature + mu))
        damped.append(mu)
        c = float(np.max(curvature))
        if i < len(short):
            mu = max(4.0 * mu, 1e-6 * c)
        elif mu:
            mu /= 4.0
            if mu < 1e-12 * c:
                mu = 0.0
    assert damped[0] == 0.0
    assert 0.0 < damped[1] < damped[2] < damped[3]
    assert all(np.all(d > w * c) for d, c in factored[1:len(short) + 1])
    assert all(b < a for a, b in zip(damped[3:], damped[4:]) if b)
    # the damping switches off again: the factored diagonal is w * curvature
    off = damped.index(0.0, 1)
    assert all(np.array_equal(d, w * c) for d, c in factored[off:])


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_no_damping_at_p_up_to_2(monkeypatch, p):
    log = []
    factored, w = damping_trace(monkeypatch, p, [0.1] * 10, log)
    if p == 2.0:
        assert all(np.array_equal(d, w * c) for d, c in factored)
        return
    # p < 2: the first factorization is the density's own curvature; later
    # ones replay the primal-dual rule, phi = rho'(f) + c * step after every
    # step whatever its scale, and no damping term ever enters
    assert len(factored) == len(log) > 10
    assert np.array_equal(factored[0][0], w * factored[0][1])
    eps = flow_module.EPS_REG
    dual = None
    for (d, curvature), (f, density_grad, step) in zip(factored, log):
        c = curvature
        if dual is not None:
            s = f ** 2 + eps ** 2
            power = s ** ((p - 2.0) / 2.0)
            c = power * np.maximum(1.0 - (2.0 - p) * f * dual / (s * power),
                                   p - 1.0)
        assert np.array_equal(d, w * c)
        assert np.all(c > 0.0)
        dual = density_grad + c * step
    # the short steps leave phi behind f, so the rule is not the density's
    assert any(not np.array_equal(d, w * c) for d, c in factored[1:])


@pytest.mark.parametrize("n_points", [257, 513])
@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
def test_large_amplitude_porous_run_completes(p, dt, n_points):
    # at amplitude 10 the curvature (p-1)|f|^(p-2) spans many orders of
    # magnitude across the sign changes of f, where an undamped Newton
    # step spikes and the line search cuts it short
    cfg = FlowConfig(p=p, dt=dt, t_final=5 * dt)
    result = mf.run_flow(standard_initial(2, ZZ, n_points, seed=7, scale=10.0),
                         cfg, mf.assemble_operator(2, ZZ, n_points))
    assert len(result.records) == 6
    assert ZZ.violation(result.final, 2) <= 1e-8
    norms = np.sqrt([r.hy_norm_sq for r in result.records])
    assert np.all(np.diff(norms) <= 1e-8 * norms[0])


def test_p6_first_step_completes_at_n32769():
    # the vanishing curvature at the sign changes of f grows more
    # pronounced with N; without damping 60 Newton iterations do not
    # converge here
    asm = mf.assemble_operator(2, ZZ, 32769)
    u = standard_initial(2, ZZ, 32769)
    out = mf.prox_step(u, FlowConfig(p=6.0, dt=1e-3, t_final=1e-3), asm)
    assert ZZ.violation(out, 2) <= 1e-10
    assert asm.metric_norm_sq(out.values) < asm.metric_norm_sq(u.values)


def density_slope(p, values, direction, root, rate=0.0, eps=1e-8):
    """Nondecreasing slope with its zero at ``root``, shaped like the
    Newton line search's: the density gradient along a direction plus an
    affine metric part, with every evaluation logged."""
    w = mf.trapezoid_weights(values.size)

    def density_part(s):
        trial = values + s * direction
        return float((w * flow_module._density_gradient(trial, p, eps)) @ direction)

    offset = density_part(root)
    calls = []

    def slope(s):
        g = density_part(s) - offset + rate * (s - root)
        calls.append((s, g))
        return g

    return slope, calls


def slope_cases():
    rng = np.random.default_rng(11)
    for p in (1.05, 1.1, 1.5, 4.0):
        for root in (1e-9, 0.37, 1.0 - 1e-9):
            for rate in (0.0, 3.0):
                values = rng.standard_normal(33)
                direction = rng.standard_normal(33)
                yield f"p{p}-root{root}-rate{rate}", p, values, direction, root, rate
        # every node crosses zero at the root: for p = 4 the slope is a
        # cubic there, flat to third order; for p < 2 it is steepest there
        for root in (0.2, 0.9):
            direction = rng.standard_normal(33)
            yield f"p{p}-crossing{root}", p, -root * direction, direction, root, 0.0


@pytest.mark.parametrize("case", list(slope_cases()), ids=lambda c: c[0])
def test_step_scale_finds_the_slope_root(case):
    _, p, values, direction, root, rate = case
    slope, calls = density_slope(p, values, direction, root, rate)
    g0 = slope(0.0)
    calls.clear()
    scale = flow_module._step_scale(slope, g0)
    assert 0.0 <= scale <= 1.0
    assert len(calls) <= flow_module._SLOPE_MAX_EVALS
    g = slope(scale)
    assert abs(scale - root) <= 2.0 ** -40 or abs(g) <= 1e-12 * abs(g0)
    # the answer never sits on the wrong side of a point already evaluated
    for s, value in calls:
        if value <= 0.0:
            assert s <= scale
        else:
            assert s >= scale


def test_step_scale_takes_the_full_step_on_a_descent_slope():
    # the root lies beyond the full step, so one evaluation, at 1, decides
    slope, calls = density_slope(1.5, np.ones(17), np.ones(17), 1.5, rate=2.0)
    g0 = slope(0.0)
    calls.clear()
    assert flow_module._step_scale(slope, g0) == 1.0
    assert [s for s, _ in calls] == [1.0]


def test_run_flow_zero_initial_data():
    cfg = small_config(3.0, t_final=0.01)
    asm = zz_assembly()
    res = mf.run_flow(GridFunction(np.zeros(asm.n_points)), cfg, asm)
    for rec in res.records:
        assert rec.lp_energy == 0.0 and rec.hy_norm_sq == 0.0


def test_run_flow_records_and_states():
    cfg = small_config(3.0, t_final=0.02)
    asm = zz_assembly()
    u0 = standard_initial(2, ZZ, asm.n_points)
    res = mf.run_flow(u0, cfg, asm, store_states=True)
    assert len(res.records) == 21
    ts = [r.t for r in res.records]
    assert ts == sorted(ts)
    assert res.states.shape == (21, asm.n_points)
    assert res.records[0].dissipation_residual == 0.0
    for rec in res.records:
        assert abs(rec.mu0) < 1e-10 and abs(rec.mun) < 1e-10
    # the residual mean carries the squared flow velocity, scaling with dt
    coarse = np.mean([r.dissipation_residual for r in res.records[1:]])
    assert coarse > 0.0
    fine_cfg = small_config(3.0, t_final=0.02, dt=2.5e-4)
    fine = mf.run_flow(u0, fine_cfg, asm)
    assert np.mean([r.dissipation_residual
                    for r in fine.records[1:]]) < coarse / 2.5


def test_run_flow_metric_norm_strictly_decreasing():
    cfg = small_config(3.0, t_final=0.1)
    asm = zz_assembly(129)
    res = mf.run_flow(standard_initial(2, ZZ, 129), cfg, asm)
    v = np.array([r.hy_norm_sq for r in res.records])
    alive = v > 1e-28
    assert np.all(np.diff(v[alive]) < 0.0)


def test_run_flow_rejects_inadmissible_start():
    cfg = small_config(3.0)
    asm = zz_assembly()
    with pytest.raises(ValueError):
        mf.run_flow(GridFunction(np.ones(asm.n_points)), cfg, asm)
    with pytest.raises(ValueError):
        mf.run_flow(GridFunction(np.zeros(33)), cfg, asm)


def test_both_runners_validate_initial_data_alike():
    cfg = small_config(2.0, t_final=0.01)
    asm = zz_assembly()
    cases = ((GridFunction(np.ones(asm.n_points)), "violates constraints"),
             (GridFunction(np.zeros(33)), "wrong grid"))
    for u0, message in cases:
        for runner in (mf.run_flow, run_linear_flow):
            with pytest.raises(ValueError, match=message):
                runner(u0, cfg, asm)


def test_run_linear_flow_matches_stepper():
    cfg = small_config(2.0, t_final=0.01)
    asm = zz_assembly(129)
    u0 = standard_initial(2, ZZ, 129)
    res = run_linear_flow(u0, cfg, asm)
    state = u0
    for _ in range(10):
        state = mf.heat_step(asm, state, cfg.dt)
    assert np.max(np.abs(res.final.values - state.values)) < 1e-14
    with pytest.raises(ValueError):
        run_linear_flow(u0, small_config(3.0), asm)


def test_project_admissible_examples():
    ones = GridFunction(np.ones(129))
    out = mf.project_admissible(ones, 2, ZZ)
    assert ZZ.violation(out, 2) < 1e-12
    already = standard_initial(2, ZZ, 129)
    again = mf.project_admissible(already, 2, ZZ)
    assert np.max(np.abs(again.values - already.values)) < 1e-12
    full = mf.ConstraintSpace.full()
    assert mf.project_admissible(ones, 2, full) is ones
    line = mf.ConstraintSpace.line(0.7)
    assert line.violation(mf.project_admissible(ones, 2, line), 2) < 1e-12


def test_project_admissible_polynomial_exact():
    p = Polynomial((1, 2, 3))
    out = mf.project_admissible(p, 2, ZZ)
    assert mf.moment(out, 0) == 0 and mf.moment(out, 2) == 0
    zf = mf.project_admissible(p, 2, mf.ConstraintSpace.zero_free())
    assert mf.moment(zf, 0) == 0
    ln = mf.project_admissible(p, 2, mf.ConstraintSpace.line(0.25))
    assert mf.moment(ln, 2) - Fraction(1, 4) * mf.moment(ln, 0) == 0


def _records_from_series(t, v):
    return [FlowRecord(t=float(ti), mu0=0.0, mu1=0.0, mun=0.0, lp_energy=0.0,
                       hy_norm_sq=float(vi), dissipation_residual=0.0)
            for ti, vi in zip(t, v)]


def test_fit_decay_recovers_synthetic_rates():
    t = np.linspace(0.0, 2.0, 201)
    poly = fit_decay(_records_from_series(t, 3.0 / np.maximum(t, 1e-9)), "polynomial")
    assert poly.rate == pytest.approx(-1.0, abs=1e-9)
    assert poly.r_squared > 0.999999
    expo = fit_decay(_records_from_series(t, 5.0 * np.exp(-7.0 * t)), "exponential")
    assert expo.rate == pytest.approx(7.0, abs=1e-9)
    assert expo.r_squared > 0.999999


def test_fit_decay_truncates_at_floor():
    t = np.linspace(0.0, 2.0, 201)
    v = 5.0 * np.exp(-7.0 * t)
    v[150:] = 1e-30
    fit = fit_decay(_records_from_series(t, v), "exponential",
                    window=(0.5, 1.49))
    assert fit.rate == pytest.approx(7.0, abs=1e-9)
    assert fit.t_hi < 1.5


def test_fit_decay_requires_enough_points():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        fit_decay(_records_from_series(t, np.exp(-t)), "exponential")
    with pytest.raises(ValueError):
        fit_decay(_records_from_series(t, np.exp(-t)), "sigmoid")


def test_decay_inequality_on_linear_flow():
    cfg = FlowConfig(p=2.0, dt=1e-3, t_final=0.2)
    asm = zz_assembly(129)
    lam, modes = asm.eigensystem(127)
    mode = GridFunction(modes[:, 0])
    res = run_linear_flow(mode, cfg, asm, scheme="exponential")
    report = decay_inequality_check(res.records, 2.0)
    assert report.max_violation <= 1e-12
    assert report.c_empirical == pytest.approx(2.0 * lam[0], rel=0.01)


def test_exponential_flow_steps_past_the_n1_checkerboard():
    # at n = 1 the checkerboard is admissible with metric norm ~0, so its
    # 1/mu is huge and of either sign; the truncated exponential keeps only
    # the slow modes and never meets it
    space = mf.ConstraintSpace.zero_free()
    cfg = FlowConfig(p=2.0, dt=1e-3, t_final=0.1)
    asm = mf.assemble_operator(1, space, 513)
    res = run_linear_flow(standard_initial(1, space, 513), cfg, asm,
                          scheme="exponential")
    assert len(res.records) == 101
    assert max(abs(r.mu0) for r in res.records) <= 1e-8
    lam0 = mf.spectrum(asm, 1)[0]
    assert fit_decay(res.records, "exponential").rate == \
        pytest.approx(2.0 * lam0, rel=0.01)


def test_decay_inequality_requires_records():
    with pytest.raises(ValueError):
        decay_inequality_check([], 2.0)


def test_embedding_constant_matches_smallest_eigenvalue():
    asm = mf.assemble_operator(2, ZZ, 129)
    lam1 = mf.spectrum(asm, 1)[0]
    c0 = mf.embedding_constant(asm, 2.0)
    assert c0 == pytest.approx(lam1, rel=1e-12)


def test_embedding_constant_converges_at_second_order_in_the_grid():
    # one Lanczos mode and O(N) proximal steps reach N=8193, where the
    # metric on all dim V modes would be a dense 8191 x 8191 eigenproblem
    c = [mf.embedding_constant(mf.assemble_operator(2, ZZ, n_points), 4.0)
         for n_points in (513, 2049, 8193)]
    assert c[0] > c[1] > c[2] > 0.0
    # each fourfold refinement shrinks an O(h^2) error about 16-fold
    assert 12.0 < (c[0] - c[1]) / (c[1] - c[2]) < 20.0


# (kind, n, p, the value L-BFGS-B found with six starts, the slowest mode
# and five random directions, over all dim V modes) at N=129.  n=1
# zero_free is left out: at p=1.5 the iteration from the slowest mode ends
# 5.9e-6 above L-BFGS-B, on the n=1 null-mode question of ROADMAP item 4.
# zero_free n=3 p=3 is left out too: at N=129 (not at N=257) a random
# start reaches a second local minimum 2.7e-6 below the one the slowest
# mode leads to.
LBFGS_EMBEDDING_129 = [
    ("zero_zero", 1, 1.1, 5.7406294714016965),
    ("zero_zero", 1, 3.0, 282.32278984846266),
    ("zero_zero", 2, 1.5, 12.476508027997935),
    ("zero_zero", 2, 4.0, 1432.5269025340194),
    ("zero_zero", 3, 3.0, 156.85470238466078),
    ("zero_zero", 3, 6.0, 30627.827943751567),
    ("zero_zero", 5, 1.1, 3.832312132449001),
    ("zero_zero", 5, 4.0, 497.1605717355162),
    ("zero_free", 2, 3.0, 215.20755973385076),
    ("zero_free", 2, 6.0, 56682.42206286759),
    ("zero_free", 3, 1.1, 4.471190394532527),
    ("zero_free", 3, 4.0, 888.813616633906),
    ("zero_free", 5, 1.5, 8.313925280876377),
    ("zero_free", 5, 6.0, 12032.054437992889),
    ("line", 1, 3.0, 0.8860541557212471),
    ("line", 1, 6.0, 0.7859415927857799),
    ("line", 2, 1.1, 0.9590363039489657),
    ("line", 2, 4.0, 2.3922219892205816),
    ("line", 3, 1.5, 1.1638136131430636),
    ("line", 3, 6.0, 16.975265468264677),
    ("line", 5, 1.1, 0.9942843596208718),
    ("line", 5, 3.0, 6.197631356929595),
    ("full", 1, 1.1, 0.9499267852586886),
    ("full", 1, 4.0, 0.8513757853261285),
    ("full", 2, 1.5, 0.9211481541182952),
    ("full", 2, 6.0, 0.7281017243896722),
    ("full", 3, 1.1, 0.9095921553199448),
    ("full", 3, 3.0, 0.8132441181604942),
    ("full", 5, 1.5, 0.8677999469532165),
    ("full", 5, 4.0, 0.6983388345391657),
]


@pytest.mark.parametrize(
    "kind, n, p, lbfgs", LBFGS_EMBEDDING_129,
    ids=[f"{kind}-n{n}-p{p}" for kind, n, p, _ in LBFGS_EMBEDDING_129])
def test_embedding_constant_iterates_stay_admissible_and_descend(
        monkeypatch, kind, n, p, lbfgs):
    space = (mf.ConstraintSpace.line(0.5) if kind == "line"
             else mf.ConstraintSpace(kind))
    asm = mf.assemble_operator(n, space, 129)

    def quotient(f):
        return float(asm.weights @ np.abs(f) ** p) / asm.metric_norm_sq(f) ** (p / 2)

    prox_step = flow_module.prox_step
    steps = []

    def checked_prox_step(u_prev, cfg, asm_, warm=None):
        out = prox_step(u_prev, cfg, asm_, warm)
        for f in (u_prev.values, out.values):
            drift = np.max(np.abs(asm.constraints @ f), initial=0.0)
            assert drift <= 1e-12 * np.max(np.abs(f))
        # nonincreasing up to the rounding of the quotient itself
        assert quotient(out.values) <= quotient(u_prev.values) * (1.0 + 1e-15)
        steps.append(out)
        return out

    monkeypatch.setattr(flow_module, "prox_step", checked_prox_step)
    c0 = mf.embedding_constant(asm, p)
    assert steps
    assert c0 <= lbfgs * (1.0 + 1e-12)


def test_embedding_constant_fails_on_its_step_budget(monkeypatch):
    monkeypatch.setattr(flow_module, "_EMBEDDING_MAX_STEPS", 2)
    with pytest.raises(NumericalError, match="did not settle in 2 steps"):
        mf.embedding_constant(zz_assembly(129), 4.0)


def test_embedding_constant_needs_no_scipy_optimize():
    probe = ("import sys, momentflow as mf\n"
             "asm = mf.assemble_operator(2, mf.ConstraintSpace.zero_zero(), 65)\n"
             "mf.embedding_constant(asm, 1.5)\n"
             "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_embedding_constant_bounds_trajectory(flow_p15):
    asm = mf.assemble_operator(2, ZZ, 513)
    c0 = mf.embedding_constant(asm, 1.5)
    traj = mf.trajectory_quotient_min(flow_p15.result.records, 1.5)
    assert c0 > 0
    assert c0 <= traj * (1.0 + 1e-4)


def test_contraction_short_run():
    cfg = small_config(3.0, t_final=0.05)
    asm = zz_assembly()
    a = mf.run_flow(standard_initial(2, ZZ, 65, seed=1), cfg, asm,
                    store_states=True)
    b = mf.run_flow(standard_initial(2, ZZ, 65, seed=2, scale=0.5), cfg, asm,
                    store_states=True)
    dist = [metric_distance(asm, x, y) for x, y in zip(a.states, b.states)]
    assert np.max(np.diff(dist)) <= 1e-10


def test_nonlinear_strong_form_gap_diagnostic():
    cfg = small_config(3.0, t_final=0.2, dt=1e-3)
    asm = zz_assembly(257)
    res = mf.run_flow(standard_initial(2, ZZ, 257), cfg, asm)
    rng = np.random.default_rng(11)
    tests = [mf.poly_to_grid(
        mf.project_admissible(mf.random_polynomial(rng, 6), 2, ZZ), 257)
        for _ in range(3)]
    out = nonlinear_strong_form_gap(res.final, cfg, asm, tests)
    assert np.isfinite(out["potential_coefficient"])
    assert out["gap"] < 1e-2


@pytest.mark.parametrize("carrier", ["polynomial", "grid"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("slope", [None, 0.7, "1/(n+1)"])
def test_project_admissible_single_projection(carrier, n, slope):
    # None is zero_free; 0.7 shifts along 1 and 1/(n+1), which makes the
    # constant shift degenerate, along (1-x)^n
    if slope is None:
        space = mf.ConstraintSpace.zero_free()
    else:
        space = mf.ConstraintSpace.line(1.0 / (n + 1) if slope == "1/(n+1)"
                                        else slope)
    f = mf.random_polynomial(np.random.default_rng(n), 6)
    if carrier == "polynomial":
        out = mf.project_admissible(f, n, space)
        residual = (mf.moment(out, 0) if slope is None
                    else mf.moment(out, n) - Fraction(space.slope) * mf.moment(out, 0))
        assert residual == 0
    else:
        out = mf.project_admissible(mf.poly_to_grid(f, 129), n, space)
        assert space.violation(out, n) <= 1e-12
