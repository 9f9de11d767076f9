"""Acceptance gate: every criterion at its stated tolerance.

Each test asserts a criterion and registers a PASS/FAIL line that the
terminal summary prints, one per criterion.  Long runs are shared through
session fixtures that carry their own wall time, so runtime bounds refer
to the actual computation.
"""

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import momentflow as mf
from momentflow.dual import as_dual
from momentflow.flow import FlowConfig, fit_decay, metric_distance
from momentflow.grid import Polynomial
from momentflow.heat import weak_strong_residual

from conftest import ZZ, record_criterion, standard_initial
from test_heat import admissible_poly

ZF = mf.ConstraintSpace.zero_free()


def check(number, passed, detail):
    record_criterion(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_operator_identity_suite(suite_report):
    report, elapsed = suite_report
    wanted = (
        "centered_primitive_kills_previous_moment",
        "centered_primitive_left_endpoint",
        "centered_primitive_right_endpoint",
        "mass_of_centered_primitive",
        "moment_of_primitive_scaling",
        "primitive_tail_duality",
    )
    by_name = {c["name"]: c for c in report["checks"]}
    worst = 0.0
    ok = elapsed < 10.0
    for name in wanted:
        entry = by_name[name]
        ok = ok and entry["passed"] and entry["cases"] >= 200
        worst = max(worst, entry["max_residual"])
    check(1, ok and worst <= 1e-12,
          f"operator identities: max residual {worst:.2e} over "
          f"200 polynomials x n in 1..5, {elapsed:.1f}s")


def test_criterion_02_integration_by_parts(suite_report):
    report, elapsed = suite_report
    entry = {c["name"]: c for c in report["checks"]}["integration_by_parts"]
    u = Polynomial((0, 0, 1))
    h = Polynomial.constant(1)
    lhs = mf.dual_inner(mf.zero_mass_embed(u.derivative().derivative()),
                        as_dual(h), 2)
    worked = lhs == Fraction(2, 9) and \
        mf.integration_by_parts_residual(u, h, 2) == 0.0
    ok = entry["passed"] and entry["cases"] >= 800 and worked and elapsed < 10.0
    check(2, ok and entry["max_residual"] <= 1e-12,
          f"pairing identity: max residual {entry['max_residual']:.2e}, "
          f"worked case both sides 2/9, {elapsed:.1f}s")


def test_criterion_03_potential_cross_validation():
    rng = np.random.default_rng(6)
    worst_order = np.inf
    for space in (ZZ, ZF):
        u = admissible_poly(rng, 2, space)
        tests = [admissible_poly(rng, 2, space) for _ in range(4)]
        errs = np.array([weak_strong_residual(u, tests, 2, space, pts)
                         for pts in (129, 257, 513)])
        orders = np.log2(errs[:-1] / errs[1:])
        worst_order = min(worst_order, float(np.min(orders)))
    check(3, worst_order >= 1.8,
          f"weak residual of -u'' + 3u(0) form: observed order {worst_order:.2f}")


def test_criterion_04_spectrum():
    start = time.perf_counter()
    target = 4 * np.pi ** 2
    lam1 = mf.spectrum(mf.assemble_operator(1, ZF, 1025), 1)[0]
    rel = abs(lam1 - target) / target
    positive = True
    for n in range(1, 5):
        for space in (ZZ, ZF, mf.ConstraintSpace.line(0.5),
                      mf.ConstraintSpace.full()):
            lam = mf.spectrum(mf.assemble_operator(n, space, 257), 6)
            positive = positive and bool(np.all(lam > 0))
    elapsed = time.perf_counter() - start
    check(4, rel < 0.005 and positive and elapsed < 60.0,
          f"lambda1 = {lam1:.4f} vs 4*pi^2 (rel {rel:.2e}); all eigenvalues "
          f"positive for n <= 4 and every constraint kind; {elapsed:.1f}s")


def test_criterion_05_moment_conservation(linear_pinned, flow_p4):
    worst = 0.0
    for run in (linear_pinned.result, flow_p4.result):
        for rec in run.records:
            worst = max(worst, abs(rec.mu0), abs(rec.mun))
    check(5, worst <= 1e-8,
          f"linear and nonlinear pinned runs: max |mu_0|,|mu_n| = {worst:.2e}")


def test_criterion_06_dissipation_identity_refinement():
    means = []
    for pts, dt in ((129, 4e-3), (257, 1e-3), (513, 2.5e-4)):
        cfg = FlowConfig(p=3.0, dt=dt, t_final=0.5)
        res = mf.run_flow(standard_initial(2, ZZ, pts), cfg,
                          mf.assemble_operator(2, ZZ, pts))
        means.append(np.mean([r.dissipation_residual
                              for r in res.records[1:]]))
    ratios = np.array(means[:-1]) / np.array(means[1:])
    check(6, bool(np.all(ratios >= 3.0)),
          "dissipation residual means "
          + " -> ".join(f"{m:.2e}" for m in means)
          + f", ratios {ratios[0]:.2f}, {ratios[1]:.2f} (>= 3 required)")


def test_criterion_07_porous_medium_decay(flow_p4):
    records = flow_p4.result.records
    fit = fit_decay(records, "polynomial")
    t = np.array([r.t for r in records])
    v = np.array([r.hy_norm_sq for r in records])
    window = (t >= 2.5) & (v > 1e-28)
    envelope = v[window][0] * t[window][0]
    bound_ok = bool(np.all(v[window] * t[window] <= 1.1 * envelope))
    ok = (fit.r_squared > 0.95 and bound_ok
          and -1.15 <= fit.rate <= -0.85 and flow_p4.elapsed < 300.0)
    check(7, ok,
          f"p=4 tail: slope {fit.rate:.3f} (bound exponent -1), "
          f"r^2 {fit.r_squared:.4f}, envelope bound "
          f"{'holds' if bound_ok else 'violated'}, run {flow_p4.elapsed:.0f}s")


def test_criterion_08_fast_diffusion_and_heat_decay(flow_p15, linear_exp_decay,
                                                    asm_pinned):
    fde = fit_decay(flow_p15.result.records, "exponential")
    c0 = min(mf.embedding_constant(asm_pinned, 1.5),
             mf.trajectory_quotient_min(flow_p15.result.records, 1.5))
    v0 = flow_p15.result.records[0].hy_norm_sq
    k_pred = 2.0 * c0 * v0 ** ((1.5 - 2.0) / 2.0)
    fde_ok = fde.r_squared > 0.99 and fde.rate >= k_pred

    heat = fit_decay(linear_exp_decay.result.records, "exponential")
    lam1 = mf.spectrum(asm_pinned, 1)[0]
    heat_rel = abs(heat.rate - 2.0 * lam1) / (2.0 * lam1)
    heat_ok = heat.r_squared > 0.99 and heat_rel <= 0.02
    check(8, fde_ok and heat_ok,
          f"p=1.5: rate {fde.rate:.1f} >= predicted {k_pred:.1f}, "
          f"r^2 {fde.r_squared:.4f}; p=2: rate {heat.rate:.3f} vs "
          f"2*lambda1 {2 * lam1:.3f} (rel {heat_rel:.2e}), "
          f"r^2 {heat.r_squared:.6f}")


def test_criterion_09_p2_oracle_equivalence(asm_pinned):
    cfg = FlowConfig(p=2.0, dt=1e-3, t_final=0.1)
    linear = prox = standard_initial(2, ZZ, 513)
    worst = 0.0
    for _ in range(100):
        linear = mf.heat_step(asm_pinned, linear, cfg.dt)
        prox = mf.prox_step(prox, cfg, asm_pinned, warm=prox)
        worst = max(worst, float(np.max(np.abs(linear.values - prox.values))))
    check(9, worst <= 1e-8,
          f"proximal vs saddle-point path, 100 steps: max gap {worst:.2e}")


def test_criterion_10_lp_monotone_convex(flow_p4, flow_p3_pair):
    worst_increase = -np.inf
    worst_concavity = -np.inf
    for run in (flow_p4.result, flow_p3_pair[0], flow_p3_pair[1]):
        p = run.config.p
        t = np.array([r.t for r in run.records])
        series = np.array([p * r.lp_energy for r in run.records])
        tail = series[t >= 0.5]
        worst_increase = max(worst_increase, float(np.max(np.diff(tail))))
        worst_concavity = max(worst_concavity,
                              float(np.max(-np.diff(tail, 2))))
    check(10, worst_increase <= 1e-8 and worst_concavity <= 1e-8,
          f"t >= 0.5: max increase {worst_increase:.2e}, worst concavity "
          f"{worst_concavity:.2e} (both <= 1e-8)")


def test_criterion_11_contraction(flow_p3_pair, asm_pinned):
    first, second = flow_p3_pair
    dist = np.array([metric_distance(asm_pinned, a, b)
                     for a, b in zip(first.states, second.states)])
    worst = float(np.max(np.diff(dist)))
    check(11, worst <= 1e-8,
          f"two p=3 flows: max per-step distance increase {worst:.2e}")


def test_criterion_12_check_is_deterministic(tmp_path):
    blobs, stdouts = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "momentflow.cli", "check", "--seed", "42",
             "--out", str(out)],
            capture_output=True, check=True)
        blobs.append(out.read_bytes())
        stdouts.append(proc.stdout)
    ok = blobs[0] == blobs[1] and stdouts[0] == stdouts[1]
    check(12, ok, "two seeded check runs produced byte-identical output")
