"""Sweeps over the paper's p range; slow, run on request.

Every proximal step is one damped Newton solve at EPS_REG, with no
relaxed-smoothing fallback.  The fast-diffusion matrix is the evidence that
none is needed: 5184 short p < 2 runs over p, n, constraint kind, seed,
grid size, time step and amplitude, each of which must complete.  The
porous-medium matrix runs 2880 short p > 2 runs over the same axes and
pins the 8 that fail today.  Each assembly serves both time steps, so the
sweeps also switch dt on a shared assembly.  Run them with

    python -m pytest -m slow -q -W error tests/test_sweep.py
"""

import pytest

import momentflow as mf
from momentflow.errors import NumericalError
from momentflow.flow import FlowConfig

from conftest import KINDS, standard_initial

# the last three exponents sit closest to p = 1, where the smoothed density
# is nearest to non-smooth
EXPONENTS = (1.02, 1.05, 1.1, 1.3, 1.5, 1.8, 1.01, 1.005, 1.001)
# time step and the number of steps taken at it
STEPS = {1e-3: 10, 1e-2: 5}
POROUS_EXPONENTS = (2.5, 3.0, 4.0, 6.0, 8.0)
POROUS_STEPS = {1e-3: 5, 1e-2: 5}
# (p, N) -> the (n, kind, seed, dt, amplitude) runs that fail, all at
# amplitude 10: four on the iteration budget, four stalled (ROADMAP item 5)
POROUS_FAILURES = {
    (8.0, 513): {
        (1, "zero_zero", 0, 1e-2, 10.0), (1, "zero_free", 0, 1e-2, 10.0),
        (2, "zero_zero", 1, 1e-2, 10.0), (2, "zero_free", 0, 1e-2, 10.0),
        (3, "zero_zero", 1, 1e-2, 10.0), (3, "zero_free", 0, 1e-3, 10.0),
        (5, "zero_free", 1, 1e-3, 10.0), (5, "zero_free", 1, 1e-2, 10.0),
    },
}


def sweep_failures(p, n_points, steps) -> dict:
    """(n, kind, seed, dt, amplitude) -> message for every run that fails."""
    failures = {}
    for n in (1, 2, 3, 5):
        for space in KINDS:
            asm = mf.assemble_operator(n, space, n_points)
            for seed in (0, 1):
                for dt, count in steps.items():
                    cfg = FlowConfig(p, dt, count * dt)
                    for amplitude in (0.01, 1.0, 10.0):
                        u0 = standard_initial(n, space, n_points, seed=seed,
                                              scale=amplitude)
                        try:
                            mf.run_flow(u0, cfg, asm)
                        except NumericalError as exc:
                            key = (n, space.kind, seed, dt, amplitude)
                            failures[key] = str(exc)
    return failures


@pytest.mark.slow
@pytest.mark.parametrize("n_points", [33, 129, 513])
@pytest.mark.parametrize("p", EXPONENTS)
def test_fast_diffusion_sweep_completes(p, n_points):
    assert sweep_failures(p, n_points, STEPS) == {}


@pytest.mark.slow
@pytest.mark.parametrize("n_points", [33, 129, 513])
@pytest.mark.parametrize("p", POROUS_EXPONENTS)
def test_porous_medium_sweep_fails_only_the_pinned_runs(p, n_points):
    failures = sweep_failures(p, n_points, POROUS_STEPS)
    assert set(failures) == POROUS_FAILURES.get((p, n_points), set()), failures
