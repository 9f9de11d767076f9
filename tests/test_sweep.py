"""Fast-diffusion sweep over the paper's p < 2 range; slow, run on request.

Every proximal step is one damped Newton solve at EPS_REG, with no
relaxed-smoothing fallback.  This matrix is the evidence that none is
needed: 5184 short runs over p, n, constraint kind, seed, grid size, time
step and amplitude, each of which must complete.  Run it with

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


@pytest.mark.slow
@pytest.mark.parametrize("n_points", [33, 129, 513])
@pytest.mark.parametrize("p", EXPONENTS)
def test_fast_diffusion_sweep_completes(p, n_points):
    failures = []
    for n in (1, 2, 3, 5):
        for space in KINDS:
            asm = mf.assemble_operator(n, space, n_points)
            for seed in (0, 1):
                for dt, steps in STEPS.items():
                    cfg = FlowConfig(p, dt, steps * dt)
                    for amplitude in (0.01, 1.0, 10.0):
                        u0 = standard_initial(n, space, n_points, seed=seed,
                                              scale=amplitude)
                        try:
                            mf.run_flow(u0, cfg, asm)
                        except NumericalError as exc:
                            failures.append((n, space.kind, seed, dt,
                                             amplitude, str(exc)))
    assert failures == []
