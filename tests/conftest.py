"""Shared fixtures: standard initial data and cached long runs.

The expensive flow runs are computed once per session and shared between
the module tests and the acceptance criteria; each carries its own wall
time so runtime bounds are asserted against the actual computation.
Acceptance results are collected in a registry and echoed in the terminal
summary, one line per criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

import momentflow as mf
from momentflow.flow import FlowConfig, run_flow, run_linear_flow, project_admissible

CRITERION_LINES: list = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    CRITERION_LINES.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(CRITERION_LINES):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:02d} [{status}] {detail}")


def standard_initial(n: int, space, n_points: int, seed: int = 7,
                     scale: float = 1.0) -> mf.GridFunction:
    """Random degree-6 polynomial, projected admissible, unit L2 norm."""
    rng = np.random.default_rng(seed)
    u = project_admissible(
        mf.poly_to_grid(mf.random_polynomial(rng, 6), n_points), n, space)
    norm = mf.quadrature(mf.GridFunction(u.values ** 2)) ** 0.5
    return mf.GridFunction(scale * u.values / norm)


@dataclass
class TimedRun:
    result: object
    elapsed: float


ZZ = mf.ConstraintSpace.zero_zero()


@pytest.fixture(scope="session")
def asm_pinned():
    return mf.assemble_operator(2, ZZ, 513)


@pytest.fixture(scope="session")
def flow_p4(asm_pinned) -> TimedRun:
    cfg = FlowConfig(p=4.0, dt=1e-3, t_final=5.0)
    u0 = standard_initial(2, ZZ, 513)
    start = time.perf_counter()
    result = run_flow(u0, cfg, asm_pinned)
    return TimedRun(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def flow_p15(asm_pinned) -> TimedRun:
    cfg = FlowConfig(p=1.5, dt=1e-3, t_final=0.1)
    u0 = standard_initial(2, ZZ, 513, scale=10.0)
    start = time.perf_counter()
    result = run_flow(u0, cfg, asm_pinned)
    return TimedRun(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def flow_p3_pair(asm_pinned):
    cfg = FlowConfig(p=3.0, dt=1e-3, t_final=1.0)
    first = run_flow(standard_initial(2, ZZ, 513, seed=7), cfg, asm_pinned,
                     store_states=True)
    second = run_flow(standard_initial(2, ZZ, 513, seed=11, scale=0.7), cfg,
                      asm_pinned, store_states=True)
    return first, second


@pytest.fixture(scope="session")
def linear_pinned(asm_pinned) -> TimedRun:
    cfg = FlowConfig(p=2.0, dt=1e-3, t_final=5.0)
    u0 = standard_initial(2, ZZ, 513)
    start = time.perf_counter()
    result = run_linear_flow(u0, cfg, asm_pinned)
    return TimedRun(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def linear_exp_decay(asm_pinned) -> TimedRun:
    cfg = FlowConfig(p=2.0, dt=1e-3, t_final=0.5)
    u0 = standard_initial(2, ZZ, 513)
    start = time.perf_counter()
    result = run_linear_flow(u0, cfg, asm_pinned, scheme="exponential")
    return TimedRun(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def suite_report():
    start = time.perf_counter()
    report = mf.identity_suite(seed=42)
    return report, time.perf_counter() - start
