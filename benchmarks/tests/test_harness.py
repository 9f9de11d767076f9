"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import Span, Tracer, TARGETS, layer_metrics, layer_of, self_times, \
    tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def printed_metric_names(stdout: str) -> set:
    return {line.split()[0] for line in stdout.splitlines()
            if line.startswith("  ")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert printed_metric_names(proc.stdout) <= END_TO_END | PER_LAYER


@pytest.mark.parametrize("workload", ["porous_p4", "identity_check"])
def test_tiny_traced_run(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == PER_LAYER
    assert printed_metric_names(proc.stdout) <= END_TO_END | PER_LAYER
    coverage = result["metrics"]["trace.self_time_coverage"]["value"]
    assert 0.99 <= coverage <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "porous_p4", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_the_same_manifests(workload):
    first = json.dumps(workloads.unit_manifests(workload, 17), sort_keys=True)
    again = json.dumps(workloads.unit_manifests(workload, 17), sort_keys=True)
    other = json.dumps(workloads.unit_manifests(workload, 18), sort_keys=True)
    assert first == again
    assert first != other


def test_grid_draws_distinct_seeds():
    seeds = [m["seed"] for m in workloads.unit_manifests("fast_diffusion_grid", 2)]
    assert len(set(seeds)) == len(seeds) == 24 * workloads.GRID_DRAWS
    later = [m["seed"] for m in workloads.unit_manifests("fast_diffusion_grid", 3)]
    assert not set(seeds) & set(later)


def hand_built_tree():
    # cli.execute [0, 10]
    #   flow.prox_step [1, 4]
    #     lapack.lu_factor [2, 3]      order 10
    #   flow.prox_step [5, 9]
    #     lapack.lu_factor [5.5, 6]    order 10
    #     lapack.lu_solve  [6, 6.25]
    return [
        Span("cli.execute", 0.0, 10.0, -1, 1),
        Span("flow.prox_step", 1.0, 4.0, 0, 1),
        Span("lapack.lu_factor", 2.0, 3.0, 1, 1, size=10),
        Span("flow.prox_step", 5.0, 9.0, 0, 1),
        Span("lapack.lu_factor", 5.5, 6.0, 3, 1, size=10),
        Span("lapack.lu_solve", 6.0, 6.25, 3, 1),
    ]


def test_self_time_arithmetic():
    spans = hand_built_tree()
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.25, 0.5, 0.25]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start
    assert layer_of(spans, 2) == "flow"
    assert layer_of(spans, 0) == "cli"


def test_layer_metrics_on_hand_built_tree():
    m = layer_metrics(hand_built_tree(), units=1, traced_wall_s=10.0)
    assert m["flow.prox_step_calls"] == 2
    assert m["flow.lu_factor_per_step"] == 1.0
    assert m["flow.prox_step_self_s"] == 5.25
    assert m["flow.lu_factor_s"] == 1.5
    assert m["flow.lu_solve_s"] == 0.25
    assert m["flow.lu_factor_share"] == 0.15
    assert m["flow.lu_gflop_computed"] == pytest.approx(2 * 2 * 1000 / 3 / 1e9)
    assert m["cli.self_s"] + m["flow.self_s"] == 10.0
    assert m["trace.self_time_coverage"] == 1.0
    assert set(m) | {"error_rate", "trace.overhead_wall_s"} == PER_LAYER


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_tracer_restores_every_wrapped_name():
    import scipy.linalg

    import momentflow.cli
    import momentflow.flow
    from momentflow.grid import Polynomial

    before = (momentflow.flow.prox_step, momentflow.cli.run_flow,
              scipy.linalg.lu_factor, Polynomial.__dict__["__mul__"])
    tracer = Tracer()
    with tracer.installed():
        assert momentflow.flow.prox_step is not before[0]
        assert momentflow.cli.run_flow is not before[1]
        scipy.linalg.lu_factor(np.eye(3))
    after = (momentflow.flow.prox_step, momentflow.cli.run_flow,
             scipy.linalg.lu_factor, Polynomial.__dict__["__mul__"])
    assert after == before
    assert [s.name for s in tracer.spans] == ["lapack.lu_factor"]
    assert tracer.spans[0].size == 3
    assert len(TARGETS) == len({(o, a) for o, a, _, _ in TARGETS})


def test_reference_comparison_tolerance():
    records = [[0.0, 1e-17, 0.5, -2e-17, 0.25, 1.0],
               [0.001, 2e-17, 0.4, 1e-17, 0.2, 0.9]]
    entry = {"records": records}
    output = {"columns": list(workloads.REFERENCE_COLUMNS),
              "records": np.array(records)}
    assert workloads.compare_reference(entry, output, None) == []
    nudged = np.array(records)
    nudged[1, 5] += 1e-7
    output["records"] = nudged
    assert workloads.compare_reference(entry, output, None) == []
    nudged[1, 5] += 1e-5
    assert workloads.compare_reference(entry, output, None)
    assert workloads.compare_reference(entry, None, "NumericalError: x")
    assert workloads.compare_reference({"failed": "x"}, None, "y") == []


def test_checks_catch_constraint_drift():
    manifest = workloads.unit_manifests("porous_p4", 0, tiny=True)[0]
    steps = int(round(manifest["t_final"] / manifest["dt"]))
    rows = np.zeros((steps + 1, 7))
    rows[:, 0] = np.arange(steps + 1) * manifest["dt"]
    rows[:, 5] = np.linspace(1.0, 0.5, steps + 1)
    columns = ["t", "mu0", "mu1", "mun", "lp_energy", "hy_norm_sq",
               "dissipation_residual"]
    assert workloads.check_output(manifest, {"columns": columns,
                                             "records": rows}) == (steps, [])
    rows[2, 1] = 1e-6
    _, problems = workloads.check_output(manifest, {"columns": columns,
                                                    "records": rows})
    assert problems and "constraint drift" in problems[0]
