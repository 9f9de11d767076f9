"""Closed-loop workload runner; ``run.py`` starts it as a child process.

One client runs one workload unit after another until the time budget is
spent.  Every operation goes through ``momentflow.cli.execute``, the path
``momentflow run`` and ``momentflow check`` take, and its output is checked
before the next one starts.  With tracing on, every second unit runs
under the tracer and the others run untouched, so the same process yields
the untraced and traced wall times whose difference is the tracing
overhead.

Usage: python3 worker.py SPEC_JSON RESULT_PATH
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# share of the traced wall time the layers' self times must account for;
# the rest is the harness's own call into execute
MIN_COVERAGE = 0.99


def import_cli(src: Path):
    """Import momentflow from ``src`` and refuse any other copy."""
    sys.path.insert(0, str(src))
    import momentflow.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"momentflow imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class Unit:
    wall_s: float
    steps: int
    attempted: int
    failed: int
    traced: bool


class Runner:
    """Runs operations through ``cli.execute`` and checks their outputs."""

    def __init__(self, cli, out_dir: Path):
        from momentflow.errors import NumericalError

        self.cli = cli
        self.out_dir = out_dir
        self.failures = (NumericalError, ValueError)
        self.problems: list[str] = []
        # identity-suite output of the first unit, by operation index
        self.first_bytes: dict[int, bytes] = {}

    def run_op(self, raw: dict):
        """Wall time, output and error message of one manifest run."""
        manifest = self.cli.resolve_manifest(raw)
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.execute(manifest, self.out_dir)
        except self.failures as exc:
            code, error = 1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if code != 0 and error is None:
            error = f"exit code {code}"
        output = None if error else workloads.read_output(manifest, self.out_dir)
        return manifest, wall, output, error

    def check_reference(self, workload: str) -> None:
        stored = json.loads(workloads.reference_path(workload).read_text())
        for i, raw in enumerate(workloads.reference_manifests(workload)):
            _, _, output, error = self.run_op(raw)
            self.problems += [f"reference op {i}: {p}" for p in
                              workloads.compare_reference(
                                  stored["operations"][i], output, error)]

    def run_unit(self, manifests, tracer=None) -> Unit:
        wall = 0.0
        steps = failed = 0
        for i, raw in enumerate(manifests):
            if tracer is not None:
                tracer.op += 1
            with tracer.installed() if tracer else contextlib.nullcontext():
                manifest, op_wall, output, error = self.run_op(raw)
            wall += op_wall
            if error is not None:
                failed += 1
                continue
            op_steps, problems = workloads.check_output(manifest, output)
            if manifest["kind"] == "identity_suite":
                expected = self.first_bytes.setdefault(i, output["bytes"])
                if output["bytes"] != expected:
                    problems.append("output not byte-identical across units")
            if problems:
                failed += 1
                self.problems += [f"op {i} ({manifest['kind']}): {p}"
                                  for p in problems]
            else:
                steps += op_steps
        return Unit(wall, steps, len(manifests), failed, tracer is not None)


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def run(spec: dict) -> dict:
    """Run one workload for ``spec['seconds']`` and summarize it."""
    root = Path(spec["root"])
    cli = import_cli(root / "src")
    out_dir = Path(spec["work_dir"])
    runner = Runner(cli, out_dir)
    manifests = workloads.unit_manifests(spec["workload"], spec["seed"],
                                         spec["tiny"])
    if not spec["tiny"]:
        runner.check_reference(spec["workload"])

    tracer = Tracer() if spec["trace"] else None
    min_units = 2 if tracer else 1
    units: list[Unit] = []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        traced = tracer is not None and len(units) % 2 == 1
        units.append(runner.run_unit(manifests, tracer if traced else None))
        elapsed = time.perf_counter() - start
        # start another unit only if it should end within half a unit of
        # the budget
        unit_cost = time.perf_counter() - unit_start
        if len(units) >= min_units and elapsed + 0.5 * unit_cost >= spec["seconds"]:
            break

    plain = [u for u in units if not u.traced]
    result = {
        "units": [asdict(u) for u in units],
        "problems": runner.problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "wall_s": statistics.median(u.wall_s for u in plain),
        "steps_per_s": statistics.median(u.steps / u.wall_s for u in plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine_record(root),
    }
    if tracer is not None:
        traced = [u for u in units if u.traced]
        result["layers"] = layer_metrics(tracer.spans, len(traced),
                                         sum(u.wall_s for u in traced))
        result["layers"]["trace.overhead_wall_s"] = (
            statistics.median(u.wall_s for u in traced) - result["wall_s"])
        # self times partition the root spans, which sit inside the timed
        # calls; anything else means spans were lost or counted twice
        coverage = result["layers"]["trace.self_time_coverage"]
        if not MIN_COVERAGE <= coverage <= 1.0:
            runner.problems.append(f"layer self times cover {coverage:.4f} "
                                   "of the traced wall time")
        with open(spec["spans_path"], "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                     s.error, s.size]) + "\n")
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    result = run(spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
