"""momentflow benchmark: run one workload, check it, print its metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload porous_p4 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
machine record, goes to ``benchmarks/out/``.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the program
to measure is missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

# One BLAS thread: on a small shared machine a second thread buys little at
# these sizes and makes timings noisier.
BLAS_THREADS = "1"
SETUP_REPEATS = 3
# what a fresh `momentflow run` pays before any numerics
SETUP_CODE = ("import json, sys\n"
              "import momentflow.cli as cli\n"
              "for raw in json.loads(sys.argv[1]):\n"
              "    cli.resolve_manifest(raw)\n")
# a worker that outlives this is killed; the whole run must end in 180 s
WORKER_SLACK_S = 120


def metric_units() -> dict:
    """Unit of every metric named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(manifests) -> float:
    """Median wall time of fresh interpreters that import momentflow.cli and
    resolve the workload's manifests."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(manifests)],
                       env=child_env(), check=True, stdout=subprocess.DEVNULL,
                       cwd=ROOT, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_worker(spec: dict, seconds: float) -> dict:
    result_path = Path(spec["work_dir"]) / "result.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec),
                    str(result_path)],
                   env=child_env(), check=True, stdout=subprocess.DEVNULL,
                   cwd=ROOT, timeout=seconds + WORKER_SLACK_S)
    return json.loads(result_path.read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; skips the reference check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentflow" / "cli.py").is_file():
        print(f"momentflow sources not found under {SRC}", file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{label}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    manifests = workloads.unit_manifests(args.workload, args.seed, args.tiny)
    try:
        setup_s = measure_setup(manifests)
        result = run_worker({"root": str(ROOT), "workload": args.workload,
                             "seed": args.seed, "seconds": args.seconds,
                             "trace": bool(args.trace), "tiny": args.tiny,
                             "work_dir": str(work_dir),
                             "spans_path": str(OUT / f"{label}-spans.jsonl")},
                            args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted
    if args.trace:
        values = {**result["layers"], "error_rate": error_rate}
    else:
        values = {"setup_s": setup_s, "wall_s": result["wall_s"],
                  "steps_per_s": result["steps_per_s"],
                  "peak_rss_mib": result["peak_rss_mib"]}
    # names and units come from BENCHMARK.json; a name missing there is a bug
    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = not result["problems"]

    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['units'])} units "
          f"({sum(u['traced'] for u in result['units'])} traced), "
          f"{attempted} operations, "
          f"{failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'error_rate':<40} {error_rate:>16.6g} {units['error_rate']} "
              f"({failed} of {attempted} operations failed)")
    for problem in result["problems"]:
        print(f"correctness: {problem}")
    print("correctness: " + ("all checks passed" if correct else "FAILED"))

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (OUT / f"{label}.json").write_text(json.dumps(
        {**summary, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "tiny": args.tiny,
         "machine": result["machine"], "units": result["units"],
         "problems": result["problems"]}, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
