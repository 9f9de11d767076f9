"""Regenerate the stored reference outputs in ``reference/``.

The references pin what the momentflow code of the commit that defined the
benchmark produced for each workload's reference manifests.  Regenerate
them only when a change is meant to alter the numerics, and say so in the
change.  Run from the repository root:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import Runner, import_cli  # noqa: E402


def main() -> int:
    cli = import_cli(HERE.parent / "src")
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        runner = Runner(cli, work)
        for workload in workloads.WORKLOADS:
            operations = []
            for raw in workloads.reference_manifests(workload):
                manifest, _, output, error = runner.run_op(raw)
                operations.append({"manifest": manifest,
                                   **workloads.reference_entry(output, error)})
            workloads.reference_path(workload).write_text(json.dumps(
                {"workload": workload, "operations": operations}) + "\n")
            print(f"wrote {workloads.reference_path(workload)}")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
