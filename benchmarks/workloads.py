"""The benchmark's workloads: their manifests and their correctness checks.

A workload unit is a list of raw momentflow manifests, run one after the
other through ``momentflow.cli.execute``; each manifest run is one
operation.  Manifests are built from the workload seed alone, so the same
seed gives the same inputs.  Every output is checked against the paper's
identities at the acceptance tolerances, never by byte equality (except
the exact identity suite, whose output is deterministic by design).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("porous_p4", "fast_diffusion_grid", "heat_n2049", "identity_check")

# Moment constraints and the flow's metric contraction, as in the
# acceptance criteria (criteria 5 and 11).
CONSTRAINT_TOL = 1e-8
NORM_INCREASE_TOL = 1e-8
# Criterion 4: lambda_1 = 4 pi^2 for n = 1 with only the mass pinned.
LAMBDA1_RTOL = 0.005
# Reference comparison: a trajectory column may move by this share of its
# largest magnitude in the reference, plus an absolute floor for columns
# that are zero up to rounding (the pinned moments).  A solver change that
# only moves rounding, or re-converges Newton within prox_tol = 1e-9,
# stays well inside.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9
# Columns compared against the reference.  The dissipation residual is
# left out: it is a finite difference of hy_norm_sq divided by dt, so it
# amplifies solver-tolerance changes a thousandfold, and hy_norm_sq itself
# is compared.
REFERENCE_COLUMNS = ("t", "mu0", "mu1", "mun", "lp_energy", "hy_norm_sq")

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ZERO_ZERO = {"kind": "zero_zero"}
GRID_SPACES = ({"kind": "zero_zero"}, {"kind": "zero_free"},
               {"kind": "line", "slope": 0.5}, {"kind": "full"})
GRID_CONFIGS = tuple((p, n, y) for p in (1.5, 1.1) for n in (1, 2, 3)
                     for y in GRID_SPACES)

POROUS_T_FINAL = 0.8
GRID_T_FINAL = 0.01
# How long a p < 2 run takes to converge or give up swings fivefold between
# random initial shapes, so each configuration gets several independent
# draws; three per unit keep the unit under 20 s on one core.
GRID_DRAWS = 3
HEAT_T_FINAL = 0.1


def _nonlinear(seed, p, n, y, n_points, t_final):
    return {"kind": "nonlinear_flow", "seed": seed, "p": p, "n": n,
            "y": dict(y), "n_points": n_points, "dt": 1e-3,
            "t_final": t_final, "initial": {"preset": "random", "degree": 6}}


def _linear(seed, n_points, t_final):
    return {"kind": "linear_flow", "seed": seed, "n": 1,
            "y": {"kind": "zero_free"}, "n_points": n_points, "dt": 1e-3,
            "t_final": t_final, "scheme": "implicit_euler",
            "initial": {"preset": "random", "degree": 6}}


def _spectrum(seed, n_points):
    return {"kind": "spectrum", "seed": seed, "n": 1,
            "y": {"kind": "zero_free"}, "n_points": n_points, "k_eigs": 8}


def unit_manifests(workload: str, seed: int, tiny: bool = False) -> list:
    """Raw manifests of one workload unit.

    ``tiny`` shrinks grids, horizons and sample counts to a smoke-test size
    without changing which code paths run.
    """
    if workload == "porous_p4":
        return [_nonlinear(seed, 4.0, 2, ZERO_ZERO, 33 if tiny else 513,
                           0.005 if tiny else POROUS_T_FINAL)]
    if workload == "fast_diffusion_grid":
        # every run draws its own initial condition from the workload seed
        draws = 1 if tiny else GRID_DRAWS
        configs = GRID_CONFIGS * draws
        return [_nonlinear(seed * len(configs) + i, p, n, y,
                           33 if tiny else 257, 0.003 if tiny else GRID_T_FINAL)
                for i, (p, n, y) in enumerate(configs)]
    if workload == "heat_n2049":
        points = 65 if tiny else 2049
        return [_spectrum(seed, points),
                _linear(seed, points, 0.005 if tiny else HEAT_T_FINAL)]
    if workload == "identity_check":
        return [{"kind": "identity_suite", "seed": seed,
                 "samples": 4 if tiny else 200, "max_degree": 6}]
    raise ValueError(f"unknown workload {workload!r}")


def reference_manifests(workload: str) -> list:
    """Short runs at the reference seed whose outputs are stored in
    ``reference/``; they also warm the process up before timing."""
    seed = REFERENCE_SEED
    if workload == "porous_p4":
        return [_nonlinear(seed, 4.0, 2, ZERO_ZERO, 513, 0.02)]
    if workload == "fast_diffusion_grid":
        picks = ((1.5, 1, GRID_SPACES[0]), (1.5, 2, GRID_SPACES[2]),
                 (1.1, 3, GRID_SPACES[1]), (1.1, 2, GRID_SPACES[3]))
        return [_nonlinear(seed, p, n, y, 257, 0.005) for p, n, y in picks]
    if workload == "heat_n2049":
        return [_spectrum(seed, 513), _linear(seed, 513, 0.02)]
    if workload == "identity_check":
        return [{"kind": "identity_suite", "seed": seed, "samples": 10,
                 "max_degree": 6}]
    raise ValueError(f"unknown workload {workload!r}")


OUTPUT_NAMES = {"nonlinear_flow": "nonlinear_flow.csv",
                "linear_flow": "linear_flow.csv",
                "spectrum": "spectrum.json",
                "identity_suite": "identity_suite.json"}


def read_output(manifest: dict, out_dir: Path) -> dict:
    """Load what one operation wrote: a trajectory, a spectrum or a report."""
    path = out_dir / OUTPUT_NAMES[manifest["kind"]]
    raw = path.read_bytes()
    if manifest["kind"].endswith("_flow"):
        lines = raw.decode().splitlines()
        header = lines[1].split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[2:]])
        return {"columns": header, "records": rows, "bytes": raw}
    return {**json.loads(raw), "bytes": raw}


def check_output(manifest: dict, output: dict) -> tuple:
    """Steps done and the list of violated identities for one operation.

    A step is a time step of a flow, one checked case of the identity
    suite, and none for a spectrum.
    """
    kind = manifest["kind"]
    problems = []
    if kind.endswith("_flow"):
        cols = {name: output["records"][:, i]
                for i, name in enumerate(output["columns"])}
        rows = output["records"].shape[0]
        steps = int(round(manifest["t_final"] / manifest["dt"]))
        if rows != steps + 1:
            problems.append(f"{rows} records for {steps} steps")
        if not np.all(np.isfinite(output["records"])):
            problems.append("non-finite values in the trajectory")
        y = manifest["y"]
        drift = {"zero_zero": np.maximum(np.abs(cols["mu0"]), np.abs(cols["mun"])),
                 "zero_free": np.abs(cols["mu0"]),
                 "line": np.abs(cols["mun"] - y.get("slope", 0.0) * cols["mu0"]),
                 "full": np.zeros(rows)}[y["kind"]]
        if drift.size and float(np.max(drift)) > CONSTRAINT_TOL:
            problems.append(f"constraint drift {float(np.max(drift)):.3e} "
                            f"> {CONSTRAINT_TOL:g}")
        norm = np.sqrt(np.maximum(cols["hy_norm_sq"], 0.0))
        rise = float(np.max(np.diff(norm))) if rows > 1 else 0.0
        if rise > NORM_INCREASE_TOL:
            problems.append(f"metric norm increased by {rise:.3e}")
        return rows - 1, problems
    if kind == "spectrum":
        lam = np.array(output["eigenvalues"])
        if not (np.all(lam > 0) and np.all(np.diff(lam) >= 0)):
            problems.append("eigenvalues not positive and ascending")
        if manifest["n"] == 1 and manifest["y"]["kind"] == "zero_free":
            target = 4.0 * math.pi ** 2
            rel = abs(lam[0] - target) / target
            if rel > LAMBDA1_RTOL:
                problems.append(f"lambda_1 {lam[0]:.6f} off 4 pi^2 by {rel:.2e}")
        return 0, problems
    if kind == "identity_suite":
        if not output["passed"]:
            problems.append("identity suite did not pass")
        nonzero = [c["name"] for c in output["checks"] if c["max_residual"] != 0.0]
        if nonzero:
            problems.append("nonzero exact residuals: " + ", ".join(nonzero))
        return sum(c["cases"] for c in output["checks"]), problems
    raise ValueError(f"unknown manifest kind {kind!r}")


def reference_entry(output: dict | None, error: str | None) -> dict:
    """The part of an operation's output that the reference file keeps."""
    if error is not None:
        return {"failed": error}
    if "records" in output:
        keep = [output["columns"].index(c) for c in REFERENCE_COLUMNS]
        return {"records": output["records"][:, keep].tolist()}
    if "eigenvalues" in output:
        return {"eigenvalues": output["eigenvalues"]}
    return {"text": output["bytes"].decode()}


def compare_reference(entry: dict, output: dict | None, error: str | None) -> list:
    """Differences between one reference operation and its rerun."""
    if "failed" in entry:
        # the seed code failed here; completing now is not a regression
        return []
    if error is not None:
        return [f"failed where the reference completed: {error}"]
    now = reference_entry(output, None)
    if "text" in entry:
        return [] if now["text"] == entry["text"] else ["output bytes differ"]
    key = "records" if "records" in entry else "eigenvalues"
    ref, new = np.array(entry[key]), np.array(now[key])
    if ref.shape != new.shape:
        return [f"{key} shape {new.shape} differs from reference {ref.shape}"]
    names = REFERENCE_COLUMNS
    if ref.ndim == 1:
        ref, new, names = ref[:, None], new[:, None], ("eigenvalues",)
    scale = np.max(np.abs(ref), axis=0)
    allowed = REFERENCE_RTOL * scale + REFERENCE_ATOL
    worst = np.max(np.abs(new - ref) - allowed, axis=0)
    return [f"{names[j]} off the reference by more than "
            f"{REFERENCE_RTOL:g} x its scale + {REFERENCE_ATOL:g}"
            for j in np.nonzero(worst > 0)[0]]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"
