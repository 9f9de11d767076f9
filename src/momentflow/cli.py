"""Command line interface for runs, sweeps, spectra, and the check suite.

Manifests are JSON.  Every output file embeds the fully resolved manifest,
so a run is reproducible from its own artifacts: CSV time series carry it
as a leading comment line, JSON reports as a ``manifest`` field.  All
randomness flows through a single NumPy PCG64 generator seeded from the
manifest, and floats are serialized with 17 significant digits, which makes
outputs byte-identical across repeated runs of the same build.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from .dual import CONSTRAINT_KINDS, ConstraintSpace
from .errors import ConfigError, NumericalError
from .flow import (
    CSV_HEADER,
    EPS_REG,
    PROX_TOL,
    FlowConfig,
    FlowResult,
    fit_decay,
    project_admissible,
    run_flow,
    run_linear_flow,
    step_count,
)
from .grid import GridFunction, Polynomial, poly_to_grid, quadrature
from .heat import OperatorAssembly, assemble_operator, spectrum
from .moments import random_polynomial
from .suite import identity_suite

KINDS = ("identity_suite", "linear_flow", "nonlinear_flow", "spectrum",
         "decay_sweep")
Y_KINDS = tuple(CONSTRAINT_KINDS)

_DEFAULTS = {
    "seed": 0,
    "n_points": 513,
    "dt": 1e-3,
    "t_final": 5.0,
    "eta": 1.0,
    "scheme": "implicit_euler",
    "k_eigs": 8,
    "samples": 200,
    "max_degree": 6,
}


_RELEVANT_KEYS = {
    "identity_suite": {"kind", "seed", "samples", "max_degree"},
    "spectrum": {"kind", "seed", "n", "y", "n_points", "k_eigs"},
    "linear_flow": {"kind", "seed", "n", "y", "n_points", "dt", "t_final",
                    "eta", "scheme", "initial"},
    "nonlinear_flow": {"kind", "seed", "n", "y", "n_points", "dt", "t_final",
                       "p", "initial"},
    "decay_sweep": {"kind", "seed", "n", "y", "n_points", "dt", "t_final",
                    "p_values", "initial"},
}

# former manifest fields, now flow constants; old outputs embed these values
_FIXED_KEYS = {"prox_tol": PROX_TOL, "eps_reg": EPS_REG}


def _fail(field: str, message: str):
    raise ConfigError(f"field '{field}': {message}")


def _is_finite_number(value) -> bool:
    """False for non-numbers (bool included), NaN, the infinities (which
    JSON parsing accepts) and integers beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _expect_number(manifest, field, lo=None, lo_strict=None, whole=False):
    value = manifest[field]
    if not _is_finite_number(value):
        _fail(field, "must be a finite number")
    value = float(value)
    if whole and not value.is_integer():
        _fail(field, "must be a whole number")
    if lo is not None and value < lo:
        _fail(field, f"must be at least {lo}")
    if lo_strict is not None and value <= lo_strict:
        _fail(field, f"must exceed {lo_strict}")
    return int(value) if whole else value


def _prune(manifest: dict) -> dict:
    keep = _RELEVANT_KEYS[manifest["kind"]]
    return {k: v for k, v in manifest.items() if k in keep}


def resolve_manifest(raw: dict) -> dict:
    """Validate a raw manifest, fill defaults relevant to its kind, and
    drop the rest; raises ConfigError naming the offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("manifest must be a JSON object")
    # defaults are filled into the nested blocks too, never into the caller's
    manifest = copy.deepcopy(raw)
    kind = manifest.get("kind")
    if kind not in KINDS:
        _fail("kind", f"must be one of {', '.join(KINDS)}")

    for key, default in _DEFAULTS.items():
        manifest.setdefault(key, default)
    seed = manifest["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("seed", "must be a nonnegative integer")

    if kind == "identity_suite":
        manifest["samples"] = _expect_number(manifest, "samples", lo=1, whole=True)
        manifest["max_degree"] = _expect_number(manifest, "max_degree", lo=1,
                                                whole=True)
        return _prune(manifest)

    if "n" not in manifest:
        _fail("n", "is required")
    n = manifest["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        _fail("n", "must be a positive integer")

    y = manifest.setdefault("y", {"kind": "zero_zero"})
    if not isinstance(y, dict) or y.get("kind") not in Y_KINDS:
        _fail("y.kind", f"must be one of {', '.join(Y_KINDS)}")
    if y["kind"] == "line":
        if "slope" not in y:
            _fail("y.slope", "is required for line constraints")
        if not _is_finite_number(y["slope"]):
            _fail("y.slope", "must be a finite number")
    elif "slope" in y:
        _fail("y.slope", "only applies to line constraints")

    manifest["n_points"] = _expect_number(manifest, "n_points", lo=17, whole=True)

    if kind == "spectrum":
        manifest["k_eigs"] = _expect_number(manifest, "k_eigs", lo=1, whole=True)
        available = manifest["n_points"] - _constraint_space(manifest).n_constraints
        if manifest["k_eigs"] > available:
            _fail("k_eigs", f"at most {available} modes exist on this grid")
        return _prune(manifest)

    manifest["dt"] = _expect_number(manifest, "dt", lo_strict=0.0)
    manifest["t_final"] = _expect_number(manifest, "t_final", lo_strict=0.0)
    try:
        step_count(manifest["dt"], manifest["t_final"])
    except ValueError:
        _fail("t_final", "must be a whole number of dt steps")
    for field, value in _FIXED_KEYS.items():
        if manifest.get(field, value) != value:
            _fail(field, f"is the solver constant {value:g}; omit it")

    initial = manifest.setdefault("initial", {"preset": "random", "degree": 6})
    if not isinstance(initial, dict) or "preset" not in initial:
        _fail("initial.preset", "is required")
    if initial["preset"] == "poly":
        coeffs = initial.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs or not all(
                _is_finite_number(c) for c in coeffs):
            _fail("initial.coeffs", "must be a nonempty list of finite numbers")
    elif initial["preset"] == "random":
        degree = initial.setdefault("degree", 6)
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            _fail("initial.degree", "must be a nonnegative integer")
    else:
        _fail("initial.preset", "must be 'poly' or 'random'")
    if not isinstance(initial.setdefault("normalize", True), bool):
        _fail("initial.normalize", "must be true or false")

    if kind == "linear_flow":
        manifest["eta"] = _expect_number(manifest, "eta")
        if manifest["scheme"] not in ("implicit_euler", "exponential"):
            _fail("scheme", "must be 'implicit_euler' or 'exponential'")
        if manifest["scheme"] == "exponential" and manifest["eta"] != 1.0:
            _fail("eta", "exponential stepping only covers eta = 1")
        return _prune(manifest)

    if kind == "nonlinear_flow":
        if "p" not in manifest:
            _fail("p", "is required")
        manifest["p"] = _expect_number(manifest, "p")
        if manifest["p"] <= 1.0:
            _fail("p", "exponents at or below 1 are outside the supported range")
        return _prune(manifest)

    # decay_sweep
    p_values = manifest.get("p_values")
    if not isinstance(p_values, list) or not p_values:
        _fail("p_values", "must be a nonempty list for decay sweeps")
    for p in p_values:
        if not _is_finite_number(p) or p <= 1.0:
            _fail("p_values", "every exponent must be a finite number above 1")
    manifest["p_values"] = [float(p) for p in p_values]
    names = [_sweep_csv_name(p) for p in manifest["p_values"]]
    if len(set(names)) != len(names):
        _fail("p_values", "exponents equal when rounded to six significant "
              "digits would share one output file flow_p{p:g}.csv")
    return _prune(manifest)


def _sweep_csv_name(p: float) -> str:
    return f"flow_p{p:g}.csv"


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_manifest(raw)


def _constraint_space(manifest) -> ConstraintSpace:
    y = manifest["y"]
    if y["kind"] == "line":
        return ConstraintSpace.line(float(y["slope"]))
    return ConstraintSpace(y["kind"])


def _assembly(manifest) -> OperatorAssembly:
    """The discretization a spectrum, flow or sweep manifest states."""
    return assemble_operator(manifest["n"], _constraint_space(manifest),
                             manifest["n_points"])


def initial_state(manifest) -> GridFunction:
    """Materialize the configured initial preset on the run grid."""
    initial = manifest["initial"]
    if initial["preset"] == "poly":
        poly = Polynomial(tuple(Fraction(c) for c in initial["coeffs"]))
    else:
        rng = np.random.default_rng(manifest["seed"])
        poly = random_polynomial(rng, initial["degree"])
    state = project_admissible(poly_to_grid(poly, manifest["n_points"]),
                               manifest["n"], _constraint_space(manifest))
    if initial["normalize"]:
        scale = quadrature(GridFunction(state.values ** 2)) ** 0.5
        if scale > 0:
            state = GridFunction(state.values / scale)
    return state


def _format(value: float) -> str:
    return f"{value:.17g}"


def write_flow_csv(path: Path, manifest: dict, result: FlowResult) -> None:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(CSV_HEADER)
    for record in result.records:
        lines.append(",".join(_format(v) for v in record.as_row()))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _suite_table(report: dict) -> str:
    lines = []
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        lines.append(f"{status}  {check['name']:<42} cases={check['cases']:>5} "
                     f"max_residual={_format(check['max_residual'])}")
    lines.append("overall: " + ("pass" if report["passed"] else "FAIL"))
    return "\n".join(lines)


def _report(manifest: dict, path: Path | None) -> int:
    """Compute an identity_suite or spectrum report, write its JSON payload
    to path (if given) and echo it; returns the exit code."""
    if manifest["kind"] == "identity_suite":
        report = identity_suite(seed=manifest["seed"],
                                samples=manifest["samples"],
                                max_degree=manifest["max_degree"])
        payload = {"manifest": manifest, **report}
        text, code = _suite_table(report), 0 if report["passed"] else 1
    else:
        values = spectrum(_assembly(manifest), manifest["k_eigs"])
        payload = {"manifest": manifest,
                   "eigenvalues": [float(v) for v in values]}
        text, code = json.dumps(payload, sort_keys=True, indent=2), 0
    if path is not None:
        _write_json(path, payload)
    click.echo(text)
    return code


def _flow(manifest: dict, asm: OperatorAssembly, path: Path) -> FlowResult:
    """Run a linear_flow or nonlinear_flow manifest on ``asm``, the
    discretization it states, and write its CSV."""
    linear = manifest["kind"] == "linear_flow"
    cfg = FlowConfig(2.0 if linear else manifest["p"], manifest["dt"],
                     manifest["t_final"])
    u0 = initial_state(manifest)
    if linear:
        result = run_linear_flow(u0, cfg, asm, scheme=manifest["scheme"],
                                 eta=manifest["eta"])
    else:
        result = run_flow(u0, cfg, asm)
    write_flow_csv(path, manifest, result)
    return result


def execute(manifest: dict, out_dir: Path) -> int:
    """Run a resolved manifest; returns the process exit code."""
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = manifest["kind"]
    if kind in ("identity_suite", "spectrum"):
        return _report(manifest, out_dir / f"{kind}.json")

    if kind in ("linear_flow", "nonlinear_flow"):
        path = out_dir / f"{kind}.csv"
        result = _flow(manifest, _assembly(manifest), path)
        click.echo(f"wrote {path} ({len(result.records)} records)")
        return 0

    # decay sweep: one nonlinear run per exponent, each owning its output
    # file; the exponents share n, y and n_points, so they share one assembly.
    # A failed exponent is recorded and the others still run.
    asm = _assembly(manifest)
    runs = []
    for p in sorted(manifest["p_values"]):
        run_manifest = {**manifest, "kind": "nonlinear_flow", "p": p}
        del run_manifest["p_values"]
        name = _sweep_csv_name(p)
        try:
            result = _flow(run_manifest, asm, out_dir / name)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            runs.append({"p": p, "csv": None, "error": str(exc)})
            continue
        fits = {}
        for model in ("polynomial", "exponential"):
            try:
                fit = fit_decay(result.records, model)
                fits[model] = {"rate": fit.rate, "r_squared": fit.r_squared,
                               "n_used": fit.n_used}
            except ValueError as exc:
                fits[model] = {"error": str(exc)}
        runs.append({"p": p, "csv": name, "fits": fits})
    _write_json(out_dir / "decay_sweep.json", {"manifest": manifest, "runs": runs})
    click.echo(f"wrote {out_dir / 'decay_sweep.json'}")
    return 1 if any("error" in run for run in runs) else 0


def _exit_with(action) -> None:
    """Exit with the code action() returns: 2 on a configuration error,
    1 on a numerical failure."""
    try:
        code = action()
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    except (NumericalError, ValueError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


@click.group()
def main():
    """Moment-constrained diffusion flows on the unit interval."""


@main.command("run")
@click.argument("config", type=click.Path(exists=False))
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=".",
              help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override manifest seed.")
def run_command(config, out_dir, seed):
    """Execute the experiment described by a JSON manifest."""
    def action():
        manifest = load_config(config)
        if seed is not None:
            manifest = resolve_manifest({**manifest, "seed": seed})
        return execute(manifest, out_dir)

    _exit_with(action)


@main.command("check")
@click.option("--seed", type=int, default=0, help="Suite seed.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Also write the JSON report here.")
def check_command(seed, out_path):
    """Run the full identity suite with default settings."""
    _exit_with(lambda: _report(
        resolve_manifest({"kind": "identity_suite", "seed": seed}), out_path))


@main.command("spectrum")
@click.option("--n", "n", type=int, required=True, help="Moment index.")
@click.option("--y", "y_kind", type=click.Choice(Y_KINDS), required=True,
              help="Constraint kind.")
@click.option("--points", type=int, default=_DEFAULTS["n_points"],
              help="Grid points.")
@click.option("--slope", type=float, default=None,
              help="Slope for line constraints.")
@click.option("--k", "k_eigs", type=int, default=_DEFAULTS["k_eigs"],
              help="How many eigenvalues.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Also write the JSON report here.")
def spectrum_command(n, y_kind, points, slope, k_eigs, out_path):
    """Smallest eigenvalues of the constrained operator."""
    raw = {"kind": "spectrum", "n": n, "n_points": points, "k_eigs": k_eigs,
           "y": {"kind": y_kind}}
    if slope is not None:
        raw["y"]["slope"] = slope
    _exit_with(lambda: _report(resolve_manifest(raw), out_path))


if __name__ == "__main__":
    main()
