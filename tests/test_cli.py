import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from momentflow.cli import execute, load_config, main, resolve_manifest
from momentflow.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_minimal_identity_suite_manifest():
    manifest = resolve_manifest({"kind": "identity_suite"})
    assert manifest["seed"] == 0
    assert manifest["samples"] == 200


def test_manifest_rejects_low_exponent():
    with pytest.raises(ConfigError, match="'p'"):
        resolve_manifest({"kind": "nonlinear_flow", "n": 2, "p": 0.5})


def test_manifest_requires_moment_index():
    with pytest.raises(ConfigError, match="'n'"):
        resolve_manifest({"kind": "nonlinear_flow", "p": 3.0})


def test_manifest_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="'kind'"):
        resolve_manifest({"kind": "magic"})


def test_manifest_line_constraints_need_slope():
    with pytest.raises(ConfigError, match="y.slope"):
        resolve_manifest({"kind": "spectrum", "n": 1, "y": {"kind": "line"}})
    manifest = resolve_manifest({"kind": "spectrum", "n": 1,
                                 "y": {"kind": "line", "slope": 0.5}})
    assert manifest["y"]["slope"] == 0.5


def test_manifest_validates_initial_block():
    with pytest.raises(ConfigError, match="initial.coeffs"):
        resolve_manifest({"kind": "nonlinear_flow", "n": 2, "p": 3.0,
                          "initial": {"preset": "poly", "coeffs": []}})
    with pytest.raises(ConfigError, match="initial.preset"):
        resolve_manifest({"kind": "nonlinear_flow", "n": 2, "p": 3.0,
                          "initial": {"preset": "chirp"}})
    raw = {"kind": "nonlinear_flow", "n": 2, "p": 3.0,
           "initial": {"preset": "random", "normalize": "false"}}
    with pytest.raises(ConfigError, match="initial.normalize"):
        resolve_manifest(raw)
    raw["initial"]["normalize"] = False
    assert resolve_manifest(raw)["initial"]["normalize"] is False


@pytest.mark.parametrize("raw", [
    {"kind": "linear_flow", "n": 2, "initial": {"preset": "random"}},
    {"kind": "nonlinear_flow", "n": 3, "p": 1.5,
     "y": {"kind": "line", "slope": 0.5},
     "initial": {"preset": "poly", "coeffs": [1, -2, 0.5]}},
    {"kind": "decay_sweep", "n": 2, "p_values": [3, 2.5],
     "initial": {"preset": "random", "degree": 4}},
])
def test_resolve_manifest_leaves_its_argument_alone(raw):
    before = copy.deepcopy(raw)
    resolved = resolve_manifest(raw)
    assert raw == before
    assert resolved["initial"]["normalize"] is True


@pytest.mark.parametrize("raw, message", [
    pytest.param({"kind": "spectrum", "n": 1, "n_points": 9},
                 "field 'n_points': must be at least", id="lo"),
    pytest.param({"kind": "linear_flow", "n": 2, "dt": 0.0},
                 "field 'dt': must exceed", id="lo_strict"),
    pytest.param(["kind", "spectrum"], "manifest", id="not_a_dict"),
    pytest.param({"kind": "spectrum", "n": 0}, "field 'n': must be a positive", id="n"),
    pytest.param({"kind": "spectrum", "n": 1, "y": {"kind": "moon"}},
                 "field 'y.kind'", id="y.kind"),
    pytest.param({"kind": "spectrum", "n": 1, "y": {"kind": "full", "slope": 1}},
                 "field 'y.slope'", id="y.slope"),
    pytest.param({"kind": "nonlinear_flow", "n": 2, "p": 3.0, "initial": {}},
                 "field 'initial.preset': is required", id="initial.preset"),
    pytest.param({"kind": "nonlinear_flow", "n": 2, "p": 3.0,
                  "initial": {"preset": "random", "degree": -1}},
                 "field 'initial.degree'", id="initial.degree"),
    pytest.param({"kind": "linear_flow", "n": 2, "scheme": "rk4"},
                 "field 'scheme'", id="scheme"),
    pytest.param({"kind": "nonlinear_flow", "n": 2}, "field 'p': is required", id="p"),
    pytest.param({"kind": "decay_sweep", "n": 2, "p_values": []},
                 "field 'p_values'", id="p_values"),
])
def test_manifest_errors_name_their_field(raw, message):
    with pytest.raises(ConfigError, match=message):
        resolve_manifest(raw)


def test_exponential_scheme_needs_unit_eta(tmp_path):
    raw = {"kind": "linear_flow", "n": 2, "n_points": 33, "t_final": 0.01,
           "scheme": "exponential", "eta": 0.5}
    with pytest.raises(ConfigError, match="'eta'"):
        resolve_manifest(raw)
    result = CliRunner().invoke(main, ["run", str(write_config(tmp_path, raw)),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "'eta'" in result.output
    assert resolve_manifest({**raw, "eta": 1})["eta"] == 1.0
    assert resolve_manifest({**raw, "scheme": "implicit_euler"})["eta"] == 0.5


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(utf16)


def test_run_exits_2_on_bad_config(tmp_path):
    path = write_config(tmp_path, {"kind": "nonlinear_flow", "n": 2, "p": 0.5})
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code == 2
    assert "'p'" in result.output


@pytest.mark.parametrize("field, patch", [
    ("n_points", {"n_points": 100.7}),
    ("k_eigs", {"k_eigs": 2.9}),
    ("samples", {"kind": "identity_suite", "samples": 3.5}),
    ("max_degree", {"kind": "identity_suite", "max_degree": 4.2}),
])
def test_manifest_rejects_fractional_counts(tmp_path, field, patch):
    payload = {"kind": "spectrum", "n": 2, "n_points": 65, **patch}
    with pytest.raises(ConfigError, match=f"'{field}'.*whole number"):
        resolve_manifest(payload)
    result = CliRunner().invoke(main, ["run", str(write_config(tmp_path, payload)),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert field in result.output
    # integral floats still resolve, to ints
    resolved = resolve_manifest({**payload, field: 20.0})[field]
    assert resolved == 20 and isinstance(resolved, int)


@pytest.mark.parametrize("kind", ("linear_flow", "nonlinear_flow", "decay_sweep"))
@pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (2.0, 1.0), (0.4, 1.0)])
def test_manifest_rejects_t_final_off_the_dt_grid(kind, dt, t_final):
    raw = {"kind": kind, "n": 2, "p": 3.0, "p_values": [3.0],
           "dt": dt, "t_final": t_final}
    with pytest.raises(ConfigError, match="'t_final'"):
        resolve_manifest(raw)
    # a horizon within rounding of a whole number of steps resolves
    manifest = resolve_manifest({**raw, "dt": 0.1, "t_final": 0.3})
    assert manifest["t_final"] == 0.3


def test_manifest_caps_requested_modes():
    with pytest.raises(ConfigError, match="k_eigs"):
        resolve_manifest({"kind": "spectrum", "n": 1, "n_points": 33,
                          "k_eigs": 10 ** 6})


def test_run_exits_1_on_numerical_failure(tmp_path, monkeypatch):
    import momentflow.cli as cli_module
    from momentflow.errors import NumericalError

    def boom(**kwargs):
        raise NumericalError("forced failure")

    monkeypatch.setattr(cli_module, "identity_suite", boom)
    path = write_config(tmp_path, {"kind": "identity_suite"})
    result = CliRunner().invoke(main, ["run", str(path),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "numerical failure" in result.output


def test_run_exits_1_when_lanczos_does_not_converge(tmp_path, monkeypatch):
    import scipy.sparse.linalg

    def stall(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "forced stall", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stall)
    path = write_config(tmp_path, {"kind": "spectrum", "n": 1, "n_points": 65,
                                   "y": {"kind": "zero_free"}})
    result = CliRunner().invoke(main, ["run", str(path),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "numerical failure" in result.output and "forced stall" in result.output


def test_check_exits_1_on_numerical_failure(monkeypatch):
    import momentflow.cli as cli_module
    from momentflow.errors import NumericalError

    def boom(**kwargs):
        raise NumericalError("forced failure")

    monkeypatch.setattr(cli_module, "identity_suite", boom)
    result = CliRunner().invoke(main, ["check"])
    assert result.exit_code == 1
    assert "numerical failure" in result.output


def test_check_writes_the_same_bytes_as_run(tmp_path):
    runner = CliRunner()
    out = tmp_path / "check.json"
    checked = runner.invoke(main, ["check", "--seed", "3", "--out", str(out)])
    path = write_config(tmp_path, {"kind": "identity_suite", "seed": 3})
    ran = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "run")])
    assert checked.exit_code == ran.exit_code == 0
    assert checked.output == ran.output
    assert out.read_bytes() == (tmp_path / "run" / "identity_suite.json").read_bytes()


def test_identity_suite_bytes_match_the_stored_reference(tmp_path):
    # the stored text is what the seed code wrote for seed 0, 10 samples
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / \
        "reference" / "identity_check.json"
    (operation,) = json.loads(reference.read_text())["operations"]
    assert execute(resolve_manifest(operation["manifest"]), tmp_path) == 0
    written = (tmp_path / "identity_suite.json").read_bytes()
    assert written == operation["text"].encode()


def test_spectrum_command_writes_the_same_bytes_as_run(tmp_path):
    runner = CliRunner()
    out = tmp_path / "eigs.json"
    direct = runner.invoke(main, [
        "spectrum", "--n", "2", "--y", "line", "--slope", "0.5",
        "--points", "65", "--k", "3", "--out", str(out)])
    path = write_config(tmp_path, {"kind": "spectrum", "n": 2, "n_points": 65,
                                   "k_eigs": 3,
                                   "y": {"kind": "line", "slope": 0.5}})
    ran = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "run")])
    assert direct.exit_code == ran.exit_code == 0
    assert direct.output == ran.output
    assert out.read_bytes() == (tmp_path / "run" / "spectrum.json").read_bytes()


def test_check_command_passes(tmp_path):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["check", "--seed", "3",
                                       "--out", str(out)])
    assert result.exit_code == 0
    assert "overall: pass" in result.output
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["manifest"]["seed"] == 3


def test_identity_suite_run_writes_report(tmp_path):
    path = write_config(tmp_path, {"kind": "identity_suite", "seed": 5,
                                   "samples": 25})
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path)])
    assert result.exit_code == 0
    payload = json.loads((tmp_path / "identity_suite.json").read_text())
    assert payload["passed"] is True
    assert payload["manifest"]["samples"] == 25


def test_spectrum_command_reference_value(tmp_path):
    out = tmp_path / "eigs.json"
    result = CliRunner().invoke(main, [
        "spectrum", "--n", "1", "--y", "zero_free", "--points", "129",
        "--k", "2", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    lam1 = payload["eigenvalues"][0]
    assert abs(lam1 - 4 * np.pi ** 2) / (4 * np.pi ** 2) < 0.01
    assert payload["manifest"]["n_points"] == 129


def test_nonlinear_flow_run_csv(tmp_path):
    config = {"kind": "nonlinear_flow", "n": 2, "p": 4.0, "seed": 1,
              "n_points": 65, "dt": 1e-3, "t_final": 0.02}
    path = write_config(tmp_path, config)
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path)])
    assert result.exit_code == 0
    lines = (tmp_path / "nonlinear_flow.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0].removeprefix("# manifest: "))
    assert manifest["p"] == 4.0
    assert lines[1] == "t,mu0,mu1,mun,lp_energy,hy_norm_sq,dissipation_residual"
    rows = lines[2:]
    assert len(rows) >= int(round(config["t_final"] / config["dt"]))
    first = [float(v) for v in rows[0].split(",")]
    assert first[0] == 0.0 and len(first) == 7


def test_flow_csv_is_deterministic(tmp_path):
    config = {"kind": "nonlinear_flow", "n": 2, "p": 3.0, "seed": 9,
              "n_points": 65, "dt": 1e-3, "t_final": 0.02}
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = write_config(tmp_path, config, name=f"cfg_{tag}.json")
        result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
        assert result.exit_code == 0
        blobs.append((out / "nonlinear_flow.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_linear_flow_run_with_poly_preset(tmp_path):
    config = {"kind": "linear_flow", "n": 1, "seed": 2, "n_points": 65,
              "dt": 1e-3, "t_final": 0.01,
              "initial": {"preset": "poly", "coeffs": [0, 1, -1]}}
    path = write_config(tmp_path, config)
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path)])
    assert result.exit_code == 0
    lines = (tmp_path / "linear_flow.csv").read_text().splitlines()
    assert len(lines) == 2 + 11


def test_decay_sweep_parallel(tmp_path):
    config = {"kind": "decay_sweep", "n": 2, "seed": 4, "n_points": 65,
              "dt": 1e-3, "t_final": 0.05, "p_values": [3.0, 4.0]}
    path = write_config(tmp_path, config)
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path)])
    assert result.exit_code == 0
    summary = json.loads((tmp_path / "decay_sweep.json").read_text())
    assert [run["p"] for run in summary["runs"]] == [3.0, 4.0]
    for run in summary["runs"]:
        assert (tmp_path / run["csv"]).exists()
        assert "polynomial" in run["fits"]
    # the exponents share one assembly; each run's records are still those
    # of the same exponent run on its own
    for p in config["p_values"]:
        alone = tmp_path / f"alone_p{p:g}"
        single = {**config, "kind": "nonlinear_flow", "p": p}
        del single["p_values"]
        path = write_config(tmp_path, single, name=f"alone_p{p:g}.json")
        result = CliRunner().invoke(main, ["run", str(path), "--out", str(alone)])
        assert result.exit_code == 0
        swept = (tmp_path / f"flow_p{p:g}.csv").read_bytes().split(b"\n", 1)[1]
        assert swept == (alone / "nonlinear_flow.csv").read_bytes().split(b"\n", 1)[1]
    # a horizon too short to fit still writes every run, each fit an error
    short = tmp_path / "short"
    path = write_config(tmp_path, {**config, "t_final": 0.01}, name="short.json")
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(short)])
    assert result.exit_code == 0
    summary = json.loads((short / "decay_sweep.json").read_text())
    error = {"error": "only 6 usable records in the fit window"}
    for run in summary["runs"]:
        assert run["fits"] == {"polynomial": error, "exponential": error}


def test_decay_sweep_keeps_the_other_exponents_when_one_fails(tmp_path,
                                                             monkeypatch):
    import momentflow.cli as cli_module
    from momentflow.errors import NumericalError

    real_run_flow = cli_module.run_flow

    def fail_at_p4(u0, cfg, asm):
        if cfg.p == 4.0:
            raise NumericalError("forced failure at p=4")
        return real_run_flow(u0, cfg, asm)

    monkeypatch.setattr(cli_module, "run_flow", fail_at_p4)
    config = {"kind": "decay_sweep", "n": 2, "seed": 4, "n_points": 65,
              "dt": 1e-3, "t_final": 0.05, "p_values": [4.0, 3.0]}
    path = write_config(tmp_path, config)
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path)])
    assert result.exit_code == 1
    assert "forced failure at p=4" in result.output
    summary = json.loads((tmp_path / "decay_sweep.json").read_text())
    assert summary["runs"][1] == {"p": 4.0, "csv": None,
                                  "error": "forced failure at p=4"}
    assert summary["runs"][0]["p"] == 3.0
    assert (tmp_path / summary["runs"][0]["csv"]).exists()
    assert not (tmp_path / "flow_p4.csv").exists()


def test_decay_sweep_rejects_colliding_file_names(tmp_path):
    # 3.0 and 3.0000001 would both write flow_p3.csv
    config = {"kind": "decay_sweep", "n": 2, "p_values": [3.0, 3.0000001]}
    with pytest.raises(ConfigError, match="p_values"):
        resolve_manifest(config)
    result = CliRunner().invoke(main, ["run", str(write_config(tmp_path, config)),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "p_values" in result.output


def test_manifest_takes_solver_tolerances_only_at_their_constants(tmp_path):
    # manifests written while prox_tol and eps_reg were fields carry them at
    # their defaults; those still rerun to the same bytes, other values exit 2
    config = {"kind": "nonlinear_flow", "n": 2, "p": 1.5, "seed": 3,
              "n_points": 33, "dt": 1e-3, "t_final": 0.005}
    blobs = []
    for tag, extra in (("a", {}), ("b", {"prox_tol": 1e-9, "eps_reg": 1e-8})):
        path = write_config(tmp_path, {**config, **extra}, name=f"{tag}.json")
        result = CliRunner().invoke(main, ["run", str(path), "--out",
                                           str(tmp_path / tag)])
        assert result.exit_code == 0
        blobs.append((tmp_path / tag / "nonlinear_flow.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert b"prox_tol" not in blobs[0] and b"eps_reg" not in blobs[0]
    for kind, extra in (("nonlinear_flow", {}), ("linear_flow", {}),
                        ("decay_sweep", {"p_values": [3.0]})):
        for field, value in (("prox_tol", 1e-6), ("eps_reg", 0.0),
                             ("eps_reg", "1e-8")):
            raw = {**config, **extra, "kind": kind, field: value}
            with pytest.raises(ConfigError, match=f"'{field}'"):
                resolve_manifest(raw)
    path = write_config(tmp_path, {**config, "prox_tol": 1e-6}, name="c.json")
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path / "c")])
    assert result.exit_code == 2
    assert "'prox_tol'" in result.output


def test_seed_override(tmp_path):
    config = {"kind": "identity_suite", "samples": 10}
    path = write_config(tmp_path, config)
    out = tmp_path / "r"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out),
                                       "--seed", "77"])
    assert result.exit_code == 0
    payload = json.loads((out / "identity_suite.json").read_text())
    assert payload["manifest"]["seed"] == 77


def test_negative_seed_is_a_configuration_error(tmp_path):
    raw = {"kind": "identity_suite", "seed": -1, "samples": 2}
    with pytest.raises(ConfigError, match="'seed'"):
        resolve_manifest(raw)
    result = CliRunner().invoke(main, ["run", str(write_config(tmp_path, raw)),
                                       "--out", str(tmp_path / "a")])
    assert result.exit_code == 2
    assert "'seed'" in result.output
    # the command-line override is checked the same way
    path = write_config(tmp_path, {**raw, "seed": 0}, name="ok.json")
    result = CliRunner().invoke(main, ["run", str(path), "--out",
                                       str(tmp_path / "b"), "--seed", "-3"])
    assert result.exit_code == 2
    assert "'seed'" in result.output
    assert not (tmp_path / "b" / "identity_suite.json").exists()


@pytest.mark.parametrize("field, patch", [
    ("'p'", {"p": float("nan")}),
    ("'t_final'", {"t_final": float("inf")}),
    ("'y.slope'", {"y": {"kind": "line", "slope": float("inf")}}),
    ("'p_values'", {"kind": "decay_sweep", "p_values": [float("nan")]}),
    ("'initial.coeffs'", {"initial": {"preset": "poly",
                                      "coeffs": [1.0, float("nan")]}}),
])
def test_run_exits_2_on_non_finite_numbers(tmp_path, field, patch):
    # json writes and reads NaN and Infinity, so a manifest can carry them
    payload = {"kind": "nonlinear_flow", "n": 2, "p": 3.0, "n_points": 33,
               "t_final": 0.01, **patch}
    path = write_config(tmp_path, payload)
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert field in result.output and "finite" in result.output


def test_cli_import_skips_unused_scipy_modules(tmp_path):
    # implicit-Euler and proximal stepping need none of these; the package
    # never imports scipy.optimize, and eigensystem (behind spectrum,
    # exponential stepping and embedding_constant) imports
    # scipy.sparse.linalg only when called
    probe = ("import sys, momentflow.cli\n"
             "print([m for m in ('scipy.integrate', 'scipy.optimize',"
             " 'scipy.sparse.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"

    # the exact identity suite never runs scipy.linalg's body, yet the module
    # sits in sys.modules for code that patches it, and heat's LAPACK calls
    # resolve through that same module object
    probe = """\
import json, sys
from pathlib import Path
import momentflow.cli as cli
cli.execute(cli.resolve_manifest({"kind": "identity_suite", "seed": 0,
                                  "samples": 4, "max_degree": 6}),
            Path(sys.argv[1]))
registered = "scipy.linalg" in sys.modules
loaded = [m for m in ("scipy.linalg._basic", "scipy.linalg._decomp_lu",
                      "scipy._lib._array_api") if m in sys.modules]
linalg = sys.modules["scipy.linalg"]
original, calls = linalg.lu_factor, []
def counted(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)
linalg.lu_factor = counted
import scipy
from momentflow.dual import ConstraintSpace
from momentflow.heat import assemble_operator
asm = assemble_operator(2, ConstraintSpace.zero_zero(), 33)
asm.factor(1e-3, asm.weights)
print(json.dumps([registered, loaded, len(calls),
                  sys.modules["scipy.linalg"] is scipy.linalg]))
"""
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    registered, loaded, calls, same = json.loads(proc.stdout.splitlines()[-1])
    assert registered and loaded == []
    assert calls == 1 and same
