import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solitonlab.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    _emit,
    apply_overrides,
    canonical_json,
    load_config,
    main,
    validate,
)
from solitonlab.errors import ConfigurationError, NumericalError
from solitonlab.kinematics import electron_constants
from solitonlab.report import RunReport
from solitonlab.solvers import nls_breather_exact
from test_spectral_kernels import _count_ffts

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def _digest_tree(root: Path) -> dict[str, str]:
    """Content digests of every numeric output (manifest excluded: it
    carries timestamps by design)."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token}")


def _assert_strict_json(root: Path) -> None:
    """Every report.json under root, and at least one, parses as strict JSON."""
    paths = sorted(root.rglob("report.json"))
    assert paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_kinematics_flag_form(capsys):
    assert main(["kinematics", "--set", "v=0.6c"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma_recip" in out and "8.000000000e-01" in out


def test_kinematics_rejects_superluminal(capsys):
    assert main(["kinematics", "--set", "v=1.5c"]) == EXIT_CONFIG
    assert "v < c" in capsys.readouterr().err


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.name)
def test_shipped_configs_validate_clean(config):
    problems = validate(json.loads(config.read_text()))
    assert problems == []


@pytest.mark.parametrize("argv,stdout", [
    (["--version"], "0.1.0"),
    (["validate", "--config", "configs/madelung-gaussian.json"], "config is runnable"),
])
def test_module_entry_point(argv, stdout):
    # python -m solitonlab.cli in a subprocess, with the package found through
    # PYTHONPATH=src only, as a checkout runs it without installing
    env = {key: value for key, value in os.environ.items() if key != "SOLITONLAB_OUT"}
    env["PYTHONPATH"] = "src"
    done = subprocess.run([sys.executable, "-m", "solitonlab.cli", *argv], cwd=CONFIG_DIR.parent,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert stdout in done.stdout.splitlines()


def test_validate_subcommand_ok():
    assert main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json")]) == EXIT_OK


def test_validate_prints_the_dichotomy_plan(capsys):
    # one line per leg: scheme, dt, stride, order and step count
    assert main(["validate", "--config", str(CONFIG_DIR / "dichotomy.json")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    legs = {line.split()[0]: line.split()[1:] for line in lines[lines.index("plan:") + 1:]}
    assert legs == {
        "linear": ["linear_schrodinger", "dt", "0.1", "stride", "100", "order", "2",
                   "100", "steps"],
        "nls": ["nls", "dt", "0.025", "stride", "25", "order", "4", "400", "steps"],
        "transport": ["dispersionless_transport", "dt", "0.1", "stride", "100", "order", "2",
                      "100", "steps"],
    }
    assert main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json")]) == EXIT_OK
    assert capsys.readouterr().out == "config is runnable\n"


def test_negative_dt_names_field(capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json"),
                 "--set", "solver.dt=-0.001"])
    assert code == EXIT_CONFIG
    assert "dt" in capsys.readouterr().err


def test_kg_dt_is_only_the_record_cadence(tmp_path):
    # the exact propagator takes no time step, so dt 0.2 only spaces the records
    overrides = ["solver.dt=0.2"]
    assert validate(apply_overrides(load_config(CONFIG_DIR / "kg-plane-wave.json"),
                                    overrides)) == []
    assert main(["validate", "--config", str(CONFIG_DIR / "kg-plane-wave.json"),
                 "--set", "solver.dt=0.2"]) == EXIT_OK
    assert main(_argv("kg-plane-wave.json", overrides) + ["--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    packet, t = report["config"]["packet"], report["snapshot_times"][-1]
    assert (report["config"]["dt"], t) == (0.2, 10.0)
    # and the energy holds to roundoff
    assert report["conservation"]["max_relative_energy_drift"] <= 1e-12
    final = sorted((tmp_path / "snapshots").glob("snapshot-*.csv"))[-1]
    z, re, im = np.loadtxt(final, delimiter=",", skiprows=3, usecols=(0, 1, 2)).T
    omega = np.hypot(1.0, packet["k0"])
    exact = packet["amplitude"] * np.exp(1j * (packet["k0"] * z - omega * t))
    assert np.max(np.abs(re + 1j * im - exact)) <= 1e-12


def test_boundary_contamination_diagnostic(capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json"),
                 "--set", "packet.center=25.0"])
    assert code == EXIT_CONFIG
    assert "boundary" in capsys.readouterr().err


def test_unresolved_packet_is_a_config_error(capsys):
    # a sigma-0.001 Gaussian on dz = 0.1 is one nonzero point
    code = main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json"),
                 "--set", "packet.sigma=0.001"])
    assert code == EXIT_CONFIG
    assert "packet is not resolved by the grid" in capsys.readouterr().err


@pytest.mark.parametrize("config, override", [
    ("breather-v1.json", "solver.order=3"),
    ("kg-plane-wave.json", "solver.order=4"),
])
def test_order_names_field(config, override, tmp_path, capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / config), "--set", override])
    assert code == EXIT_CONFIG
    assert "order" in capsys.readouterr().err
    assert main(_argv(config, [override]) + ["--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "order" in capsys.readouterr().err


def test_nls_order_four_from_config(tmp_path):
    overrides = ["solver.order=4", "solver.dt=0.01", "solver.t_final=0.5",
                 "solver.observe_every=10", "solver.snapshot_every=50"]
    assert main(_argv("breather-v1.json", overrides) + ["--out", str(tmp_path)]) == EXIT_OK
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert (config["order"], config["dt"]) == (4, 0.01)


def _breather_run(out: Path, overrides: list[str]) -> tuple[dict, float, int]:
    """(report, L2 error of the final snapshot against the exact breather,
    numpy.fft calls) of breather-v1 through main."""
    with pytest.MonkeyPatch.context() as patch:
        counts = _count_ffts(patch)
        assert main(_argv("breather-v1.json", overrides) + ["--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    packet, dz = report["config"]["packet"], report["config"]["grid"]["dz"]
    final = sorted((out / "snapshots").glob("snapshot-*.csv"))[-1]
    z, re, im = np.loadtxt(final, delimiter=",", skiprows=3, usecols=(0, 1, 2)).T
    exact = nls_breather_exact(z, report["snapshot_times"][-1], packet["amplitude"],
                               packet["velocity"], packet["center"])
    error = float(np.sqrt(np.sum(np.abs(re + 1j * im - exact) ** 2) * dz))
    return report, error, sum(counts.values())


#: the recorded L2 error and FFT pairs of breather-v1 on Yoshida's
#: three-stage order-4 composition at dt 1e-2, the run order 6 replaced
YOSHIDA_L2_ERROR, YOSHIDA_FFT_PAIRS = 9.25e-7, 3000


def test_shipped_breather_beats_strang_at_equal_error(tmp_path):
    # the shipped order-6 run at dt 5e-2 against the Strang run at dt 1e-3
    # on the same packet and outputs, and against the run it replaced,
    # Yoshida's three-stage order 4 at dt 1e-2, as recorded (that
    # composition is gone): no larger error than either, at most a third of
    # Strang's FFTs, and at most 0.6 of Yoshida's 3 000 FFT pairs
    _, error, ffts = _breather_run(tmp_path / "shipped", [])
    strang = ["solver.order=2", "solver.dt=0.001", "solver.snapshot_every=5000",
              "solver.observe_every=100"]
    _, strang_error, strang_ffts = _breather_run(tmp_path / "strang", strang)
    assert error <= strang_error
    assert 3 * ffts <= strang_ffts
    assert error <= YOSHIDA_L2_ERROR
    # both runs make the same set-up and record transforms, so their FFT
    # counts differ only by their steps' pairs, two FFTs each; Strang's
    # 10 000 steps make one pair each
    pairs = 10_000 + (ffts - strang_ffts) / 2
    assert 5 * pairs <= 3 * YOSHIDA_FFT_PAIRS


def test_shipped_breather_output_layout(tmp_path):
    report, _, _ = _breather_run(tmp_path, [])
    assert report["snapshot_times"] == [0.0, 5.0, 10.0]
    times = np.array(report["series"]["t"])
    assert len(times) == 101 and times[0] == 0.0
    assert np.diff(times) == pytest.approx(np.full(100, 0.1))
    assert report["config"]["order"] == 6


def test_breather_order_four_at_the_phase_guard(tmp_path, capsys):
    # dt 0.0625, the coarsest that divides t_final within the guard (phase
    # 2 max|w| max|phi0|^2 dt = 0.082), keeps criterion 4's L2 error of 1e-4;
    # dt 0.08 (phase 0.105) exits 2
    overrides = ["solver.order=4", "solver.dt=0.0625", "solver.snapshot_every=80",
                 "solver.observe_every=16"]
    report, error, _ = _breather_run(tmp_path / "guard", overrides)
    assert (report["config"]["order"], report["config"]["dt"]) == (4, 0.0625)
    assert error <= 1e-4
    coarse = ["solver.order=4", "solver.dt=0.08", "solver.snapshot_every=125",
              "solver.observe_every=25"]
    out = tmp_path / "coarse"
    assert main(_argv("breather-v1.json", coarse) + ["--out", str(out)]) == EXIT_CONFIG
    assert "dt" in capsys.readouterr().err


def test_breather_order_six_rejects_a_coarse_dt(tmp_path, capsys):
    # at dt 0.1 the largest sub-step phase 2 max|w| max|phi0|^2 dt is 0.16
    overrides = ["solver.dt=0.1", "solver.snapshot_every=50", "solver.observe_every=1"]
    assert main(_argv("breather-v1.json", overrides) + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert "dt" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_experiment(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"experiment": "warp-drive"}')
    assert main(["validate", "--config", str(config)]) == EXIT_CONFIG
    assert "warp-drive" in capsys.readouterr().err


def test_missing_config_file():
    assert main(["validate", "--config", "/nonexistent/nope.json"]) == EXIT_CONFIG


def test_experiment_command_mismatch(tmp_path):
    assert main(["evolve", "--config", str(CONFIG_DIR / "barrier-gap08.json")]) == EXIT_CONFIG


def test_evolve_reproducible_digests(tmp_path):
    config = str(CONFIG_DIR / "gaussian-linear.json")
    args = ["evolve", "--config", config, "--set", "solver.t_final=0.5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    da = _digest_tree(tmp_path / "a")
    db = _digest_tree(tmp_path / "b")
    assert da and da == db
    assert "report.json" in da
    assert any(name.startswith("snapshots/") for name in da)


def _check_manifest(argv: list[str], experiment: str, out: Path) -> None:
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == experiment
    assert manifest["config_digest"]
    listed = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    # every file but the manifest is listed, and nothing else
    assert set(listed) == set(_digest_tree(out))
    for rel, digest in listed.items():
        actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert actual == digest


def test_manifest_lists_outputs_with_digests(tmp_path):
    # no run: report.json and the tables only
    _check_manifest(["bohr", "--set", "n_max=3"], "bohr", tmp_path / "run")


@pytest.mark.parametrize("argv, experiment", [
    # one run with its snapshots at the top level, three run directories
    (["evolve", "--config", str(CONFIG_DIR / "breather-v1.json")], "evolve"),
    (["soliton-vs-dispersion", "--config", str(CONFIG_DIR / "dichotomy.json"),
      "--set", "t_final=0.5"], "soliton-vs-dispersion"),
], ids=["one-run", "three-runs"])
def test_manifest_lists_run_outputs_with_digests(argv, experiment, tmp_path):
    _check_manifest(argv, experiment, tmp_path / "run")


def test_rerun_into_a_used_directory_exits_4(tmp_path, capsys):
    # a second run would leave the first run's snapshot-0002.csv beside its
    # own two snapshots, where a reader of the last snapshot would take it
    out = tmp_path / "run"
    assert main(_argv("breather-v1.json", []) + ["--out", str(out)]) == EXIT_OK
    first = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    capsys.readouterr()
    rerun = _argv("breather-v1.json", ["solver.snapshot_every=0"]) + ["--out", str(out)]
    assert main(rerun) == EXIT_IO
    captured = capsys.readouterr()
    assert f"i/o error: output directory {out} is not empty" in captured.err
    assert captured.out == ""  # refused before any stepping
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == first


@pytest.mark.parametrize("out", ["F", "F/sub", "L/sub"])
def test_out_path_under_a_file_exits_4(tmp_path, capsys, out):
    # --out names a file, or a path below a file or a dangling link:
    # refused before the run, which used to step the whole breather and
    # fail at the end
    file = tmp_path / "F"
    file.write_bytes(b"not a directory\n")
    (tmp_path / "L").symlink_to(tmp_path / "nowhere")
    assert main(_argv("breather-v1.json", []) + ["--out", str(tmp_path / out)]) == EXIT_IO
    captured = capsys.readouterr()
    blocker = tmp_path / out.split("/")[0]
    assert f"i/o error: output path {blocker} is not a directory" in captured.err
    assert captured.out == ""
    assert file.read_bytes() == b"not a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["F", "L"]
    assert not (tmp_path / "nowhere").exists()


def test_dichotomy_legs_step_as_derived(tmp_path):
    # the free linear leg and the transport leg at rest step once per record
    # (dt 0.1); the cubic leg steps Suzuki's order 4 at dt 0.025, and its
    # final field is at least as accurate as that of the Yoshida run at
    # dt 0.01 it replaced, read back from the written snapshot
    out = tmp_path / "run"
    assert main(["soliton-vs-dispersion", "--config", str(CONFIG_DIR / "dichotomy.json"),
                 "--out", str(out)]) == EXIT_OK
    config = {i: json.loads(next(out.glob(f"run-{i}-*/report.json")).read_text())["config"]
              for i in range(3)}
    assert config[0]["dt"] == config[2]["dt"] == 0.1
    assert (config[1]["order"], config[1]["dt"]) == (4, 0.025)
    top = json.loads((out / "report.json").read_text())
    assert top["width_ratios"]["transport"] == 1.0
    final = sorted(out.glob("run-1-*/snapshots/snapshot-*.csv"))[-1]
    z, re, im = np.loadtxt(final, delimiter=",", skiprows=3, usecols=(0, 1, 2)).T
    a, t = top["settings"]["amplitude"], top["settings"]["t_final"]
    exact = a * np.exp(1j * a * a * t) / np.cosh(a * z)
    error = np.sqrt(np.sum(np.abs(re + 1j * im - exact) ** 2) * config[1]["grid"]["dz"])
    assert error <= YOSHIDA_L2_ERROR


#: barrier-gap08 overrides and the two worker counts whose outputs must agree
BARRIER_WORKER_CASES = [
    (["trials=100000"], ("1", "4")),
    ([], ("1", "2")),
    # below cutoff (p_tunnel about 0.35): the tunnel coin stream is drawn too
    (["height_eV=255499.4749980821", "energy_eV=51099.89499961642", "length_m=2e-13",
      "trials=200000"], ("1", "3")),
    # the gap 0.09 w off centre, 0.01 w from the far wall, and an odd trial
    # count: the last chunk ends on half a stream-0 draw
    (["gap_offset_m=1.09e-13", "trials=3000001"], ("1", "3")),
]


def test_barrier_parallel_trials_identical(tmp_path):
    # the worker count changes wall time only
    for i, (overrides, workers) in enumerate(BARRIER_WORKER_CASES):
        digests = []
        for w in workers:
            out = tmp_path / f"case-{i}-workers-{w}"
            argv = _argv("barrier-gap08.json", overrides) + ["--parallel-trials", w]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            digests.append(_digest_tree(out))
        assert digests[0] == digests[1], overrides
    # the last case, the off-centre gap, still agrees with the expected fraction
    off_centre = json.loads((tmp_path / f"case-{i}-workers-1" / "report.json").read_text())
    assert abs(off_centre["z_score"]) <= 4
    assert "half-word" in off_centre["model"]["rng"]


def test_madelung_run_emits_residuals(tmp_path):
    out = tmp_path / "m"
    assert main(["madelung", "--config", str(CONFIG_DIR / "madelung-gaussian.json"),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "madelung"
    assert all(r["max_hj_residual"] < 1e-2 for r in report["residuals"])


def test_madelung_without_mid_run_snapshots(tmp_path):
    # step 0 and the final step are always snapshots, so two residual rows
    out = tmp_path / "m"
    assert main(["madelung", "--config", str(CONFIG_DIR / "madelung-gaussian.json"),
                 "--set", "solver.snapshot_every=0", "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "report.json").read_text())["residuals"]
    assert [r["t_mid"] for r in rows] == [0.001, 1.001]
    # criterion 7's bound
    assert all(r["max_hj_residual"] <= 5e-4 and r["max_continuity_residual"] <= 5e-4
               for r in rows)


def test_node_error_maps_to_numerical_exit(tmp_path, capsys):
    # a packet reflecting off a tall barrier develops interference nodes;
    # decomposing with a coarse node threshold is a numerical failure
    config = {
        "experiment": "madelung",
        "scheme": "linear_schrodinger",
        "grid": {"n": 1024, "z_min": -51.2, "z_max": 51.2},
        "packet": {"kind": "gaussian", "sigma": 3.0, "center": -15.0, "k0": 1.0},
        "solver": {"dt": 0.02, "t_final": 14.0, "snapshot_every": 350},
        "potential": {"kind": "barrier", "height": 3.0, "start": 0.0, "length": 2.0},
        "node_threshold": 0.02,
    }
    path = tmp_path / "node.json"
    path.write_text(json.dumps(config))
    assert main(["madelung", "--config", str(path)]) == EXIT_NUMERICAL
    assert "node" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("config, overrides, quantity", [
    # the plane wave's field is finite, its energy overflows
    ("kg-plane-wave.json", ["packet.amplitude=1e300"], "energy is not finite at step 0"),
    # |psi|^2 overflows: the observables of step 0, then the field itself
    ("gaussian-linear.json", ["packet.amplitude=1e200"], "norm is not finite at step 0"),
])
def test_blow_up_is_a_numerical_failure(config, overrides, quantity, tmp_path, capsys):
    assert validate(apply_overrides(load_config(CONFIG_DIR / config), overrides)) == []
    code = main(_argv(config, overrides) + ["--out", str(tmp_path / "run")])
    assert code == EXIT_NUMERICAL
    assert quantity in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("n", ["1073741824", "4611686018427387904"])
def test_grid_point_count_is_capped(n, capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json"),
                 "--set", f"grid.n={n}"])
    assert code == EXIT_CONFIG
    assert f"n must be a power of two between 16 and 1048576, got {n}" in capsys.readouterr().err


def test_dispersion_table(tmp_path, capsys):
    # the default table of 31 k values (the README's CLI line sets two)
    assert main(["dispersion", "--set", "branch=klein_gordon", "--out", str(tmp_path)]) == EXIT_OK
    assert "omega" in capsys.readouterr().out
    _assert_strict_json(tmp_path)
    assert len(json.loads((tmp_path / "report.json").read_text())["table"]) == 31


def test_effective_packet_values_in_echo(tmp_path):
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(CONFIG_DIR / "gaussian-linear.json"),
                 "--set", "solver.t_final=0.1", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    packet = report["config"]["packet"]
    assert packet["kind"] == "gaussian" and packet["sigma"] == 1.0
    assert "k0" in packet  # defaulted values are echoed, not hidden


def test_unwritable_output_maps_to_io_exit(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["bohr", "--set", "n_max=1", "--out", str(blocker / "sub")])
    assert code == 4
    assert "i/o" in capsys.readouterr().err.lower()


def test_photon_flags(capsys):
    assert main(["photon", "--set", "f_hz=2e20", "--set", "f0_hz=1e20"]) == EXIT_OK
    assert "5.000000e+19" in capsys.readouterr().out


def test_dotted_override_crosses_scalar(tmp_path, capsys):
    code = main(["validate", "--config", str(CONFIG_DIR / "gaussian-linear.json"),
                 "--set", "scheme.sub=1"])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# validate and a run read a config through the same prepare step
# ---------------------------------------------------------------------------

def _config(name: str) -> dict:
    """A shipped config by file name, or the empty config of an experiment
    that ships none (its runs take every value from --set)."""
    return load_config(CONFIG_DIR / name) if name.endswith(".json") else {"experiment": name}


def _argv(config: str, overrides: list[str]) -> list[str]:
    argv = [_config(config)["experiment"]]
    if config.endswith(".json"):
        argv += ["--config", str(CONFIG_DIR / config)]
    return argv + [f"--set={o}" for o in overrides]


@pytest.mark.parametrize("config, overrides, field", [
    ("gaussian-linear.json", ["solver.dt=NaN"], "solver.dt"),
    ("gaussian-linear.json", ["solver.t_final=Infinity"], "solver.t_final"),
    ("gaussian-linear.json", ["potential=5"], "potential"),
    ("gaussian-linear.json", ["solver.observe_every=-1"], "observe_every"),
    ("gaussian-linear.json", ["solver.dt=0"], "dt"),
    ("gaussian-linear.json", ["potential.kind=tabulated", 'potential.values=["a"]'],
     "potential.values"),
    ("kg-plane-wave.json", ["solver.probe_index=1.5"], "solver.probe_index"),
    ("kg-plane-wave.json", ["solver.c=0"], "c"),
    ("dichotomy.json", ["n=abc"], "n"),
    ("dichotomy.json", ["n=1000"], "n"),
    ("dichotomy.json", ["observe_every=1.5"], "observe_every"),
    ("dichotomy.json", ["t_final=0.0105"], "t_final"),
    ("madelung-gaussian.json", ["node_threshold=-1"], "node_threshold"),
    ("madelung-gaussian.json", ["scheme=nls"], "scheme"),
    ("barrier-gap08.json", ["gap_offset_m=1e-12"], "gap"),
    ("barrier-gap08.json", ["trials=1.5"], "trials"),
    ("gaussian-linear.json", ["solver.t_final=0.01"], None),
    ("barrier-gap08.json", ["trials=1000"], None),
    ("gaussian-linear.json", ["scheme=dispersionless_transport"], "scheme"),
    ("gaussian-linear.json", ["solver.potential_slope=0.4"], "potential_slope"),
    ("breather-v1.json", ["solver.observe_evry=7"], "unknown field solver.observe_evry"),
    ("gaussian-linear.json", ["packet.sigmaa=2"], "unknown field packet.sigmaa"),
    ("gaussian-linear.json", ["potential.kind=linear", "potential.slope=0.01",
                              "potential.height=1"], "unknown field potential.height"),
    ("dichotomy.json", ["dtt=0.5"], "unknown field dtt"),
    ("breather-v1.json", ["solver.omega0=5"], "omega0"),
    ("dichotomy.json", ["t_final=0"], "t_final"),
    # the cubic step's nonlinear phase 2 max|w| max|phi0|^2 dt: 0.36 here
    ("breather-v1.json", ["packet.amplitude=3", "packet.velocity=0", "solver.dt=0.02",
                          "solver.t_final=2"], "dt"),
    ("breather-v1.json", ["packet.amplitude=1e200", "packet.scale=1"], "dt"),
    # the dichotomy's cubic leg at stride 1 is the Strang run at dt: 0.18
    ("dichotomy.json", ["amplitude=3", "dt=0.01"], "dt"),
    ("breather-v1.json", ["packet.sigma=5"], "sigma"),
    ("breather-v1.json", ["packet.k0=3"], "k0"),
    ("gaussian-linear.json", ["packet.velocity=1"], "velocity"),
    ("kg-plane-wave.json", ["packet.center=2"], "center"),
    ("dispersion", ["branch=klein_gordon", "hbar=7"], "unknown field hbar"),
    ("dispersion", ["branch=schrodinger_approx", "potential_V=0.5"], None),
    ("gaussian-linear.json", ["seed=[1]"], "seed"),
    ("madelung-gaussian.json", ["seed=-1"], "seed"),
    ("barrier-gap08.json", ["seed=1.5"], "seed"),
    ("bohr", ["n_values=[]"], "n_values"),
    ("bohr", ["n_max=1001"], "n_max"),
    ("bohr", ["n_max=1000"], None),
    # the second-order scheme has no potential term
    ("kg-plane-wave.json", ["potential.kind=barrier", "potential.height=5",
                            "potential.start=0", "potential.length=3"], "potential"),
    # a carrier above (2/3) k_max is sampled as an aliased slower one
    ("madelung-gaussian.json", ["packet.k0=200"], "k0"),
    ("kg-plane-wave.json", ["packet.k0=64.75"], "k0"),
    ("kg-plane-wave.json", ["packet.k0=1e308"], "k0"),
    ("breather-v1.json", ["packet.velocity=120", "solver.t_final=0.5"], "velocity"),
    # sigma^2 overflows: the envelope is flat and touches the boundary
    ("gaussian-linear.json", ["packet.sigma=1e300"], "boundary"),
    # packets that sample to zero, or to a subnormal peak
    ("breather-v1.json", ["packet.center=1e300"], "peak"),
    ("gaussian-linear.json", ["packet.sigma=1e-320"], "peak"),
    ("kg-plane-wave.json", ["packet.amplitude=1e-320"], "peak"),
    ("kg-plane-wave.json", ["grid.z_min=-1e308", "grid.z_max=1e308", "packet.k0=0"],
     "finite length"),
    # the spacing underflows, so the Nyquist wavenumber pi/dz is infinite
    ("kg-plane-wave.json", ["grid.z_min=0", "grid.z_max=1e-320", "packet.k0=0"], "grid"),
    ("gaussian-linear.json", ["grid.z_min=0", "grid.z_max=1e-320", "packet.k0=0"], "grid"),
    # omega0 = 2 pi f0 overflows, and with it the default k grid up to 3 omega0
    ("dispersion", ["branch=klein_gordon", "f0=1e308"], "f0"),
    # about 40 days of trials on one worker
    ("barrier-gap08.json", ["trials=1000000000000000"], "trials"),
    # a tabulated potential off the grid length, empty included
    ("gaussian-linear.json", ["potential.kind=tabulated", "potential.values=[0.0, 0.0]"],
     "potential"),
    ("gaussian-linear.json", ["potential.kind=tabulated", "potential.values=[]"], "potential"),
])
def test_validate_agrees_with_run(config, overrides, field, capsys, monkeypatch):
    monkeypatch.delenv("SOLITONLAB_OUT", raising=False)
    problems = validate(apply_overrides(_config(config), overrides))
    code = main(_argv(config, overrides))
    assert code == (EXIT_CONFIG if problems else EXIT_OK)
    if field is None:
        assert problems == []
    else:
        assert len(problems) == 1 and field in problems[0]
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["dispersion", "--set", "branch=parabolic"], "branch"),
    (["photon", "--set", "f_hz=-1", "--set", "f0_hz=1e20"], "f_hz"),
    (["kinematics", "--set", "v=abcc"], "v"),
    (["bohr", "--set", "n_max=0"], "n_max"),
    (["bohr", "--set", "n_max=100000000000000000000"], "n_max"),
    (["bohr", "--set", "n_max=1e300"], "n_max"),
    (["bohr", "--set", "n_values=[]"], "n_values"),
    (["bohr", "--set", f"n_values={list(range(1, 1002))}"], "n_values"),
    (["bohr", "--set", "n_values=[1e300]"], "n_values"),
    (["evolve", "--config", str(CONFIG_DIR / "gaussian-linear.json"), "--set", "seed=[1]"],
     "seed"),
    (["kinematics", "--set", "v=0.6c", "--set", 'seed="x"'], "seed"),
])
def test_flag_forms_fail_as_config_errors(argv, field, capsys):
    assert main(argv) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["photon", "--set", "f_hz=1e308", "--set", "f0_hz=1e308"], "report.json"),
    (["photon", "--set", "f_hz=1e-320", "--set", "f0_hz=1e300"], "report.json"),
    (["barrier", "--config", str(CONFIG_DIR / "barrier-gap08.json"), "--set", "trials=10",
      "--set", "length_m=1e300"], "length"),
])
def test_non_finite_results_exit_3(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "run")]) == EXIT_NUMERICAL
    assert message in capsys.readouterr().err
    # the strict serialisation fails before any file is opened
    assert not list(tmp_path.rglob("*.json"))


def test_failed_serialisation_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["photon", "--set", "f_hz=1e308", "--set", "f0_hz=1e308", "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["photon", "--set", "f_hz=1e-320", "--set", "f0_hz=1e300"],
    ["dispersion", "--set", "branch=schrodinger_approx", "--set", "k_values=[1e200]"],
    ["photon", "--set", "f_hz=1e308", "--set", "f0_hz=1e308"],
])
def test_non_finite_results_exit_3_without_out(argv, tmp_path, capsys, monkeypatch):
    # the result is serialised whether or not there is a directory to write to
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOLITONLAB_OUT", raising=False)
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_emit_serialises_every_run_report_first(tmp_path):
    # a multi-run experiment whose second run report is not finite
    def run(value):
        return RunReport(scheme="nls", config={}, times=np.zeros(1), observables={},
                         snapshots=[], conservation={"drift": value})

    out = tmp_path / "run"
    with pytest.raises(NumericalError, match="run-1-nls"):
        _emit({}, {"experiment": "x"}, [run(0.0), run(float("nan"))], out, "")
    assert not out.exists()


@pytest.mark.parametrize("config, override, message", [
    ("bohr", "n_max=1e300", "n_max must be int, got 1e+300"),
    ("bohr", "n_values=[-1e300]", "n_values[] must be int, got -1e+300"),
    ("gaussian-linear.json", "grid.n=1e300", "grid.n must be int, got 1e+300"),
    ("kg-plane-wave.json", "solver.probe_index=-1e300",
     "solver.probe_index must be int, got -1e+300"),
    ("gaussian-linear.json", "solver.observe_every=1e300",
     "solver.observe_every must be int, got 1e+300"),
    ("dichotomy.json", "seed=1e300", "seed must be int, got 1e+300"),
])
def test_float_spelt_int_beyond_2_53_is_rejected_briefly(config, override, message, capsys):
    # read as an int, 1e300 would print as a 301-digit number
    assert main(_argv(config, [override])) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and len(err) < 200


@pytest.mark.parametrize("argv", [
    ["kinematics", "--v", "0.6c"],
    ["dispersion", "--branch", "klein_gordon"],
    ["dispersion", "--k", "0,0.75"],
    ["evolve", "--scheme", "nls"],
    ["evolve", "--dt", "0.002"],
    ["evolve", "--t-final", "1"],
    ["evolve", "--packet", "breather,amplitude=1"],
    ["barrier", "--height-ev", "1"],
    ["barrier", "--length-m", "1e-12"],
    ["barrier", "--energy-ev", "1"],
    ["barrier", "--trials", "10"],
    ["barrier", "--seed", "1"],
    ["bohr", "--n-max", "5"],
    ["photon", "--f", "2e20"],
    ["photon", "--f0", "1e20"],
], ids=" ".join)
def test_removed_value_flags_exit_2(argv, capsys):
    # every config value enters through --config and --set only
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_evolve_has_no_default_grid(capsys):
    argv = ["evolve", "--set", "scheme=nls", "--set", "packet.kind=sech_breather",
            "--set", "solver.dt=1e-3", "--set", "solver.t_final=1"]
    assert main(argv) == EXIT_CONFIG
    assert "missing required field 'grid'" in capsys.readouterr().err


def _readme_cli_lines() -> list[str]:
    """The solitonlab command lines of README's CLI block."""
    text = (CONFIG_DIR.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("solitonlab ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(line, tmp_path, monkeypatch):
    monkeypatch.chdir(CONFIG_DIR.parent)
    monkeypatch.delenv("SOLITONLAB_OUT", raising=False)
    argv = shlex.split(line)[1:]
    if argv[0] != "validate":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    if argv[0] != "validate":
        _assert_strict_json(tmp_path / "run")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_parallel_trials_below_one_rejected(workers, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["barrier", "--config", str(CONFIG_DIR / "barrier-gap08.json"),
              "--parallel-trials", workers])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--parallel-trials" in capsys.readouterr().err


def test_parallel_trials_above_cap_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["barrier", "--config", str(CONFIG_DIR / "barrier-gap08.json"),
              "--parallel-trials", "65"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--parallel-trials" in capsys.readouterr().err


def _field_paths(node: dict, prefix: str = ""):
    for key, value in node.items():
        if key != "experiment":
            yield prefix + key
            if isinstance(value, dict):
                yield from _field_paths(value, f"{prefix}{key}.")


FUZZ_FIELDS = [(config.name, path) for config in SHIPPED
               for path in _field_paths(json.loads(config.read_text()))]
FUZZ_VALUES = ["NaN", "Infinity", "-Infinity", "-1", "0", "1.5", '"x"', "[]", "{}",
               "null", "true", "3", "1e-3", "[1,2]", "1e300", "-1e300", "1e-320"]
#: a base config, as overrides, for each experiment that ships none
MINIMAL = {
    "kinematics": {"v": "0.6c"},
    "dispersion": {"branch": "schrodinger_approx", "f0": 1.0, "potential_V": 0.0,
                   "k_values": [0.0, 0.75]},
    "bohr": {"n_max": 5, "n_values": [1, 3]},
    "photon": {"f_hz": 2e20, "f0_hz": 1e20},
}
RUN_FUZZ_FIELDS = FUZZ_FIELDS + [(name, path) for name, base in MINIMAL.items()
                                 for path in _field_paths(base)]
# runs stay a few hundred steps and trials at most 1e4; applied after the
# drawn override, so they win where both set the same field
RUN_PINS = {"dichotomy.json": ["t_final=0.05"], "barrier-gap08.json": ["trials=1000"],
            **{name: [] for name in MINIMAL}}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field=st.sampled_from(FUZZ_FIELDS), value=st.sampled_from(FUZZ_VALUES))
def test_validate_exit_code_property(field, value):
    config, path = field
    code = main(["validate", "--config", str(CONFIG_DIR / config), "--set", f"{path}={value}"])
    assert code in (EXIT_OK, EXIT_CONFIG)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(RUN_FUZZ_FIELDS), value=st.sampled_from(FUZZ_VALUES))
def test_run_agrees_with_validate_property(field, value, monkeypatch):
    # no traceback; exit 2 exactly when validate reports a problem, else 0
    # or 3 (a non-finite result); only a run that exits 0 leaves files, and
    # each report.json it writes is strict JSON
    monkeypatch.delenv("SOLITONLAB_OUT", raising=False)
    config, path = field
    base = [f"{key}={json.dumps(v)}" for key, v in MINIMAL.get(config, {}).items()]
    overrides = base + [f"{path}={value}"] + RUN_PINS.get(config, ["solver.t_final=0.05"])
    try:
        problems = validate(apply_overrides(_config(config), overrides))
    except ConfigurationError:  # an override path crosses a non-object
        problems = ["override"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        code = main(_argv(config, overrides) + ["--out", str(out)])
        assert code == EXIT_CONFIG if problems else code in (EXIT_OK, EXIT_NUMERICAL)
        assert out.exists() == (code == EXIT_OK)
        for report in out.rglob("report.json"):
            json.loads(report.read_text(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# the manifest records the config as read: one digest per physical config
# ---------------------------------------------------------------------------

def _manifest(argv: list[str], out: Path) -> dict:
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return json.loads((out / "manifest.json").read_text())


def _spelt(name: str, *overrides: str, drop: str | None = None) -> dict:
    """_config(name) with overrides applied and the top-level key drop left out."""
    config = apply_overrides(_config(name), list(overrides))
    config.pop(drop, None)
    return config


#: two spellings of one physical config each (the dichotomy cut to t = 1)
SPELLING_TWINS = {
    "k_values": (_spelt("dispersion", "branch=klein_gordon", "k_values=[0,0.75]"),
                 _spelt("dispersion", "branch=klein_gordon", "k_values=[0.0,0.75]")),
    "n": (_spelt("dichotomy.json", "n=1024", "t_final=1"),
          _spelt("dichotomy.json", "n=1024.0", "t_final=1")),
    "observe_every": (_spelt("dichotomy.json", "t_final=1", drop="observe_every"),
                      _spelt("dichotomy.json", "t_final=1", "observe_every=100")),
    "t_final": (_spelt("gaussian-linear.json", "solver.t_final=2"),
                _spelt("gaussian-linear.json", "solver.t_final=2.0")),
    "v": (_spelt("kinematics", "v=0.6c"),
          _spelt("kinematics", f"v={0.6 * electron_constants().c!r}")),
}


@pytest.mark.parametrize("twin", SPELLING_TWINS.values(), ids=list(SPELLING_TWINS))
def test_spelling_twins_share_digest_and_outputs(twin, tmp_path):
    assert canonical_json(twin[0]) != canonical_json(twin[1])
    manifests = []
    for i, config in enumerate(twin):
        path = tmp_path / f"config-{i}.json"
        path.write_text(json.dumps(config))
        manifests.append(
            _manifest([config["experiment"], "--config", str(path)], tmp_path / f"run-{i}"))
    assert manifests[0]["config"] == manifests[1]["config"]
    assert manifests[0]["config_digest"] == manifests[1]["config_digest"]
    assert _digest_tree(tmp_path / "run-0") == _digest_tree(tmp_path / "run-1")


def test_manifest_config_holds_every_value_read(tmp_path):
    config = _config("gaussian-linear.json")
    del config["solver"]["observe_every"], config["packet"]["sigma"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    manifest = _manifest(["evolve", "--config", str(path), "--set", "solver.t_final=0.1"], out)
    record = manifest["config"]
    assert set(_field_paths(config)) <= set(_field_paths(record))
    # the defaults the run used are recorded, as the report echoes them
    echo = json.loads((out / "report.json").read_text())["config"]
    assert record["solver"]["observe_every"] == echo["observe_every"] == 10
    assert record["packet"]["sigma"] == echo["packet"]["sigma"] == 1.0
    assert record["potential"] is None and record["solver"]["order"] == 2
    assert record["solver"]["t_final"] == 0.1
    assert (manifest["experiment"], record["experiment"]) == ("evolve", "evolve")
    assert manifest["seed"] == record["seed"] == 0
    assert manifest["config_digest"] == hashlib.sha256(canonical_json(record).encode()).hexdigest()


def test_digest_follows_a_physical_value(tmp_path):
    digests = {
        _manifest(["dispersion", "--set", "branch=klein_gordon", "--set", f"k_values={ks}"],
                  tmp_path / str(i))["config_digest"]
        for i, ks in enumerate(["[0,0.75]", "[0,0.8]"])
    }
    assert len(digests) == 2
