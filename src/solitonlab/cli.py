"""Batch front door: config ingestion, experiment dispatch, artifact emission.

One experiment per invocation.  Configs are single JSON documents; every
effective physics value appears in the config echo (no silent defaults
for physics parameters), command-line overrides use dotted paths
(``--set solver.dt=1e-3``), and each run that writes files also writes a
manifest with the config digest, seed, and per-file content digests so a
run is reconstructible bit for bit.  Data outputs are JSON/CSV only,
never rendered images.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DegenerateFieldError,
    DomainError,
    NodeError,
    NumericalError,
)
from .experiments import (
    BarrierSpec,
    DichotomySettings,
    bohr_orbit,
    bohr_phase_accordance,
    photon_relations,
    run_barrier_monte_carlo,
    run_dispersion_vs_soliton,
)
from .dispersion import BranchKind, DispersionBranch, group_velocity, omega
from .grid import Grid1D, PacketKind, PacketSpec, build_packet
from .kinematics import electron_constants, kinematic_state
from .madelung import continuity_residual, decompose, hj_residual, quantum_potential
from .report import RunReport, Snapshot, write_report, write_snapshots
from .solvers import (
    Scheme,
    SolverConfig,
    evolve_klein_gordon,
    evolve_linear_schrodinger,
    evolve_nls,
    one_branch_time_derivative,
    validate_solver_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

EXPERIMENTS = (
    "kinematics", "dispersion", "evolve", "madelung",
    "soliton-vs-dispersion", "barrier", "bohr", "photon",
)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigurationError("config root must be a JSON object")
    return config


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply dotted-path overrides like solver.dt=1e-3 (values parsed as JSON)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return config


def _require(config: dict, key: str, kind, context: str):
    if key not in config:
        raise ConfigurationError(f"{context}: missing required field {key!r}")
    value = config[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"{context}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_velocity(text) -> float:
    """Velocities are plain m/s numbers or multiples of c like '0.6c'."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    s = str(text).strip()
    if s.endswith("c"):
        return float(s[:-1]) * electron_constants().c
    return float(s)


# ---------------------------------------------------------------------------
# evolve/madelung config assembly
# ---------------------------------------------------------------------------

_SCHEMES = {
    "linear_schrodinger": Scheme.LINEAR_SCHRODINGER,
    "nls": Scheme.NLS,
    "klein_gordon": Scheme.KLEIN_GORDON,
}
_PACKETS = {
    "sech_breather": PacketKind.SECH_BREATHER,
    "gaussian": PacketKind.GAUSSIAN,
    "plane_wave": PacketKind.PLANE_WAVE,
}


def _build_grid(config: dict) -> Grid1D:
    section = _require(config, "grid", dict, "config")
    return Grid1D(
        n=_require(section, "n", int, "grid"),
        z_min=_require(section, "z_min", float, "grid"),
        z_max=_require(section, "z_max", float, "grid"),
    )


def _build_packet_spec(config: dict) -> PacketSpec:
    section = _require(config, "packet", dict, "config")
    kind_name = _require(section, "kind", str, "packet")
    if kind_name not in _PACKETS:
        raise ConfigurationError(
            f"packet.kind must be one of {sorted(_PACKETS)}, got {kind_name!r}"
        )
    scale = section.get("scale")
    return PacketSpec(
        kind=_PACKETS[kind_name],
        amplitude=float(section.get("amplitude", 1.0)),
        center=float(section.get("center", 0.0)),
        velocity=float(section.get("velocity", 0.0)),
        sigma=float(section.get("sigma", 1.0)),
        k0=float(section.get("k0", 0.0)),
        scale=None if scale is None else float(scale),
    )


def _build_potential(config: dict, grid: Grid1D) -> np.ndarray | None:
    section = config.get("potential")
    if section is None or section.get("kind", "zero") == "zero":
        return None
    kind = section["kind"]
    z = grid.z
    if kind == "barrier":
        height = _require(section, "height", float, "potential")
        start = _require(section, "start", float, "potential")
        length = _require(section, "length", float, "potential")
        return np.where((z >= start) & (z < start + length), height, 0.0)
    if kind == "linear":
        return _require(section, "slope", float, "potential") * z
    if kind == "tabulated":
        values = np.asarray(_require(section, "values", list, "potential"), dtype=float)
        if values.shape != (grid.n,):
            raise ConfigurationError(
                f"potential.values must have grid length {grid.n}, got {values.shape}"
            )
        return values
    raise ConfigurationError(f"unknown potential.kind {kind!r}")


def _build_solver_config(config: dict, grid: Grid1D) -> SolverConfig:
    section = _require(config, "solver", dict, "config")
    scheme_name = _require(config, "scheme", str, "config")
    if scheme_name not in _SCHEMES:
        raise ConfigurationError(
            f"scheme must be one of {sorted(_SCHEMES)}, got {scheme_name!r}"
        )
    return SolverConfig(
        scheme=_SCHEMES[scheme_name],
        dt=_require(section, "dt", float, "solver"),
        t_final=_require(section, "t_final", float, "solver"),
        snapshot_every=int(section.get("snapshot_every", 0)),
        observe_every=int(section.get("observe_every", 10)),
        potential=_build_potential(config, grid),
        omega0=float(section.get("omega0", 1.0)),
        c=float(section.get("c", 1.0)),
        probe_index=section.get("probe_index"),
    )


def validate(config: dict) -> list[str]:
    """Schema plus physics-guard validation without running anything."""
    problems: list[str] = []
    experiment = config.get("experiment")
    if experiment not in EXPERIMENTS:
        return [f"experiment must be one of {EXPERIMENTS}, got {experiment!r}"]
    try:
        if experiment in ("evolve", "madelung"):
            grid = _build_grid(config)
            solver_config = _build_solver_config(config, grid)
            problems.extend(validate_solver_config(solver_config, grid))
            packet = _build_packet_spec(config)
            try:
                build_packet(packet, grid)
            except ConfigurationError as err:
                problems.append(str(err))
            if experiment == "madelung" and solver_config.snapshot_every < 1:
                problems.append("madelung needs solver.snapshot_every >= 1 for residual pairs")
        elif experiment == "barrier":
            _barrier_spec_from_config(config)
        elif experiment == "kinematics":
            v = _parse_velocity(_require(config, "v", object, "config"))
            if not 0.0 <= v < electron_constants().c:
                problems.append(f"velocity must satisfy 0 <= v < c, got {v}")
        elif experiment == "bohr":
            n_max = int(config.get("n_max", 20))
            if n_max < 1:
                problems.append("n_max must be >= 1")
        elif experiment == "photon":
            if _require(config, "f_hz", float, "config") <= 0:
                problems.append("f_hz must be positive")
            if _require(config, "f0_hz", float, "config") <= 0:
                problems.append("f0_hz must be positive")
        elif experiment == "dispersion":
            if _require(config, "branch", str, "config") not in (
                    "klein_gordon", "schrodinger_approx"):
                problems.append("branch must be klein_gordon or schrodinger_approx")
        elif experiment == "soliton-vs-dispersion":
            _dichotomy_settings(config)
    except (ConfigurationError, DomainError) as err:
        problems.append(str(err))
    return problems


# ---------------------------------------------------------------------------
# experiment runners (each returns a JSON-ready dict, plus optional RunReports)
# ---------------------------------------------------------------------------

def _run_kinematics(config: dict) -> tuple[dict, list[RunReport]]:
    v = _parse_velocity(_require(config, "v", object, "config"))
    state = kinematic_state(v)
    k = electron_constants()
    rows = {
        "v_m_per_s": state.v,
        "beta": state.beta,
        "gamma_recip": state.gamma_recip,
        "phi_rad": state.phi,
        "f0_hz": state.f0,
        "f_clock_hz": state.f_clock,
        "f_wave_hz": state.f_wave,
        "f_zigzag_hz": state.f_zigzag,
        "v_phase_m_per_s": state.v_phase,
        "v_phase_over_c": None if state.v_phase is None else state.v_phase / k.c,
        "guide_width_m": state.w,
        "lambda_guide_m": state.lambda_guide,
        "lambda_phase_m": state.lambda_phase,
        "t_zigzag_s": state.t_zigzag,
        "l_zigzag_m": state.l_zigzag,
    }
    print(f"kinematic state at v = {v:.6e} m/s (beta = {state.beta:.6f})")
    for key, value in rows.items():
        print(f"  {key:22s} {'unbounded' if value is None else format(value, '.9e')}")
    return {"experiment": "kinematics", "state": rows}, []


def _run_dispersion(config: dict) -> tuple[dict, list[RunReport]]:
    branch = DispersionBranch(
        kind=BranchKind(_require(config, "branch", str, "config")),
        f0=float(config.get("f0", 1.0)),
        potential_V=float(config.get("potential_V", 0.0)),
        c=float(config.get("c", 1.0)),
        hbar=float(config.get("hbar", 1.0)),
    )
    ks = config.get("k_values")
    if ks is None:
        ks = list(np.linspace(0.0, 3.0 * branch.omega0 / branch.c, 31))
    table = [
        {"k": float(k), "omega": omega(branch, float(k)),
         "group_velocity": group_velocity(branch, float(k))}
        for k in ks
    ]
    print(f"dispersion table ({branch.kind.value}, f0 = {branch.f0}):")
    for row in table[:8]:
        print(f"  k={row['k']:.4f} omega={row['omega']:.6f} vg={row['group_velocity']:.6f}")
    if len(table) > 8:
        print(f"  ... {len(table) - 8} more rows in report")
    return {"experiment": "dispersion", "branch": branch.kind.value,
            "f0": branch.f0, "table": table}, []


def _evolve_from_config(config: dict) -> tuple[RunReport, SolverConfig, Grid1D]:
    grid = _build_grid(config)
    solver_config = _build_solver_config(config, grid)
    packet = _build_packet_spec(config)
    psi0 = build_packet(packet, grid)
    if solver_config.scheme is Scheme.LINEAR_SCHRODINGER:
        report = evolve_linear_schrodinger(psi0, solver_config)
    elif solver_config.scheme is Scheme.NLS:
        report = evolve_nls(psi0, solver_config)
    else:
        dpsi0 = one_branch_time_derivative(psi0, solver_config.omega0, solver_config.c)
        report = evolve_klein_gordon(psi0, dpsi0, solver_config)
    # no silent defaults: the fully resolved packet joins the config echo
    report.config["packet"] = {
        "kind": packet.kind.value, "amplitude": packet.amplitude,
        "center": packet.center, "velocity": packet.velocity,
        "sigma": packet.sigma, "k0": packet.k0,
        "scale": packet.sech_scale if packet.kind is PacketKind.SECH_BREATHER else None,
    }
    if solver_config.scheme is Scheme.KLEIN_GORDON:
        report.config["initial_time_derivative"] = "one_branch"
    return report, solver_config, grid


def _run_evolve(config: dict) -> tuple[dict, list[RunReport]]:
    report, _, _ = _evolve_from_config(config)
    print(f"evolved {report.scheme} to t = {report.times[-1]}; "
          f"final rms width {report.observable('rms_width')[-1]:.6f}")
    for key, value in report.conservation.items():
        print(f"  {key}: {value:.3e}")
    return {"experiment": "evolve", **report.summary_dict()}, [report]


def _run_madelung(config: dict) -> tuple[dict, list[RunReport]]:
    """Linear evolution plus polar-form diagnostics on its snapshots.

    At each snapshot time the field is advanced two more steps so the
    residuals use a tight centered pair (gap 2 dt, the same order as the
    scheme) instead of the coarse snapshot cadence.
    """
    if config.get("scheme") != "linear_schrodinger":
        raise ConfigurationError("madelung diagnostics apply to scheme = linear_schrodinger")
    report, solver_config, grid = _evolve_from_config(config)
    if len(report.snapshots) < 2:
        raise ConfigurationError("madelung needs solver.snapshot_every >= 1")
    node_threshold = float(config.get("node_threshold", 1e-6))
    potential = solver_config.potential if solver_config.potential is not None else 0.0
    pair_config = replace(solver_config, t_final=2.0 * solver_config.dt,
                          snapshot_every=0, observe_every=0, probe_index=None)
    residual_rows = []
    enriched = []
    for snap in report.snapshots:
        before = decompose(snap.field, node_threshold=node_threshold)
        after_field = evolve_linear_schrodinger(snap.field, pair_config).final_field()
        after = decompose(after_field, node_threshold=node_threshold)
        gap = 2.0 * solver_config.dt
        hj = hj_residual(before, after, gap, potential=potential, include_q=True)
        cont = continuity_residual(before, after, gap)
        residual_rows.append({
            "t_mid": snap.t + solver_config.dt,
            "pair_gap": gap,
            "max_hj_residual": float(np.max(np.abs(hj))),
            "max_continuity_residual": float(np.max(np.abs(cont))),
        })
        enriched.append(Snapshot(snap.t, snap.field, {
            "R": before.R, "S": before.S, "Q": quantum_potential(before),
        }))
    report.snapshots = enriched
    print(f"polar diagnostics at {len(residual_rows)} snapshot times "
          f"(pair gap {residual_rows[0]['pair_gap']:.3g}):")
    worst = max(r["max_hj_residual"] for r in residual_rows)
    print(f"  worst hamilton-jacobi residual: {worst:.3e}")
    return {"experiment": "madelung", "residuals": residual_rows,
            **report.summary_dict()}, [report]


def _dichotomy_settings(config: dict) -> DichotomySettings:
    scale = config.get("scale")
    return DichotomySettings(
        n=int(config.get("n", 1024)),
        z_min=float(config.get("z_min", -51.2)),
        z_max=float(config.get("z_max", 51.2)),
        amplitude=float(config.get("amplitude", 1.0)),
        scale=None if scale is None else float(scale),
        dt=float(config.get("dt", 1e-3)),
        t_final=float(config.get("t_final", 10.0)),
        observe_every=int(config.get("observe_every", 100)),
    )


def _run_dichotomy(config: dict) -> tuple[dict, list[RunReport]]:
    result = run_dispersion_vs_soliton(_dichotomy_settings(config))
    print("width ratios at t_final:")
    for name in ("linear", "nls", "transport"):
        print(f"  {name:10s} {result.ratios[name]:.6f}  -> {result.verdicts[name]}")
    return result.to_dict(), list(result.runs.values())


def _barrier_spec_from_config(config: dict) -> BarrierSpec:
    eV = electron_constants().eV
    return BarrierSpec(
        height=_require(config, "height_eV", float, "config") * eV,
        length=_require(config, "length_m", float, "config"),
        energy=_require(config, "energy_eV", float, "config") * eV,
        trials=_require(config, "trials", int, "config"),
        seed=_require(config, "seed", int, "config"),
        gap_offset=float(config.get("gap_offset_m", 0.0)),
    )


def _run_barrier(config: dict, parallel_trials: int = 1) -> tuple[dict, list[RunReport]]:
    spec = _barrier_spec_from_config(config)
    report = run_barrier_monte_carlo(spec, parallel_trials=parallel_trials)
    print(f"barrier Monte Carlo ({spec.trials} trials, seed {spec.seed}):")
    print(f"  transmitted {report.transmitted}  tunneled {report.tunneled}  "
          f"reflected {report.reflected}")
    print(f"  transmission fraction {report.transmission_fraction:.6f} "
          f"+/- {report.standard_error:.6f}")
    print(f"  geometric gap fraction {report.geometric_gap_fraction:.6f}")
    print(f"  linear-equation transmission {report.linear_transmission:.6f}")
    return report.to_dict(), []


def _run_bohr(config: dict) -> tuple[dict, list[RunReport]]:
    n_values = config.get("n_values") or list(range(1, int(config.get("n_max", 20)) + 1))
    k = electron_constants()
    rows = []
    for n in n_values:
        orbit = bohr_orbit(int(n))
        accord = bohr_phase_accordance(int(n))
        rows.append({
            "N": orbit.N,
            "radius_m": orbit.radius,
            "velocity_m_per_s": orbit.velocity,
            "period_s": orbit.period,
            "angular_momentum_Js": orbit.angular_momentum,
            "energy_eV": orbit.energy / k.eV,
            "orbit_length_m": orbit.orbit_length,
            "de_broglie_wavelength_m": orbit.de_broglie_wavelength,
            "tau_s": accord.tau,
            "quantization_residual": accord.quantization_residual,
            "nonrelativistic_gap": accord.nonrelativistic_gap,
        })
    print(f"{'N':>3} {'radius (m)':>13} {'energy (eV)':>12} {'L/lambda':>10} {'tau/T':>12}")
    for row in rows[:10]:
        print(f"{row['N']:>3} {row['radius_m']:>13.5e} {row['energy_eV']:>12.5f} "
              f"{row['orbit_length_m'] / row['de_broglie_wavelength_m']:>10.6f} "
              f"{row['tau_s'] / row['period_s']:>12.5e}")
    return {"experiment": "bohr", "orbits": rows}, []


def _run_photon(config: dict) -> tuple[dict, list[RunReport]]:
    f = _require(config, "f_hz", float, "config")
    f0 = _require(config, "f0_hz", float, "config")
    rel = photon_relations(f, f0)
    print(f"photon relations at f = {f:.6e} Hz, mode cutoff f0 = {f0:.6e} Hz:")
    print(f"  bounce frequency {rel.f_zigzag:.6e} Hz, energy {rel.E_zigzag:.6e} J")
    return {"experiment": "photon", "f_hz": f, "f0_hz": f0,
            "f_zigzag_hz": rel.f_zigzag, "E_zigzag_J": rel.E_zigzag}, []


_RUNNERS = {
    "kinematics": _run_kinematics,
    "dispersion": _run_dispersion,
    "evolve": _run_evolve,
    "madelung": _run_madelung,
    "soliton-vs-dispersion": _run_dichotomy,
    "bohr": _run_bohr,
    "photon": _run_photon,
}


# ---------------------------------------------------------------------------
# output emission and manifest
# ---------------------------------------------------------------------------

def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_out_dir(explicit: str | None, experiment: str, seed) -> Path | None:
    if explicit:
        return Path(explicit)
    root = os.environ.get("SOLITONLAB_OUT")
    if not root:
        return None
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    return Path(root) / f"{experiment}-{stamp}-{seed}"


def _emit(config: dict, result: dict, reports: list[RunReport],
          out_dir: Path | None, started: str) -> None:
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(report_path)
    if len(reports) == 1:
        # the run summary is already embedded in report.json; emit snapshots only
        outputs.extend(write_snapshots(reports[0].snapshots, out_dir / "snapshots"))
    else:
        for i, run in enumerate(reports):
            outputs.extend(write_report(run, out_dir / f"run-{i}-{run.scheme}"))
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {
        "tool_version": __version__,
        "experiment": config.get("experiment"),
        "config": config,
        "config_digest": config_digest(config),
        "seed": config.get("seed"),
        "started_utc": started,
        "finished_utc": finished,
        "outputs": [
            {"path": str(p.relative_to(out_dir)), "sha256": _sha256_file(p)}
            for p in sorted(set(outputs))
        ],
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} output file(s) + manifest to {out_dir}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="guided-wave soliton laboratory: one experiment per invocation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="dotted-path config override")
        p.add_argument("--out", help="output directory (default: $SOLITONLAB_OUT)")

    p = sub.add_parser("kinematics", help="closed-form guided-particle state")
    common(p)
    p.add_argument("--v", help="axial velocity, m/s or multiple of c like 0.6c")

    p = sub.add_parser("dispersion", help="dispersion relation table")
    common(p)
    p.add_argument("--branch", choices=["klein_gordon", "schrodinger_approx"])
    p.add_argument("--k", help="comma-separated wavenumbers")

    for name in ("evolve", "madelung"):
        p = sub.add_parser(name, help=f"{name} run from a config file")
        common(p)
        if name == "evolve":
            p.add_argument("--scheme", choices=sorted(_SCHEMES))
            p.add_argument("--packet", metavar="KIND,KEY=VAL,...",
                           help="e.g. breather,amplitude=1,velocity=0")
            p.add_argument("--t-final", type=float, dest="t_final")
            p.add_argument("--dt", type=float)

    p = sub.add_parser("soliton-vs-dispersion",
                       help="three-way width comparison on one sech packet")
    common(p)

    p = sub.add_parser("barrier", help="hidden-phase barrier Monte Carlo")
    common(p)
    p.add_argument("--height-ev", type=float)
    p.add_argument("--length-m", type=float)
    p.add_argument("--energy-ev", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--parallel-trials", type=int, default=1,
                   help="worker count for Monte Carlo blocks (results identical)")

    p = sub.add_parser("bohr", help="orbit ladder and phase accordance")
    common(p)
    p.add_argument("--n-max", type=int)

    p = sub.add_parser("photon", help="guided-photon frequency relations")
    common(p)
    p.add_argument("--f", type=float, help="photon frequency, Hz")
    p.add_argument("--f0", type=float, help="mode cutoff frequency, Hz")

    p = sub.add_parser("validate", help="validate a config without running")
    p.add_argument("--config", required=True)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE")
    return parser


_PACKET_ALIASES = {"breather": "sech_breather"}


def _packet_from_flag(text: str) -> dict:
    parts = text.split(",")
    kind = parts[0].strip()
    section = {"kind": _PACKET_ALIASES.get(kind, kind)}
    for item in parts[1:]:
        if "=" not in item:
            raise ConfigurationError(f"packet item {item!r} is not key=value")
        key, value = item.split("=", 1)
        section[key.strip()] = float(value)
    return section


def _config_from_args(args) -> dict:
    if args.config:
        config = load_config(args.config)
    else:
        config = {}
    if args.command == "evolve" and not args.config:
        # quick one-liner form; the assembled config (grid included) is
        # echoed in full through report.json and the manifest
        if getattr(args, "scheme", None):
            config["scheme"] = args.scheme
        if getattr(args, "packet", None):
            config["packet"] = _packet_from_flag(args.packet)
        config.setdefault("grid", {"n": 512, "z_min": -25.6, "z_max": 25.6})
        solver = config.setdefault("solver", {})
        solver.setdefault("dt", 1e-3)
        if getattr(args, "t_final", None) is not None:
            solver["t_final"] = args.t_final
        if getattr(args, "dt", None) is not None:
            solver["dt"] = args.dt
    flags = {
        "kinematics": [("v", "v")],
        "dispersion": [("branch", "branch")],
        "barrier": [("height_ev", "height_eV"), ("length_m", "length_m"),
                    ("energy_ev", "energy_eV"), ("trials", "trials"), ("seed", "seed")],
        "bohr": [("n_max", "n_max")],
        "photon": [("f", "f_hz"), ("f0", "f0_hz")],
    }
    for attr, key in flags.get(args.command, []):
        value = getattr(args, attr, None)
        if value is not None:
            config[key] = value
    if args.command == "dispersion" and getattr(args, "k", None):
        config["k_values"] = [float(x) for x in args.k.split(",")]
    config.setdefault("experiment", args.command)
    apply_overrides(config, args.overrides)
    if config["experiment"] != args.command:
        raise ConfigurationError(
            f"config is for experiment {config['experiment']!r}, invoked as {args.command!r}"
        )
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            config = load_config(args.config)
            apply_overrides(config, args.overrides)
            problems = validate(config)
            if problems:
                for problem in problems:
                    print(f"invalid: {problem}", file=sys.stderr)
                return EXIT_CONFIG
            print("config is runnable")
            return EXIT_OK

        config = _config_from_args(args)
        problems = validate(config)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return EXIT_CONFIG
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if args.command == "barrier":
            result, reports = _run_barrier(config, parallel_trials=args.parallel_trials)
        else:
            result, reports = _RUNNERS[args.command](config)
        out_dir = _resolve_out_dir(args.out, config["experiment"], config.get("seed", 0))
        _emit(config, result, reports, out_dir, started)
        return EXIT_OK
    except (ConfigurationError, DomainError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, NodeError, DegenerateFieldError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
