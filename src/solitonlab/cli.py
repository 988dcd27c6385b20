"""Batch front door: config ingestion, experiment dispatch, artifact emission.

One experiment per invocation.  A run's values enter only through its
config: a single JSON document named by ``--config``, with dotted-path
overrides (``--set solver.dt=1e-3``); there are no per-command value
flags (barrier's ``--parallel-trials`` is an execution setting and
changes wall time only).  The reader records every value it checks,
defaults included, spelled one canonical way; each run that writes files
also writes a manifest with that record, its digest, the seed and
per-file content digests, so a run is reconstructible bit for bit and
spellings of one physical config (``1024`` and ``1024.0``) share a digest.
Data outputs are JSON/CSV only, never rendered images.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import enum
import hashlib
import json
import os
import sys
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
    MAX_PARALLEL_TRIALS,
    BarrierSpec,
    DichotomySettings,
    bohr_orbit,
    bohr_phase_accordance,
    photon_relations,
    run_barrier_monte_carlo,
    run_dispersion_vs_soliton,
)
from .dispersion import BranchKind, DispersionBranch, group_velocity, omega
from .grid import ComplexField, Grid1D, PacketKind, PacketSpec, build_packet
from .kinematics import KinematicState, electron_constants, kinematic_state
from .madelung import DEFAULT_NODE_THRESHOLD, check_node_threshold, polar_residuals
from .report import RunReport, strict_json, write_report
from .solvers import (
    Scheme,
    SolverConfig,
    _require_valid,
    evolve_klein_gordon,
    evolve_linear_schrodinger,
    evolve_nls,
    one_branch_time_derivative,
    require_nonlinear_phase,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
#: the largest Bohr table: the bound on n_max, on each of n_values and on
#: their count
MAX_BOHR_N = 1000

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
        _set_path(config, path, value)
    return config


def _set_path(config: dict, path: str, value) -> None:
    """config at dotted path := value, creating missing objects on the way."""
    node = config
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"override path {path!r} crosses a non-object")
    node[keys[-1]] = value


_REQUIRED = object()
#: dataclass field annotations (strings, postponed evaluation) the reader
#: takes a kind from; other fields (enums, arrays) are read by hand
_KINDS = {"int": int, "float": float, "int | None": int, "float | None": float}


def _check(value, kind, name: str, lo=None, hi=None, of=None):
    """value as kind, or a ConfigurationError naming the field.

    Floats must be finite (ints are accepted, bools are not); ints must be
    integral (2.0 reads as 2, 2.5 is rejected) and, spelt as floats, at
    most 2^53 in magnitude, so an int is never read off a float's rounding
    (1e300 would read as a 301-digit int); an enum kind takes the member
    whose value is named; lo and hi are inclusive bounds.  A list kind
    with element kind `of` is its elements checked as `of`; lo and hi bound
    its length first, then each element.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and abs(value) <= sys.float_info.max:
        value = float(value)
    elif kind is int and number and (
            isinstance(value, int) or (value.is_integer() and abs(value) <= 2.0**53)):
        value = int(value)
    elif issubclass(kind, enum.Enum):
        names = sorted(member.value for member in kind)
        if value not in names:
            raise ConfigurationError(f"{name} must be one of {names}, got {value!r}")
        return kind(value)
    elif kind in (int, float) or not isinstance(value, kind):
        finite = "a finite " if kind is float else ""
        raise ConfigurationError(f"{name} must be {finite}{kind.__name__}, got {value!r}")
    if of is not None:
        _check(len(value), int, f"the length of {name}", lo, hi)
        return [_check(item, of, f"{name}[]", lo, hi) for item in value]
    if lo is not None and value < lo:
        raise ConfigurationError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigurationError(f"{name} must be <= {hi}, got {value}")
    return value


def _get(section: _Section, key: str, kind, default=_REQUIRED, where: str = "", lo=None,
         hi=None, of=None):
    """section[key] checked by _check and recorded in section.read (an enum
    by its value, an object by its own record); null is accepted only where
    the default is None, and a missing field without a default is an error."""
    name = f"{where}.{key}" if where else key
    if key not in section:
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required field {name!r}")
        value = default
    elif section[key] is None and default is None:
        value = None
    else:
        value = _check(section[key], kind, name, lo, hi, of)
    section.read[key] = (value.read if isinstance(value, _Section)
                         else value.value if isinstance(value, enum.Enum) else value)
    return value


def _fields(cls, section: dict, where: str = "", keys: dict | None = None) -> dict:
    """Keyword arguments for cls's plain int and float fields, read with the
    kind and default the dataclass declares; keys renames config keys."""
    keys = keys or {}
    return {
        f.name: _get(section, keys.get(f.name, f.name), _KINDS[f.type],
                     _REQUIRED if f.default is dataclasses.MISSING else f.default, where)
        for f in dataclasses.fields(cls) if f.type in _KINDS
    }


class _Section(dict):
    """A config object and, in .read, the values _get took from it;
    nested objects become _Sections too."""

    def __init__(self, items: dict):
        super().__init__({key: _Section(value) if isinstance(value, dict) else value
                          for key, value in items.items()})
        self.read = {}


def _untaken(section: _Section, where: str = ""):
    """Dotted paths of the keys no reader took, in config order."""
    for key, value in section.items():
        if key not in section.read:
            yield where + key
        elif isinstance(value, _Section):
            yield from _untaken(value, f"{where}{key}.")


def _parse_velocity(text) -> float:
    """Velocities are plain m/s numbers or multiples of c like '0.6c'."""
    if not isinstance(text, str):
        return _check(text, float, "v")
    s = text.strip()
    try:
        return float(s[:-1]) * electron_constants().c if s.endswith("c") else float(s)
    except ValueError:
        raise ConfigurationError(
            f"v must be m/s or a multiple of c like '0.6c', got {text!r}") from None


# ---------------------------------------------------------------------------
# experiments: prepare(config) reads and checks every field and returns the
# run's inputs without stepping anything; run(inputs, args) returns a
# JSON-ready dict plus the RunReports to emit.  validate and main share the
# prepare step, so they cannot disagree on whether a config runs.
# ---------------------------------------------------------------------------

def _prepare_kinematics(config: _Section) -> KinematicState:
    v = _parse_velocity(_get(config, "v", object))
    config.read["v"] = v  # recorded in m/s, however it was spelt
    return kinematic_state(v)


def _run_kinematics(state: KinematicState, args) -> tuple[dict, list[RunReport]]:
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
    print(f"kinematic state at v = {state.v:.6e} m/s (beta = {state.beta:.6f})")
    for key, value in rows.items():
        print(f"  {key:22s} {'unbounded' if value is None else format(value, '.9e')}")
    return {"experiment": "kinematics", "state": rows}, []


def _prepare_dispersion(config: dict) -> tuple[DispersionBranch, list]:
    branch = DispersionBranch(kind=_get(config, "branch", BranchKind),
                              **_fields(DispersionBranch, config))
    ks = _get(config, "k_values", list, None, of=float)
    if ks is None:
        return branch, list(np.linspace(0.0, 3.0 * branch.omega0, 31))
    return branch, ks


def _run_dispersion(inputs, args) -> tuple[dict, list[RunReport]]:
    branch, ks = inputs
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


def _potential(config: dict, grid: Grid1D) -> np.ndarray | None:
    section = _get(config, "potential", dict, None)
    kind = "zero" if section is None else _get(section, "kind", str, "zero", "potential")
    z = grid.z
    if kind == "zero":
        return None
    if kind == "barrier":
        height, start, length = (_get(section, key, float, where="potential")
                                 for key in ("height", "start", "length"))
        return np.where((z >= start) & (z < start + length), height, 0.0)
    if kind == "linear":
        return _get(section, "slope", float, where="potential") * z
    if kind == "tabulated":
        return np.array(_get(section, "values", list, where="potential", of=float))
    raise ConfigurationError(f"unknown potential.kind {kind!r}")


def _prepare_evolve(config: dict) -> tuple[SolverConfig, PacketSpec, ComplexField]:
    scheme = _get(config, "scheme", Scheme)
    if scheme is Scheme.DISPERSIONLESS_TRANSPORT:
        raise ConfigurationError(
            "scheme = dispersionless_transport runs only inside soliton-vs-dispersion")
    grid = Grid1D(**_fields(Grid1D, _get(config, "grid", dict), "grid"))
    solver_config = SolverConfig(
        scheme=scheme, potential=_potential(config, grid),
        **_fields(SolverConfig, _get(config, "solver", dict), "solver"))
    _require_valid(solver_config, grid, solver_config.scheme)
    section = _get(config, "packet", dict)
    packet = PacketSpec(kind=_get(section, "kind", PacketKind, where="packet"),
                        **_fields(PacketSpec, section, "packet"))
    psi0 = build_packet(packet, grid)
    if scheme is Scheme.NLS:
        require_nonlinear_phase(psi0, solver_config)
    return solver_config, packet, psi0


def _evolve(inputs) -> RunReport:
    solver_config, packet, psi0 = inputs
    if solver_config.scheme is Scheme.LINEAR_SCHRODINGER:
        report = evolve_linear_schrodinger(psi0, solver_config)
    elif solver_config.scheme is Scheme.NLS:
        report = evolve_nls(psi0, solver_config)
    else:
        dpsi0 = one_branch_time_derivative(psi0)
        report = evolve_klein_gordon(psi0, dpsi0, solver_config)
    # no silent defaults: the fully resolved packet joins the config echo
    report.config["packet"] = {**dataclasses.asdict(packet), "kind": packet.kind.value}
    if packet.kind is PacketKind.SECH_BREATHER:
        report.config["packet"]["scale"] = packet.sech_scale
    if solver_config.scheme is Scheme.KLEIN_GORDON:
        report.config["initial_time_derivative"] = "one_branch"
    return report


def _run_evolve(inputs, args) -> tuple[dict, list[RunReport]]:
    report = _evolve(inputs)
    print(f"evolved {report.scheme} to t = {report.times[-1]}; "
          f"final rms width {report.observable('rms_width')[-1]:.6f}")
    for key, value in report.conservation.items():
        print(f"  {key}: {value:.3e}")
    return {"experiment": "evolve", **report.summary_dict()}, [report]


def _prepare_madelung(config: dict) -> tuple[tuple, float]:
    inputs = _prepare_evolve(config)
    if inputs[0].scheme is not Scheme.LINEAR_SCHRODINGER:
        raise ConfigurationError("madelung diagnostics apply to scheme = linear_schrodinger")
    return inputs, check_node_threshold(
        _get(config, "node_threshold", float, DEFAULT_NODE_THRESHOLD))


def _run_madelung(inputs, args) -> tuple[dict, list[RunReport]]:
    """Linear evolution plus polar-form diagnostics on its snapshots."""
    evolve_inputs, node_threshold = inputs
    report = _evolve(evolve_inputs)
    residual_rows, report.snapshots = polar_residuals(report, evolve_inputs[0], node_threshold)
    print(f"polar diagnostics at {len(residual_rows)} snapshot times "
          f"(pair gap {residual_rows[0]['pair_gap']:.3g}):")
    worst = max(r["max_hj_residual"] for r in residual_rows)
    print(f"  worst hamilton-jacobi residual: {worst:.3e}")
    return {"experiment": "madelung", "residuals": residual_rows,
            **report.summary_dict()}, [report]


def _prepare_dichotomy(config: dict) -> DichotomySettings:
    return DichotomySettings(**_fields(DichotomySettings, config))


def _plan_dichotomy(settings: DichotomySettings) -> list[str]:
    """One line per leg: its scheme, dt, stride m over the settings' dt,
    order and step count."""
    return [f"  {name:10s} {leg.scheme.value:24s} dt {leg.dt:.6g}  "
            f"stride {round(leg.dt / settings.dt)}  order {leg.order}  {leg.n_steps()} steps"
            for name, leg in settings.legs().items()]


def _run_dichotomy(settings: DichotomySettings, args) -> tuple[dict, list[RunReport]]:
    result = run_dispersion_vs_soliton(settings)
    print("width ratios at t_final:")
    for name in ("linear", "nls", "transport"):
        print(f"  {name:10s} {result.ratios[name]:.6f}  -> {result.verdicts[name]}")
    return result.to_dict(), list(result.runs.values())


def _prepare_barrier(config: dict) -> BarrierSpec:
    fields = _fields(BarrierSpec, config, keys={
        "height": "height_eV", "length": "length_m", "energy": "energy_eV",
        "gap_offset": "gap_offset_m"})
    eV = electron_constants().eV
    return BarrierSpec(**{**fields, "height": fields["height"] * eV,
                          "energy": fields["energy"] * eV})


def _run_barrier(spec: BarrierSpec, args) -> tuple[dict, list[RunReport]]:
    report = run_barrier_monte_carlo(spec, parallel_trials=args.parallel_trials)
    print(f"barrier Monte Carlo ({spec.trials} trials, seed {spec.seed}):")
    print(f"  transmitted {report.transmitted}  tunneled {report.tunneled}  "
          f"reflected {report.reflected}")
    print(f"  transmission fraction {report.transmission_fraction:.6f} "
          f"+/- {report.standard_error:.6f}")
    print(f"  geometric gap fraction {report.geometric_gap_fraction:.6f}")
    z = "undefined" if report.z_score is None else f"{report.z_score:+.2f}"
    print(f"  expected fraction {report.expected_fraction:.6f}  z-score {z}")
    print(f"  linear-equation transmission {report.linear_transmission:.6f}")
    return report.to_dict(), []


def _prepare_bohr(config: dict) -> list[int]:
    n_max = _get(config, "n_max", int, 20, lo=1, hi=MAX_BOHR_N)
    n_values = _get(config, "n_values", list, None, lo=1, hi=MAX_BOHR_N, of=int)
    return list(range(1, n_max + 1)) if n_values is None else n_values


def _run_bohr(n_values: list[int], args) -> tuple[dict, list[RunReport]]:
    k = electron_constants()
    rows = []
    for n in n_values:
        orbit = bohr_orbit(n)
        accord = bohr_phase_accordance(n)
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


def _prepare_photon(config: dict) -> tuple[float, float]:
    f, f0 = (_get(config, key, float) for key in ("f_hz", "f0_hz"))
    for key, value in (("f_hz", f), ("f0_hz", f0)):
        if value <= 0.0:
            raise ConfigurationError(f"{key} must be positive")
    return f, f0


def _run_photon(inputs, args) -> tuple[dict, list[RunReport]]:
    f, f0 = inputs
    rel = photon_relations(f, f0)
    print(f"photon relations at f = {f:.6e} Hz, mode cutoff f0 = {f0:.6e} Hz:")
    print(f"  bounce frequency {rel.f_zigzag:.6e} Hz, energy {rel.E_zigzag:.6e} J")
    return {"experiment": "photon", "f_hz": f, "f0_hz": f0,
            "f_zigzag_hz": rel.f_zigzag, "E_zigzag_J": rel.E_zigzag}, []


#: experiment name -> (help line, prepare, run); each is a subcommand
#: taking --config, --set and --out
_EXPERIMENTS = {
    "kinematics": ("closed-form guided-particle state", _prepare_kinematics, _run_kinematics),
    "dispersion": ("dispersion relation table", _prepare_dispersion, _run_dispersion),
    "evolve": ("evolve run from a config file", _prepare_evolve, _run_evolve),
    "madelung": ("madelung run from a config file", _prepare_madelung, _run_madelung),
    "soliton-vs-dispersion": ("three-way width comparison on one sech packet",
                              _prepare_dichotomy, _run_dichotomy),
    "barrier": ("hidden-phase barrier Monte Carlo", _prepare_barrier, _run_barrier),
    "bohr": ("orbit ladder and phase accordance", _prepare_bohr, _run_bohr),
    "photon": ("guided-photon frequency relations", _prepare_photon, _run_photon),
}


def _prepare(experiment: str, config: dict) -> tuple[object, dict]:
    """The experiment's prepare step on config, and the record of what it
    read: the experiment, the seed if given, and every field with its
    checked value, defaults included, so two spellings of one physical
    config give one record.  A key it leaves unread is an unknown field,
    so a misspelt key cannot fall back to a default."""
    section = _Section(config)
    section.read["experiment"] = experiment
    if "seed" in section:
        _get(section, "seed", int, lo=0)
    inputs = _EXPERIMENTS[experiment][1](section)
    unread = next(_untaken(section), None)
    if unread is not None:
        raise ConfigurationError(f"unknown field {unread}")
    return inputs, section.read


def validate(config: dict) -> list[str]:
    """Every check a run makes before stepping: the run's own prepare step."""
    experiment = config.get("experiment")
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        return [f"experiment must be one of {tuple(_EXPERIMENTS)}, got {experiment!r}"]
    try:
        _prepare(experiment, config)
    except (ConfigurationError, DomainError) as err:
        return [str(err)]
    return []


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


def _emit(record: dict, result: dict, reports: list[RunReport],
          out_dir: Path | None, started: str) -> None:
    """Serialise every report.json, then, given out_dir, write them with
    write_report and a manifest: a non-finite value exits 3 with or without
    out_dir, and leaves nothing behind.  One run's snapshots join the
    top-level report.json, which holds its summary; several get a directory
    each."""
    root = out_dir or Path()
    single = reports[0] if len(reports) == 1 else None
    entries = [(single, root, result)] + [
        (run, root / f"run-{i}-{run.scheme}", run.summary_dict())
        for i, run in enumerate(reports) if single is None]
    texts = [strict_json(run_dir / "report.json", obj) for _, run_dir, obj in entries]
    if out_dir is None:
        return
    outputs = [path for (run, run_dir, _), text in zip(entries, texts)
               for path in write_report(run, run_dir, text)]
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {
        "tool_version": __version__,
        "experiment": record.get("experiment"),
        "config": record,
        "config_digest": config_digest(record),
        "seed": record.get("seed"),
        "started_utc": started,
        "finished_utc": finished,
        "outputs": [
            {"path": str(p.relative_to(out_dir)), "sha256": _sha256_file(p)}
            for p in sorted(set(outputs))
        ],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(strict_json(manifest_path, manifest))
    print(f"wrote {len(outputs)} output file(s) + manifest to {out_dir}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _worker_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_PARALLEL_TRIALS:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {MAX_PARALLEL_TRIALS}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="guided-wave soliton laboratory: one experiment per invocation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {name: text for name, (text, _, _) in _EXPERIMENTS.items()}
    for name, text in {**helps, "validate": "validate a config without running"}.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=name == "validate", help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="PATH=VALUE", help="dotted-path config override")
        if name != "validate":
            p.add_argument("--out", help="output directory (default: $SOLITONLAB_OUT)")
        if name == "barrier":
            # an execution setting, not a config value: config_digest ignores it
            p.add_argument("--parallel-trials", type=_worker_count, default=1,
                           help="worker count for Monte Carlo blocks (results identical)")
    return parser


def _config_from_args(args) -> dict:
    config = load_config(args.config) if args.config else {}
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
            config = apply_overrides(load_config(args.config), args.overrides)
            problems = validate(config)
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            if problems:
                return EXIT_CONFIG
            print("config is runnable")
            if config["experiment"] == "soliton-vs-dispersion":
                print("plan:", *_plan_dichotomy(_prepare(config["experiment"], config)[0]),
                      sep="\n")
            return EXIT_OK

        inputs, record = _prepare(args.command, _config_from_args(args))
        run = _EXPERIMENTS[args.command][2]
        out_dir = _resolve_out_dir(args.out, record["experiment"], record.get("seed", 0))
        if out_dir is not None:
            # write_report's mkdir would meet a file (or a dangling link) only after the run
            for nearest in (out_dir, *out_dir.parents):
                if os.path.lexists(nearest):
                    break
            if not nearest.is_dir():
                raise OSError(f"output path {nearest} is not a directory")
            if nearest == out_dir and any(out_dir.iterdir()):
                # a rerun would leave the old run's files beside the new ones
                raise OSError(f"output directory {out_dir} is not empty")
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        result, reports = run(inputs, args)
        _emit(record, result, reports, out_dir, started)
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
