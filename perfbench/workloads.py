"""Workloads: the CLI calls one iteration makes, their work and their checks.

Every check here uses a tolerance from the acceptance suite, never one
fitted to the current output.  ``hj_residual_max`` is reported, not
gated: at a snapshot cadence of 10 steps it exceeds criterion 7's bound
at the support edge, a known defect this benchmark must keep visible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: criterion 4: L2 error of the v = 1 breather at dt = 1e-3
NLS_L2_BOUND = 1e-4
#: criterion 5 bands on the width ratios at t_final
LINEAR_MIN_RATIO = 3.0
NLS_BAND = 0.01
TRANSPORT_BAND = 0.001
#: criterion 7 bound on the continuity residual
CONTINUITY_BOUND = 5e-4
#: barrier estimate must lie within this many standard errors of the exact value
BARRIER_SIGMAS = 4.0


def _steps(config: dict) -> int:
    return round(config["t_final"] / config["dt"])


def l2_error(a: np.ndarray, b: np.ndarray, dz: float) -> float:
    """Discrete L2 norm of a - b on a grid of spacing dz, as in the acceptance suite."""
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2) * dz))


def breather_exact(z: np.ndarray, t: float, a: float, v: float, z0: float) -> np.ndarray:
    """Moving breather of i phi_t + phi_zz + 2|phi|^2 phi = 0, written out here
    so the check does not rely on the package's own copy of the formula."""
    phase = 0.5 * v * z + (a * a - 0.25 * v * v) * t
    return a * np.exp(1j * phase) / np.cosh(a * (z - v * t - z0))


def read_snapshot(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(z, complex field) from a snapshot CSV: two comment lines, a header, rows."""
    data = np.loadtxt(path, delimiter=",", skiprows=3, usecols=(0, 1, 2))
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


# -- per-call checks: (out_dir, report) -> (accuracy values, problems) ----------

def check_dichotomy(out: Path, report: dict):
    r = report["width_ratios"]
    problems = []
    if not r["linear"] >= LINEAR_MIN_RATIO:
        problems.append(f"linear width ratio {r['linear']} < {LINEAR_MIN_RATIO}")
    if not abs(r["nls"] - 1.0) <= NLS_BAND:
        problems.append(f"nls width ratio {r['nls']} outside 1 +/- {NLS_BAND}")
    if not abs(r["transport"] - 1.0) <= TRANSPORT_BAND:
        problems.append(f"transport width ratio {r['transport']} outside 1 +/- {TRANSPORT_BAND}")
    return {}, problems


def check_breather(out: Path, report: dict):
    final = sorted((out / "snapshots").glob("snapshot-*.csv"))[-1]
    z, phi = read_snapshot(final)
    packet, config = report["config"]["packet"], report["config"]
    exact = breather_exact(z, report["snapshot_times"][-1], packet["amplitude"],
                           packet["velocity"], packet["center"])
    error = l2_error(phi, exact, config["grid"]["dz"])
    problems = [] if error <= NLS_L2_BOUND else [
        f"breather L2 error {error:.3e} > {NLS_L2_BOUND}"]
    return {"nls_l2_error": error}, problems


def check_kg(out: Path, report: dict):
    drift = report["conservation"]["max_relative_energy_drift"]
    problems = [] if math.isfinite(drift) else [f"kg energy drift is {drift}"]
    return {"kg_energy_drift": drift}, problems


def check_gaussian(out: Path, report: dict):
    return {}, []


def check_madelung(out: Path, report: dict):
    rows = report["residuals"]
    problems = [f"continuity residual {r['max_continuity_residual']:.3e} > {CONTINUITY_BOUND} "
                f"at t = {r['t_mid']}" for r in rows
                if not r["max_continuity_residual"] <= CONTINUITY_BOUND]
    return {"hj_residual_max": max(r["max_hj_residual"] for r in rows)}, problems


def check_barrier(out: Path, report: dict):
    model = report["model"]
    expected = report["geometric_gap_fraction"]
    if not model["above_cutoff"]:
        expected *= model["tunnel_probability"]
    sigma = math.sqrt(expected * (1.0 - expected) / report["trials"])
    z = (report["transmission_fraction"] - expected) / sigma if sigma else math.inf
    problems = [] if abs(z) <= BARRIER_SIGMAS else [
        f"transmission {report['transmission_fraction']} is {z:.2f} sigma from {expected}"]
    return {}, problems


@dataclass(frozen=True)
class Call:
    """One CLI invocation: `solitonlab <command> --config <config> [--set ...] [args]`."""

    label: str
    command: str
    config: str
    check: Callable[[Path, dict], tuple[dict, list[str]]]
    work: Callable[[dict], float]
    overrides: tuple[str, ...] = ()
    args: tuple[str, ...] = ()

    def resolved_overrides(self, seed: int) -> list[str]:
        return [o.format(seed=seed % 2**64) for o in self.overrides]

    def argv(self, root: Path, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--config", str(root / self.config)]
        for override in self.resolved_overrides(seed):
            argv += ["--set", override]
        return argv + list(self.args) + ["--out", str(out)]


DICHOTOMY = Call("dichotomy", "soliton-vs-dispersion", "configs/dichotomy.json",
                 check_dichotomy, lambda r: 3 * _steps(r["settings"]))
BREATHER = Call("breather-v1", "evolve", "configs/breather-v1.json",
                check_breather, lambda r: _steps(r["config"]))
KG = Call("kg-plane-wave", "evolve", "configs/kg-plane-wave.json",
          check_kg, lambda r: _steps(r["config"]))
GAUSSIAN = Call("gaussian-linear", "evolve", "configs/gaussian-linear.json",
                check_gaussian, lambda r: _steps(r["config"]))
MADELUNG = Call("madelung-gaussian", "madelung", "configs/madelung-gaussian.json",
                check_madelung, lambda r: len(r["residuals"]),
                overrides=("solver.snapshot_every=10",))
BARRIER = Call("barrier-gap08", "barrier", "configs/barrier-gap08.json",
               check_barrier, lambda r: r["trials"],
               overrides=("trials=50000000", "seed={seed}"), args=("--parallel-trials", "1"))


@dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    work_unit: str
    kernel: str  # calibration kernel for the kind of work that dominates, see calibrate.py
    seeded: bool = False


WORKLOADS = {
    "dichotomy": Workload((DICHOTOMY,), "time steps (linear + NLS + transport)", "numeric"),
    "evolve": Workload((BREATHER, KG, GAUSSIAN), "time steps (NLS + KG + linear)", "numeric"),
    "diagnostics": Workload((MADELUNG,), "snapshot pairs", "text"),
    "barrier": Workload((BARRIER,), "Monte Carlo trials", "draws", seeded=True),
}

#: the call whose output defines each accuracy metric; a workload without
#: that call runs it once, untimed, after its measured loop
ACCURACY_SOURCES = {"nls_l2_error": BREATHER, "kg_energy_drift": KG, "hj_residual_max": MADELUNG}


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every output file except manifest.json (which holds timestamps)."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def load_report(out: Path) -> dict:
    with open(out / "report.json") as fh:
        return json.load(fh)
