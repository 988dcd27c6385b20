"""Run reports: observable time series, snapshots, and their file formats.

Every evolution run emits a :class:`RunReport`.  The JSON summary echoes
the effective configuration (including the unit conventions of the
scheme, to keep factor-of-2 mistakes visible), the observable series and
the conservation drift metrics; snapshots go to one CSV per recorded
time with the grid metadata in comment lines and the columns z, re, im,
plus any extra ones (S and Q for the polar residuals, R, S and Q for the
transport).  |psi|^2 and the polar R = |psi| are not written:
np.abs(re + 1j*im)**2 and np.abs(re + 1j*im) give them bit for bit.
Reports contain no timestamps, so identical runs produce byte-identical
files.

write_report is the one writer of a report directory: its report.json,
serialised beforehand by strict_json, and the snapshots of its run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .grid import ComplexField, Grid1D


@dataclass(frozen=True)
class Snapshot:
    """Field state at one recorded time, with optional extra real columns."""

    t: float
    field: ComplexField
    extra: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class RunReport:
    """Outcome of one evolution run."""

    scheme: str
    config: dict
    times: np.ndarray
    observables: dict[str, np.ndarray]
    snapshots: list[Snapshot]
    conservation: dict[str, float]

    def observable(self, name: str) -> np.ndarray:
        return self.observables[name]

    def final_field(self) -> ComplexField:
        return self.snapshots[-1].field

    def summary_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scheme": self.scheme,
            "config": self.config,
            "series": {
                "t": self.times.tolist(),
                **{k: v.tolist() for k, v in self.observables.items()},
            },
            "conservation": self.conservation,
            "snapshot_times": [s.t for s in self.snapshots],
        }


def write_snapshot_csv(path: Path, snapshot: Snapshot, z_text: list[str] | None = None) -> None:
    """CSV with columns (z, re, im) plus any extra columns, sorted by name.

    Grid metadata and the snapshot time ride in '#' comment lines before
    the header row.  Values are written as repr(float) and rows end in
    "\r\n", as csv.writer writes them; a float repr never needs quoting.
    z_text, when given, is the z column already rendered, repr of each
    grid point.
    """
    grid = snapshot.field.grid
    vals = snapshot.field.values
    extra_names = sorted(snapshot.extra)
    columns = [vals.real, vals.imag]
    columns += [np.asarray(snapshot.extra[name], dtype=float) for name in extra_names]
    z = map(repr, grid.z.tolist()) if z_text is None else z_text
    rows = zip(z, *(map(repr, col.tolist()) for col in columns))
    with open(path, "w", newline="") as fh:
        fh.write(f"# t = {snapshot.t!r}\n")
        fh.write(f"# n = {grid.n} z_min = {grid.z_min!r} z_max = {grid.z_max!r} dz = {grid.dz!r}\n")
        csv.writer(fh).writerow(["z", "re", "im"] + extra_names)
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def read_snapshot_csv(path: Path) -> tuple[float, dict[str, np.ndarray]]:
    """Inverse of write_snapshot_csv: returns (t, column arrays)."""
    with open(path) as fh:
        t_line = fh.readline()
        t = float(t_line.split("=", 1)[1])
        fh.readline()  # grid metadata line
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.array(rows)
    return t, {name: data[:, i] for i, name in enumerate(header)}


def strict_json(path: Path, obj) -> str:
    """Indented strict JSON with sorted keys and a closing newline, so equal
    objects give byte-identical files.  A non-finite float raises
    NumericalError naming path, the file the text is for."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:
        raise NumericalError(f"{path}: {err}") from None


def write_report(report: RunReport | None, out_dir: Path, text: str) -> list[Path]:
    """Write out_dir/report.json and, if report is given, its snapshots as
    out_dir/snapshots/*.csv; returns the created paths.  text is report.json
    already serialised by strict_json, so a non-finite value has failed
    before any directory is made."""
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(text)
    paths = [report_path]
    if report is not None and report.snapshots:
        paths.extend(write_snapshots(report.snapshots, out_dir / "snapshots"))
    return paths


def write_snapshots(snapshots: list[Snapshot], snap_dir: Path) -> list[Path]:
    """Write snap_dir/snapshot-NNNN.csv, one per snapshot; returns the paths.
    Each grid's z column is rendered once per call."""
    snap_dir.mkdir(exist_ok=True)
    z_text: dict[Grid1D, list[str]] = {}
    paths = []
    for i, snap in enumerate(snapshots):
        grid = snap.field.grid
        if grid not in z_text:
            z_text[grid] = list(map(repr, grid.z.tolist()))
        p = snap_dir / f"snapshot-{i:04d}.csv"
        write_snapshot_csv(p, snap, z_text[grid])
        paths.append(p)
    return paths
