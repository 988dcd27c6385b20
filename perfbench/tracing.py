"""Span tracing of solitonlab layers, installed from outside the package.

The tracer replaces each traced public function where it is looked up:
in every solitonlab module namespace that holds it, so calls from the
CLI, from other modules and from inside the defining module all pass
through the wrapper.  ``Grid1D.k`` and ``Grid1D.z`` accesses are counted
through replacement properties, and FFTs are counted by giving the
package modules a copy of the ``numpy`` namespace whose ``fft`` functions
count their calls.  ``uninstall`` puts every original object back, so an
untraced iteration runs the package exactly as shipped.

Spans stay in memory; ``write_spans`` writes them out once, at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import numpy as np

#: spans that record observations rather than advance a state; their time
#: is taken out of the stepping window of the solver that calls them, and
#: the FFTs they make are not charged to that solver
RECORDING = ("grid.observables", "solvers.kg_energy", "madelung.quantum_potential")
#: spans whose calls advance a state for ``n_steps`` steps
STEPPING = ("solvers.nls", "solvers.linear", "solvers.kg", "madelung.transport")
_FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                  "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


class Span:
    __slots__ = ("id", "name", "parent", "iteration", "start", "end",
                 "ffts", "first_fft", "last_fft", "info")

    def __init__(self, span_id, name, parent, iteration):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.start = self.end = 0
        self.ffts = 0
        self.first_fft = self.last_fft = None
        self.info = None


def _arg_with(attr, args, kwargs):
    for value in (*args, *kwargs.values()):
        if hasattr(value, attr):
            return value
    return None


def _steps(args, kwargs, result):
    return {"steps": _arg_with("n_steps", args, kwargs).n_steps()}


def _trials(args, kwargs, result):
    return {"trials": result.trials}


def _csv_info(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    snapshot = kwargs.get("snapshot", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path), "rows": len(snapshot.field.values)}


def _report_info(args, kwargs, result):
    out_dir = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else None))
    return {"bytes": os.path.getsize(out_dir / "report.json")}


def _targets(pkg):
    """(span name, original function, info callback) for every traced call."""
    return [
        ("grid.observables", pkg.grid.observables, None),
        ("grid.spectral_derivative", pkg.grid.spectral_derivative, None),
        ("grid.build_packet", pkg.grid.build_packet, None),
        ("solvers.nls", pkg.solvers.evolve_nls, _steps),
        ("solvers.linear", pkg.solvers.evolve_linear_schrodinger, _steps),
        ("solvers.kg", pkg.solvers.evolve_klein_gordon, _steps),
        ("solvers.kg_energy", pkg.solvers.kg_energy, None),
        ("madelung.transport", pkg.madelung.evolve_dispersionless, _steps),
        ("madelung.decompose", pkg.madelung.decompose, None),
        ("madelung.hj_residual", pkg.madelung.hj_residual, None),
        ("madelung.continuity_residual", pkg.madelung.continuity_residual, None),
        ("madelung.quantum_potential", pkg.madelung.quantum_potential, None),
        ("experiments.barrier", pkg.experiments.run_barrier_monte_carlo, _trials),
        ("experiments.run_dispersion_vs_soliton",
         pkg.experiments.run_dispersion_vs_soliton, None),
        ("report.write_snapshot_csv", pkg.report.write_snapshot_csv, _csv_info),
        ("report.write_report", pkg.report.write_report, _report_info),
        ("cli.validate", pkg.cli.validate, None),
        ("cli.main", pkg.cli.main, None),
    ]


class Tracer:
    """Collects spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.iteration = 0
        self._stack: list[Span] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["solitonlab"]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "solitonlab" or name.startswith("solitonlab."))]
        for name, original, info in _targets(pkg):
            wrapper = self._wrap(name, original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        for attr in ("k", "z"):
            self._set(pkg.grid.Grid1D, attr, self._counted_property(
                f"grid.{attr}", vars(pkg.grid.Grid1D)[attr]))
        counting_fft = self._counting_fft()
        counting_np = types.ModuleType(np.__name__)
        counting_np.__dict__.update(vars(np))
        counting_np.fft = counting_fft
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is np:
                    self._set(module, attr, counting_np)
                elif value is np.fft:
                    self._set(module, attr, counting_fft)
                elif any(value is getattr(np.fft, f) for f in _FFT_FUNCTIONS):
                    self._set(module, attr, getattr(counting_fft, value.__name__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, info):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            span = Span(tracer._next_id, name, stack[-1].id if stack else 0, tracer.iteration)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _counted_property(self, name, prop):
        counts = self.counts
        fget = prop.fget
        tracer = self

        def getter(grid):
            counts[(tracer.iteration, name)] += 1
            return fget(grid)

        return property(getter, doc=prop.__doc__)

    def _counting_fft(self):
        stack = self._stack
        namespace = types.ModuleType(np.fft.__name__)
        namespace.__dict__.update(vars(np.fft))

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                t1 = perf_counter_ns()
                # charge the innermost spans up to the first recording span
                for span in reversed(stack):
                    span.ffts += 1
                    if span.first_fft is None:
                        span.first_fft = t0
                    span.last_fft = t1
                    if span.name in RECORDING:
                        break
                return result
            return wrapper

        for fname in _FFT_FUNCTIONS:
            setattr(namespace, fname, counted(getattr(np.fft, fname)))
        return namespace

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.iteration]))
                fh.write("\n")

    def iteration_metrics(self, iteration: int) -> dict[str, float]:
        """Per-layer metrics of one traced iteration (times in s unless named)."""
        spans = [s for s in self.spans if s.iteration == iteration]
        by_id = {s.id: s for s in spans}
        child_ns: dict[int, int] = defaultdict(int)
        rec_in_window: dict[int, int] = defaultdict(int)
        for s in spans:
            child_ns[s.parent] += s.end - s.start
            if s.name in RECORDING:
                anc = by_id.get(s.parent)
                while anc is not None and anc.name not in STEPPING:
                    anc = by_id.get(anc.parent)
                if (anc is not None and anc.first_fft is not None
                        and anc.first_fft <= s.start and s.end <= anc.last_fft):
                    rec_in_window[anc.id] += s.end - s.start

        agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in spans:
            a = agg[s.name]
            a["calls"] += 1
            a["dur"] += (s.end - s.start) * 1e-9
            a["self"] += (s.end - s.start - child_ns[s.id]) * 1e-9
            a["ffts"] += s.ffts
            if s.first_fft is not None:
                a["window"] += (s.last_fft - s.first_fft - rec_in_window[s.id]) * 1e-9
            for key, value in (s.info or {}).items():
                a[key] += value

        def get(name, key):
            return agg[name][key] if name in agg else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "grid.k.calls": self.counts[(iteration, "grid.k")],
            "grid.z.calls": self.counts[(iteration, "grid.z")],
        }
        for name in ("grid.observables", "grid.spectral_derivative", "solvers.kg_energy",
                     "report.write_snapshot_csv"):
            m[f"{name}.calls"] = get(name, "calls")
        for name in ("grid.observables", "grid.spectral_derivative", "grid.build_packet",
                     "solvers.kg_energy", "madelung.decompose", "madelung.hj_residual",
                     "madelung.continuity_residual", "madelung.quantum_potential",
                     "experiments.barrier", "experiments.run_dispersion_vs_soliton",
                     "report.write_snapshot_csv", "cli.validate", "cli.main"):
            m[f"{name}.self_s"] = get(name, "self")
        for name in STEPPING:
            steps = get(name, "steps")
            m[f"{name}.self_s"] = get(name, "self")
            m[f"{name}.steps"] = steps
            m[f"{name}.step_us"] = 1e6 * ratio(get(name, "window"), steps)
            m[f"{name}.ffts_per_step"] = ratio(get(name, "ffts"), steps)
        linear_calls = get("solvers.linear", "calls")
        m["solvers.evolve_linear_schrodinger.calls"] = linear_calls
        m["solvers.evolve_linear_schrodinger.setup_us"] = 1e6 * ratio(
            get("solvers.linear", "self") - get("solvers.linear", "window"), linear_calls)
        m["experiments.barrier.trials"] = get("experiments.barrier", "trials")
        m["experiments.barrier.trials_per_s"] = ratio(
            get("experiments.barrier", "trials"), get("experiments.barrier", "dur"))
        m["report.csv_rows_per_s"] = ratio(get("report.write_snapshot_csv", "rows"),
                                           get("report.write_snapshot_csv", "self"))
        m["report.bytes_written"] = (get("report.write_snapshot_csv", "bytes")
                                     + get("report.write_report", "bytes"))
        return m


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(median(d[key] for d in per_iteration)) for key in per_iteration[0]}
