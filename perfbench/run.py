"""solitonlab benchmark: times `solitonlab.cli.main` on shipped configs.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record RESULTS.jsonl]
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

One client in one process calls the CLI in a closed loop: each iteration
finishes before the next starts, and outputs go to a temporary `--out`
directory under `.perfbench/`.  Every iteration's outputs are checked.
With `--trace 0` the run prints the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it alternates untraced and traced iterations and prints
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from calibrate import SpeedSampler
from envstamp import environment
from tracing import Tracer, median_metrics
from workloads import (ACCURACY_SOURCES, WORKLOADS, Call, breather_exact, digest_tree, l2_error,
                       load_report)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
#: fresh processes timed per run for setup_s; the median is reported
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
#: the criterion-4 error-per-cost table (traced runs)
NLS_TABLE_DTS = ("2e-3", "1e-3", "5e-4", "2.5e-4")
#: trials of the 1- and 2-worker barrier comparison (traced runs)
PARALLEL_PROBE_TRIALS = 20_000_000


@dataclass
class Iteration:
    wall_s: float  # at reference machine speed, see calibrate.py
    raw_s: float
    work: float = 0.0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)


class Bench:
    def __init__(self, cli, seed: int, sampler: SpeedSampler):
        self.cli = cli
        self.seed = seed
        self.sampler = sampler
        self.reference_digests: dict[str, dict[str, str]] | None = None

    def _invoke(self, calls, tmp: Path, sink: io.StringIO) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for call in calls:
                try:
                    codes.append(self.cli.main(call.argv(ROOT, self.seed, tmp / call.label)))
                except SystemExit as err:  # argparse rejects its arguments this way
                    codes.append(err.code if isinstance(err.code, int) else 1)
                except Exception as err:  # a traceback is exit code 1 for a CLI user
                    print(f"{call.label}: {type(err).__name__}: {err}")
                    codes.append(1)
        return codes

    def run_calls(self, calls: tuple[Call, ...]) -> Iteration:
        """Run the calls back to back, time them together, then check every output."""
        gc.collect()
        WORK_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="out-", dir=WORK_DIR))
        try:
            sink = io.StringIO()
            codes, raw, wall = self.sampler.time(self._invoke, calls, tmp, sink)
            it = Iteration(wall, raw)
            for call, code in zip(calls, codes):
                out = tmp / call.label
                if code != 0:
                    it.problems.append(f"{call.label} exited {code}: {sink.getvalue()[-500:]}")
                    continue
                try:
                    report = load_report(out)
                    values, problems = call.check(out, report)
                    it.work += call.work(report)
                except (OSError, ValueError, KeyError, IndexError) as err:
                    it.problems.append(f"{call.label}: unreadable output: {err!r}")
                    continue
                it.values.update(values)
                it.problems += [f"{call.label}: {p}" for p in problems]
                it.digests[call.label] = digest_tree(out)
            return it
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def check_reproducible(self, it: Iteration) -> None:
        """Outputs of every iteration of one seed must match the first one's."""
        if self.reference_digests is None:
            self.reference_digests = it.digests
        elif it.digests != self.reference_digests:
            changed = sorted(label for label in it.digests
                             if it.digests[label] != self.reference_digests.get(label))
            it.problems.append(f"output digests differ from the first iteration: {changed}")


def import_package():
    if not (SRC / "solitonlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no solitonlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from solitonlab import cli  # noqa: PLC0415 - the source path is only known here
    return cli


def setup_seconds(calls: tuple[Call, ...], seed: int, sampler: SpeedSampler) -> list[float]:
    """Fresh-process time to import solitonlab and load and validate the configs.

    The child times itself; the machine speed while it runs is sampled in
    this process and rescales that time to the reference speed.
    """
    specs = json.dumps([[str(ROOT / c.config), c.resolved_overrides(seed)] for c in calls])
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    sampler.kind = "text"
    times = []
    for _ in range(SETUP_REPEATS):
        done, raw, scaled = sampler.time(
            subprocess.run, [sys.executable, str(probe), str(SRC), specs], cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) * scaled / raw)
    return times


def nls_error_table(pkg, sampler: SpeedSampler) -> dict[str, float]:
    """L2 error against the exact breather and wall time, per dt (criterion-4 set-up)."""
    config = json.loads((ROOT / "configs/breather-v1.json").read_text())
    g, p = config["grid"], config["packet"]
    t_final = config["solver"]["t_final"]
    grid = pkg.Grid1D(g["n"], g["z_min"], g["z_max"])
    a, v, z0 = p["amplitude"], p["velocity"], p["center"]
    psi0 = pkg.ComplexField(grid, breather_exact(grid.z, 0.0, a, v, z0))
    exact = breather_exact(grid.z, t_final, a, v, z0)
    table = {}
    sampler.kind = "numeric"
    for dt in NLS_TABLE_DTS:
        solver = pkg.SolverConfig(scheme=pkg.Scheme.NLS, dt=float(dt), t_final=t_final,
                                  observe_every=0)
        report, _, wall = sampler.time(pkg.evolve_nls, psi0, solver)
        table[f"solvers.nls.wall_s.dt{dt}"] = wall
        table[f"solvers.nls.l2_error.dt{dt}"] = l2_error(
            report.final_field().values, exact, grid.dz)
    return table


def parallel_probe(pkg, seed: int, sampler: SpeedSampler) -> dict[str, float]:
    """Barrier Monte Carlo trials per second on 2 workers, and its efficiency vs 1."""
    config = json.loads((ROOT / "configs/barrier-gap08.json").read_text())
    ev = pkg.electron_constants().eV
    spec = pkg.BarrierSpec(height=config["height_eV"] * ev, length=config["length_m"],
                           energy=config["energy_eV"] * ev, trials=PARALLEL_PROBE_TRIALS,
                           seed=seed % 2**64, gap_offset=config.get("gap_offset_m", 0.0))
    rates = {}
    sampler.kind = "draws"
    for workers in (1, 2):
        _, _, wall = sampler.time(pkg.run_barrier_monte_carlo, spec, parallel_trials=workers)
        rates[workers] = spec.trials / wall
    return {"experiments.barrier.trials_per_s_2w": rates[2],
            "experiments.barrier.parallel_efficiency": rates[2] / (2.0 * rates[1])}


def measure(bench: Bench, calls, seconds: float, tracer: Tracer | None):
    """Closed loop for `seconds`; with a tracer, odd iterations are traced."""
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.iteration = len(traced) + 1
            tracer.install()
            try:
                it = bench.run_calls(calls)
            finally:
                tracer.uninstall()
            traced.append(it)
        else:
            it = bench.run_calls(calls)
            untraced.append(it)
        bench.check_reproducible(it)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return untraced, traced


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def result_line(values: dict[str, float], units: dict[str, str], iterations):
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    failed = sum(1 for it in iterations if it.problems)
    attempted = len(iterations)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def at_reference_speed(metrics: dict[str, float], units: dict[str, str],
                       factor: float) -> dict[str, float]:
    """Rescale one traced iteration's layer times and rates by its speed factor."""
    scale = {"s": factor, "us": factor, "1/s": 1.0 / factor}
    return {name: value * scale.get(units[name], 1.0) for name, value in metrics.items()}


def run(args, sampler: SpeedSampler) -> dict:
    cli = import_package()
    import solitonlab as pkg

    workload = WORKLOADS[args.workload]
    units = load_metric_specs()["per_layer" if args.trace else "end_to_end"]
    bench = Bench(cli, args.seed, sampler)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seed_used": workload.seeded, "env": environment(ROOT)}

    if not args.trace:
        setups = setup_seconds(workload.calls, args.seed, sampler)
        sampler.kind = workload.kernel
        untraced, _ = measure(bench, workload.calls, args.seconds, None)
        iterations = list(untraced)
        wall = median(it.wall_s for it in untraced)
        values = {
            "wall_s": wall,
            "setup_s": median(setups),
            "work_per_s": median(it.work for it in untraced) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values.update(untraced[0].values)
        for metric, call in ACCURACY_SOURCES.items():
            if metric not in values:
                probe = Bench(cli, args.seed, sampler).run_calls((call,))
                values[metric] = probe.values.get(metric, math.nan)
                iterations.append(probe)
        values["pass_ratio"] = 1.0 - sum(1 for it in iterations if it.problems) / len(iterations)
        detail.update(samples=len(untraced), walls_s=[it.wall_s for it in untraced],
                      raw_walls_s=[it.raw_s for it in untraced],
                      setup_samples_s=setups, work_unit=workload.work_unit)
    else:
        tracer = Tracer()
        sampler.kind = workload.kernel
        untraced, traced = measure(bench, workload.calls, args.seconds, tracer)
        iterations = untraced + traced
        values = median_metrics([
            at_reference_speed(tracer.iteration_metrics(i + 1), units, it.wall_s / it.raw_s)
            for i, it in enumerate(traced)])
        values["trace.overhead_s"] = (median(it.wall_s for it in traced)
                                      - median(it.wall_s for it in untraced))
        values.update(nls_error_table(pkg, sampler))
        values.update(parallel_probe(pkg, args.seed, sampler))
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        detail.update(untraced_walls_s=[it.wall_s for it in untraced],
                      traced_walls_s=[it.wall_s for it in traced],
                      raw_walls_s=[it.raw_s for it in iterations],
                      spans_file=str(spans_path.relative_to(ROOT)), spans=len(tracer.spans))

    result = result_line(values, units, iterations)
    detail["fail_ratio"] = result["failed"] / result["attempted"]
    detail["problems"] = [p for it in iterations for p in it.problems]
    print("perfbench detail " + json.dumps(detail))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**detail, "result": result}) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's result and stamp to a JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --record files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare  # noqa: PLC0415 - only the compare mode needs it
        print(compare(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json"))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    with SpeedSampler() as sampler:
        result = run(args, sampler)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
