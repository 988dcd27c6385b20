"""Compare two result sets written by `run.py --record`.

For every workload and metric it prints each side's median and quartiles,
the share of pairs (i-th parent run against i-th change run) the change
wins, ties counting for neither, and whether the change of the median
beats both the parent's interquartile spread and the metric's bound.
A metric whose parent spread, as a share of its median, is wider than
its bound is marked unresolved.  Per-layer metrics have no bound, so
for them only the spread test applies.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in the order the runs were recorded."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, metric in record["result"]["metrics"].items():
                    values[record["workload"]][name].append(metric["value"])
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent: list[float], change: list[float], better: str,
                   bound: float | None) -> dict:
    p1, _, p3 = _quartiles(parent)
    c1, _, c3 = _quartiles(change)
    p_med, c_med = median(parent), median(change)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = p3 - p1
    diff = c_med - p_med
    beats_spread = abs(diff) > spread
    beats_bound = bound is None or abs(diff) > bound * abs(p_med)
    if bound is not None and p_med and spread / abs(p_med) > bound:
        verdict = "unresolved"
    elif beats_spread and beats_bound:
        verdict = "better" if sign * diff > 0 else "worse"
    else:
        verdict = "same"
    return {"parent": (p_med, p1, p3), "change": (c_med, c1, c3),
            "won": won, "pairs": len(pairs), "diff": diff,
            "beats_spread": beats_spread, "beats_bound": beats_bound, "verdict": verdict}


def _fmt(side: tuple[float, float, float]) -> str:
    return f"{side[0]:.6g} [{side[1]:.4g}, {side[2]:.4g}]"


def compare(parent_path: Path, change_path: Path, benchmark_path: Path) -> str:
    spec = json.loads(benchmark_path.read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    parent, change = load(parent_path), load(change_path)
    lines = [f"{'workload':12s} {'metric':44s} {'parent median [q1, q3]':34s} "
             f"{'change median [q1, q3]':34s} {'won':>7s} {'diff%':>8s} "
             f"{'>iqr':>5s} {'>bound':>6s}  verdict"]
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            a, b = parent[workload].get(m["name"]), change[workload].get(m["name"])
            if not a or not b:
                continue
            r = compare_metric(a, b, m["better"], m.get("bound"))
            share = 100.0 * r["diff"] / r["parent"][0] if r["parent"][0] else float("nan")
            bound = "n/a" if m.get("bound") is None else ("yes" if r["beats_bound"] else "no")
            lines.append(
                f"{workload:12s} {m['name']:44s} {_fmt(r['parent']):34s} {_fmt(r['change']):34s} "
                f"{r['won']:>3d}/{r['pairs']:<3d} {share:8.2f} "
                f"{'yes' if r['beats_spread'] else 'no':>5s} {bound:>6s}  {r['verdict']}")
    return "\n".join(lines)
