"""Summarise one set of benchmark runs, or compare a change against a base.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds full run records, one JSON object a line, as every run
appends them to ``.perfbench-run/records.jsonl`` (move that file aside
to start a new set).

With one file it prints, per workload and metric, the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them and the
quartile distance as a share of the median, and flags every end-to-end
metric whose spread exceeds its bound in ``BENCHMARK.json``; the exit
code is 1 if any does.  With two files it prints both sides' medians,
quartiles and spreads, the median change, the pair wins of the change
(runs paired by seed) and a verdict: ``worse`` when the change's median
is worse by more than the bound, ``unresolved`` when either side spreads
wider than the bound (unless every change run beats every base run),
``better`` only when the change wins at least nine pairs in ten and the
medians differ by more than the base's quartile distance, ``same``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import load_spec  # noqa: E402

#: (workload, trace, metric) -> [(seed, value)]
Runs = Dict[Tuple[str, int, str], List[Tuple[int, float]]]


def load_runs(path: Path) -> Runs:
    runs: Runs = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                key = (record["workload"], int(record["trace"]), name)
                runs[key].append((int(record["seed"]), float(metric["value"])))
    return runs


def declared_metrics() -> Dict[str, dict]:
    spec = load_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``b`` beats ``a`` in ``direction``."""
    return b < a if direction == "lower" else b > a


def verdict(base: Sequence[float], change: Sequence[float], direction: str,
            bound: Optional[float], wins: int, pairs: int) -> str:
    q1, base_med, q3 = quartiles(base)
    _, change_med, _ = quartiles(change)
    if bound is not None:
        worse_by = (change_med - base_med) if direction == "lower" else (base_med - change_med)
        if base_med and worse_by / abs(base_med) > bound:
            return "worse"
        every = all(_better(a, b, direction) for a in base for b in change)
        if not every and (spread(base) > bound or spread(change) > bound):
            return "unresolved"
    if pairs and wins >= 0.9 * pairs and abs(change_med - base_med) > (q3 - q1) \
            and _better(base_med, change_med, direction):
        return "better"
    return "same"


def _flag(values: Sequence[float], bound: Optional[float]) -> str:
    if bound is None:
        return ""
    if spread(values) > bound:
        return "OVER BOUND"
    return "over a third of bound" if spread(values) > bound / 3 else ""


def summarise(runs: Runs) -> int:
    declared = declared_metrics()
    print(f"{'workload':16s} {'t':1s} {'metric':46s} {'n':>3s} "
          f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} flag")
    status = 0
    for (workload, trace, name), pairs in sorted(runs.items()):
        values = [v for _, v in pairs]
        q1, q2, q3 = quartiles(values)
        flag = _flag(values, declared.get(name, {}).get("bound"))
        status = max(status, int(flag == "OVER BOUND"))
        print(f"{workload:16s} {trace:1d} {name:46s} {len(values):3d} "
              f"{q2:12.6g} {q1:12.6g} {q3:12.6g} {spread(values):7.2%} {flag}")
    return status


def diff(base: Runs, change: Runs) -> int:
    declared = declared_metrics()
    print(f"{'workload':16s} {'t':1s} {'metric':46s} {'base med':>12s} "
          f"{'base q1-q3':>25s} {'spread':>7s} {'change med':>12s} "
          f"{'change q1-q3':>25s} {'spread':>7s} {'delta':>8s} {'wins':>6s} verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace, name = key
        spec = declared.get(name, {"better": "lower"})
        b_by_seed, c_by_seed = dict(base[key]), dict(change[key])
        b_vals, c_vals = [v for _, v in base[key]], [v for _, v in change[key]]
        common = sorted(set(b_by_seed) & set(c_by_seed))
        paired = [(b_by_seed[s], c_by_seed[s]) for s in common] or list(zip(b_vals, c_vals))
        wins = sum(1 for a, b in paired if _better(a, b, spec["better"]))
        bq1, bmed, bq3 = quartiles(b_vals)
        cq1, cmed, cq3 = quartiles(c_vals)
        delta = (cmed - bmed) / abs(bmed) if bmed else 0.0
        result = verdict(b_vals, c_vals, spec["better"], spec.get("bound"),
                         wins, len(paired))
        print(f"{workload:16s} {trace:1d} {name:46s} {bmed:12.6g} "
              f"{bq1:12.6g}-{bq3:<12.6g} {spread(b_vals):7.2%} {cmed:12.6g} "
              f"{cq1:12.6g}-{cq3:<12.6g} {spread(c_vals):7.2%} "
              f"{delta:8.2%} {wins:2d}/{len(paired):<3d} {result}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="records of one set of runs")
    parser.add_argument("change", type=Path, nargs="?",
                        help="records of a second set, to compare with the first")
    args = parser.parse_args(argv)
    if args.change is None:
        return summarise(load_runs(args.base))
    return diff(load_runs(args.base), load_runs(args.change))


if __name__ == "__main__":
    sys.exit(main())
