"""The metrics the benchmark emits, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the checkout is the one list of metric
names, units, directions and bounds.  The end-to-end metrics are
reported by every workload, each workload giving them its own meaning
(see README.md); per-layer values are per operation of the workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Dict, Mapping

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = BENCHMARK_JSON) -> Dict[str, object]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text(encoding="utf-8"))


def declared(trace: bool, path: Path = BENCHMARK_JSON) -> Dict[str, Dict[str, object]]:
    """name -> declaration of the per-layer (traced) or end-to-end metrics."""
    spec = load_spec(path)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


#: Per-layer metrics that may read 0 on a workload that reaches their
#: layer: error and backlog counts, escalations a search may not need, and
#: the highest ladder rate when even the lowest rung misses the budget.
MAY_BE_ZERO = frozenset({"service.errors", "http.backlog_max", "coopt.escalated",
                         "http.max_rate_rps"})


def result_line(correct: bool, attempted: int, failed: int,
                values: Mapping[str, float], trace: bool,
                reached: Collection[str] = ()) -> Dict[str, object]:
    """The final JSON object of a run.

    Untraced, ``values`` must name exactly the end-to-end metrics.
    Traced, ``values`` must name exactly ``reached``, the per-layer
    metrics the workload measures, each non-zero unless listed in
    :data:`MAY_BE_ZERO`; every other per-layer metric belongs to a layer
    the workload does not reach and is reported as 0.  Raises
    ``ValueError`` on any other set of names or on a non-finite value.
    """
    names = declared(trace)
    expected = set(reached) if trace else set(names)
    missing = sorted(expected - set(values))
    extra = sorted(set(values) - expected)
    unknown = sorted(expected - set(names))
    if missing or extra or unknown:
        raise ValueError(f"metric names differ: missing {missing}, extra {extra}, "
                         f"undeclared {unknown}")
    metrics = {}
    for name in names:
        value = float(values.get(name, 0.0))
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        if name in expected and value == 0.0 and (not trace or name not in MAY_BE_ZERO):
            raise ValueError(f"metric {name} reads 0 on a workload that measures it")
        metrics[name] = {"value": value, "unit": names[name]["unit"]}
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
