"""Where the traced run wraps each layer, and how spans become metrics.

Every wrapper sits on the attribute the *caller* looks up: the engine
kernels in the ``chip_sim`` namespace that imported them, the STA sweep
in ``timing.parametric``, methods on their classes, the JSON module as
the service app sees it.  :func:`installed` puts all of them in place
for the ``with`` body and restores the originals afterwards.
"""

from __future__ import annotations

import contextlib
import json
import types
from typing import Dict, Iterator

from perfbench.tracing import Tracer, swapped


def _track_counts(args, kwargs, batch) -> Dict[str, float]:
    return {"gaps_drawn": batch.positions.size, "gaps_valid": int(batch.valid.sum())}


def _window_counts(args, kwargs, result) -> Dict[str, float]:
    lo = args[3] if len(args) > 3 else kwargs["lo"]
    return {"windows_counted": len(lo)}


def _node_evals(args, kwargs, result) -> Dict[str, float]:
    graph, delays = args[0], args[1]
    return {"node_evals": delays.shape[0] * graph.n_nodes}


def _query_points(args, kwargs, result) -> Dict[str, float]:
    return {"query_points": result.n_queries}


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every traced layer entry point for the ``with`` body."""
    import repro.device.shorts as shorts
    import repro.montecarlo.chip_sim as chip_sim
    import repro.service.app as service_app
    import repro.timing.parametric as parametric
    from repro.core.coopt import ParetoCoOptimizer
    from repro.core.count_model import (
        EmpiricalCountModel,
        PoissonCountModel,
        RenewalCountModel,
    )
    from repro.serving.service import YieldService
    from repro.service.schemas import QueryRequest
    from repro.surface.builder import SurfaceBuilder

    patches = [
        (chip_sim, "sample_track_batch", "engine.sample_track_batch", _track_counts),
        (chip_sim, "count_in_windows_flat", "engine.count_in_windows_flat",
         _window_counts),
        (chip_sim.ChipMonteCarlo, "run", "chip_sim.run", None),
        (parametric.TimingMonteCarlo, "run", "timing.run", None),
        (parametric, "propagate_arrivals", "timing.propagate_arrivals", _node_evals),
        (SurfaceBuilder, "build", "surface.build", None),
        (PoissonCountModel, "pmf", "core.count_model.pmf", None),
        (RenewalCountModel, "pmf", "core.count_model.pmf", None),
        (EmpiricalCountModel, "pmf", "core.count_model.pmf", None),
        (shorts, "joint_failure_probability",
         "device.shorts.joint_failure_probability", None),
        (ParetoCoOptimizer, "validate", "coopt.validate", None),
        (YieldService, "query", "serving.query", _query_points),
        (QueryRequest, "from_payload", "service.parse", None),
        (service_app, "query_response", "service.encode", None),
    ]
    app_json = types.SimpleNamespace(
        loads=tracer.wrap(json.loads, "service.parse"),
        dumps=tracer.wrap(json.dumps, "service.encode"),
        JSONDecodeError=json.JSONDecodeError,
    )
    with tracer.installed(patches), swapped(service_app, "json", app_json):
        yield


#: Per-layer metric groups that more than one workload measures.
ENGINE = (
    "engine.sample_track_batch.calls", "engine.sample_track_batch.busy_s",
    "engine.gaps_drawn", "engine.gap_use_ratio",
    "engine.count_in_windows_flat.calls", "engine.count_in_windows_flat.busy_s",
    "engine.windows_counted",
)
TIMING = ("timing.propagate_arrivals.busy_s", "timing.node_evals", "timing.run.self_s")
SERVING_QUERY = ("serving.query.calls", "serving.query.busy_s", "serving.query.points")


#: Per-layer metric -> the tracer counter it reports.
COUNTERS = {
    "engine.gaps_drawn": "gaps_drawn",
    "engine.windows_counted": "windows_counted",
    "timing.node_evals": "node_evals",
    "serving.query.points": "query_points",
}


def layer_values(tracer: Tracer, n_ops: int, names) -> Dict[str, float]:
    """The span and counter reductions among ``names``, per operation.

    A name ending in ``.calls``, ``.busy_s`` or ``.self_s`` reduces the
    spans named by the rest of it; :data:`COUNTERS` names counters.  Both
    are divided by ``n_ops``.  The gap-use ratio is valid over drawn
    gaps.  Other names are left for the workload to fill in.
    """
    values = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name in COUNTERS:
            values[name] = tracer.counters[COUNTERS[name]] / max(1, n_ops)
        elif kind in ("calls", "busy_s", "self_s"):
            values[name] = getattr(tracer, kind)(span) / max(1, n_ops)
        elif name == "engine.gap_use_ratio":
            drawn = tracer.counters["gaps_drawn"]
            values[name] = tracer.counters["gaps_valid"] / drawn if drawn else 0.0
    return values
