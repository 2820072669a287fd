"""The benchmark's workloads, one module each.

Every workload module exposes ``LAYERS`` (the per-layer metrics it
measures), ``plan(seed, n)`` (the first ``n`` generated operation
inputs, for determinism tests) and ``run(seed, seconds, tracer)``, which
returns a :class:`RunResult`.
``tracer`` is ``None`` for the untraced run that reports end-to-end
metrics, and a :class:`~perfbench.tracing.Tracer` for the traced run
that reports per-layer metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from perfbench.checks import first_problems

NAMES = ("chip_campaign", "wafer_campaign", "http_query", "cli_coopt")


@dataclass
class RunResult:
    """Outcome of one benchmark run of one workload."""

    attempted: int = 0
    failed: int = 0
    problems: Dict[str, int] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def record(self, problems: List[str]) -> None:
        """Count one checked operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            first_problems(self.problems, problems)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@dataclass
class TracedPairs:
    """Untraced/traced runs of the same operations, pair by pair."""

    untraced_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)
    outputs: List[object] = field(default_factory=list)
    equal: bool = True

    @property
    def overhead_frac(self) -> float:
        """Median traced time over median untraced time, minus one."""
        from perfbench.common import median

        return median(self.traced_s) / median(self.untraced_s) - 1.0


def traced_pairs(tracer, seeds, deadline: float,
                 operation: Callable, image: Callable) -> TracedPairs:
    """Run each operation untraced and traced at the same seed.

    ``operation(seed, traced) -> (seconds, outputs)``; ``image(outputs)``
    must be equal within every pair, which proves the wrappers left every
    RNG stream and result untouched.  The side that runs first alternates
    from pair to pair, so warm-up effects do not bias the overhead.
    Stops at ``deadline`` after at least one pair.
    """
    from perfbench import layers

    pairs = TracedPairs()
    for index, seed in enumerate(seeds):
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with layers.installed(tracer):
                    runs[traced] = operation(seed, True)
            else:
                runs[traced] = operation(seed, False)
        (plain_s, plain), (traced_s, traced_out) = runs[False], runs[True]
        pairs.untraced_s.append(plain_s)
        pairs.traced_s.append(traced_s)
        pairs.outputs.append(traced_out)
        pairs.equal = pairs.equal and image(plain) == image(traced_out)
        if time.perf_counter() >= deadline:
            break
    return pairs


def load(name: str):
    """Import the module of workload ``name``."""
    if name not in NAMES:
        raise KeyError(name)
    import importlib

    return importlib.import_module(f"perfbench.workloads.{name}")
