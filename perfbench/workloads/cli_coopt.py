"""CLI co-optimization: cold ``repro.cli`` processes, ``wmin`` then ``co-opt``.

One operation runs ``python -m repro.cli wmin --json`` and then a
28-process-point ``co-opt`` search (4,536 candidates, two validated
front members) in fresh interpreters, so both pay interpreter start and
``import repro.cli``.  The co-opt seed comes from the workload seed.
``primary_ms`` is the median ``co-opt`` wall time, ``secondary_ms`` the
median ``wmin`` wall time and ``setup_s`` the median of five fresh
interpreters that only import ``repro.cli``.  These are plain wall times:
the host-speed kernel runs in the benchmark process, and in probes it
did not follow the speed of a fresh interpreter (scaling by it doubled
the spread of these times).  The front members' validation runs the
chip engine and STA, so those layers show here too.

The traced run calls the same commands in-process through
``repro.cli.main`` (the tracer cannot reach into a child interpreter),
so its per-layer times exclude interpreter start, which
``cli.import_s`` reports instead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from typing import List, Optional

import numpy as np

from perfbench import layers
from perfbench.checks import check_coopt, check_exit, check_wmin
from perfbench.common import fresh_import_s, median, run_timed, summarize
from perfbench.tracing import Tracer
from perfbench.workloads import RunResult, traced_pairs

#: Per-layer metrics this workload measures (see ``perfbench.metrics``).
LAYERS = layers.ENGINE + ("chip_sim.run.self_s",) + layers.TIMING + (
    "surface.build.calls", "surface.build.busy_s",
    "core.count_model.pmf.calls", "core.count_model.pmf.busy_s",
    "device.shorts.joint_failure_probability.calls",
    "device.shorts.joint_failure_probability.busy_s",
    "coopt.inner_loop_s", "coopt.prune_ratio", "coopt.escalated",
    "coopt.validate.busy_s",
) + layers.SERVING_QUERY + ("cli.import_s", "trace.overhead_frac")

SETUP_REPEATS = 5
WMIN_ARGS = ["wmin", "--json"]
COOPT_ARGS = [
    "co-opt", "--yield-target", "0.99",
    "--densities", "200,225,250,275,300,325,350",
    "--pitch-cvs", "0.8,1.0", "--removal-eta", "1,0.99",
    "--extra-levels", "24", "--validate-trials", "128", "--validate-top", "2",
    "--json",
]
#: Fields of the co-opt payload that are wall-clock measurements.
TIMING_FIELDS = ("evaluations_per_second", "surface_build_seconds",
                 "inner_loop_seconds")
COMMAND_TIMEOUT_S = 120.0
#: Modules the two commands import on first use.
LAZY_IMPORTS = (
    "repro.cli", "repro.core.coopt", "repro.surface", "repro.serving",
    "repro.montecarlo.chip_sim", "repro.timing", "repro.timing.ingest",
    "repro.netlist.openrisc", "repro.cells.nangate45", "repro.device.shorts",
)


def plan(seed: int, n: int) -> List[List[str]]:
    """``co-opt`` argument lists of the first ``n`` operations."""
    seeds = np.random.SeedSequence([seed, 6]).generate_state(n, np.uint32)
    return [COOPT_ARGS + ["--seed", str(int(s))] for s in seeds]


def _decode(stdout: bytes):
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, ["cli: stdout is not one JSON document"]


def _in_process(argv: List[str]):
    """``repro.cli.main(argv)``: (seconds, exit code, stdout bytes)."""
    from repro import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return time.perf_counter() - start, code, buffer.getvalue().encode()


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> RunResult:
    from repro.core.calibration import CalibratedSetup

    out = RunResult()
    expected_wmin = CalibratedSetup().wmin_uncorrelated_nm()
    arg_lists = plan(seed, 512)

    def check(wmin_code, wmin_out, coopt_code, coopt_out, stderr=b""):
        problems = check_exit("wmin", wmin_code, stderr) \
            + check_exit("co-opt", coopt_code, stderr)
        wmin_payload, found = _decode(wmin_out)
        problems += found
        coopt_payload, found = _decode(coopt_out)
        problems += found
        if wmin_payload is not None:
            problems += check_wmin(wmin_payload, expected_wmin)
        if coopt_payload is not None:
            problems += check_coopt(coopt_payload)
        out.record(problems)
        return coopt_payload

    if tracer is None:
        setup_times = [fresh_import_s() for _ in range(SETUP_REPEATS)]
        python = [sys.executable, "-m", "repro.cli"]
        wmin_times, coopt_times = [], []
        peak_mb = 0.0
        deadline = time.perf_counter() + seconds
        for coopt_args in arg_lists:
            wmin_s, wmin, wmin_mb = run_timed(python + WMIN_ARGS, COMMAND_TIMEOUT_S)
            coopt_s, coopt, coopt_mb = run_timed(python + coopt_args, COMMAND_TIMEOUT_S)
            peak_mb = max(peak_mb, wmin_mb, coopt_mb)
            wmin_times.append(wmin_s)
            coopt_times.append(coopt_s)
            check(wmin.returncode, wmin.stdout, coopt.returncode, coopt.stdout,
                  wmin.stderr + coopt.stderr)
            if time.perf_counter() >= deadline:
                break
        out.values = {
            "setup_s": median(setup_times),
            "primary_ms": 1e3 * median(coopt_times),
            "secondary_ms": 1e3 * median(wmin_times),
            "peak_rss_mb": peak_mb,
        }
        out.detail.update({
            "setup_s": summarize(setup_times),
            "cli_wmin_s": summarize(wmin_times),
            "coopt_s": summarize(coopt_times),
        })
        return out

    import_s = fresh_import_s()
    # Import what the commands load lazily, so no pair pays it on one side.
    for module in LAZY_IMPORTS:
        importlib.import_module(module)
    deadline = time.perf_counter() + seconds

    def op(coopt_args, traced):
        wmin_s, wmin_code, wmin_out = _in_process(WMIN_ARGS)
        coopt_s, coopt_code, coopt_out = _in_process(coopt_args)
        return wmin_s + coopt_s, (wmin_code, wmin_out, coopt_code, coopt_out)

    def image(outputs) -> bytes:
        wmin_code, wmin_out, coopt_code, coopt_out = outputs
        payload, _ = _decode(coopt_out)
        if payload is not None:
            for name in TIMING_FIELDS:
                payload.pop(name, None)
        return json.dumps([wmin_code, wmin_out.decode(), coopt_code, payload],
                          sort_keys=True).encode()

    pairs = traced_pairs(tracer, arg_lists, deadline, op, image)
    payloads = [check(*outputs) for outputs in pairs.outputs]
    out.record([] if pairs.equal else ["trace: traced outputs differ from untraced"])
    out.values = layers.layer_values(tracer, len(pairs.outputs), LAYERS)
    searched = [p for p in payloads if p is not None]
    if searched:
        out.values.update({
            "coopt.inner_loop_s": median([p["inner_loop_seconds"] for p in searched]),
            "coopt.prune_ratio": median([
                p["candidates_pruned"] / p["candidates_evaluated"] for p in searched]),
            "coopt.escalated": median([p["candidates_escalated"] for p in searched]),
        })
    out.values["cli.import_s"] = import_s
    out.values["trace.overhead_frac"] = pairs.overhead_frac
    out.detail["traced_outputs_equal"] = pairs.equal
    return out
