"""Chip campaign: whole-chip functional Monte Carlo, then STA, per operation.

One operation runs ``ChipMonteCarlo.run(600)`` and then
``TimingMonteCarlo.run(400)`` on the scale-0.25 OpenRISC-like Nangate45
placement (37,740 devices, 149 rows, 789 distinct windows) at the sparse
corner with metallic shorts on.  ``primary_ms`` is the median chip run,
``secondary_ms`` the median STA run, ``setup_s`` the median of five
builds of placement, chip geometry and derived timing graph, all at the
reference host's speed (``perfbench.common.HostClock``).
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional

import numpy as np

from repro.cells.nangate45 import build_nangate45_library
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement
from repro.timing import TimingMonteCarlo
from repro.timing import ingest  # noqa: F401 -- imported lazily by from_chip

from perfbench import layers
from perfbench.checks import check_chip, check_timing
from perfbench.common import HostClock, median, peak_rss_mb, summarize
from perfbench.tracing import Tracer
from perfbench.workloads import RunResult, timed, traced_pairs

#: Per-layer metrics this workload measures (see ``perfbench.metrics``).
LAYERS = layers.ENGINE + ("chip_sim.run.self_s",) + layers.TIMING \
    + ("trace.overhead_frac",)

DESIGN_SCALE = 0.25
MEAN_PITCH_NM = 20.0
#: Metallic fraction, removal efficiency eta, semiconducting removal.
TYPE_MODEL = (1.0 / 3.0, 0.95, 0.3)
CHIP_TRIALS = 600
STA_TRIALS = 400
SETUP_REPEATS = 5


def plan(seed: int, n: int) -> List[int]:
    """Root seeds of the first ``n`` operations."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint64)]


def build():
    """Placement, chip simulator and timing engine (the timed set-up)."""
    design = build_openrisc_like_design(
        build_nangate45_library(), scale=DESIGN_SCALE, seed=2010
    )
    placement = RowPlacement(design, row_width_nm=40_000.0)
    chip = ChipMonteCarlo(
        placement,
        pitch=ExponentialPitch(MEAN_PITCH_NM),
        type_model=CNTTypeModel(*TYPE_MODEL),
    )
    return chip, TimingMonteCarlo.from_chip(chip)


def predicted_failing_devices(chip) -> float:
    """Thinned closed-form mean failing-device count of the placement."""
    widths, counts = chip.width_class_histogram()
    model = CNFETFailureModel.from_type_model(
        PoissonCountModel(mean_pitch_nm=MEAN_PITCH_NM), CNTTypeModel(*TYPE_MODEL)
    )
    return float(np.sum(np.asarray(counts) * model.failure_probabilities(widths)))


def operation(chip, timing, op_seed: int, timer=timed):
    """One chip run then one STA run, each timed by ``timer``.

    Returns both times and both outputs.
    """
    chip_s, chip_result = timer(
        chip.run, CHIP_TRIALS, np.random.default_rng([op_seed, 0])
    )
    sta_s, sta_result = timer(
        timing.run, STA_TRIALS, np.random.default_rng([op_seed, 1])
    )
    return chip_s, sta_s, chip_result, sta_result


def fingerprint_outputs(chip_result, sta_result) -> bytes:
    """Exact byte image of an operation's outputs (for traced == untraced)."""
    return repr(chip_result).encode() + sta_result.critical_path_ps.tobytes() \
        + sta_result.functional_fail.tobytes()


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> RunResult:
    out = RunResult()
    clock = HostClock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # Every build starts from a collected heap, not from the garbage
        # of the one before, whose collection would land in some builds.
        gc.collect()
        elapsed, (chip, timing) = clock.timed(build)
        setup_times.append(elapsed)
    predicted = predicted_failing_devices(chip)
    nominal_ps = timing.nominal_critical_path_ps()
    # Warm-up: lazy set-up and allocator growth happen outside the clock.
    chip.run(8, np.random.default_rng(0))
    timing.run(8, np.random.default_rng(0))

    def check(chip_result, sta_result) -> None:
        out.record(
            check_chip(chip_result.mean_failing_devices,
                       chip_result.std_failing_devices, CHIP_TRIALS, predicted)
            + check_timing(sta_result.critical_path_ps, STA_TRIALS, nominal_ps)
        )

    seeds = plan(seed, 4096)
    deadline = time.perf_counter() + seconds
    if tracer is None:
        chip_times, sta_times = [], []
        for op_seed in seeds:
            chip_s, sta_s, chip_result, sta_result = operation(
                chip, timing, op_seed, clock.timed)
            chip_times.append(chip_s)
            sta_times.append(sta_s)
            check(chip_result, sta_result)
            if time.perf_counter() >= deadline:
                break
        scale = clock.scale()
        out.values = {
            "setup_s": scale * median(setup_times),
            "primary_ms": 1e3 * scale * median(chip_times),
            "secondary_ms": 1e3 * scale * median(sta_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.detail.update({
            "chip_run_s": summarize(chip_times),
            "sta_run_s": summarize(sta_times),
            "chip_trials_per_s": CHIP_TRIALS / median(chip_times),
            "sta_trials_per_s": STA_TRIALS / median(sta_times),
            "reference_s": summarize(clock.references),
        })
    else:
        def op(op_seed, traced):
            chip_s, sta_s, chip_result, sta_result = operation(chip, timing, op_seed)
            return chip_s + sta_s, (chip_result, sta_result)

        pairs = traced_pairs(tracer, seeds, deadline, op,
                             lambda outputs: fingerprint_outputs(*outputs))
        for outputs in pairs.outputs:
            check(*outputs)
        out.record([] if pairs.equal else ["trace: traced outputs differ from untraced"])
        out.values = layers.layer_values(tracer, len(pairs.outputs), LAYERS)
        out.values["trace.overhead_frac"] = pairs.overhead_frac
        out.detail["traced_outputs_equal"] = pairs.equal
    out.detail.update({
        "device_count": chip.device_count,
        "chip_trials": CHIP_TRIALS,
        "sta_trials": STA_TRIALS,
        "setup_s": summarize(setup_times),
        "predicted_failing_devices": predicted,
    })
    return out
