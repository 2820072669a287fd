"""Wafer campaign: a width-class wafer pass and a chip-wafer pass per operation.

The wafer is the 52-die, 10 mm-die correlated-field map (4 nm centre
pitch, density field sigma 0.04 over 25 mm, misalignment field sigma 1
degree over 30 mm), generated from the workload seed.  One operation runs
``simulate_wafer`` (5 width classes, 4096 trials per die, misalignment
de-rating) and ``run_chip_wafer`` on the scale-0.05 placement (96 trials
per die, one worker per CPU).  ``primary_ms`` is the median
``simulate_wafer`` pass, ``secondary_ms`` the median ``run_chip_wafer``
pass, ``setup_s`` the median of seven builds of wafer map and chip
geometry, all at the reference host's speed
(``perfbench.common.HostClock``).
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional

import numpy as np

from repro.analysis.mispositioned import MisalignmentImpactModel
from repro.cells.nangate45 import build_nangate45_library
from repro.core.count_model import PoissonCountModel
from repro.core.failure import CNFETFailureModel
from repro.growth.pitch import ExponentialPitch
from repro.growth.spatial import SpatialFieldSpec
from repro.growth.types import CNTTypeModel
from repro.growth.wafer import WaferGrowthModel
from repro.montecarlo import wafer_sim
from repro.montecarlo.chip_sim import ChipMonteCarlo
from repro.netlist.openrisc import build_openrisc_like_design
from repro.netlist.placement import RowPlacement

from perfbench import layers
from perfbench.checks import check_chip_wafer, check_wafer
from perfbench.common import HostClock, median, nproc, peak_rss_mb, summarize
from perfbench.tracing import Tracer
from perfbench.workloads import RunResult, timed, traced_pairs

#: Per-layer metrics this workload measures (see ``perfbench.metrics``).
LAYERS = layers.ENGINE + (
    "wafer_sim.simulate_wafer.busy_s", "wafer_sim.die_trials",
    "wafer_sim.run_chip_wafer.busy_s", "wafer_sim.run_chip_wafer.scaling_eff",
    "growth.wafer_generate.busy_s", "trace.overhead_frac",
)

MEAN_PITCH_NM = 4.0
DIE_SIZE_MM = 10.0
#: Metallic fraction, removal efficiency eta (opens only), semiconducting removal.
TYPE_MODEL = (1.0 / 3.0, 1.0, 0.3)
WIDTH_CLASSES_NM = (90.0, 105.0, 120.0, 150.0, 178.0)
DEVICE_COUNTS = (400.0, 300.0, 250.0, 200.0, 150.0)
WAFER_TRIALS = 4096
CHIP_SCALE = 0.05
CHIP_TRIALS = 96
SETUP_REPEATS = 7


def plan(seed: int, n: int) -> List[int]:
    """Root seeds of the first ``n`` operations."""
    return [int(s) for s in np.random.SeedSequence([seed, 1]).generate_state(n, np.uint64)]


def generate_wafer(seed: int):
    return WaferGrowthModel(
        center_pitch_nm=MEAN_PITCH_NM,
        die_size_mm=DIE_SIZE_MM,
        density_field=SpatialFieldSpec(sigma=0.04, correlation_length_mm=25.0),
        misalignment_field=SpatialFieldSpec(sigma=1.0, correlation_length_mm=30.0),
    ).generate(seed_key=(seed,))


def build_chip():
    design = build_openrisc_like_design(
        build_nangate45_library(), scale=CHIP_SCALE, seed=2010
    )
    return ChipMonteCarlo(
        RowPlacement(design),
        pitch=ExponentialPitch(MEAN_PITCH_NM),
        type_model=CNTTypeModel(*TYPE_MODEL),
    )


class ClosedForm:
    """Poisson closed-form per-die predictions, memoised by die pitch."""

    def __init__(self) -> None:
        self.type_model = CNTTypeModel(*TYPE_MODEL)
        self.misalignment = MisalignmentImpactModel(
            band_width_nm=103.0, cnt_length_um=200.0, min_cnfet_density_per_um=1.8
        )
        self._models = {}

    def failure_probabilities(self, mean_pitch_nm: float, widths_nm) -> np.ndarray:
        model = self._models.get(mean_pitch_nm)
        if model is None:
            model = CNFETFailureModel.from_type_model(
                PoissonCountModel(mean_pitch_nm=mean_pitch_nm), self.type_model
            )
            self._models[mean_pitch_nm] = model
        return np.asarray(model.failure_probabilities(np.asarray(widths_nm)))

    def die_yield(self, die) -> float:
        """Eq. 2.3 chip yield of one width-class die, de-rated like the pass."""
        pf = self.failure_probabilities(die.mean_pitch_nm, die.widths_nm)
        pf = pf / self.misalignment.relaxation_for_angle(die.misalignment_deg)
        return float(np.prod((1.0 - pf) ** np.asarray(die.device_counts)))


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> RunResult:
    out = RunResult()

    def build():
        wafer = generate_wafer(seed)
        chip = build_chip()
        chip.chip_geometry()
        return wafer, chip

    clock = HostClock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # Every build starts from a collected heap, not from the garbage
        # of the one before, whose collection would land in some builds.
        gc.collect()
        elapsed, (wafer, chip) = clock.timed(build)
        setup_times.append(elapsed)
    closed = ClosedForm()
    pitch = ExponentialPitch(MEAN_PITCH_NM)
    workers = nproc()

    def wafer_pass(op_seed: int):
        return wafer_sim.simulate_wafer(
            wafer, pitch, closed.type_model, WIDTH_CLASSES_NM, DEVICE_COUNTS,
            n_trials=WAFER_TRIALS, seed_key=(op_seed,),
            misalignment=closed.misalignment,
        )

    def chip_pass(op_seed: int, n_workers: int):
        return wafer_sim.run_chip_wafer(
            wafer, chip, n_trials=CHIP_TRIALS, seed_key=(op_seed,),
            n_workers=n_workers,
        )

    def check(wafer_result, chip_result) -> None:
        out.record(
            check_wafer(
                [d.chip_yield for d in wafer_result.dice],
                [d.chip_yield_se for d in wafer_result.dice],
                [closed.die_yield(d) for d in wafer_result.dice],
            )
            + check_chip_wafer(
                [d.chip_yield for d in chip_result.dice],
                [d.mean_failing_devices for d in chip_result.dice],
                [d.mean_failing_rows for d in chip_result.dice],
                CHIP_TRIALS,
                [d.n_trials for d in chip_result.dice],
            )
        )

    # Warm-up: lazy set-up and the worker pool's first start off the clock.
    wafer_sim.simulate_wafer(wafer, pitch, closed.type_model, WIDTH_CLASSES_NM,
                             DEVICE_COUNTS, n_trials=64, seed_key=(0,))
    wafer_sim.run_chip_wafer(wafer, chip, n_trials=4, seed_key=(0,),
                             n_workers=workers)

    seeds = plan(seed, 4096)
    deadline = time.perf_counter() + seconds
    if tracer is None:
        wafer_times, chip_times = [], []
        for op_seed in seeds:
            wafer_s, wafer_result = clock.timed(wafer_pass, op_seed)
            chip_s, chip_result = clock.timed(chip_pass, op_seed, workers)
            wafer_times.append(wafer_s)
            chip_times.append(chip_s)
            check(wafer_result, chip_result)
            if time.perf_counter() >= deadline:
                break
        n_dice = wafer.die_count
        scale = clock.scale()
        out.values = {
            "setup_s": scale * median(setup_times),
            "primary_ms": 1e3 * scale * median(wafer_times),
            "secondary_ms": 1e3 * scale * median(chip_times),
            "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)),
        }
        out.detail.update({
            "simulate_wafer_s": summarize(wafer_times),
            "run_chip_wafer_s": summarize(chip_times),
            "wafer_die_trials_per_s": n_dice * WAFER_TRIALS / median(wafer_times),
            "chip_wafer_die_trials_per_s":
                n_dice * CHIP_TRIALS / median(chip_times),
            "reference_s": summarize(clock.references),
        })
    else:
        serial_s = []

        def op(op_seed, traced):
            if not traced:
                wafer_s, wafer_result = timed(wafer_pass, op_seed)
                chip_s, chip_result = timed(chip_pass, op_seed, workers)
                return wafer_s + chip_s, (wafer_result, chip_result)
            # The pool's workers are separate processes, so a single-worker
            # pass makes the engine visible to the tracer and gives the
            # pool's scaling efficiency.
            with tracer.span("wafer_sim.simulate_wafer"):
                wafer_s, wafer_result = timed(wafer_pass, op_seed)
            with tracer.span("wafer_sim.run_chip_wafer"):
                chip_s, chip_result = timed(chip_pass, op_seed, workers)
            with tracer.span("wafer_sim.run_chip_wafer.serial"):
                one_s, serial = timed(chip_pass, op_seed, 1)
            serial_s.append(one_s / (workers * chip_s))
            if repr(serial.dice) != repr(chip_result.dice):
                out.record(["chip wafer: n_workers changed the result"])
            return wafer_s + chip_s, (wafer_result, chip_result)

        pairs = traced_pairs(tracer, seeds, deadline, op,
                             lambda outputs: repr(outputs).encode())
        for outputs in pairs.outputs:
            check(*outputs)
        out.record([] if pairs.equal else ["trace: traced outputs differ from untraced"])
        with tracer.span("growth.wafer_generate"):
            generate_wafer(seed)
        n_ops = len(pairs.outputs)
        out.values = layers.layer_values(tracer, n_ops, LAYERS)
        out.values["growth.wafer_generate.busy_s"] = tracer.busy_s(
            "growth.wafer_generate")
        out.values["wafer_sim.die_trials"] = wafer.die_count * WAFER_TRIALS
        out.values["wafer_sim.run_chip_wafer.scaling_eff"] = median(serial_s)
        out.values["trace.overhead_frac"] = pairs.overhead_frac
        out.detail["traced_outputs_equal"] = pairs.equal
    out.detail.update({
        "die_count": wafer.die_count,
        "chip_device_count": chip.device_count,
        "workers": workers,
        "setup_s": summarize(setup_times),
    })
    return out
