"""Benchmark of the Pareto process/design co-optimization driver.

Runs :class:`~repro.core.coopt.ParetoCoOptimizer` on the OpenRISC width
histogram at the 99 % chip-yield target and writes ``BENCH_coopt.json``
at the repository root.  Two headline checks:

* **front quality** — the search must find at least one configuration
  that meets the yield target at a capacitance penalty no worse than the
  uniform-upsizing baseline of
  :class:`~repro.core.optimizer.CoOptimizationFlow` (the ladder contains
  the uniform plan, so losing to it would be a bug, not a tuning issue);
* **throughput** — at least 1e4 candidate evaluations/sec through the
  bounded serving tier (the measured figure is typically far higher:
  the chip log-yield is additive across width classes, so the full
  design cross product reduces to one batched service query per process
  point plus an outer-sum).

A second, *renewal* case crosses the density grid with pitch CVs
(0.8, 1.0) and metallic-removal etas (1, 0.99).  CV 0.8 has no Poisson
closed form, so its surfaces tabulate the renewal count pmf (Eq. 2.2
on a gamma pitch); its ``surface_build_seconds`` is the cost of that
tabulation.  The same quality checks and throughput floor apply.

Runs as a pytest test (``pytest benchmarks/bench_coopt.py``) or
standalone (``python benchmarks/bench_coopt.py``).  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.core.calibration import CalibratedSetup
from repro.core.coopt import ParetoCoOptimizer, process_grid
from repro.netlist.openrisc import openrisc_width_histogram
from repro.resilience.atomic import atomic_write_json

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_coopt.json"

EVALS_PER_SEC_FLOOR = 1.0e4
YIELD_TARGET = 0.99


def _quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


#: Extra process axes of the renewal case (pitch CV x removal eta).
RENEWAL_PITCH_CVS = (0.8, 1.0)
RENEWAL_REMOVAL_ETAS = (1.0, 0.99)


def build_optimizer(extra_levels: int, densities: int,
                    pitch_cvs=(1.0,), removal_etas=(1.0,)) -> ParetoCoOptimizer:
    """Co-optimizer over a density grid around the nominal 250 /µm point."""
    setup = CalibratedSetup(yield_target=YIELD_TARGET)
    design = openrisc_width_histogram(setup.chip_transistor_count)
    rho = [200.0 + i * (150.0 / (densities - 1)) for i in range(densities)]
    return ParetoCoOptimizer(
        setup=setup,
        widths_nm=design.widths_nm,
        counts=design.counts,
        process_points=process_grid(
            densities_per_um=rho, pitch_cvs=pitch_cvs, removal_etas=removal_etas
        ),
        extra_levels=extra_levels,
        max_combos=2_000_000,
    )


def run_benchmark(extra_levels: int, densities: int,
                  validate_trials: int, **axes) -> dict:
    """One search; its record (front quality, pruning, throughput)."""
    optimizer = build_optimizer(extra_levels, densities, **axes)
    # Warm-up: surfaces build once and are reused by the timed run.
    start = time.perf_counter()
    result = optimizer.run(validate_trials=validate_trials, validate_top=1)
    total_seconds = time.perf_counter() - start

    best = result.best
    return {
        "benchmark": "process/design co-optimization Pareto search",
        "quick_mode": _quick_mode(),
        "yield_target": result.yield_target,
        "search_space": {
            "process_points": result.process_point_count,
            "pitch_cvs": sorted({p.pitch_cv for p in optimizer.process_points}),
            "removal_etas": sorted(
                {p.metallic_removal_eta for p in optimizer.process_points}
            ),
            "extra_levels": extra_levels,
            "combos_per_process_point": optimizer.combos_per_process_point(),
            "candidates_total": result.candidates_evaluated,
        },
        "front_quality": {
            "meets_target": result.meets_target,
            "beats_uniform": result.beats_uniform,
            "front_size": len(result.front),
            "best": best.describe() if best else None,
            "uniform_wmin_nm": result.uniform_wmin_nm,
            "uniform_penalty": result.uniform_penalty,
            "uniform_baseline_wmin_nm": result.uniform_baseline_wmin_nm,
            "uniform_baseline_penalty": result.uniform_baseline_penalty,
            "penalty_vs_uniform": (
                best.capacitance_penalty - result.uniform_penalty
                if best else None
            ),
        },
        "pruning": {
            "pruned_by_upper_bound": result.candidates_pruned,
            "escalated_to_exact": result.candidates_escalated,
            "feasible": result.candidates_feasible,
        },
        "throughput": {
            "surface_build_seconds": result.surface_build_seconds,
            "inner_loop_seconds": result.inner_loop_seconds,
            "total_seconds": total_seconds,
            "evaluations_per_sec": result.evaluations_per_second,
            "floor": EVALS_PER_SEC_FLOOR,
        },
        "validations": [v.describe() for v in result.validations],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _report_and_check(record: dict, title: str) -> None:
    """Print one search's headline numbers and assert its checks."""
    quality = record["front_quality"]
    rate = record["throughput"]["evaluations_per_sec"]
    print(f"\n=== {title} "
          f"({'quick' if record['quick_mode'] else 'full'}) ===")
    print(f"search space         : {record['search_space']['process_points']} "
          f"process points x "
          f"{record['search_space']['combos_per_process_point']} combos = "
          f"{record['search_space']['candidates_total']} candidates")
    print(f"pruned / escalated   : "
          f"{record['pruning']['pruned_by_upper_bound']} / "
          f"{record['pruning']['escalated_to_exact']}")
    print(f"best penalty         : "
          f"{100 * quality['best']['capacitance_penalty']:.2f} % "
          f"(uniform baseline {100 * quality['uniform_penalty']:.2f} %)")
    print(f"surface build        : "
          f"{record['throughput']['surface_build_seconds']:.3f} s")
    print(f"throughput           : {rate:.3e} candidate evals/sec "
          f"(floor {EVALS_PER_SEC_FLOOR:.0e})")

    assert quality["meets_target"], "no configuration met the yield target"
    assert quality["beats_uniform"], (
        "best penalty lost to the uniform-upsizing baseline: "
        f"{quality['best']['capacitance_penalty']} > "
        f"{quality['uniform_penalty']}"
    )
    assert rate >= EVALS_PER_SEC_FLOOR, (
        f"inner loop {rate:.3e} evals/sec below the "
        f"{EVALS_PER_SEC_FLOOR:.0e} floor"
    )
    for validation in record["validations"]:
        assert abs(validation["z_score"]) < 6.0, (
            "Monte Carlo validation disagrees with the serving-tier "
            f"prediction: {validation}"
        )


def test_coopt_front_quality_and_throughput():
    """Front beats the uniform baseline; ≥1e4 candidate evals/sec.

    Runs the Poisson density search, then the renewal case, and writes
    both records (the renewal one under ``"renewal"``).
    """
    if _quick_mode():
        size = dict(extra_levels=12, densities=5, validate_trials=32)
    else:
        size = dict(extra_levels=40, densities=13, validate_trials=256)
    record = run_benchmark(**size)
    record["renewal"] = run_benchmark(
        **size, pitch_cvs=RENEWAL_PITCH_CVS, removal_etas=RENEWAL_REMOVAL_ETAS
    )

    atomic_write_json(RESULT_PATH, record)
    print(f"\nwritten              : {RESULT_PATH}")
    _report_and_check(record, "Co-optimization Pareto search")
    _report_and_check(record["renewal"],
                      "Co-optimization, renewal case (pitch CV x eta)")


if __name__ == "__main__":
    test_coopt_front_quality_and_throughput()
