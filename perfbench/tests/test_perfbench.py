"""Tests of the benchmark itself: generators, metric names, checks, tracing."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import checks, common, compare, metrics  # noqa: E402
from perfbench.common import HostClock, summarize, tail_percentile  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import NAMES, load  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_and_seed_dependent(name):
    module = load(name)
    first = module.plan(7, 40)
    assert first == module.plan(7, 40)
    assert first != module.plan(8, 40)
    assert len(first) == 40


def test_http_bodies_are_distinct_and_follow_the_mix():
    from perfbench.workloads import http_query

    queries = http_query.make_queries(3, 400, {"device": "d", "row": "r"})
    assert len({q.body for q in queries}) == len(queries)
    sizes = [q.width_nm.size for q in queries]
    assert sizes.count(1) == 120 and sizes.count(32) == 240 and sizes.count(1024) == 40
    for size in (1, 32, 1024):
        rows = sum(q.surface == "r" for q in queries if q.width_nm.size == size)
        assert rows * 4 == sizes.count(size)
    off_grid = [q for q in queries if q.off_grid]
    assert len(off_grid) == 20 and all(q.width_nm.size == 32 for q in off_grid)
    assert all(q.width_nm.min() > http_query.W_HIGH for q in off_grid)
    on_grid = [q for q in queries if not q.off_grid]
    assert all(q.width_nm.max() <= http_query.W_HIGH for q in on_grid)


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------


def test_benchmark_json_declares_the_workloads_and_a_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert SPEC["paths"] == ["perfbench"]
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = end_to_end["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end.values())


@pytest.mark.parametrize("name", NAMES)
def test_workload_layers_are_declared_per_layer_metrics(name):
    layers = load(name).LAYERS
    assert len(set(layers)) == len(layers)
    assert set(layers) <= set(metrics.declared(trace=True))


def test_every_per_layer_metric_is_measured_by_some_workload():
    measured = set().union(*(load(name).LAYERS for name in NAMES))
    assert measured == set(metrics.declared(trace=True))


def test_result_line_emits_exactly_the_declared_names():
    end_to_end, per_layer = metrics.declared(False), metrics.declared(True)
    line = metrics.result_line(True, 3, 0, dict.fromkeys(end_to_end, 1.5), trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(end_to_end)
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    reached = ("engine.gaps_drawn", "service.errors")
    traced = metrics.result_line(
        True, 1, 0, {"engine.gaps_drawn": 7.0, "service.errors": 0.0},
        trace=True, reached=reached)
    assert list(traced["metrics"]) == list(per_layer)
    assert traced["metrics"]["engine.gaps_drawn"]["value"] == 7.0
    assert all(m["value"] == 0.0 for n, m in traced["metrics"].items()
               if n != "engine.gaps_drawn")


@pytest.mark.parametrize("mutate", [
    lambda v: v.pop("setup_s"),
    lambda v: v.update(unknown_metric=1.0),
    lambda v: v.update(primary_ms=float("nan")),
    lambda v: v.update(primary_ms=0.0),
])
def test_result_line_rejects_wrong_names_and_bad_values(mutate):
    values = dict.fromkeys(metrics.declared(trace=False), 1.0)
    mutate(values)
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, values, trace=False)


@pytest.mark.parametrize("values", [
    {},                                                   # a reached layer missing
    {"engine.gaps_drawn": 0.0},                           # a wrapper that never fired
    {"engine.gaps_drawn": 5.0, "timing.node_evals": 3.0},  # an undeclared reach
])
def test_traced_result_line_rejects_missing_zero_or_unreached_values(values):
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, values, trace=True,
                            reached=("engine.gaps_drawn",))


def test_run_exits_non_zero_without_a_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chip_campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == b""


# ----------------------------------------------------------------------
# Output checks reject corrupted outputs
# ----------------------------------------------------------------------


def _query_body(n=4):
    value = np.linspace(0.1, 0.4, n)
    return {
        "failure_probability": value.tolist(),
        "failure_lower": (value - 0.01).tolist(),
        "failure_upper": (value + 0.01).tolist(),
        "chip_yield": (1 - value).tolist(),
        "yield_lower": (1 - value - 0.01).tolist(),
        "yield_upper": (1 - value + 0.01).tolist(),
    }


def test_bounds_check_accepts_ordered_and_rejects_swapped_bounds():
    body = _query_body()
    assert checks.check_bounds(body, 4) == []
    swapped = dict(body, failure_lower=body["failure_upper"],
                   failure_upper=body["failure_lower"])
    assert checks.check_bounds(swapped, 4)
    assert checks.check_bounds(body, 5)
    assert checks.check_bounds({"chip_yield": [0.5]}, 1)


def test_identity_check_rejects_a_changed_bit():
    body = _query_body()
    local = {name: list(values) for name, values in body.items()}
    assert checks.check_identical(body, local) == []
    local["yield_upper"][0] = np.nextafter(local["yield_upper"][0], 2.0)
    assert checks.check_identical(body, local)


def test_exit_check_rejects_non_zero_exit():
    assert checks.check_exit("co-opt", 0, b"") == []
    assert checks.check_exit("co-opt", 1, b"error: boom\n") == [
        "co-opt: exit code 1 (error: boom)"]


def test_chip_check_rejects_a_z_outlier():
    assert checks.check_chip(100.0, 10.0, 400, 100.5) == []
    assert checks.check_chip(100.0, 10.0, 400, 104.0)
    assert checks.check_chip(float("nan"), 10.0, 400, 100.0)


def test_timing_check_rejects_nan_and_wrong_shape():
    crit = np.full(8, 50.0)
    assert checks.check_timing(crit, 8, 40.0) == []
    crit[3] = np.inf  # a dead gate is a legitimate infinite path
    assert checks.check_timing(crit, 8, 40.0) == []
    crit[2] = np.nan
    assert checks.check_timing(crit, 8, 40.0)
    assert checks.check_timing(np.full(7, 50.0), 8, 40.0)


def test_wafer_checks_reject_outliers_and_non_finite_dice():
    yields, ses = [0.9, 0.92, 0.91], [0.01, 0.01, 0.01]
    assert checks.check_wafer(yields, ses, [0.91, 0.91, 0.91]) == []
    assert checks.check_wafer(yields, ses, [0.7, 0.7, 0.7])
    assert checks.check_wafer([0.9, float("nan"), 0.9], ses, yields)
    assert checks.check_wafer([0.9, 1.2, 0.9], ses, yields)
    devices, rows = [0.1, 0.12], [0.05, 0.1]
    assert checks.check_chip_wafer([0.9, 0.9], devices, rows, 96, [96, 96]) == []
    assert checks.check_chip_wafer([0.9, 1.1], devices, rows, 96, [96, 96])
    assert checks.check_chip_wafer([0.9, 0.9], devices, [0.05, 0.2], 96, [96, 96])
    assert checks.check_chip_wafer([0.9, 0.9], [0.1, float("inf")], rows, 96, [96, 96])
    assert checks.check_chip_wafer([0.9, 0.9], devices, rows, 96, [96, 95])


def test_coopt_and_wmin_checks_reject_bad_payloads():
    good = {"meets_target": True, "beats_uniform": True,
            "validations": [{"z_score": 0.4}, {"z_score": -1.2}]}
    assert checks.check_coopt(good) == []
    assert checks.check_coopt(dict(good, meets_target=False))
    assert checks.check_coopt(dict(good, beats_uniform=False))
    assert checks.check_coopt(dict(good, validations=[{"z_score": 6.5}]))
    assert checks.check_coopt(dict(good, validations=[]))
    assert checks.check_wmin({"wmin_baseline_nm": 168.0}, 168.0) == []
    assert checks.check_wmin({"wmin_baseline_nm": 168.5}, 168.0)


def test_z_score_with_zero_standard_error():
    assert checks.z_score(1.0, 1.0, 0.0) == 0.0
    assert math.isinf(checks.z_score(1.0, 2.0, 0.0))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def test_self_time_subtracts_children_and_busy_counts_reentry_once():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):
                pass
    outer, inner, nested = tracer.spans
    assert nested.parent == inner.span_id and inner.parent == outer.span_id
    assert tracer.self_s("outer") == pytest.approx(outer.duration - inner.duration)
    assert tracer.busy_s("inner") == pytest.approx(inner.duration)
    assert tracer.calls("inner") == 2


class _Sampler:
    def draw(self, rng, n):
        return rng.standard_normal(n)

    @classmethod
    def make(cls, n):
        return [n]


def test_installed_wrappers_leave_rng_streams_and_restore_originals():
    tracer = Tracer()
    plain = _Sampler().draw(np.random.default_rng(5), 6)
    original_draw, original_make = vars(_Sampler)["draw"], vars(_Sampler)["make"]
    patches = [(_Sampler, "draw", "sampler.draw", lambda a, k, r: {"drawn": r.size}),
               (_Sampler, "make", "sampler.make", None)]
    with tracer.installed(patches):
        traced = _Sampler().draw(np.random.default_rng(5), 6)
        assert _Sampler.make(3) == [3]
    assert traced.tobytes() == plain.tobytes()
    assert tracer.calls("sampler.draw") == 1 and tracer.counters["drawn"] == 6
    assert tracer.calls("sampler.make") == 1
    assert vars(_Sampler)["draw"] is original_draw
    assert vars(_Sampler)["make"] is original_make


def test_layer_wrappers_cover_every_target_and_restore_it():
    pytest.importorskip("repro")
    from perfbench import layers
    import repro.montecarlo.chip_sim as chip_sim
    import repro.service.app as service_app

    before = (chip_sim.sample_track_batch, service_app.json,
              vars(chip_sim.ChipMonteCarlo)["run"])
    with layers.installed(Tracer()):
        assert chip_sim.sample_track_batch is not before[0]
        assert service_app.json is not before[1]
    assert (chip_sim.sample_track_batch, service_app.json,
            vars(chip_sim.ChipMonteCarlo)["run"]) == before
    tracer = Tracer()
    with tracer.span("chip_sim.run"):
        with tracer.span("engine.sample_track_batch"):
            pass
    tracer.counters.update(gaps_drawn=8, gaps_valid=6)
    values = layers.layer_values(tracer, 2, ("engine.sample_track_batch.calls",
                                             "engine.gaps_drawn", "engine.gap_use_ratio",
                                             "chip_sim.run.self_s", "cli.import_s"))
    assert values["engine.sample_track_batch.calls"] == 0.5
    assert values["engine.gaps_drawn"] == 4.0
    assert values["engine.gap_use_ratio"] == 0.75
    assert values["chip_sim.run.self_s"] >= 0.0
    assert "cli.import_s" not in values


def test_run_timed_reports_the_childs_own_peak_rss():
    seconds, done, peak_mb = common.run_timed(
        [sys.executable, "-c",
         "import time; block = bytearray(64 << 20); time.sleep(0.2); print('ok')"],
        30.0)
    assert done.returncode == 0 and done.stdout.strip() == b"ok"
    assert seconds > 0.2
    assert 64.0 <= peak_mb < 100.0  # the block plus a bare interpreter


def test_host_clock_samples_the_kernel_before_each_step_and_scales_by_its_median():
    clock = HostClock()
    wall, result = clock.timed(sum, [1, 2, 3])
    assert result == 6 and wall > 0.0 and len(clock.references) == 1
    clock.references = [0.5 * common.REFERENCE_S, 2.0 * common.REFERENCE_S,
                        0.5 * common.REFERENCE_S]
    assert clock.scale() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Statistics and the compare tool
# ----------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(3000) == 99.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(20) is None
    assert summarize([1.0, 2.0, 3.0]) == {"n": 3, "samples": [1.0, 2.0, 3.0],
                                         "median": 2.0}


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1, 10, 10) == "better"
    assert compare.verdict(base, slower, "lower", 0.1, 0, 10) == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1, 0, 10) == "same"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 100.0, 90.0, 110.0]
    assert compare.verdict(base, noisy, "lower", 0.1, 5, 10) == "unresolved"
    assert compare.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
