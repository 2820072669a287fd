"""HTTP query: an open loop of distinct batched queries against ``repro serve``.

Set-up builds a surface store with the calibrated device surface and one
``directional_aligned`` row surface, then boots
``python -m repro.cli serve --workers 1`` three times; ``setup_s`` is the
median time from process start to the first ``/healthz`` 200.  The third
server then takes Poisson arrivals at 150 requests/s over one keep-alive
connection per CPU.  In every shuffled block of 40 requests, 12 carry 1
point, 24 carry 32 points and 4 carry 1024 points; of each size three
in four go to the device surface and one in four to the row surface; two
32-point requests have every width 5-50 % past the grid, so the exact
fallback runs.  Every body is distinct.
The untraced run then replays the window's bodies, in order, through
the in-process ``YieldApp``: ``primary_ms`` is the median service time
of the 1-point requests, which is per-request overhead (parse, validate,
ASGI), and ``secondary_ms`` that of the 1024-point requests, whose cost
is mostly per-point JSON encode.  Both are at the reference host's speed
(``perfbench.common.HostClock``); ``setup_s``, a fresh interpreter's
boot, is plain wall time.  Latencies over
the wire, from each request's due time, are in the record by batch size
with median and p99 (the highest percentile with ten samples beyond it),
but they are not gated: with client and server sharing two CPUs of a
shared host, their run-to-run spread (25-60 % of the median for the
batch-1 median) is wider than any permitted bound.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench import layers, loadgen
from perfbench.checks import check_bounds, check_identical
from perfbench.common import (
    RUN_DIR,
    child_env,
    HostClock,
    fresh_import_s,
    median,
    nproc,
    summarize,
    tail_percentile,
    vm_hwm_mb,
)
from perfbench.tracing import Tracer
from perfbench.workloads import RunResult, traced_pairs

#: Per-layer metrics this workload measures (see ``perfbench.metrics``).
LAYERS = layers.SERVING_QUERY + (
    "serving.fallback_frac", "serving.cache.hit_rate",
    "service.parse.busy_s", "service.encode.busy_s", "service.app.self_s",
    "service.errors", "http.gen_lag_p99_ms", "http.backlog_max",
    "http.max_rate_rps", "cli.import_s", "trace.overhead_frac",
)

W_LOW, W_HIGH = 60.0, 300.0
D_LOW, D_HIGH = 150.0, 400.0
DEVICE_COUNT = {"device": 3.3e7, "row": 1.0e7}
RATE_RPS = 150.0
LADDER_RPS = (100.0, 200.0, 400.0, 800.0)
#: Expected requests per ladder rung: enough that p99 has ten beyond it.
LADDER_REQUESTS = 1100
#: The service's latency budget, which a ladder rate must meet at p99.
P99_BUDGET_S = 0.050
#: Replayed requests per reference-kernel sample.
REPLAY_PER_REFERENCE = 100
SETUP_BOOTS = 3
CROSSCHECK_SAMPLES = 16
#: Bounds every in-process answer must reproduce bit for bit.
ANSWER_FIELDS = ("failure_probability", "failure_lower", "failure_upper",
                "chip_yield", "yield_lower", "yield_upper")

#: One block of 40 requests: batch sizes 30/60/10 %, and within every
#: batch size three device-surface requests to one row-surface request.
_BLOCK = tuple(
    (batch, surface)
    for batch, n_device, n_row in ((1, 9, 3), (32, 18, 6), (1024, 3, 1))
    for surface in ("device",) * n_device + ("row",) * n_row
)
#: Off-grid requests per block (one in 20), always 32-point ones.
_OFF_GRID_PER_BLOCK = 2


@dataclass(frozen=True)
class Query:
    """One generated request and what the in-process cross-check needs."""

    surface: str
    width_nm: np.ndarray
    cnt_density_per_um: np.ndarray
    device_count: float
    off_grid: bool
    body: bytes


def make_queries(seed: int, n: int, keys: Dict[str, str]) -> List[Query]:
    """The first ``n`` requests of the workload for ``seed``."""
    rng = np.random.default_rng([seed, 2])
    queries: List[Query] = []
    while len(queries) < n:
        block = [_BLOCK[i] for i in rng.permutation(len(_BLOCK))]
        mid_batch = [i for i, (batch, _) in enumerate(block) if batch == 32]
        off_grid_at = set(rng.choice(mid_batch, _OFF_GRID_PER_BLOCK, replace=False))
        for index, (batch, surface) in enumerate(block):
            off_grid = index in off_grid_at
            if off_grid:
                widths = W_HIGH * rng.uniform(1.05, 1.5, batch)
            else:
                widths = rng.uniform(W_LOW, W_HIGH, batch)
            densities = rng.uniform(D_LOW, D_HIGH, batch)
            body = json.dumps({
                "surface": keys[surface],
                "width_nm": widths.tolist(),
                "cnt_density_per_um": densities.tolist(),
                "device_count": DEVICE_COUNT[surface],
            }).encode()
            queries.append(Query(keys[surface], widths, densities,
                                 DEVICE_COUNT[surface], off_grid, body))
    return queries[:n]


def plan(seed: int, n: int) -> List[bytes]:
    """Request bodies of the first ``n`` requests (surface keys stubbed)."""
    return [q.body for q in make_queries(seed, n, {"device": "d", "row": "r"})]


def build_store(root: Path) -> Dict[str, str]:
    """Device and directional-aligned row surfaces at the calibrated point."""
    from repro.core.calibration import CalibratedSetup
    from repro.growth.pitch import pitch_distribution_from_cv
    from repro.surface import GridAxis, SurfaceBuilder, SurfaceStore, SweepSpec

    setup = CalibratedSetup()
    store = SurfaceStore(root)
    keys = {}
    for name, scenario in (("device", "device"), ("row", "directional_aligned")):
        surface = SurfaceBuilder(SweepSpec(
            scenario=scenario,
            width_axis=GridAxis.from_range("width_nm", W_LOW, W_HIGH, 17),
            density_axis=GridAxis.from_range("cnt_density_per_um", D_LOW, D_HIGH, 9),
            pitch=pitch_distribution_from_cv(setup.mean_pitch_nm, setup.pitch_cv),
            per_cnt_failure=setup.corner.per_cnt_failure_probability,
            correlation=setup.correlation,
        )).build()
        store.save(surface)
        keys[name] = surface.key
    return keys


def _get(port: int, path: str):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess; always stopped and reaped by ``stop``."""

    def __init__(self, store: Path, log: Path) -> None:
        self.port = _free_port()
        self.peak_rss_mb = 0.0
        self._log = open(log, "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--host", "127.0.0.1", "--port", str(self.port), "--workers", "1"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited during start-up (code {self.process.returncode})"
                )
            try:
                if _get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server not ready within {timeout_s:g} s")

    def stop(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, vm_hwm_mb(self.process.pid))
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self._log.close()


def _response_problems(status: int, body: Optional[bytes], query: Query):
    """Problems of one reply and, if it parsed, the decoded body."""
    if status != 200:
        return [f"query: HTTP {status}"], None
    try:
        payload = json.loads(body)
    except (TypeError, ValueError):
        return ["query: undecodable response body"], None
    return check_bounds(payload, query.width_nm.size), payload


def crosscheck(store: Path, queries: Sequence[Query],
               payloads: Dict[int, dict], rng: np.random.Generator) -> Dict[int, List[str]]:
    """Seeded sample of wire answers against in-process ``YieldService.query``."""
    from repro.serving import YieldService

    service = YieldService(store=store)
    indices = sorted(payloads)
    chosen = rng.choice(indices, size=min(CROSSCHECK_SAMPLES, len(indices)),
                        replace=False)
    problems = {}
    for index in chosen:
        query = queries[index]
        local = service.query(query.surface, query.width_nm,
                              cnt_density_per_um=query.cnt_density_per_um,
                              device_count=query.device_count)
        problems[int(index)] = check_identical(
            payloads[index],
            {name: getattr(local, name).tolist() for name in ANSWER_FIELDS},
        )
    return problems


def _tail(values: Sequence[float]):
    """(percentile, value): the highest percentile with ten samples beyond."""
    pct = tail_percentile(len(values))
    pct = pct if pct is not None else 100.0
    return pct, float(np.percentile(values, pct))


class _AppReplay:
    """Replays request bodies through the in-process ASGI app."""

    def __init__(self, store: Path, tracer: Optional[Tracer] = None) -> None:
        from repro.service.http import StoreAppFactory

        self.app = StoreAppFactory(store=str(store))()
        self.tracer = tracer
        self.loop = asyncio.new_event_loop()

    def __call__(self, body: bytes, traced: bool = False):
        messages = []

        async def receive():
            return {"type": "http.request", "body": body, "more_body": False}

        async def send(message):
            messages.append(message)

        scope = {"type": "http", "method": "POST", "path": "/v1/query",
                 "headers": [(b"content-type", b"application/json")]}
        start = time.perf_counter()
        if traced:
            with self.tracer.span("service.app"):
                self.loop.run_until_complete(self.app(scope, receive, send))
        else:
            self.loop.run_until_complete(self.app(scope, receive, send))
        elapsed = time.perf_counter() - start
        return elapsed, (messages[0]["status"], messages[1]["body"])

    def close(self) -> None:
        self.app.refinement.close()
        self.loop.close()


def _replay_service_times(store: Path, queries: Sequence[Query],
                          warm: Sequence[Query], clock: HostClock,
                          per_request: List[List[str]]) -> Dict[int, List[float]]:
    """In-process service time of every request, by batch size.

    Replays the load window's bodies, in order, through a fresh
    in-process app (after the warm-up bodies, untimed), sampling the
    host's speed every ``REPLAY_PER_REFERENCE`` requests.  A reply other
    than 200 is a problem of that request.
    """
    times: Dict[int, List[float]] = {1: [], 32: [], 1024: []}
    replay = _AppReplay(store)
    try:
        for query in warm:
            replay(query.body)
        for index, query in enumerate(queries):
            if index % REPLAY_PER_REFERENCE == 0:
                clock.sample()
            elapsed, (status, _) = replay(query.body)
            if status != 200:
                per_request[index].append(f"replay: HTTP {status}")
            times[query.width_nm.size].append(elapsed)
    finally:
        replay.close()
    return times


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> RunResult:
    out = RunResult()
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"http-{seed}-{time.time_ns()}"
    store = work / "store"
    store.mkdir(parents=True)
    log = work / "server.log"
    servers: List[Server] = []
    try:
        build_start = time.perf_counter()
        keys = build_store(store)
        out.detail["store_build_s"] = time.perf_counter() - build_start
        boots = []
        for _ in range(SETUP_BOOTS if tracer is None else 1):
            if servers:
                servers[-1].stop()
            servers.append(Server(store, log))
            boots.append(servers[-1].boot_s)
        server = servers[-1]
        window_s = (0.5 if tracer is None else 0.3) * seconds
        offsets = loadgen.arrival_offsets(
            np.random.default_rng([seed, 3]), RATE_RPS, window_s)
        queries = make_queries(seed, len(offsets), keys)
        wires = [loadgen.wire_request(q.body) for q in queries]
        connections = nproc()
        # Warm-up on throwaway bodies: first-touch costs off the clock.
        warm = make_queries(seed + 1_000_003, 20, keys)
        loadgen.run_open_loop(server.port, [loadgen.wire_request(q.body) for q in warm],
                              np.arange(20) * 0.01, connections)

        load = loadgen.run_open_loop(server.port, wires, offsets, connections)
        payloads: Dict[int, dict] = {}
        per_request: List[List[str]] = []
        fallback_points = total_points = 0
        for index, query in enumerate(queries):
            problems, payload = _response_problems(
                load.status[index], load.bodies[index], query)
            per_request.append(problems)
            if payload is not None:
                payloads[index] = payload
                interpolated = payload.get("interpolated") or []
                fallback_points += sum(1 for flag in interpolated if not flag)
                total_points += len(interpolated)
        load.bodies = []
        for index, problems in crosscheck(
                store, queries, payloads, np.random.default_rng([seed, 4])).items():
            per_request[index] = per_request[index] + problems
        if tracer is None:
            clock = HostClock()
            service_s = _replay_service_times(store, queries, warm, clock, per_request)
        for problems in per_request:
            out.record(problems)
        ok_latency = [lat for lat, status in zip(load.latency_s, load.status)
                      if status == 200]
        by_batch = {
            size: [lat for lat, status, q in zip(load.latency_s, load.status, queries)
                   if status == 200 and q.width_nm.size == size]
            for size in (1, 32, 1024)
        }
        out.detail.update({
            "rate_rps": RATE_RPS,
            "connections": connections,
            "requests": len(queries),
            "latency_s": summarize(ok_latency),
            "latency_by_batch_s": {
                str(size): summarize(values) for size, values in by_batch.items()},
            "gen_lag_s": summarize(load.gen_lag_s),
            "backlog_max": load.backlog_max,
            "boot_s": summarize(boots),
        })
        if tracer is None:
            scale = clock.scale()
            out.values = {
                "setup_s": median(boots),
                "primary_ms": 1e3 * scale * median(service_s[1]),
                "secondary_ms": 1e3 * scale * median(service_s[1024]),
            }
            out.detail.update({
                "service_by_batch_s": {
                    str(size): summarize(values) for size, values in service_s.items()},
                "reference_s": summarize(clock.references),
            })
        else:
            metrics_status, metrics_body = _get(server.port, "/v1/metrics")
            cache = json.loads(metrics_body)["service"]["cache"] \
                if metrics_status == 200 else {}
            ladder = _ladder(server.port, seed, keys, connections)
            out.detail["ladder"] = ladder
            replay = _AppReplay(store, tracer)
            try:
                pairs = traced_pairs(tracer, [q.body for q in queries],
                                     float("inf"), replay, lambda reply: reply)
            finally:
                replay.close()
            errors = sum(1 for status, _ in pairs.outputs if status != 200)
            out.record([] if pairs.equal else ["trace: traced replies differ from untraced"])
            out.values = layers.layer_values(tracer, len(pairs.outputs), LAYERS)
            out.values.update({
                "serving.fallback_frac":
                    fallback_points / total_points if total_points else 0.0,
                "serving.cache.hit_rate": float(cache.get("hit_rate") or 0.0),
                "service.errors": float(errors + sum(
                    1 for status in load.status if status != 200)),
                "http.gen_lag_p99_ms": 1e3 * _tail(load.gen_lag_s)[1],
                "http.backlog_max": float(load.backlog_max),
                "http.max_rate_rps": max(
                    [step["rate_rps"] for step in ladder if step["ok"]], default=0.0),
                "cli.import_s": fresh_import_s(),
                "trace.overhead_frac": pairs.overhead_frac,
            })
            out.detail["traced_outputs_equal"] = pairs.equal
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    if tracer is None:
        out.values["peak_rss_mb"] = max(server.peak_rss_mb for server in servers)
    return out


def _ladder(port: int, seed: int, keys: Dict[str, str],
            connections: int) -> List[Dict[str, object]]:
    """Step the offered rate up until p99, an error or the backlog gives out.

    Each rung lasts long enough for about ``LADDER_REQUESTS`` requests,
    so p99 has ten samples beyond it; a rung that got fewer is judged on
    the highest percentile that has, which its ``tail_pct`` records.
    """
    steps = []
    for step, rate in enumerate(LADDER_RPS):
        offsets = loadgen.arrival_offsets(
            np.random.default_rng([seed, 5, step]), rate, LADDER_REQUESTS / rate)
        queries = make_queries(seed + 7919 * (step + 1), len(offsets), keys)
        load = loadgen.run_open_loop(
            port, [loadgen.wire_request(q.body) for q in queries], offsets,
            connections, keep_bodies=False)
        latency = [lat for lat, status in zip(load.latency_s, load.status)
                   if status == 200]
        errors = len(load.status) - len(latency)
        pct, tail = _tail(latency) if latency else (100.0, float("inf"))
        ok = errors == 0 and tail <= P99_BUDGET_S and load.backlog_end <= connections
        steps.append({"rate_rps": rate, "requests": len(load.status),
                      "errors": errors, "tail_pct": pct, "tail_s": tail,
                      "backlog_end": load.backlog_end, "ok": ok})
        if not ok:
            break
    return steps
