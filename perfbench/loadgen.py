"""Open-loop HTTP load generator over a few keep-alive connections.

Requests become due on a fixed schedule whatever the server does (an
open loop: independent users).  A dispatcher queues each request at its
due time; ``connections`` workers each own one keep-alive connection and
send the next queued request as soon as their previous reply is in.
Latency is measured from the request's *due* time, so a stall also
charges the requests that queued behind it.  The generator's own
lateness (dispatch time minus due time) and the queue depth are recorded
to show whether a measurement was limited by the client.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


def wire_request(body: bytes, path: bytes = b"/v1/query") -> bytes:
    return (
        b"POST %s HTTP/1.1\r\nhost: perfbench\r\n"
        b"content-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
        % (path, len(body), body)
    )


def arrival_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> np.ndarray:
    """Poisson arrival times in ``[0, duration_s)`` at ``rate`` per second."""
    n_draw = int(rate * duration_s * 1.5) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, n_draw))
    while offsets[-1] < duration_s:  # pragma: no cover - 1.5x is ample
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, n_draw))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration_s]


@dataclass
class LoadResult:
    """Per-request outcome of one open-loop window, in schedule order."""

    latency_s: List[float]
    status: List[int]
    bodies: List[Optional[bytes]]
    gen_lag_s: List[float] = field(default_factory=list)
    backlog_max: int = 0
    backlog_end: int = 0
    elapsed_s: float = 0.0


async def _read_response(reader: asyncio.StreamReader):
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _drive(port: int, wires: Sequence[bytes], offsets: Sequence[float],
                 connections: int, keep_bodies: bool) -> LoadResult:
    loop = asyncio.get_running_loop()
    n = len(offsets)
    result = LoadResult([float("nan")] * n, [0] * n, [None] * n)
    queue: asyncio.Queue = asyncio.Queue()
    links = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(connections)]
    start = loop.time() + 0.01

    async def dispatch() -> None:
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.gen_lag_s.append(loop.time() - due)
            result.backlog_max = max(result.backlog_max, queue.qsize())
            queue.put_nowait((index, due))
        result.backlog_end = queue.qsize()
        for _ in links:
            queue.put_nowait(None)

    async def work(reader, writer) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            writer.write(wires[index])
            status, body = await _read_response(reader)
            result.latency_s[index] = loop.time() - due
            result.status[index] = status
            if keep_bodies or status != 200:
                result.bodies[index] = body

    try:
        await asyncio.gather(dispatch(), *(work(r, w) for r, w in links))
    finally:
        for _, writer in links:
            writer.close()
        for _, writer in links:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    result.elapsed_s = loop.time() - start
    return result


def run_open_loop(port: int, wires: Sequence[bytes], offsets: Sequence[float],
                  connections: int, keep_bodies: bool = True,
                  timeout_s: float = 60.0) -> LoadResult:
    """Send ``wires[i]`` at ``offsets[i]`` seconds; wait for every reply."""
    if len(wires) < len(offsets):
        raise ValueError("fewer request bodies than scheduled arrivals")
    budget = float(offsets[-1]) + timeout_s if len(offsets) else timeout_s
    return asyncio.run(asyncio.wait_for(
        _drive(port, wires, offsets, connections, keep_bodies), budget
    ))
