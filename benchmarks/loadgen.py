"""Closed-loop load harness for the serve layer.

Spins up an in-process :class:`~repro.serve.http.ServerRunner`, hammers
it with concurrent clients over real sockets, and reports latency
percentiles alongside the robustness counters — how many requests were
shed, degraded, deadline-expired, or dropped. The same measurement
backs three consumers:

* ``benchmarks/load_serve.py`` — the standalone CLI harness,
* :func:`benchmarks.gate.measure_serve` — the ``serve`` section of the
  regression gate, checked against ``BENCH_10.json`` in CI,
* the serve tests, which reuse :func:`run_load` for saturation
  scenarios.

Outcome classification is exhaustive on purpose: every request ends in
exactly one of ``completed`` / ``shed`` / ``deadline_exceeded`` /
``dropped`` / ``errors`` — if the counts don't add up to ``requests``,
something hung, and that is precisely the bug this layer exists to
make impossible.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from typing import Any, Sequence

from repro.serve.http import ServerRunner
from repro.serve.service import JoinService

__all__ = ["percentile", "run_load"]


def percentile(latencies: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class _ClientStats:
    """Shared outcome tally across client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_ms: list[float] = []
        self.completed = 0
        self.degraded = 0
        self.shed = 0
        self.deadline_exceeded = 0
        self.dropped = 0
        self.errors = 0

    def account(self, status: "int | None", document: "dict | None", ms: float) -> None:
        with self.lock:
            if status is None:
                self.dropped += 1
                return
            self.latencies_ms.append(ms)
            if status == 200:
                self.completed += 1
                if document is not None and document.get("degraded"):
                    self.degraded += 1
            elif status == 503:
                self.shed += 1
            elif status == 504:
                self.deadline_exceeded += 1
            else:
                self.errors += 1


def _post(
    connection: http.client.HTTPConnection, path: str, payload: dict
) -> tuple["int | None", "dict | None"]:
    """One request; ``(None, None)`` for a dropped/garbled exchange."""
    body = json.dumps(payload)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        try:
            document = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            # A corrupt-resp fault: the transport worked, the payload
            # is garbage. Count it with the dropped exchanges — the
            # client observed an explicit, immediate failure.
            return None, None
        return response.status, document
    except (http.client.HTTPException, ConnectionError, OSError):
        connection.close()
        return None, None


def run_load(
    service: JoinService,
    queries: Sequence[str],
    clients: int = 4,
    requests: int = 40,
    topk_every: int = 5,
    topk_count: int = 5,
    client_timeout: float = 60.0,
) -> dict[str, Any]:
    """Drive ``requests`` total requests through ``clients`` threads.

    Request ``i`` (arrival-ordered via a shared counter, so fault plans
    target deterministically *issued* request indices even though
    completion order races) queries ``queries[i % len(queries)]``;
    every ``topk_every``-th request is a top-k instead of a search.
    Returns the measurement document (latency percentiles over every
    request that got an HTTP response, plus the exhaustive outcome
    tally and the server's own ``serve.*`` counters).
    """
    runner = ServerRunner(service).start()
    host, port = runner.address
    tally = _ClientStats()
    next_request = threading.Lock()
    issued = [0]

    def take_index() -> "int | None":
        with next_request:
            if issued[0] >= requests:
                return None
            index = issued[0]
            issued[0] += 1
            return index

    def client_loop() -> None:
        # The client must outlive the server's request deadline, or a
        # server-side 504 races the socket timeout and miscounts as a
        # drop instead of a deadline_exceeded.
        connection = http.client.HTTPConnection(host, port, timeout=client_timeout)
        try:
            while True:
                index = take_index()
                if index is None:
                    return
                query = queries[index % len(queries)]
                if topk_every and index % topk_every == topk_every - 1:
                    path, payload = "/topk", {"query": query, "count": topk_count}
                else:
                    path, payload = "/search", {"query": query}
                start = time.perf_counter()
                status, document = _post(connection, path, payload)
                ms = (time.perf_counter() - start) * 1e3
                tally.account(status, document, ms)
        finally:
            connection.close()

    wall_start = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, name=f"loadgen-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    drained = runner.shutdown()

    latencies = tally.latencies_ms
    answered = (
        tally.completed + tally.shed + tally.deadline_exceeded + tally.errors
    )
    return {
        "clients": clients,
        "requests": requests,
        "completed": tally.completed,
        "degraded": tally.degraded,
        "shed": tally.shed,
        "deadline_exceeded": tally.deadline_exceeded,
        "dropped": tally.dropped,
        "errors": tally.errors,
        "answered": answered,
        "unaccounted": requests - answered - tally.dropped,
        "p50_ms": percentile(latencies, 0.50),
        "p95_ms": percentile(latencies, 0.95),
        "p99_ms": percentile(latencies, 0.99),
        "wall_s": wall,
        "qps": answered / wall if wall > 0 else 0.0,
        "drained": drained,
        "counters": service.stats.serve_counts(),
    }
