"""Closed-loop HTTP load: one caller that waits for each answer.

The client sends a fixed list of requests one at a time, each as soon as
the previous answer has arrived. The amount of work is the list, not a
time span, so a faster server does not answer more distinct queries
(and fill more of its caches) than a slower one. Each request opens its
own connection, and its latency runs from opening it to the end of the
response.

Why a fresh connection per request: the serve layer writes a response's
headers and body in two ``send`` calls without ``TCP_NODELAY``. On a
keep-alive connection used back to back, Nagle's algorithm then holds
the body until the client's delayed ACK of the headers, about 40 ms, so
keep-alive latencies measure that timer, not the request path, and
swing between timer quanta from run to run. An open loop at a fixed
rate was tried too: at a sixth to a third of capacity the server idles
between requests, each request pays the host's wake-up jitter, and
median latency spread by 20% and more across runs.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
from typing import Sequence

from perfbench.gen import Request
from perfbench.tracing import REQUEST_HEADER


@dataclass
class Outcome:
    """One request's fate; times are ``time.perf_counter`` seconds."""

    index: int
    sent: float
    done: float
    status: "int | None"
    document: "dict | None"

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def _exchange(
    connection: http.client.HTTPConnection, request: Request, headers: dict
) -> tuple["int | None", "dict | None"]:
    try:
        connection.request(
            "POST", request.path, body=json.dumps(request.body), headers=headers
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw)
    except (http.client.HTTPException, OSError, ValueError):
        connection.close()
        return None, None


def run_closed_loop(
    address: tuple[str, int],
    requests: Sequence[Request],
    tag: "str | None" = None,
) -> list[Outcome]:
    """Send every request in ``requests`` once, in order, each on a fresh
    connection after the previous answer; returns one outcome per
    request (``index`` points into ``requests``). ``tag`` (when given)
    sends each request's sequence number ``f"{tag}{n}"`` in a header so
    a traced server can attribute its spans."""
    host, port = address
    outcomes: list[Outcome] = []
    for index, request in enumerate(requests):
        headers = {"Content-Type": "application/json", "Connection": "close"}
        if tag is not None:
            headers[REQUEST_HEADER] = f"{tag}{index}"
        sent = time.perf_counter()
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            status, document = _exchange(connection, request, headers)
        finally:
            connection.close()
        outcomes.append(Outcome(index, sent, time.perf_counter(), status, document))
    return outcomes
