"""Serve-layer smoke check — byte identity under concurrency and faults.

Boots an in-process ``repro-join serve`` service with request-path
faults injected (a stalled request, a dropped connection, a corrupted
response body, a handler crash), hammers it with concurrent mixed
search/top-k clients over real sockets, and asserts:

* every *completed* response is byte-identical to the offline answer
  (the same service called directly, whose search matches are in turn
  cross-checked against a fresh :class:`SimilaritySearcher`),
* every *non*-completed request surfaces as an explicit, typed failure
  (connection error for ``drop``, garbled-but-delivered body for
  ``corrupt-resp``, a typed 500 for ``crash``) — never a hang,
* the health endpoints answer, and shutdown drains cleanly.

The matrix runs twice: over an in-memory service, then over a
store-backed one whose ``SqliteStore`` cache holds fewer strings than
the collection, so concurrent clients share and evict one LRU while the
faults fire. The store leg's offline answers must also be byte-identical
to the in-memory leg's.

Exits non-zero on any violation. Usage::

    PYTHONPATH=src python benchmarks/smoke_serve.py
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

# Allow running from a source checkout without an installed package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.core.config import JoinConfig  # noqa: E402
from repro.core.search import SimilaritySearcher  # noqa: E402
from repro.datasets import dblp_like_collection  # noqa: E402
from repro.serve.http import ServerRunner  # noqa: E402
from repro.serve.protocol import encode_document  # noqa: E402
from repro.serve.service import JoinService, ServeOptions  # noqa: E402
from repro.store import SqliteStore, build_sqlite_store  # noqa: E402
from repro.uncertain.parser import format_uncertain, parse_uncertain  # noqa: E402

CLIENTS = 3
REQUESTS = 16
TOPK_EVERY = 4
TOPK_COUNT = 5
# Arrival-indexed request faults: the server's 3rd request stalls 0.4s
# mid-handling, its 6th loses the connection, its 9th gets a garbled
# body, its 12th crashes the handler (typed 500). Arrival order at the
# server is not the clients' issue order, so the check counts outcomes
# by kind instead of expecting each fault at a given issue index.
FAULTS = "slow@2/0.4,drop@5,corrupt-resp@8,crash@11"
# How long the final /stats check waits for the last admission slot to
# be released before it fails.
STATS_SETTLE_S = 5.0
# The store leg's hydration cache: fewer strings than the collection.
STORE_CACHE = 8


def check(label: str, condition: bool) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  {label:<52s} {status}")
    if not condition:
        sys.exit(1)


def _is_json(body: bytes) -> bool:
    try:
        json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    return True


def offline_answers(
    service: JoinService,
    searcher: SimilaritySearcher,
    queries: list[str],
) -> "dict[tuple[str, str], bytes] | None":
    """Each query's search and top-k documents from a direct service
    call, computed before any HTTP traffic: the byte-level oracle. The
    search matches are cross-checked against ``searcher``; ``None`` on
    a disagreement."""
    expected: dict[tuple[str, str], bytes] = {}
    for text in queries:
        search_doc = service.search(text)
        offline = sorted(
            (m.string_id, m.probability)
            for m in searcher.search(parse_uncertain(text)).matches
        )
        served = sorted(
            (m["id"], m["probability"]) for m in search_doc["matches"]
        )
        if served != offline:
            print(f"FAIL: service/searcher disagree for {text!r}")
            return None
        expected[("/search", text)] = encode_document(search_doc)
        expected[("/topk", text)] = encode_document(
            service.topk(text, TOPK_COUNT)
        )
    return expected


def run_matrix(
    service: JoinService,
    queries: list[str],
    expected: dict[tuple[str, str], bytes],
) -> int:
    """Serve ``service`` over real sockets under the fault matrix and
    check every outcome against ``expected``."""
    runner = ServerRunner(service).start()
    host, port = runner.address
    outcomes: dict[int, tuple[str, "int | None", bytes]] = {}
    lock = threading.Lock()
    issued = [0]

    def take_index() -> "int | None":
        with lock:
            if issued[0] >= REQUESTS:
                return None
            index = issued[0]
            issued[0] += 1
            return index

    def client_loop() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            while True:
                index = take_index()
                if index is None:
                    return
                text = queries[index % len(queries)]
                if index % TOPK_EVERY == TOPK_EVERY - 1:
                    path = "/topk"
                    payload: dict = {"query": text, "count": TOPK_COUNT}
                else:
                    path, payload = "/search", {"query": text}
                try:
                    connection.request(
                        "POST", path, body=json.dumps(payload),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    body = response.read()
                    status: "int | None" = response.status
                except (http.client.HTTPException, ConnectionError, OSError):
                    connection.close()
                    status, body = None, b""
                with lock:
                    outcomes[index] = (path, status, body)
        finally:
            connection.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, name=f"smoke-{i}", daemon=True)
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    check(f"all {REQUESTS} requests resolved", len(outcomes) == REQUESTS)
    dropped, garbled, crashed, identical = 0, 0, 0, 0
    for index in range(REQUESTS):
        path, status, body = outcomes[index]
        text = queries[index % len(queries)]
        if status is None:
            dropped += 1
        elif status == 500:
            document = json.loads(body)
            if document.get("error", {}).get("type") != "internal_error":
                print(f"FAIL: request {index} ({path}) untyped 500: {body!r}")
                return 1
            crashed += 1
        elif status == 200 and body == expected[(path, text)]:
            identical += 1
        elif status == 200 and not _is_json(body):
            garbled += 1
        else:
            print(f"FAIL: request {index} ({path}) status={status}")
            return 1
    check("drop -> exactly one connection error", dropped == 1)
    check("corrupt-resp -> exactly one garbled 200 body", garbled == 1)
    check("crash -> exactly one typed 500", crashed == 1)
    check(f"byte identity on {identical} completed responses", True)

    probe = http.client.HTTPConnection(host, port, timeout=10.0)
    probe.request("GET", "/healthz")
    healthz = probe.getresponse()
    healthz.read()
    probe.request("GET", "/readyz")
    readyz = probe.getresponse()
    ready_doc = json.loads(readyz.read())
    # A handler releases its admission slot only after its response is
    # sent, so the client can read the last answer before the slot is
    # free: poll /stats (bounded) until the server reports it idle.
    settle_by = time.monotonic() + STATS_SETTLE_S
    while True:
        probe.request("GET", "/stats")
        stats_doc = json.loads(probe.getresponse().read())
        if (stats_doc["admission"]["in_flight"] == 0
                or time.monotonic() >= settle_by):
            break
        time.sleep(0.05)
    probe.close()
    check("healthz/readyz answer", healthz.status == 200
          and readyz.status == 200 and ready_doc["status"] == "ready")
    check("stats counters present",
          stats_doc["counters"]["serve"].get("serve.requests", 0) >= REQUESTS
          and stats_doc["admission"]["in_flight"] == 0)

    drained = runner.shutdown()
    check("shutdown drained", drained)
    print(f"  matrix done in {time.perf_counter() - started:.2f}s")
    return 0


def main() -> int:
    collection = dblp_like_collection(
        48, theta=0.2, rng=7, max_uncertain_positions=4
    )
    config = JoinConfig.for_algorithm("QFCT", k=2, tau=0.1, q=3)
    options = ServeOptions(
        max_in_flight=4,
        queue_limit=16,
        queue_timeout=5.0,
        request_timeout=15.0,
        degrade_margin=0.0,  # exact path only: byte identity must hold
        fault_spec=FAULTS,
    )
    # precision=12: the parser's probability-sum tolerance is 1e-6, so
    # the default 6-significant-digit rendering can fail to re-parse.
    queries = [format_uncertain(s, precision=12) for s in collection[:8]]
    searcher = SimilaritySearcher(collection, config)

    print(f"smoke: {len(collection)} strings in memory, {CLIENTS} clients, "
          f"{REQUESTS} requests, faults={FAULTS}")
    service = JoinService(collection, config, options)
    expected = offline_answers(service, searcher, queries)
    if expected is None:
        return 1
    check(f"offline parity ({len(queries)} queries)", True)
    if run_matrix(service, queries, expected):
        return 1

    print(f"smoke: the same over a store, cache {STORE_CACHE} strings")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smoke.store"
        build_sqlite_store(iter(collection), path, k=config.k, q=config.q)
        store = SqliteStore(path, cache_size=STORE_CACHE)
        stored = JoinService(None, config, options, store=store)
        stored_expected = offline_answers(stored, searcher, queries)
        if stored_expected is None:
            return 1
        check("store answers byte-identical to memory",
              stored_expected == expected)
        if run_matrix(stored, queries, stored_expected):
            return 1
        cached = len(stored._state.searcher.engine._strings._entries)
        check("store cache stayed within its capacity",
              cached <= STORE_CACHE)
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
