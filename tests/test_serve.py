"""Serve-layer tests: parity, degradation ladder, admission, HTTP faults.

The acceptance bar for ``repro-join serve``: every *completed* answer
is byte-identical (through the wire encoding) to the offline drivers,
every non-completed request surfaces as an explicit typed error —
shed (503), deadline-expired (504 with partial results), injected
drop/corrupt/crash — and the server always drains cleanly. Requests
never hang and never leak across the admission limits.
"""

import http.client
import json
import random
import statistics
import threading
import time

import pytest

from repro.core.config import JoinConfig
from repro.core.deadline import Deadline
from repro.core.errors import ConfigurationError, ServiceOverloadedError
from repro.core.join import similarity_join
from repro.core.search import SimilaritySearcher
from repro.datasets.presets import dblp_like_collection
from repro.serve.admission import AdmissionController
from repro.serve.http import ServerRunner
from repro.serve.loadgen import percentile, run_load
from repro.serve.protocol import (
    ERROR_STATUS,
    encode_document,
    error_document,
    parse_request,
)
from repro.serve.service import JoinService, ServeOptions
from repro.uncertain.parser import format_uncertain, parse_uncertain

from tests.helpers import random_collection


@pytest.fixture(scope="module")
def collection():
    return dblp_like_collection(36, theta=0.2, rng=11, max_uncertain_positions=4)


@pytest.fixture(scope="module")
def config():
    return JoinConfig.for_algorithm(
        "QFCT", k=2, tau=0.1, q=3, report_probabilities=True
    )


@pytest.fixture()
def service(collection, config):
    return JoinService(collection, config, ServeOptions())


def texts(collection, n=6):
    # precision=12: the parser's probability-sum tolerance is 1e-6, so
    # the default 6-significant-digit rendering can fail to re-parse.
    return [format_uncertain(s, precision=12) for s in collection[:n]]


class TestSearchParity:
    def test_search_matches_offline_searcher(self, service, collection, config):
        searcher = SimilaritySearcher(collection, config)
        for text in texts(collection):
            document = service.search(text)
            assert document["degraded"] is False
            offline = sorted(
                (m.string_id, m.probability)
                for m in searcher.search(parse_uncertain(text)).matches
            )
            served = sorted(
                (m["id"], m["probability"]) for m in document["matches"]
            )
            assert served == offline
            assert document["count"] == len(offline)

    def test_wire_encoding_is_deterministic(self, service, collection):
        text = texts(collection)[0]
        assert encode_document(service.search(text)) == encode_document(
            service.search(text)
        )

    def test_per_request_tau_tightens_the_answer(self, service, collection):
        text = texts(collection)[0]
        base = service.search(text)
        tight = service.search(text, tau=0.9)
        assert tight["tau"] == 0.9
        assert tight["count"] <= base["count"]
        base_ids = {m["id"] for m in base["matches"]}
        assert {m["id"] for m in tight["matches"]} <= base_ids

    def test_per_request_k_uses_variant_algorithm(
        self, service, collection, config
    ):
        text = texts(collection)[0]
        document = service.search(text, k=1)
        assert document["k"] == 1
        # A k=1 request probes the index built for the native k=2: the
        # q-gram stage stays on, and the answer still equals the FCT
        # variant's, which never reads the index.
        assert document["algorithm"] == "QFCT"
        offline_config = JoinConfig.for_algorithm(
            "FCT", k=1, tau=config.tau, report_probabilities=True
        )
        searcher = SimilaritySearcher(
            list(collection), offline_config
        )
        offline = sorted(
            (m.string_id, m.probability)
            for m in searcher.search(parse_uncertain(text)).matches
        )
        assert sorted(
            (m["id"], m["probability"]) for m in document["matches"]
        ) == offline

    def test_bad_query_is_a_typed_bad_request(self, service):
        document = service.search("not a valid uncertain string {")
        assert document["error"]["type"] == "bad_request"

    def test_bad_tau_is_a_typed_bad_request(self, service, collection):
        document = service.search(texts(collection)[0], tau=1.5)
        assert document["error"]["type"] == "bad_request"


class TestTopk:
    def test_topk_is_sorted_and_bounded(self, service, collection):
        text = texts(collection)[0]
        document = service.topk(text, 5)
        assert document["requested"] == 5
        assert len(document["matches"]) <= 5
        probabilities = [m["probability"] for m in document["matches"]]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_topk_head_agrees_with_search(self, service, collection):
        text = texts(collection)[0]
        search = service.search(text, tau=1e-9)
        topk = service.topk(text, 3)
        best_by_search = sorted(
            ((m["probability"], m["id"]) for m in search["matches"]),
            reverse=True,
        )[: len(topk["matches"])]
        best_by_topk = [
            (m["probability"], m["id"]) for m in topk["matches"]
        ]
        assert best_by_topk == best_by_search

    def test_topk_count_must_be_positive(self, service, collection):
        document = service.topk(texts(collection)[0], 0)
        assert document["error"]["type"] == "bad_request"


class TestMiniJoin:
    def test_mini_join_matches_offline_join(self, service, collection, config):
        payload = texts(collection, 8)
        document = service.mini_join(payload)
        offline = similarity_join(
            [parse_uncertain(t) for t in payload], config
        )
        expected = sorted(
            (p.left_id, p.right_id, p.probability) for p in offline.pairs
        )
        served = [
            (p["left"], p["right"], p["probability"])
            for p in document["pairs"]
        ]
        assert served == expected
        assert document["degraded"] is False


class TestRequestK:
    """A request's k is bounded by the longest string it can touch: at
    that k every length-eligible pair is already similar, and the CDF
    bounds allocate O(k) rows per pair."""

    def test_huge_k_is_a_quick_bad_request(self, service, collection):
        text = texts(collection)[0]
        started = time.perf_counter()
        for document in (
            service.search(text, k=10_000),
            service.topk(text, 3, k=10_000),
            service.mini_join(texts(collection), k=10_000),
        ):
            assert document["error"]["type"] == "bad_request"
            assert "longest string" in document["error"]["detail"]
        assert time.perf_counter() - started < 1.0

    def test_k_at_the_bound_is_answered(self, config):
        # Short strings keep verification at k = |longest| cheap.
        small = random_collection(random.Random(5), 10, length_range=(3, 6))
        service = JoinService(small, config)
        longest = max(len(s) for s in small)
        query = texts(small)[0]
        document = service.search(query, k=longest)
        # Every string is within k edits of the query for certain.
        assert document["count"] == len(small)
        for match in document["matches"]:
            assert match["probability"] == pytest.approx(1.0)
        assert service.topk(query, 3, k=longest)["count"] == 3
        payload = texts(small, 4)
        bound = max(len(parse_uncertain(t)) for t in payload)
        assert service.mini_join(payload, k=bound)["count"] == 6
        assert (
            service.mini_join(payload, k=bound + 1)["error"]["type"]
            == "bad_request"
        )


class TestDegradation:
    def test_degraded_search_is_flagged_and_deterministic(
        self, collection, config, monkeypatch
    ):
        # Force "under pressure" from the first candidate: the real
        # trigger is a clock race, so the deterministic way to exercise
        # tier 1 is to make every deadline report pressure.
        monkeypatch.setattr(
            Deadline, "under_pressure", lambda self, margin: margin > 0
        )
        options = ServeOptions(degrade_margin=0.5)
        service = JoinService(collection, config, options)
        text = texts(collection)[0]
        first = service.search(text, timeout=60.0)
        second = service.search(text, timeout=60.0)
        assert first["degraded"] is True
        assert first == second  # sha256-derived per-pair seeds
        assert all(m["probability"] is None for m in first["matches"])
        assert service.stats.serve_counts()["serve.degraded"] >= 2

    def test_degraded_topk_ranks_by_estimate(
        self, collection, config, monkeypatch
    ):
        monkeypatch.setattr(
            Deadline, "under_pressure", lambda self, margin: margin > 0
        )
        options = ServeOptions(degrade_margin=0.5)
        service = JoinService(collection, config, options)
        document = service.topk(texts(collection)[0], 3, timeout=60.0)
        assert document["degraded"] is True
        probabilities = [m["probability"] for m in document["matches"]]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_expired_deadline_is_a_typed_504_with_partials(
        self, service, collection
    ):
        document = service.search(texts(collection)[0], timeout=1e-6)
        error = document["error"]
        assert error["type"] == "deadline_exceeded"
        assert error["partial"] is True
        assert isinstance(error["matches"], list)
        assert ERROR_STATUS["deadline_exceeded"] == 504

    def test_deadline_holds_inside_one_long_verification(
        self, service, collection
    ):
        # At k=5 the exact verification of the first string against
        # itself alone runs for seconds; the trie traversal's own
        # deadline check points end the request near its deadline.
        started = time.perf_counter()
        document = service.search(texts(collection)[0], k=5, timeout=0.5)
        elapsed = time.perf_counter() - started
        assert document["error"]["type"] == "deadline_exceeded"
        assert elapsed < 0.5 + 1.0


class TestAdmission:
    def test_validates_limits(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(queue_limit=-1)

    def test_sheds_when_saturated(self):
        admission = AdmissionController(
            max_in_flight=1, queue_limit=0, queue_timeout=0.05
        )
        with admission.admit():
            assert admission.in_flight == 1
            with pytest.raises(ServiceOverloadedError):
                with admission.admit():
                    pass  # pragma: no cover
        assert admission.in_flight == 0
        assert admission.shed == 1

    def test_queue_timeout_sheds_waiters(self):
        admission = AdmissionController(
            max_in_flight=1, queue_limit=4, queue_timeout=0.05
        )
        with admission.admit():
            with pytest.raises(ServiceOverloadedError):
                with admission.admit():
                    pass  # pragma: no cover
        assert admission.shed == 1

    def test_drained_waits_for_in_flight(self):
        admission = AdmissionController(max_in_flight=2)
        ticket = admission.admit()
        ticket.__enter__()
        release = threading.Timer(0.05, ticket.__exit__, args=(None,) * 3)
        release.start()
        assert admission.drained(Deadline(5.0))
        release.join()

    def test_drained_times_out(self):
        admission = AdmissionController(max_in_flight=2)
        with admission.admit():
            assert not admission.drained(Deadline(0.05))


class TestProtocol:
    def test_error_document_requires_known_type(self):
        with pytest.raises(ValueError):
            error_document("no_such_type", "boom")

    def test_parse_request_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            parse_request("search", b'{"query": "a", "bogus": 1}')

    def test_parse_request_rejects_bad_json(self):
        with pytest.raises(ConfigurationError):
            parse_request("search", b"{nope")

    def test_parse_request_type_checks_fields(self):
        with pytest.raises(ConfigurationError):
            parse_request("search", b'{"query": 7}')
        with pytest.raises(ConfigurationError):
            parse_request("topk", b'{"query": "a", "count": true}')
        with pytest.raises(ConfigurationError):
            parse_request("mini-join", b'{"strings": []}')
        # json.loads accepts these literals; none may pass validation
        # (a NaN timeout would never expire and escape the server cap).
        for field in ("timeout", "tau"):
            for literal in ("NaN", "Infinity", "-Infinity", "1e400", "9" * 400):
                body = f'{{"query": "abc", "{field}": {literal}}}'.encode()
                with pytest.raises(ConfigurationError, match="finite"):
                    parse_request("search", body)

    def test_status_map_is_closed_and_sane(self):
        assert ERROR_STATUS["overloaded"] == 503
        assert ERROR_STATUS["bad_request"] == 400
        assert ERROR_STATUS["internal_error"] == 500


def _post(host, port, path, payload, timeout=30.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def _get(host, port, path, timeout=10.0):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestHTTP:
    def test_http_search_is_byte_identical_to_direct_call(
        self, service, collection
    ):
        text = texts(collection)[0]
        expected = encode_document(service.search(text))
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            status, body, _ = _post(host, port, "/search", {"query": text})
            assert status == 200
            assert body == expected
        finally:
            assert runner.shutdown()

    def test_http_error_taxonomy(self, service, collection):
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            status, body, _ = _post(host, port, "/nope", {"query": "x"})
            assert status == 404
            status, body, _ = _post(host, port, "/search", {"bogus": 1})
            assert status == 400
            assert json.loads(body)["error"]["type"] == "bad_request"
            status, body, _ = _post(
                host, port, "/search", {"query": "abc", "timeout": float("nan")}
            )
            assert status == 400
            assert json.loads(body)["error"]["type"] == "bad_request"
            connection = http.client.HTTPConnection(host, port, timeout=10.0)
            connection.request(
                "POST", "/search", body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            connection.close()
        finally:
            assert runner.shutdown()

    def test_http_sheds_with_retry_after_when_saturated(
        self, collection, config
    ):
        options = ServeOptions(
            max_in_flight=1, queue_limit=0, queue_timeout=0.05,
            retry_after=0.75,
        )
        service = JoinService(collection, config, options)
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            # Hold the only slot directly, then issue a real request.
            with runner.httpd.admission.admit():
                status, body, headers = _post(
                    host, port, "/search",
                    {"query": texts(collection)[0]},
                )
            assert status == 503
            assert json.loads(body)["error"]["type"] == "overloaded"
            assert headers.get("Retry-After") == "0.75"
            assert service.stats.serve_counts()["serve.shed"] == 1
        finally:
            assert runner.shutdown()

    def test_http_request_faults(self, collection, config):
        options = ServeOptions(
            fault_spec="drop@0,corrupt-resp@1,crash@2"
        )
        service = JoinService(collection, config, options)
        text = texts(collection)[0]
        expected = encode_document(service.search(text))
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            with pytest.raises(
                (http.client.HTTPException, ConnectionError, OSError)
            ):
                _post(host, port, "/search", {"query": text})
            status, body, _ = _post(host, port, "/search", {"query": text})
            assert status == 200 and body != expected
            with pytest.raises((json.JSONDecodeError, UnicodeDecodeError)):
                json.loads(body)
            status, body, _ = _post(host, port, "/search", {"query": text})
            assert status == 500
            assert json.loads(body)["error"]["type"] == "internal_error"
            # Faulted indices consumed; the next request is clean.
            status, body, _ = _post(host, port, "/search", {"query": text})
            assert status == 200 and body == expected
        finally:
            assert runner.shutdown()

    def test_health_endpoints(self, service):
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            assert _get(host, port, "/healthz")[0] == 200
            status, body = _get(host, port, "/readyz")
            assert status == 200 and json.loads(body)["status"] == "ready"
            service.draining = True
            status, body = _get(host, port, "/readyz")
            assert status == 503
            assert json.loads(body)["error"]["type"] == "draining"
            service.draining = False
            status, body = _get(host, port, "/stats")
            document = json.loads(body)
            assert document["admission"]["in_flight"] == 0
            assert "serve" in document["counters"]
        finally:
            assert runner.shutdown()

    def test_keep_alive_requests_do_not_stall(self, config):
        # Back-to-back requests on one connection: with Nagle's
        # algorithm on, each response body waited ~40 ms for the
        # client's delayed ACK of its headers. Five short strings keep
        # the search itself around a millisecond.
        small = random_collection(random.Random(7), 5)
        service = JoinService(small, config, ServeOptions())
        payload = json.dumps({"query": texts(small)[0]})
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            connection = http.client.HTTPConnection(host, port, timeout=10.0)
            latencies = []
            try:
                for _ in range(12):
                    started = time.perf_counter()
                    connection.request(
                        "POST", "/search", body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                    latencies.append(time.perf_counter() - started)
            finally:
                connection.close()
            assert statistics.median(latencies) < 0.020, latencies
        finally:
            assert runner.shutdown()

    def test_concurrent_hammer_accounts_for_every_request(
        self, collection, config
    ):
        service = JoinService(collection, config, ServeOptions())
        document = run_load(
            service, texts(collection), clients=4, requests=16,
            topk_every=4, topk_count=3,
        )
        assert document["completed"] == 16
        assert document["dropped"] == 0
        assert document["errors"] == 0
        assert document["unaccounted"] == 0
        assert document["drained"] is True


class TestPercentile:
    def test_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([3.0, 1.0, 2.0], 0.99) == 3.0
