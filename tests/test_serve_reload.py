"""Warm-reload tests: atomic generation swap, failure safety, body checks.

The serving invariants under reload: requests never observe a
half-built generation (the swap is one reference assignment behind a
fully validated build), a failed reload — missing file, malformed
records — leaves the old generation serving and returns a typed
``reload_failed`` document, and a malformed ``/admin/reload`` body is a
typed 400 that reloads nothing.
"""

import http.client
import json
import threading

import pytest

from repro.core.config import JoinConfig
from repro.core.errors import ConfigurationError
from repro.core.search import SimilaritySearcher
from repro.datasets.loader import save_collection
from repro.datasets.presets import dblp_like_collection
from repro.serve.http import ServerRunner
from repro.serve.protocol import parse_request
from repro.serve.service import JoinService
from repro.uncertain.parser import format_uncertain


def make_config():
    return JoinConfig.for_algorithm(
        "QFCT", k=2, tau=0.1, q=3, report_probabilities=True
    )


def make_collection(size, rng):
    return dblp_like_collection(
        size, theta=0.2, rng=rng, max_uncertain_positions=4
    )


def query_text(string):
    # precision=12: the parser's probability-sum tolerance is 1e-6.
    return format_uncertain(string, precision=12)


class TestReload:
    def test_reload_swaps_generation_and_answers(self, tmp_path):
        old = make_collection(24, rng=3)
        new = make_collection(32, rng=4)
        old_path, new_path = tmp_path / "old.txt", tmp_path / "new.txt"
        save_collection(old, old_path, precision=12)
        save_collection(new, new_path, precision=12)
        service = JoinService.from_files(str(old_path), make_config())
        assert service.generation == 0 and len(service) == 24

        document = service.reload(collection_path=str(new_path))
        assert document["reloaded"] is True
        assert document["generation"] == 1
        assert document["strings"] == 32
        assert len(service) == 32
        # Answers now come from the new generation and agree with an
        # offline searcher over the same *file* (save/parse normalizes
        # the probability floats, so the baseline must read it too).
        from repro.datasets.loader import load_collection
        from repro.uncertain.parser import parse_uncertain

        loaded = load_collection(str(new_path))
        searcher = SimilaritySearcher(loaded, make_config())
        text = query_text(new[0])
        answer = service.search(text)
        assert answer["generation"] == 1
        offline = sorted(
            (m.string_id, m.probability)
            for m in searcher.search(parse_uncertain(text)).matches
        )
        assert sorted(
            (m["id"], m["probability"]) for m in answer["matches"]
        ) == offline

    def test_in_memory_service_needs_a_path(self):
        service = JoinService(make_collection(12, rng=3), make_config())
        document = service.reload()
        assert document["error"]["type"] == "reload_failed"
        assert document["error"]["generation"] == 0

    def test_missing_file_keeps_old_generation(self, tmp_path):
        collection = make_collection(16, rng=3)
        path = tmp_path / "c.txt"
        save_collection(collection, path, precision=12)
        service = JoinService.from_files(str(path), make_config())
        before = service.search(query_text(collection[0]))
        document = service.reload(
            collection_path=str(tmp_path / "nope.txt")
        )
        assert document["error"]["type"] == "reload_failed"
        assert service.generation == 0
        assert service.search(query_text(collection[0])) == before

    def test_malformed_collection_keeps_old_generation(self, tmp_path):
        collection = make_collection(16, rng=3)
        path = tmp_path / "c.txt"
        save_collection(collection, path, precision=12)
        service = JoinService.from_files(str(path), make_config())
        bad = tmp_path / "bad.txt"
        bad.write_text("valid{\n", encoding="utf-8")
        document = service.reload(collection_path=str(bad))
        assert document["error"]["type"] == "reload_failed"
        assert service.generation == 0 and len(service) == 16


class TestReloadUnderTraffic:
    def test_requests_never_see_a_half_built_generation(self, tmp_path):
        config = make_config()
        generations = [make_collection(20 + 4 * i, rng=i) for i in range(4)]
        paths = []
        for i, collection in enumerate(generations):
            p = tmp_path / f"gen{i}.txt"
            save_collection(collection, p, precision=12)
            paths.append(str(p))
        service = JoinService.from_files(paths[0], config)
        # One query text per generation; every generation's expected
        # answer for each is computed up front — over the collections
        # as *loaded from disk*, matching what the service serves.
        from repro.datasets.loader import load_collection
        from repro.uncertain.parser import parse_uncertain

        texts = [query_text(g[0]) for g in generations]
        expected = {}
        for gen, path in enumerate(paths):
            searcher = SimilaritySearcher(load_collection(path), config)
            for text in texts:
                expected[(gen, text)] = sorted(
                    (m.string_id, m.probability)
                    for m in searcher.search(parse_uncertain(text)).matches
                )

        errors: list[str] = []
        stop = threading.Event()

        def hammer() -> None:
            i = 0
            while not stop.is_set():
                text = texts[i % len(texts)]
                document = service.search(text)
                if "error" in document:
                    errors.append(f"error doc: {document}")
                    return
                got = sorted(
                    (m["id"], m["probability"])
                    for m in document["matches"]
                )
                want = expected[(document["generation"], text)]
                if got != want:
                    errors.append(
                        f"generation {document['generation']} answered "
                        f"{got!r}, expected {want!r}"
                    )
                    return
                i += 1

        workers = [threading.Thread(target=hammer) for _ in range(3)]
        for worker in workers:
            worker.start()
        try:
            for gen in (1, 2, 3):
                document = service.reload(collection_path=paths[gen])
                assert document["reloaded"] is True
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=30.0)
        assert errors == []
        assert service.generation == 3

    def test_http_admin_reload(self, tmp_path):
        config = make_config()
        old = make_collection(16, rng=8)
        new = make_collection(20, rng=9)
        old_path, new_path = tmp_path / "old.txt", tmp_path / "new.txt"
        save_collection(old, old_path, precision=12)
        save_collection(new, new_path, precision=12)
        service = JoinService.from_files(str(old_path), config)
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            connection = http.client.HTTPConnection(host, port, timeout=30.0)
            connection.request(
                "POST", "/admin/reload",
                body=json.dumps({"collection": str(new_path)}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            document = json.loads(response.read())
            assert response.status == 200
            assert document["reloaded"] is True and document["generation"] == 1
            # A failed reload over HTTP is a typed 500.
            connection.request(
                "POST", "/admin/reload",
                body=json.dumps({"collection": str(tmp_path / "gone.txt")}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            document = json.loads(response.read())
            assert response.status == 500
            assert document["error"]["type"] == "reload_failed"
            assert service.generation == 1
            connection.close()
        finally:
            assert runner.shutdown()


def post_reload(connection, body):
    """POST ``body`` (raw bytes) to /admin/reload; (status, document)."""
    connection.request(
        "POST", "/admin/reload", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class TestReloadBody:
    """``/admin/reload`` bodies go through the request decoder: known
    fields only, each an optional string; an empty body means ``{}``."""

    def test_parse_request_fields(self):
        assert parse_request("admin/reload", b"") == {
            "collection": None, "store": None,
        }
        assert parse_request("admin/reload", b'{"store": "s.db"}') == {
            "collection": None, "store": "s.db",
        }
        for body in (
            b'{"collection": 5}',
            b'{"store": ["s.db"]}',
            b'{"collection": ""}',
            b'{"colection": "c.txt"}',
            b'{"index": "index.json"}',
            b"[]",
            b"{",
        ):
            with pytest.raises(ConfigurationError):
                parse_request("admin/reload", body)

    def test_http_reload_body_validation(self, tmp_path):
        config = make_config()
        path = tmp_path / "c.txt"
        save_collection(make_collection(16, rng=8), path, precision=12)
        service = JoinService.from_files(str(path), config)
        runner = ServerRunner(service).start()
        try:
            host, port = runner.address
            connection = http.client.HTTPConnection(host, port, timeout=30.0)
            for body in (
                json.dumps({"collection": 5}),
                json.dumps({"colection": str(path)}),
                json.dumps({"index": str(tmp_path / "index.json")}),
                json.dumps({"store": None, "collection": ["c.txt"]}),
                "[1]",
            ):
                status, document = post_reload(connection, body)
                assert status == 400, body
                assert document["error"]["type"] == "bad_request"
            assert service.generation == 0
            # An empty body and {} reload from the current path.
            for generation, body in ((1, ""), (2, "{}")):
                status, document = post_reload(connection, body)
                assert status == 200
                assert document["generation"] == generation
                assert document["collection"] == str(path)
                assert "index" not in document
            assert service.generation == 2
            connection.close()
        finally:
            assert runner.shutdown()
