"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import inspect
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import gen
from perfbench.client import run_closed_loop
from perfbench.common import percentile, samples_beyond
from perfbench.tracing import (
    Patcher,
    Span,
    Tracer,
    install,
    self_seconds_by_name,
    self_times,
)


def span(span_id, name, start, end, parent=0):
    return Span(span_id, name, start, end, parent, None)


class TestSelfTime:
    def test_leaf_keeps_its_duration(self):
        assert self_times([span(1, "a", 0.0, 2.5)]) == {1: 2.5}

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(1, "root", 0.0, 10.0),
            span(2, "child", 1.0, 4.0, parent=1),
            span(3, "grandchild", 2.0, 3.0, parent=2),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(7.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(1.0)

    def test_overlapping_children_count_their_union(self):
        spans = [
            span(1, "root", 0.0, 10.0),
            span(2, "a", 1.0, 5.0, parent=1),
            span(3, "b", 3.0, 7.0, parent=1),
            span(4, "c", 6.0, 6.5, parent=1),
        ]
        assert self_times(spans)[1] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, "root", 0.0, 4.0), span(2, "late", 3.0, 9.0, parent=1)]
        assert self_times(spans)[1] == pytest.approx(3.0)

    def test_totals_by_name(self):
        spans = [
            span(1, "x", 0.0, 3.0),
            span(2, "y", 0.5, 1.0, parent=1),
            span(3, "x", 5.0, 6.0),
        ]
        totals = self_seconds_by_name(spans)
        assert totals["x"] == pytest.approx(3.5)
        assert totals["y"] == pytest.approx(0.5)

    def test_tracer_records_parent_links(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent == by_name["outer"].span_id
        assert by_name["outer"].parent == 0


class TestPercentile:
    def test_nearest_rank_with_sample_count(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == (50, 100)
        assert percentile(values, 0.95) == (95, 100)
        assert percentile(values, 1.0) == (100, 100)

    def test_small_samples_round_the_rank_up(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == (2.0, 3)
        assert percentile([3.0, 1.0, 2.0], 0.95) == (3.0, 3)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_samples_beyond_the_tail(self):
        assert samples_beyond(200, 0.95) == 10
        assert samples_beyond(100, 0.95) == 5


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.05

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_closed_loop_sends_each_request_once_after_the_previous_answer():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        requests = [gen.Request("/search", {"query": q}) for q in "abcde"]
        outcomes = run_closed_loop(server.server_address, requests)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [o.index for o in outcomes] == list(range(5))
    assert all(o.status == 200 for o in outcomes)
    for before, after in zip(outcomes, outcomes[1:]):
        assert after.sent >= before.done
    assert all(o.latency_ms >= 50 for o in outcomes)


def _patched_attributes():
    from repro.core import engine, join, pipeline
    from repro.core.backends import PythonBackend
    from repro.datasets import loader
    from repro.index.inverted import SegmentInvertedIndex
    from repro.serve import http
    from repro.serve.admission import AdmissionController
    from repro.serve.service import JoinService
    from repro.store import driver, sqlite
    from repro.store.source import StoreIndexSource, StoreStringCache

    owners = {
        loader: ["load_collection"],
        SegmentInvertedIndex: ["add", "probe"],
        sqlite: ["build_sqlite_store"],
        StoreIndexSource: ["probe"],
        sqlite.SqliteStore: ["posting_lists", "has_segment", "strings_at_ranks",
                             "strings_by_ids"],
        StoreStringCache: ["prefetch", "__getitem__"],
        PythonBackend: ["frequency_bounds", "cdf_bounds"],
        pipeline.ProfileStore: ["profile"],
        pipeline: ["trie_verify_threshold", "trie_verify", "build_trie"],
        engine.JoinEngine: ["probe"],
        join: ["similarity_join"],
        driver: ["store_similarity_join"],
        JoinService: ["search", "topk"],
        AdmissionController: ["_acquire"],
        http: ["encode_document"],
        http._Handler: ["do_POST"],
    }
    return {
        (owner, name): inspect.getattr_static(owner, name)
        for owner, names in owners.items()
        for name in names
    }


def test_wrappers_restore_every_patched_function(tmp_path):
    from repro.core import join
    from repro.core.config import JoinConfig
    from repro.datasets import loader

    before = _patched_attributes()
    tracer = Tracer()
    path = tmp_path / "c.txt"
    gen.write_collection(gen.make_collection(1, 30, 0.2, 8), path)
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            install(tracer, patcher)
            during = _patched_attributes()
            assert all(during[key] is not before[key] for key in before)
            collection = loader.load_collection(path)
            join.similarity_join(collection, JoinConfig(k=2, tau=0.1))
            raise RuntimeError("a failing traced run still restores")
    assert _patched_attributes() == before
    names = {s.name for s in tracer.spans}
    assert {"datasets.load", "core.driver", "core.probe", "index.probe",
            "index.add"} <= names


class TestGeneration:
    def test_same_seed_same_bytes(self, tmp_path):
        for index in range(2):
            gen.write_collection(
                gen.make_collection(7, 60, 0.2, 8), tmp_path / f"{index}.txt")
        assert (tmp_path / "0.txt").read_bytes() == (tmp_path / "1.txt").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        for seed in (7, 8):
            gen.write_collection(
                gen.make_collection(seed, 60, 0.2, 8), tmp_path / f"{seed}.txt")
        assert (tmp_path / "7.txt").read_bytes() != (tmp_path / "8.txt").read_bytes()

    def test_shape_is_fixed_across_seeds(self):
        shapes = [
            sorted(len(s) for s in gen.make_collection(seed, 90, 0.2, 8).strings)
            for seed in (1, 2)
        ]
        assert shapes[0] == shapes[1]

    def test_requests_follow_the_seed(self):
        collection = gen.make_collection(3, 40, 0.1, 3)
        first = gen.make_requests(3, collection, 20, "timed")
        again = gen.make_requests(3, collection, 20, "timed")
        other = gen.make_requests(4, collection, 20, "timed")
        assert first == again
        assert first != other
        assert [r.path for r in first].count("/topk") == 4
        assert len({r.body["query"] for r in first}) == 20
