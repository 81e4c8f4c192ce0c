"""One index answers every k: differential tests against brute force.

A segment index (in memory or in a store) is built for one k, which
fixes only its partition. A probe at any other k′ takes its length
window, substring starts and ``required = m − k′`` from k′, and Lemma 5
holds for any m-segment partition, so every path that reuses an index
at k′ must return exactly the world-enumeration answer at k′. Where
``m − k′ <= 0`` the probe degenerates to the length scan.
"""

import random
from dataclasses import replace

import pytest

from repro.baselines.brute import brute_force_join, brute_force_search
from repro.core.config import JoinConfig
from repro.core.errors import CheckpointMismatchError
from repro.core.search import SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.serve.service import JoinService
from repro.store.driver import store_similarity_join
from repro.store.memory import MemoryStore
from repro.store.sqlite import SqliteStore, build_sqlite_store
from repro.uncertain.parser import format_uncertain, parse_uncertain

from tests.helpers import random_collection

#: Build k of every index below; probes run at 0..K + 1.
K, Q, TAU = 2, 2, 0.1
PROBE_KS = list(range(K + 2))


def qfct(k, **overrides):
    return JoinConfig.for_algorithm(
        "QFCT", k=k, tau=TAU, q=Q, report_probabilities=True, **overrides
    )


@pytest.fixture(scope="module")
def collection():
    # Exact text round trip: the served strings are the parsed texts.
    strings = random_collection(random.Random(2024), 22, length_range=(2, 9))
    return [parse_uncertain(format_uncertain(s, precision=17)) for s in strings]


@pytest.fixture(scope="module")
def queries(collection):
    extra = random_collection(random.Random(7), 3, length_range=(3, 8))
    return collection[:4] + [
        parse_uncertain(format_uncertain(s, precision=17)) for s in extra
    ]


@pytest.fixture(scope="module")
def store_path(collection, tmp_path_factory):
    path = tmp_path_factory.mktemp("any-k") / "index.store"
    build_sqlite_store(iter(collection), path, k=K, q=Q)
    return str(path)


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def store(request, collection, store_path):
    if request.param == "memory":
        return MemoryStore(collection, K, Q)
    return SqliteStore(store_path)


def search_truth(collection, query, k):
    return {i: p for i, p in brute_force_search(collection, query, k, TAU)}


def join_truth(collection, k):
    return {(i, j): p for i, j, p in brute_force_join(collection, k, TAU)}


def assert_same(got, truth):
    assert set(got) == set(truth)
    for key, probability in got.items():
        assert probability == pytest.approx(truth[key], abs=1e-9)


@pytest.mark.parametrize("k", PROBE_KS)
class TestEveryK:
    def test_in_memory_searcher(self, collection, queries, k):
        searcher = SimilaritySearcher(collection, qfct(k))
        for query in queries:
            got = {
                m.string_id: m.probability
                for m in searcher.search(query).matches
            }
            assert_same(got, search_truth(collection, query, k))

    def test_in_memory_index_probed_at_another_k(
        self, collection, queries, k
    ):
        # The engine's candidate step over an index built at K misses
        # no brute-force match at k.
        engine = SimilaritySearcher(collection, qfct(K)).engine
        for query in queries:
            candidates = engine.candidates(query, TAU, JoinStatistics(), k)
            assert set(search_truth(collection, query, k)) <= {
                candidate_id for candidate_id, _, _ in candidates
            }

    def test_searcher_from_store(self, store, collection, queries, k):
        searcher = SimilaritySearcher.from_store(store, qfct(k))
        for query in queries:
            got = {
                m.string_id: m.probability
                for m in searcher.search(query).matches
            }
            assert_same(got, search_truth(collection, query, k))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_join(self, store, collection, k, workers):
        config = qfct(k, workers=workers, mp_start="fork")
        outcome = store_similarity_join(store, config)
        got = {(p.left_id, p.right_id): p.probability for p in outcome.pairs}
        assert_same(got, join_truth(collection, k))

    @pytest.mark.parametrize("backing", ["memory", "store"])
    def test_serve(self, backing, collection, queries, store_path, k):
        if backing == "store":
            service = JoinService.from_store(store_path, qfct(K))
        else:
            service = JoinService(collection, qfct(K))
        for query in queries:
            text = format_uncertain(query, precision=17)
            document = service.search(text, k=k)
            assert document["k"] == k and document["algorithm"] == "QFCT"
            got = {m["id"]: m["probability"] for m in document["matches"]}
            assert_same(got, search_truth(collection, query, k))

            ranked = service.topk(text, 5, k=k)["matches"]
            everything = brute_force_search(collection, query, k, 0.0)
            best = sorted((p for _, p in everything), reverse=True)[:5]
            assert [m["probability"] for m in ranked] == pytest.approx(
                best, abs=1e-9
            )
            probability_of = dict(everything)
            for m in ranked:
                assert m["probability"] == pytest.approx(
                    probability_of[m["id"]], abs=1e-9
                )

        subset = collection[:12]
        document = service.mini_join(
            [format_uncertain(s, precision=17) for s in subset], k=k
        )
        got = {(p["left"], p["right"]): p["probability"] for p in document["pairs"]}
        assert_same(got, join_truth(subset, k))


class TestMultimatchNeedsTheIndexK:
    def test_store_paths_reject_another_k(self, store):
        config = qfct(K + 1, selection="multimatch")
        with pytest.raises(CheckpointMismatchError, match="multimatch"):
            store.meta.check_compatible(config)
        with pytest.raises(CheckpointMismatchError, match="multimatch"):
            store_similarity_join(store, config)
        with pytest.raises(CheckpointMismatchError, match="multimatch"):
            SimilaritySearcher.from_store(store, config)

    @pytest.mark.parametrize("backing", ["memory", "store"])
    def test_serve_rejects_another_k(self, backing, collection, store_path):
        config = qfct(K, selection="multimatch")
        if backing == "store":
            service = JoinService.from_store(store_path, config)
        else:
            service = JoinService(collection, config)
        text = format_uncertain(collection[0], precision=17)
        for document in (
            service.search(text, k=K + 1),
            service.topk(text, 3, k=K - 1),
        ):
            assert document["error"]["type"] == "bad_request"
            assert "multimatch" in document["error"]["detail"]
        assert "error" not in service.search(text, k=K)
        # A mini-join builds its own index at the request's k.
        texts = [format_uncertain(s, precision=17) for s in collection[:8]]
        assert "error" not in service.mini_join(texts, k=K + 1)
        non_qgram = replace(config, filters=("frequency", "cdf"))
        assert "error" not in JoinService(collection, non_qgram).search(
            text, k=K + 1
        )
