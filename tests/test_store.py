"""Out-of-core index store: unit and parity tests (DESIGN.md §6i).

Three layers:

* store-level unit tests — build/open round-trips, header validation,
  crash-safe builds, rank-limited posting cuts, pickling by path,
  bounded caches;
* MemoryStore ↔ SqliteStore equivalence — the reference image and the
  SQLite file must answer every store query identically;
* golden-grid parity — the store-backed drivers must reproduce the
  committed ``tests/data/golden_driver_outputs.json`` byte-for-byte
  across every algorithm variant × k, like every other driver.
"""

import json
import pickle
import random
import sqlite3
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import JoinConfig
from repro.core.engine import JoinEngine, visit_order
from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigurationError,
)
from repro.core.join import similarity_join
from repro.core.merge import merge_run
from repro.core.parallel import parallel_similarity_join
from repro.core.search import SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.core.topk import top_k_join
from repro.index.inverted import SegmentInvertedIndex, segment_postings
from repro.partition.even import partition_for
from repro.store import (
    MemoryStore,
    SqliteStore,
    StoreCollection,
    StoreContext,
    StoreIndexSource,
    StoreStringCache,
    build_sqlite_store,
    collection_digest,
    store_similarity_join,
)
from repro.store import source as store_source
from repro.store.source import READ_BLOCK
from repro.uncertain.parser import format_uncertain
from repro.uncertain.string import UncertainString

from tests import equivalence_spec as spec
from tests.helpers import random_collection, uncertain_strings

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_driver_outputs.json").read_text()
)
GRID = list(spec.config_grid())
KEYS = [key for key, _ in GRID]

K, Q = 2, 2


def canonical(strings):
    return [format_uncertain(s, precision=17) for s in strings]


def posting_words(collection, k, q):
    """``(length, segment index)`` → the sorted words with postings, as
    the one posting builder lists them."""
    words: dict[tuple[int, int], set[str]] = {}
    for string in collection:
        for segment_index, word, _ in segment_postings(string, q, k):
            words.setdefault((len(string), segment_index), set()).add(word)
    return {key: sorted(found) for key, found in words.items()}


@pytest.fixture(scope="module")
def collection():
    return random_collection(random.Random(977), 60, length_range=(3, 12))


@pytest.fixture(scope="module")
def memory_store(collection):
    return MemoryStore(collection, k=K, q=Q)


@pytest.fixture(scope="module")
def sqlite_store(collection, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "index.db"
    build_sqlite_store(iter(collection), path, k=K, q=Q)
    return SqliteStore(path)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, memory_store, sqlite_store):
    return memory_store if request.param == "memory" else sqlite_store


class TestStoreBuild:
    def test_meta_matches_reference(self, memory_store, sqlite_store):
        assert sqlite_store.meta == memory_store.meta

    def test_digest_is_canonical_sha(self, collection, sqlite_store):
        assert sqlite_store.meta.digest == collection_digest(collection)

    def test_counts(self, collection, store):
        assert len(store) == len(collection)
        assert store.meta.count == len(collection)
        assert store.meta.entry_count > 0

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "empty.db"
        meta = build_sqlite_store(iter(()), path, k=1, q=2)
        assert (meta.count, meta.entry_count) == (0, 0)
        store = SqliteStore(path)
        assert len(store) == 0
        assert list(store.ids_in_visit_order()) == []
        outcome = store_similarity_join(store, JoinConfig(k=1, tau=0.1, q=2))
        assert outcome.pairs == []

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="k must be non-negative"):
            build_sqlite_store(iter(()), tmp_path / "x.db", k=-1, q=2)
        with pytest.raises(ValueError, match="q must be positive"):
            build_sqlite_store(iter(()), tmp_path / "x.db", k=1, q=0)

    def test_crash_mid_build_leaves_no_store(self, collection, tmp_path):
        path = tmp_path / "index.db"

        def exploding():
            yield from collection[:5]
            raise RuntimeError("ingest died")

        with pytest.raises(RuntimeError, match="ingest died"):
            build_sqlite_store(exploding(), path, k=K, q=Q)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_rebuild_replaces_atomically(self, collection, tmp_path):
        path = tmp_path / "index.db"
        build_sqlite_store(iter(collection[:10]), path, k=K, q=Q)
        first = SqliteStore(path).meta
        build_sqlite_store(iter(collection), path, k=K, q=Q)
        second = SqliteStore(path).meta
        assert first.count == 10 and second.count == len(collection)
        assert list(tmp_path.iterdir()) == [path]


class TestStoreOpen:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SqliteStore(tmp_path / "absent.db")

    def test_not_a_database(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"not a sqlite file, not even close" * 40)
        with pytest.raises(CheckpointCorruptError):
            SqliteStore(path)

    def test_database_without_store_header(self, tmp_path):
        path = tmp_path / "other.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE t (x INTEGER)")
        connection.commit()
        connection.close()
        with pytest.raises(CheckpointCorruptError):
            SqliteStore(path)

    @pytest.mark.parametrize("key,value", [("magic", "nope"), ("format", "999")])
    def test_bad_header_field(self, collection, tmp_path, key, value):
        path = tmp_path / "index.db"
        build_sqlite_store(iter(collection[:5]), path, k=K, q=Q)
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = ?", (value, key)
        )
        connection.commit()
        connection.close()
        with pytest.raises(CheckpointCorruptError):
            SqliteStore(path)

    def test_cache_size_validated(self, collection, tmp_path):
        path = tmp_path / "index.db"
        build_sqlite_store(iter(collection[:5]), path, k=K, q=Q)
        with pytest.raises(ValueError, match="cache_size"):
            SqliteStore(path, cache_size=0)


class TestStoreCompatibility:
    def test_qgram_mismatch_rejected(self, store):
        # Postings are keyed by q-grams: another q needs a rebuild.
        with pytest.raises(CheckpointMismatchError, match="rebuild"):
            store.meta.check_compatible(JoinConfig(k=K, tau=0.1, q=Q + 1))
        # Multimatch selection is complete only at the index's own k.
        with pytest.raises(CheckpointMismatchError, match="multimatch"):
            store.meta.check_compatible(
                JoinConfig(k=K + 1, tau=0.1, q=Q, selection="multimatch")
            )
        # Any other selection probes the one partition at any k.
        for k in (0, K - 1, K + 1, K + 3):
            store.meta.check_compatible(JoinConfig(k=k, tau=0.1, q=Q))
        store.meta.check_compatible(
            JoinConfig(k=K, tau=0.1, q=Q, selection="multimatch")
        )

    def test_matching_config_accepted(self, store):
        store.meta.check_compatible(JoinConfig(k=K, tau=0.1, q=Q))

    def test_non_qgram_config_ignores_kq(self, store):
        config = JoinConfig(k=K + 1, tau=0.1, q=Q + 1, filters=("frequency", "cdf"))
        assert not config.uses_qgram
        store.meta.check_compatible(config)


class TestStoreEquivalence:
    """MemoryStore and SqliteStore must answer identically."""

    def test_visit_order(self, memory_store, sqlite_store):
        assert list(sqlite_store.ids_in_visit_order()) == list(
            memory_store.ids_in_visit_order()
        )
        assert list(sqlite_store.lengths_in_visit_order()) == list(
            memory_store.lengths_in_visit_order()
        )

    def test_string_hydration_is_float_exact(
        self, collection, memory_store, sqlite_store
    ):
        n = len(collection)
        assert canonical(sqlite_store.strings_at_ranks(0, n)) == canonical(
            memory_store.strings_at_ranks(0, n)
        )
        ids = list(range(0, n, 3))
        got = sqlite_store.strings_by_ids(ids)
        assert canonical([got[i] for i in ids]) == canonical(
            [collection[i] for i in ids]
        )

    def test_posting_lists_at_every_rank_limit(
        self, collection, memory_store, sqlite_store
    ):
        # The stores' rank-limited reads equal an index built
        # incrementally, in visit order, up to the limit.
        by_length: dict[int, set[str]] = {}
        for (length, _), words in posting_words(collection, K, Q).items():
            by_length.setdefault(length, set()).update(words)
        visits = visit_order(collection)
        index = SegmentInvertedIndex(k=K, q=Q)
        count = len(memory_store)
        checked = 0
        added = 0
        for limit in (0, 1, count // 2, count):
            for rank in range(added, limit):
                index.add(rank, visits[rank][1])
            added = limit
            for length, words in sorted(by_length.items()):
                words = sorted(words)
                for segment_index in range(4):
                    expected = memory_store.posting_lists(
                        length, segment_index, words, limit
                    )
                    got = sqlite_store.posting_lists(
                        length, segment_index, words, limit
                    )
                    built = index.posting_lists(length, segment_index, words)
                    assert {w: list(p) for w, p in got.items()} == {
                        w: list(p) for w, p in expected.items()
                    } == {w: list(p) for w, p in built.items()}
                    assert sqlite_store.has_segment(
                        length, segment_index, limit
                    ) == memory_store.has_segment(
                        length, segment_index, limit
                    ) == index.has_segment(length, segment_index)
                    checked += 1
        assert checked > 0

    def test_pickle_round_trip_carries_path_only(self, sqlite_store):
        payload = pickle.dumps(sqlite_store)
        assert len(payload) < 2000  # no postings, no strings
        clone = pickle.loads(payload)
        assert clone.meta == sqlite_store.meta
        assert list(clone.ids_in_visit_order()) == list(
            sqlite_store.ids_in_visit_order()
        )


#: The postings layout of stores built before postings moved into a
#: ``WITHOUT ROWID`` table: a heap table plus a unique index on the key.
OLD_LAYOUT = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE strings (
    rank INTEGER PRIMARY KEY,
    id INTEGER NOT NULL,
    length INTEGER NOT NULL,
    text TEXT NOT NULL
);
CREATE TABLE postings (
    length INTEGER NOT NULL,
    segment INTEGER NOT NULL,
    word TEXT NOT NULL,
    rank INTEGER NOT NULL,
    prob REAL NOT NULL
);
INSERT INTO meta SELECT * FROM new.meta;
INSERT INTO strings SELECT * FROM new.strings;
INSERT INTO postings SELECT * FROM new.postings ORDER BY rank;
CREATE UNIQUE INDEX ix_strings_id ON strings (id);
CREATE UNIQUE INDEX ix_postings ON postings (length, segment, word, rank);
"""


class TestPostingsLayout:
    """Postings are stored once, in a ``WITHOUT ROWID`` table keyed in
    the probe's access order; files of the older layout still open."""

    @pytest.fixture(scope="class")
    def old_store(self, sqlite_store, tmp_path_factory):
        path = tmp_path_factory.mktemp("old") / "index.db"
        connection = sqlite3.connect(path)
        connection.execute("ATTACH DATABASE ? AS new", (sqlite_store.path,))
        connection.executescript(OLD_LAYOUT)
        connection.commit()
        connection.close()
        return SqliteStore(path)

    @staticmethod
    def schema(path):
        connection = sqlite3.connect(path)
        try:
            return dict(
                connection.execute("SELECT name, sql FROM sqlite_schema")
            )
        finally:
            connection.close()

    def test_postings_without_rowid(self, sqlite_store):
        schema = self.schema(sqlite_store.path)
        assert "WITHOUT ROWID" in schema["postings"]
        assert "PRIMARY KEY (length, segment, word, rank)" in schema["postings"]
        assert "ix_postings" not in schema
        assert "staging" not in schema and "ingest" not in schema

    def test_old_layout_answers_the_same(
        self, memory_store, sqlite_store, old_store
    ):
        assert "ix_postings" in self.schema(old_store.path)
        assert old_store.meta == sqlite_store.meta
        count = len(memory_store)
        checked = 0
        for (length, segment_index), words in posting_words(
            memory_store.strings_at_ranks(0, count), K, Q
        ).items():
            for limit in range(count + 1):
                assert old_store.posting_lists(
                    length, segment_index, words, limit
                ) == sqlite_store.posting_lists(
                    length, segment_index, words, limit
                )
                assert old_store.has_segment(
                    length, segment_index, limit
                ) == sqlite_store.has_segment(length, segment_index, limit)
                checked += 1
        assert checked > 0

    def test_old_layout_joins_the_same(self, old_store, sqlite_store):
        config = JoinConfig(k=K, tau=0.15, q=Q)
        assert (
            store_similarity_join(old_store, config).pairs
            == store_similarity_join(sqlite_store, config).pairs
        )

    def test_new_layout_is_smaller(self, sqlite_store, old_store):
        assert Path(sqlite_store.path).stat().st_size < Path(
            old_store.path
        ).stat().st_size


class TestStoredFloats:
    """A store holds exactly the floats of the collection it was built
    from. Normalized probabilities often sum to 1 ± 1 ulp, so dividing
    by the sum again on every parse of the stored text would move them:
    for this collection, in 90 of 200 strings, enough to reorder a
    top-k list."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        from repro.datasets.loader import load_collection, save_collection
        from repro.datasets.presets import dblp_like_collection

        path = tmp_path_factory.mktemp("floats") / "names.txt"
        save_collection(
            dblp_like_collection(
                200, theta=0.2, rng=7, max_uncertain_positions=4
            ),
            path,
            precision=17,
        )
        return load_collection(path)

    @pytest.fixture(scope="class")
    def stores(self, loaded, tmp_path_factory):
        path = tmp_path_factory.mktemp("floats") / "names.db"
        build_sqlite_store(iter(loaded), path, k=2, q=3)
        return MemoryStore(loaded, k=2, q=3), SqliteStore(path)

    def test_hydrated_strings_equal_loaded_strings(self, loaded, stores):
        _, sqlite_store = stores
        by_rank = sqlite_store.strings_at_ranks(0, len(loaded))
        ids = list(sqlite_store.ids_in_visit_order())
        assert canonical(by_rank) == canonical([loaded[i] for i in ids])
        by_id = sqlite_store.strings_by_ids(list(range(len(loaded))))
        assert canonical(by_id[i] for i in range(len(loaded))) == canonical(
            loaded
        )

    @given(st.lists(uncertain_strings(verbatim=True), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_verbatim_strings_hydrate_equal(self, strings):
        # Single alternatives kept verbatim below 1.0 survive the
        # store's text round trip, by rank and by id.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "verbatim.db"
            build_sqlite_store(iter(strings), path, k=1, q=2)
            store = SqliteStore(path)
            ids = list(store.ids_in_visit_order())
            assert store.strings_at_ranks(0, len(strings)) == [
                strings[i] for i in ids
            ]
            by_id = store.strings_by_ids(range(len(strings)))
            assert [by_id[i] for i in range(len(strings))] == strings

    def test_posting_lists_identical(self, loaded, stores):
        # The three posting builders — an index fed the visits in
        # order, the memory reference and the SQLite file — agree.
        memory_store, sqlite_store = stores
        assert sqlite_store.meta == memory_store.meta
        index = SegmentInvertedIndex(k=2, q=3)
        for rank, (_, string) in enumerate(visit_order(loaded)):
            index.add(rank, string)
        assert index.entry_count == memory_store.meta.entry_count
        checked = 0
        for (length, segment), words in posting_words(loaded, 2, 3).items():
            expected = memory_store.posting_lists(
                length, segment, words, len(loaded)
            )
            got = sqlite_store.posting_lists(
                length, segment, words, len(loaded)
            )
            built = index.posting_lists(length, segment, words)
            assert {w: list(p) for w, p in got.items()} == {
                w: list(p) for w, p in expected.items()
            } == {w: list(p) for w, p in built.items()}
            assert len(expected) == len(words)
            checked += sum(map(len, expected.values()))
        assert checked == index.entry_count

    def test_top_k_agrees_with_memory(self, loaded, stores):
        _, sqlite_store = stores

        def ranked(outcome):
            return [(p.left_id, p.right_id, p.probability) for p in outcome.pairs]

        for count in (20, 50):
            assert ranked(
                top_k_join(None, 2, count, q=3, store=sqlite_store)
            ) == ranked(top_k_join(loaded, 2, count, q=3))


class TestStoreStringCache:
    def test_miss_reads_only_the_missing_id(
        self, collection, sqlite_store, monkeypatch
    ):
        reads: list[list[int]] = []
        strings_by_ids = SqliteStore.strings_by_ids

        def counted(self, ids):
            reads.append(list(ids))
            return strings_by_ids(self, ids)

        monkeypatch.setattr(SqliteStore, "strings_by_ids", counted)
        cache = StoreStringCache(sqlite_store, capacity=4)
        # Six misses, a hit on the most recent id, then a miss on the
        # evicted oldest: one read of just that id per miss.
        for string_id in [0, 1, 2, 3, 4, 5, 5, 0]:
            assert canonical([cache[string_id]]) == canonical(
                [collection[string_id]]
            )
            assert len(cache._entries) <= 4
        assert reads == [[0], [1], [2], [3], [4], [5], [0]]
        assert cache.fetches == 7

    def test_prefetch_batches_one_read(self, sqlite_store):
        cache = StoreStringCache(sqlite_store, capacity=64)
        ids = [0, 7, 13, 22]
        cache.prefetch(ids)
        assert cache.fetches == 1
        for string_id in ids:
            cache[string_id]
        assert cache.fetches == 1  # all hits
        cache.prefetch(ids)
        assert cache.fetches == 1  # nothing missing

    def test_prefetch_stays_within_capacity(self, sqlite_store):
        cache = StoreStringCache(sqlite_store, capacity=4)
        cache[30]
        ids = list(range(10))
        cache.prefetch(ids)
        assert cache.fetches == 2
        assert len(cache._entries) <= 4
        for string_id in ids[:4]:  # the block's head hits
            cache[string_id]
        assert cache.fetches == 2

    def test_shared_across_threads(self, collection, sqlite_store):
        cache = StoreStringCache(sqlite_store, capacity=3)
        errors: list[BaseException] = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(1000):
                    string_id = rng.randrange(len(collection))
                    if rng.random() < 0.2:
                        cache.prefetch([string_id, rng.randrange(len(collection))])
                    got = cache[string_id]
                    assert len(got) == len(collection[string_id])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the readers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(cache._entries) <= 3

    def test_take_bypasses_cache(self, collection, sqlite_store):
        facade = StoreCollection(sqlite_store)
        got = facade.take([5, 1, 9])
        assert canonical(got) == canonical(
            [collection[5], collection[1], collection[9]]
        )
        assert len(facade._cache._entries) == 0


class TestStoreContext:
    def test_features_bounded_and_rebuildable(self, collection):
        context = StoreContext(capacity=4)
        features = [
            context.features(i, collection[i]) for i in range(10)
        ]
        assert len(context._features) == 4
        rebuilt = context.features(0, collection[0])
        assert rebuilt is not features[0]  # evicted, rebuilt fresh
        assert rebuilt.length == features[0].length

    def test_shared_across_threads(self, collection):
        context = StoreContext(capacity=3)
        errors: list[BaseException] = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(20000):
                    # Few ids over a smaller capacity: frequent hits,
                    # each racing another thread's eviction.
                    string_id = rng.randrange(5)
                    got = context.features(string_id, collection[string_id])
                    assert got.length == len(collection[string_id])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the readers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(context._features) <= 3

    def test_negative_ids_stay_fresh(self, collection):
        context = StoreContext(capacity=4)
        assert context.features(-1, collection[0]) is not context.features(
            -1, collection[0]
        )
        assert len(context._features) == 0


class TestStoreIndexSource:
    def test_visit_order_enforced(self, store):
        config = JoinConfig(k=K, tau=0.1, q=Q)
        source = StoreIndexSource(config, store)
        ids = list(store.ids_in_visit_order())
        with pytest.raises(ConfigurationError, match="visit order"):
            source.register(ids[1], 5)

    def test_visit_order_enforced_without_qgram(self, store):
        # A stack without Q reads no postings, yet its candidate ids
        # still come from the store's ranks: the same check applies.
        config = JoinConfig.for_algorithm("FCT", k=K, tau=0.1, q=Q)
        engine = JoinEngine(config, store=store)
        ids = list(store.ids_in_visit_order())
        lengths = list(store.lengths_in_visit_order())
        engine.source.register(ids[0], lengths[0])
        with pytest.raises(ConfigurationError, match="visit order"):
            engine.source.register(ids[2], lengths[2])


class TestDriverParity:
    """Store-backed drivers vs the in-memory reference, same collection."""

    @pytest.fixture(scope="class")
    def reference(self, collection):
        return similarity_join(collection, JoinConfig(k=K, tau=0.15, q=Q))

    def test_serial_join(self, collection, store, reference):
        outcome = store_similarity_join(store, JoinConfig(k=K, tau=0.15, q=Q))
        assert outcome.pairs == reference.pairs

    def test_serial_join_never_asks_has_segment(
        self, sqlite_store, reference, monkeypatch
    ):
        calls = {"has_segment": 0, "posting_lists": 0}
        posting_lists = SqliteStore.posting_lists

        def has_segment(self, *args):
            calls["has_segment"] += 1
            return True

        def counted_posting_lists(self, *args):
            calls["posting_lists"] += 1
            return posting_lists(self, *args)

        monkeypatch.setattr(SqliteStore, "has_segment", has_segment)
        monkeypatch.setattr(SqliteStore, "posting_lists", counted_posting_lists)
        outcome = store_similarity_join(
            SqliteStore(sqlite_store.path), JoinConfig(k=K, tau=0.15, q=Q)
        )
        assert outcome.pairs == reference.pairs
        assert calls["has_segment"] == 0
        assert calls["posting_lists"] > 0

    @pytest.mark.parametrize("block", [READ_BLOCK, 16])
    def test_visits_read_in_rank_blocks(
        self, collection, sqlite_store, reference, block, monkeypatch
    ):
        # The self-join and the top-k read every visit string once, in
        # ceil(N / READ_BLOCK) sequential reads; no visit string is read
        # on its own, and candidates hit the strings the visits added.
        monkeypatch.setattr(store_source, "READ_BLOCK", block)
        calls = {"strings_at_ranks": 0, "strings_by_ids": 0}
        for name in calls:
            method = getattr(SqliteStore, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(SqliteStore, name, counted)
        blocks = -(-len(collection) // block)
        config = JoinConfig(k=K, tau=0.15, q=Q)
        store = SqliteStore(sqlite_store.path)
        assert store_similarity_join(store, config).pairs == reference.pairs
        assert calls == {"strings_at_ranks": blocks, "strings_by_ids": 0}
        calls.update(strings_at_ranks=0)
        assert (
            top_k_join(None, K, 12, q=Q, store=store).pairs
            == top_k_join(collection, K, 12, q=Q).pairs
        )
        assert calls == {"strings_at_ranks": blocks, "strings_by_ids": 0}

    def test_one_candidate_query_parses_one_string(
        self, collection, tmp_path, monkeypatch
    ):
        lone = UncertainString.from_text("WWWWWWWW")
        path = tmp_path / "lone.store"
        build_sqlite_store(iter([*collection, lone]), path, k=K, q=Q)
        config = JoinConfig(k=K, tau=0.15, q=Q)
        searcher = SimilaritySearcher.from_store(SqliteStore(path), config)
        candidates = searcher.engine.source.probe(
            lone, config.tau, JoinStatistics(), K
        )
        assert [candidate_id for candidate_id, _ in candidates] == [
            len(collection)
        ]
        parsed: list[int] = []
        for name in ("strings_by_ids", "strings_at_ranks"):
            method = getattr(SqliteStore, name)

            def counted(self, *args, _method=method):
                block = _method(self, *args)
                parsed.append(len(block))
                return block

            monkeypatch.setattr(SqliteStore, name, counted)
        matches = searcher.search(lone).matches
        assert [match.string_id for match in matches] == [len(collection)]
        assert sum(parsed) == 1

    def test_serial_join_tiny_cache(self, collection, sqlite_store):
        small = SqliteStore(sqlite_store.path, cache_size=4)
        config = JoinConfig(k=K, tau=0.15, q=Q)
        assert (
            store_similarity_join(small, config).pairs
            == similarity_join(collection, config).pairs
        )

    def test_non_qgram_filter_stack(self, collection, store):
        config = JoinConfig(k=K, tau=0.15, q=Q, filters=("frequency", "cdf"))
        assert (
            store_similarity_join(store, config).pairs
            == similarity_join(collection, config).pairs
        )

    def test_parallel_join(self, collection, store, reference):
        config = JoinConfig(k=K, tau=0.15, q=Q, workers=3)
        outcome = parallel_similarity_join(
            None, config, use_processes=False, min_parallel=0, store=store
        )
        assert outcome.pairs == reference.pairs

    def test_checkpoint_and_resume(self, collection, sqlite_store, tmp_path, reference):
        config = JoinConfig(k=K, tau=0.15, q=Q, workers=2)
        run_dir = str(tmp_path / "run")
        config = replace(config, checkpoint_dir=run_dir)
        first = parallel_similarity_join(
            None, config, use_processes=False,
            min_parallel=0, store=sqlite_store,
        )
        resumed = parallel_similarity_join(
            None, config, use_processes=False,
            min_parallel=0, store=sqlite_store,
        )
        assert first.pairs == reference.pairs
        assert resumed.pairs == reference.pairs

    def test_sharded_join_merges_to_reference(
        self, collection, sqlite_store, tmp_path, reference
    ):
        run_dir = str(tmp_path / "sharded")
        for shard in ("0/2", "1/2"):
            parallel_similarity_join(
                None,
                JoinConfig(
                    k=K, tau=0.15, q=Q, workers=2,
                    shard=shard, checkpoint_dir=run_dir,
                ),
                use_processes=False,
                min_parallel=0,
                store=sqlite_store,
            )
        assert merge_run(run_dir).pairs == reference.pairs

    def test_search(self, collection, store):
        config = JoinConfig(k=K, tau=0.15, q=Q)
        reference = SimilaritySearcher(collection, config)
        searcher = SimilaritySearcher.from_store(store, config)
        for query in collection[:6]:
            assert (
                searcher.search(query).matches
                == reference.search(query).matches
            )
            # Per-request τ override flows through identically.
            assert (
                searcher.search(query, tau=0.4).matches
                == reference.search(query, tau=0.4).matches
            )

    def test_topk(self, collection, store):
        reference = top_k_join(collection, K, 12, q=Q)
        outcome = top_k_join(None, K, 12, q=Q, store=store)
        assert outcome.pairs == reference.pairs

    def test_topk_needs_exactly_one_input(self, collection, store):
        with pytest.raises(ValueError, match="exactly one"):
            top_k_join(collection, K, 3, q=Q, store=store)
        with pytest.raises(ValueError, match="exactly one"):
            top_k_join(None, K, 3, q=Q)

    def test_store_collection_pickles_by_path(self, sqlite_store):
        facade = StoreCollection(sqlite_store)
        _ = facade[0]  # warm the cache
        clone = pickle.loads(pickle.dumps(facade))
        assert len(clone) == len(facade)
        assert format_uncertain(clone[3], precision=17) == format_uncertain(
            facade[3], precision=17
        )


@pytest.fixture(scope="module")
def golden_stores(tmp_path_factory):
    """One SQLite store per k over the equivalence-spec collection."""
    root = tmp_path_factory.mktemp("golden-stores")
    stores = {}
    for k in spec.KS:
        path = root / f"self-k{k}.db"
        build_sqlite_store(iter(spec.self_collection()), path, k=k, q=spec.Q)
        stores[k] = SqliteStore(path)
    return stores


@pytest.fixture(scope="module")
def golden_search_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-search-stores")
    stores = {}
    for k in spec.KS:
        path = root / f"search-k{k}.db"
        build_sqlite_store(
            iter(spec.search_collection()), path, k=k, q=spec.Q
        )
        stores[k] = SqliteStore(path)
    return stores


@pytest.mark.parametrize("key,config", GRID, ids=KEYS)
class TestGoldenStoreEquivalence:
    """The store-backed drivers against the committed seed fixture."""

    def test_store_join_serial(self, key, config, golden_stores):
        outcome = store_similarity_join(golden_stores[config.k], config)
        assert spec.encode_pairs(outcome.pairs) == GOLDEN[key]["join"]

    def test_store_join_banded_workers_4(self, key, config, golden_stores):
        outcome = parallel_similarity_join(
            None,
            replace(config, workers=4),
            use_processes=False,
            min_parallel=0,
            store=golden_stores[config.k],
        )
        assert spec.encode_pairs(outcome.pairs) == GOLDEN[key]["join"]

    def test_store_search(self, key, config, golden_search_stores):
        searcher = SimilaritySearcher.from_store(
            golden_search_stores[config.k], config
        )
        got = [
            spec.encode_matches(searcher.search(query).matches)
            for query in spec.search_queries()
        ]
        assert got == GOLDEN[key]["search"]


class TestCliStore:
    """`--store` end to end: same bytes out of the CLI as a collection."""

    @pytest.fixture()
    def cli_files(self, tmp_path, collection):
        from repro.cli import main
        from repro.datasets.loader import save_collection

        coll_path = tmp_path / "c.txt"
        save_collection(collection, coll_path)
        store_path = tmp_path / "c.store"
        assert main(
            ["index", "build", str(coll_path), "-o", str(store_path),
             "-k", str(K), "-q", str(Q)]
        ) == 0
        return str(coll_path), str(store_path)

    def _run(self, capsys, argv):
        from repro.cli import main

        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_index_info(self, cli_files, capsys, collection):
        _, store_path = cli_files
        code, out = self._run(capsys, ["index", "info", store_path])
        assert code == 0
        fields = dict(line.split("\t") for line in out.splitlines())
        assert fields["strings"] == str(len(collection))
        assert fields["k"] == str(K) and fields["q"] == str(Q)

    def test_join_parity(self, cli_files, capsys):
        coll_path, store_path = cli_files
        base = ["-k", str(K), "--tau", "0.1", "-q", str(Q), "--probabilities"]
        code, expected = self._run(capsys, ["join", coll_path, *base])
        assert code == 0
        code, got = self._run(capsys, ["join", "--store", store_path, *base])
        assert code == 0
        assert got == expected and expected.strip()

    def test_stream_parity(self, cli_files, capsys):
        coll_path, store_path = cli_files
        base = ["-k", str(K), "--tau", "0.1", "-q", str(Q), "--stream"]
        code, expected = self._run(capsys, ["join", coll_path, *base])
        assert code == 0
        code, got = self._run(capsys, ["join", "--store", store_path, *base])
        assert code == 0
        assert got == expected

    def test_search_parity(self, cli_files, capsys, collection):
        coll_path, store_path = cli_files
        query = format_uncertain(collection[5])
        base = ["-k", str(K), "--tau", "0.05", "-q", str(Q),
                "--probabilities"]
        code, expected = self._run(
            capsys, ["search", coll_path, query, *base]
        )
        assert code == 0
        code, got = self._run(
            capsys, ["search", "--store", store_path, query, *base]
        )
        assert code == 0
        assert got == expected

    def test_topk_parity(self, cli_files, capsys):
        coll_path, store_path = cli_files
        base = ["-k", str(K), "--count", "5", "-q", str(Q)]
        code, expected = self._run(capsys, ["topk", coll_path, *base])
        assert code == 0
        code, got = self._run(capsys, ["topk", "--store", store_path, *base])
        assert code == 0
        assert got == expected and expected.strip()

    def test_requires_exactly_one_input(self, cli_files, capsys):
        from repro.cli import main

        coll_path, store_path = cli_files
        base = ["-k", str(K), "--tau", "0.1", "-q", str(Q)]
        assert main(["join", *base]) == 2
        assert main(["join", coll_path, "--store", store_path, *base]) == 2
        capsys.readouterr()

    def test_mismatched_store_is_typed_failure(self, cli_files, capsys):
        from repro.cli import main

        _, store_path = cli_files
        # A store answers every k at its q; another q needs a rebuild.
        assert main(
            ["join", "--store", store_path, "-k", str(K),
             "--tau", "0.1", "-q", str(Q + 1)]
        ) == 2
        assert "rebuild" in capsys.readouterr().err


class TestServeStore:
    """Store-backed serving: request parity and warm store reload."""

    @pytest.fixture()
    def serve_config(self):
        return JoinConfig.for_algorithm(
            "QFCT", k=K, tau=0.05, q=Q, report_probabilities=True
        )

    def test_from_store_request_parity(
        self, tmp_path, collection, serve_config
    ):
        from repro.serve.service import JoinService

        path = tmp_path / "serve.store"
        build_sqlite_store(iter(collection), path, k=K, q=Q)
        memory = JoinService(collection, serve_config)
        stored = JoinService.from_store(str(path), serve_config)
        for index in (0, 11, 37):
            query = format_uncertain(collection[index])
            assert (
                stored.search(query)["matches"]
                == memory.search(query)["matches"]
            )
            assert (
                stored.topk(query, 4)["matches"]
                == memory.topk(query, 4)["matches"]
            )
            # Non-native k: the request probes the same store postings.
            assert (
                stored.search(query, k=K - 1)["matches"]
                == memory.search(query, k=K - 1)["matches"]
            )

    def test_from_store_rejects_mismatched_config(
        self, tmp_path, collection, serve_config
    ):
        from repro.serve.service import JoinService

        path = tmp_path / "serve.store"
        build_sqlite_store(iter(collection), path, k=K, q=Q + 1)
        with pytest.raises(CheckpointMismatchError, match="rebuild"):
            JoinService.from_store(str(path), serve_config)
        # Another build k is served; multimatch still needs the store's k.
        other_k = tmp_path / "other-k.store"
        build_sqlite_store(iter(collection), other_k, k=K + 1, q=Q)
        query = format_uncertain(collection[5])
        assert (
            JoinService.from_store(str(other_k), serve_config).search(query)
            == JoinService(collection, serve_config).search(query)
        )
        with pytest.raises(CheckpointMismatchError, match="multimatch"):
            JoinService.from_store(
                str(other_k), replace(serve_config, selection="multimatch")
            )

    def test_length_scan_request_stays_within_the_cache(
        self, tmp_path, collection, serve_config
    ):
        # At a k no smaller than any segment count the probe is the
        # length scan: every string is a candidate. The store generation
        # must still hydrate at most its cache capacity per read, and an
        # expired deadline must stop the request after that one read.
        from repro.serve.service import JoinService

        path = tmp_path / "scan.store"
        build_sqlite_store(iter(collection), path, k=K, q=Q)
        store = SqliteStore(path, cache_size=8)
        reads: list[int] = []
        for name in ("strings_by_ids", "strings_at_ranks"):
            method = getattr(store, name)

            def counted(*args, _method=method):
                block = _method(*args)
                reads.append(len(block))
                return block

            setattr(store, name, counted)
        service = JoinService(None, serve_config, store=store)
        scan_k = max(len(partition_for(len(s), Q, K)) for s in collection)
        query = format_uncertain(collection[3])

        expired = service.search(query, k=scan_k, timeout=1e-9)
        assert expired["error"]["type"] == "deadline_exceeded"
        assert sum(reads) <= 8

        answered = service.search(query, k=scan_k)
        memory = JoinService(collection, serve_config)
        assert answered == memory.search(query, k=scan_k)
        assert max(reads) <= 8
        assert len(service._state.searcher.engine._strings._entries) <= 8

    def test_reload_swaps_store_generations(
        self, tmp_path, collection, serve_config
    ):
        from repro.serve.service import JoinService

        first = tmp_path / "gen0.store"
        build_sqlite_store(iter(collection), first, k=K, q=Q)
        other = random_collection(random.Random(431), 30, length_range=(3, 9))
        second = tmp_path / "gen1.store"
        build_sqlite_store(iter(other), second, k=K, q=Q)

        service = JoinService.from_store(str(first), serve_config)
        document = service.reload(store_path=str(second))
        assert document["reloaded"] is True
        assert document["store"] == str(second)
        assert document["strings"] == len(other)
        assert service.generation == 1
        # Same-path reload re-opens the (atomically replaced) file.
        again = service.reload()
        assert again["reloaded"] is True and again["store"] == str(second)
        # Post-reload answers match a fresh in-memory service.
        memory = JoinService(other, serve_config)
        query = format_uncertain(other[7])
        assert (
            service.search(query)["matches"]
            == memory.search(query)["matches"]
        )
        assert service.status_document()["store"] == str(second)

    def test_failed_store_reload_keeps_generation(
        self, tmp_path, collection, serve_config
    ):
        from repro.serve.service import JoinService

        path = tmp_path / "serve.store"
        build_sqlite_store(iter(collection), path, k=K, q=Q)
        service = JoinService.from_store(str(path), serve_config)
        document = service.reload(store_path=str(tmp_path / "missing.store"))
        assert document["error"]["type"] == "reload_failed"
        assert service.generation == 0
        both = service.reload(
            collection_path=str(tmp_path / "c.txt"),
            store_path=str(path),
        )
        assert both["error"]["type"] == "reload_failed"
        query = format_uncertain(collection[3])
        assert service.search(query)["count"] >= 1
