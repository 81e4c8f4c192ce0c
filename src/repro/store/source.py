"""Store-backed engine adapters: bounded-memory candidate generation.

Four pieces bridge an :class:`~repro.store.base.IndexStore` into the
streaming engine of :mod:`repro.core.engine` while keeping peak RSS
proportional to cache capacity, never to the collection:

* :class:`StoreIndexSource` — a ``CandidateSource`` whose postings live
  in the store. ``add``/``register`` only maintain the rank ↔ id and
  per-length bookkeeping (the postings are prebuilt); probes run the
  shared math of :mod:`repro.index.probe` over a rank-limited view, so
  results are byte-identical to an incrementally built
  :class:`~repro.core.engine.SegmentIndexSource`. The partition is the
  store's; the probe k is whatever the caller asks.
* :class:`StoreStringCache` — a bounded LRU of hydrated strings that
  reads only what its caller asks for: a miss reads the one missing
  id, and ``prefetch`` reads the block the engine is about to refine
  (up to capacity) in one batched query.
* :class:`StoreContext` — a bounded-LRU
  :class:`~repro.core.context.CollectionContext`: features rebuild
  deterministically after eviction, so eviction can only cost time.
* :class:`StoreCollection` — a sequence facade over the store (ids are
  0..N-1 loader positions) that pickles as just the store path, so
  parallel workers under any start method reopen one shared file
  instead of receiving string data. Its ``visits`` feed the join's
  one sequential pass, read in rank blocks; its ``take`` hydrates a
  band task's members in one batched read.

The caller decides each read: the sequential visit loop reads rank
blocks, candidate lookups read just the candidates, and nothing is
read ahead on a guess.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator, Mapping, Sequence

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext, StringFeatures
from repro.core.errors import ConfigurationError
from repro.core.stats import JoinStatistics
from repro.index.probe import query_candidates
from repro.partition.even import Segment, partition_for
from repro.store.base import DEFAULT_CACHE_SIZE, IndexStore
from repro.uncertain.string import UncertainString

#: Strings per sequential read of :meth:`StoreCollection.visits`.
READ_BLOCK = 256


class StoreStringCache:
    """Bounded LRU of hydrated strings, keyed by original id.

    Satisfies the mapping surface :class:`~repro.core.engine.JoinEngine`
    uses for its ``_strings`` dict (``[]`` get/set, ``len``), plus
    ``prefetch``: one batched read of the block of ids the caller is
    about to look up. The cache reads nothing on its own initiative —
    a miss reads just the missing id, so what is parsed is what the
    caller asked for.

    The cache never holds more than ``capacity`` strings, whatever the
    block, so one wide probe cannot load the store into memory. A lock
    guards the LRU (a serving generation shares one cache among its
    request threads); store reads run outside it.
    """

    def __init__(self, store: IndexStore, capacity: "int | None" = None) -> None:
        self._store = store
        if capacity is None:  # the store's configured size
            capacity = getattr(store, "cache_size", DEFAULT_CACHE_SIZE)
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[int, UncertainString]" = OrderedDict()
        self._lock = threading.Lock()
        self._added = 0
        #: Number of store read operations (misses + prefetch batches);
        #: the cache-effectiveness measure the tests pin.
        self.fetches = 0

    def __len__(self) -> int:
        return self._added

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __setitem__(self, string_id: int, string: UncertainString) -> None:
        with self._lock:
            self._entries[string_id] = string
            self._entries.move_to_end(string_id)
            self._added += 1
            self._trim()

    def __getitem__(self, string_id: int) -> UncertainString:
        with self._lock:
            string = self._entries.get(string_id)
            if string is not None:
                self._entries.move_to_end(string_id)
                return string
        fetched = self._store.strings_by_ids([string_id])[string_id]
        with self._lock:
            self.fetches += 1
            # A racing thread may have read the same id meanwhile: keep
            # the first, so every caller shares one object.
            string = self._entries.setdefault(string_id, fetched)
            self._entries.move_to_end(string_id)
            self._trim()
        return string

    def prefetch(self, ids: Sequence[int]) -> None:
        """Hydrate the caller's next block of ids in one batched read.

        Only the first ``capacity`` ids are read; the rest hydrate
        through ordinary misses. The block's cached ids move to the
        recent end first, so trimming back to capacity evicts none of
        it.
        """
        missing = []
        with self._lock:
            for string_id in ids[: self.capacity]:
                if string_id in self._entries:
                    self._entries.move_to_end(string_id)
                else:
                    missing.append(string_id)
        if not missing:
            return
        fetched = self._store.strings_by_ids(missing)
        with self._lock:
            self.fetches += 1
            self._entries.update(fetched)
            self._trim()


class StoreCollection(Sequence[UncertainString]):
    """The store's collection as a sequence of strings, ids = positions.

    Point reads go through the facade's own bounded
    :class:`StoreStringCache`; :meth:`visits` and :meth:`take` read the
    store directly. Pickles as just the store — i.e. a path — so
    publishing it to parallel workers ships no string data under any
    start method.
    """

    def __init__(self, store: IndexStore) -> None:
        self._store = store
        self._cache = StoreStringCache(store)

    @property
    def store(self) -> IndexStore:
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, string_id: int) -> UncertainString:  # type: ignore[override]
        return self._cache[string_id]

    def __iter__(self) -> Iterator[UncertainString]:
        for string_id in range(len(self)):
            yield self._cache[string_id]

    def visits(self) -> Iterator[tuple[int, UncertainString]]:
        """The join's visits, ``(id, string)`` in the store's (length,
        id) rank order, read sequentially ``READ_BLOCK`` ranks at a
        time."""
        ids = self._store.ids_in_visit_order()
        for start in range(0, len(ids), READ_BLOCK):
            stop = start + READ_BLOCK
            yield from zip(
                ids[start:stop], self._store.strings_at_ranks(start, stop)
            )

    def take(self, ids: Sequence[int]) -> list[UncertainString]:
        """Bulk-hydrate ``ids`` (in order) in one batched read, bypassing
        the cache (band tasks materialize their band anyway)."""
        fetched = self._store.strings_by_ids(ids)
        return [fetched[string_id] for string_id in ids]

    def __reduce__(self) -> tuple:
        return (StoreCollection, (self._store,))


class StoreContext(CollectionContext):
    """A :class:`CollectionContext` with a bounded feature LRU.

    Features are deterministic functions of their string, so evicting
    and rebuilding one cannot change any result — the bound turns the
    context's O(collection) growth into O(capacity) at a pure time
    cost. Negative pseudo-ids stay fresh-per-call as in the base class.
    A lock guards the LRU (a serving generation shares one context
    among its request threads); features are built outside it.
    """

    __slots__ = ("_capacity", "_lock")

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__()
        self._features: "OrderedDict[int, StringFeatures]" = OrderedDict()
        self._capacity = max(1, capacity)
        self._lock = threading.Lock()

    def features(
        self, string_id: int, string: UncertainString
    ) -> StringFeatures:
        if string_id < 0:
            return StringFeatures(string)
        with self._lock:
            features = self._features.get(string_id)
            if features is not None:
                self._features.move_to_end(string_id)
                return features
        built = StringFeatures(string)
        with self._lock:
            # A racing thread may have built the same id meanwhile:
            # keep the first, so every caller shares one object.
            features = self._features.setdefault(string_id, built)
            self._features.move_to_end(string_id)
            while len(self._features) > self._capacity:
                self._features.popitem(last=False)
        return features


class _RankLimitedView:
    """The :class:`~repro.index.probe.PostingView` of one probe.

    Fixes ``rank_limit`` at probe start (the number of strings
    registered so far — exactly the prefix an incrementally built index
    would contain), so concurrent probes over a fully built source each
    carry their own immutable limit.
    """

    __slots__ = ("_source", "_limit")

    def __init__(self, source: "StoreIndexSource", limit: int) -> None:
        self._source = source
        self._limit = limit

    def partition_of(self, length: int) -> Sequence[Segment]:
        return self._source.partition_of(length)

    def visit_lengths(self) -> list[int]:
        return sorted(self._source._ranks_by_length)

    def ids_of_length(self, length: int) -> Sequence[int]:
        return self._source._ranks_by_length.get(length, [])

    def has_segment(self, length: int, segment_index: int) -> bool:
        return self._source._store.has_segment(
            length, segment_index, self._limit
        )

    def posting_lists(
        self, length: int, segment_index: int, words: Sequence[str]
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        return self._source._store.posting_lists(
            length, segment_index, words, self._limit
        )


class StoreIndexSource:
    """Candidate generation over a store's prebuilt segment postings.

    The ``CandidateSource`` counterpart of
    :class:`~repro.core.engine.SegmentIndexSource` when the index lives
    in an :class:`~repro.store.base.IndexStore`. ``add`` (or the
    hydration-free ``register``) replays bookkeeping only — rank ↔ id,
    per-length counts — and must follow the store's visit order exactly,
    because posting entries carry store ranks. Probes restrict the
    store's full posting lists to the registered prefix via
    ``rank < limit``; see :mod:`repro.store.base` for why that is
    byte-identical to probing an incrementally built index. Partitions
    follow the store's build k; each probe passes its own k.
    """

    def __init__(self, config: JoinConfig, store: IndexStore) -> None:
        store.meta.check_compatible(config)
        self._store = store
        self._config = config
        self._rank_to_id: list[int] = []
        self._ranks_by_length: dict[int, list[int]] = {}
        self._partitions: dict[int, list[Segment]] = {}
        self._visit_ids = store.ids_in_visit_order()

    @property
    def store(self) -> IndexStore:
        return self._store

    def __len__(self) -> int:
        return len(self._rank_to_id)

    def partition_of(self, length: int) -> list[Segment]:
        partition = self._partitions.get(length)
        if partition is None:
            meta = self._store.meta
            partition = (
                [] if length == 0 else partition_for(length, meta.q, meta.k)
            )
            self._partitions[length] = partition
        return partition

    def register(self, string_id: int, length: int) -> None:
        """Register one string by id and length, without hydrating it."""
        rank = len(self._rank_to_id)
        if rank >= len(self._visit_ids) or self._visit_ids[rank] != string_id:
            expected = (
                self._visit_ids[rank]
                if rank < len(self._visit_ids)
                else "<exhausted>"
            )
            raise ConfigurationError(
                "store-backed source must replay the store's visit order: "
                f"rank {rank} got id {string_id}, store has {expected}"
            )
        self._rank_to_id.append(string_id)
        self._ranks_by_length.setdefault(length, []).append(rank)

    def add(
        self, string_id: int, string: UncertainString, stats: JoinStatistics
    ) -> None:
        self.register(string_id, len(string))

    def probe(
        self,
        query: UncertainString,
        tau: float,
        stats: JoinStatistics,
        k: int,
    ) -> list[tuple[int, "float | None"]]:
        config = self._config
        length = len(query)
        eligible = sum(
            len(ranks)
            for other_length, ranks in self._ranks_by_length.items()
            if abs(other_length - length) <= k
        )
        stats.record("length", "eligible", eligible)
        with stats.timer("qgram"):
            view = _RankLimitedView(self, len(self._rank_to_id))
            ranked = [
                (candidate.string_id, candidate.upper)
                for candidate in query_candidates(
                    view,
                    query,
                    tau,
                    k=k,
                    selection=config.selection,
                    group_mode=config.group_mode,
                    bound_mode=config.bound_mode,
                )
            ]
            ranked.sort()
        stats.record("qgram", "survivors", len(ranked))
        stats.record("qgram", "rejected", eligible - len(ranked))
        return [(self._rank_to_id[rank], upper) for rank, upper in ranked]
