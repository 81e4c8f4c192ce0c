"""Store-backed engine adapters: bounded-memory candidate generation.

Four pieces bridge an :class:`~repro.store.base.IndexStore` into the
streaming engine of :mod:`repro.core.engine` while keeping peak RSS
proportional to cache capacity, never to the collection:

* :class:`StoreIndexSource` — the engine's one
  :class:`~repro.core.engine.CandidateSource` with its postings in the
  store. Registration keeps only the rank ↔ id and per-length
  bookkeeping (the postings are prebuilt); probes run the shared math
  of :mod:`repro.index.probe` over the store's ``rank < limit``
  postings, so results are byte-identical to an in-memory run. The
  partition is the store's; the probe k is whatever the caller asks.
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
from typing import Iterator, Sequence

from repro.core.context import CollectionContext, StringFeatures
from repro.core.engine import CandidateSource
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


class StoreIndexSource(CandidateSource):
    """The :class:`~repro.core.engine.CandidateSource` of a store-backed
    engine: the one source with its postings in an
    :class:`~repro.store.base.IndexStore`.

    It adds nothing to the base class — ``StoreIndexSource(config,
    store)`` is ``CandidateSource(config, store)``. The name lets
    store-backed probes be told apart from in-memory ones, e.g. by a
    profiler wrapping ``StoreIndexSource.probe``.
    """
