"""Similarity search over an indexed collection.

The paper's machinery answers search queries too (its indexes were
originally built for them): all strings ``S`` in the collection with
``Pr(ed(Q, S) <= k) > tau`` for an uncertain (or deterministic) query
``Q``. :class:`SimilaritySearcher` holds one persistent
:class:`~repro.core.engine.JoinEngine` — collection indexed once,
frequency profiles cached across queries — and serves many queries.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext
from repro.core.engine import JoinEngine, visit_order
from repro.core.results import SearchMatch, SearchOutcome
from repro.core.stats import JoinStatistics
from repro.uncertain.string import UncertainString

#: Pseudo-id for query strings: negative, so the engine keeps their
#: cached trie/profile local to one probe instead of index-resident.
QUERY_ID = -1


class SimilaritySearcher:
    """An immutable collection indexed for repeated similarity searches."""

    #: The indexed strings, addressable by id — a materialized list for
    #: in-memory searchers, a lazy store facade under :meth:`from_store`.
    collection: Sequence[UncertainString]

    def __init__(
        self,
        collection: Sequence[UncertainString],
        config: JoinConfig,
        context: CollectionContext | None = None,
    ) -> None:
        self.collection = list(collection)
        self.config = config
        # Collection features/profiles persist across queries
        # (index-resident state, like the segment index); each query's
        # own profile lives with the negative pseudo-id's per-probe
        # state. ``context`` lets a parallel band reuse features the
        # parent already computed; by default features fill in lazily
        # as queries touch the collection.
        self._engine = JoinEngine(config, context=context)
        for string_id, string in visit_order(self.collection):
            self._engine.add(string_id, string)

    @classmethod
    def from_store(cls, store: Any, config: JoinConfig) -> "SimilaritySearcher":
        """A searcher over a prebuilt :class:`~repro.store.base.IndexStore`.

        Nothing collection-sized is materialized: the collection is the
        store's lazy facade, candidates hydrate through the engine's
        bounded LRU, features live in its bounded context, and
        registration replays the store's recorded (length, id) visit
        order from bookkeeping alone — no string is parsed until a
        query touches it, and a query parses just its candidates.
        Results are byte-identical to a searcher built over the loaded
        collection with the same config.
        """
        from repro.store.source import StoreCollection

        searcher = cls.__new__(cls)
        searcher.config = config
        searcher._engine = JoinEngine(config, store=store)
        searcher.collection = StoreCollection(store)
        source = searcher._engine.source
        for string_id, length in zip(
            store.ids_in_visit_order(), store.lengths_in_visit_order()
        ):
            source.register(string_id, length)
        return searcher

    @property
    def context(self) -> CollectionContext:
        """The collection's feature context, shared by every query."""
        return self._engine.chain.profiles.context

    @property
    def engine(self) -> JoinEngine:
        """The underlying engine (candidate source, stage chain)."""
        return self._engine

    def iter_matches(
        self,
        query: UncertainString,
        stats: JoinStatistics | None = None,
        tau: float | None = None,
    ) -> Iterator[SearchMatch]:
        """Stream matches for ``query`` as they are discovered.

        ``stats``, when given, receives this probe's counters/timers;
        otherwise recording goes to a throwaway sink. Either way the
        sink is passed *per probe* (never assigned onto the shared
        engine), so concurrent queries over one searcher each keep
        their own statistics. ``tau`` overrides the configured
        threshold for this query only — the per-request τ of the serve
        layer; candidate generation and every filter stage prune
        against the override exactly as a searcher built with that τ
        would.
        """
        sink = (
            stats
            if stats is not None
            else JoinStatistics(total_strings=len(self.collection))
        )
        return self._engine.matches(query, QUERY_ID, stats=sink, tau=tau)

    def search(
        self, query: UncertainString, tau: float | None = None
    ) -> SearchOutcome:
        """All collection strings similar to ``query`` under (k, τ)."""
        stats = JoinStatistics(total_strings=len(self.collection))
        matches: list[SearchMatch] = []
        with stats.timer("total"):
            matches.extend(self.iter_matches(query, stats=stats, tau=tau))
        stats.result_pairs = len(matches)
        matches.sort()
        return SearchOutcome(matches=matches, stats=stats)


def similarity_search(
    collection: Sequence[UncertainString],
    query: UncertainString,
    config: JoinConfig,
) -> SearchOutcome:
    """One-shot search: build the index, run one query."""
    return SimilaritySearcher(collection, config).search(query)
