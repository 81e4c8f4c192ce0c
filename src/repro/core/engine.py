"""The streaming join engine every driver routes through.

The paper's pipeline (length filter → q-gram segment index → frequency
distance → CDF bounds → trie/DP verification) is *one* algorithm; this
module owns it once. :class:`JoinEngine` combines

* the one :class:`CandidateSource` — candidate generation among
  previously added strings, with the rank ↔ id mapping and per-length
  bookkeeping every driver shares. Its q-gram postings live in an
  incrementally built segment index, in a prebuilt store, or nowhere
  (the plain length filter, for variants without q-gram filtering);
* the data-driven :class:`~repro.core.pipeline.StageChain`
  (frequency → CDF → verify), with τ supplied per candidate by a
  :data:`~repro.core.pipeline.TauProvider`;
* per-stage counters/timers recorded through the stage-name-keyed
  registry of :class:`~repro.core.stats.JoinStatistics` — identically
  for every driver.

The API is generator-based: :meth:`JoinEngine.join` /
:meth:`JoinEngine.matches` yield results *as they are discovered*, so
batch drivers collect them, the incremental joiner stays resumable, and
early-terminating consumers (top-N, serving) stop pulling whenever they
have enough.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Protocol, Sequence

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext
from repro.core.errors import ConfigurationError
from repro.core.pipeline import StageChain, TauProvider
from repro.core.results import JoinPair, SearchMatch
from repro.core.stats import JoinStatistics
from repro.index.inverted import SegmentInvertedIndex, index_partition
from repro.index.probe import query_candidates
from repro.partition.even import Segment
from repro.uncertain.string import UncertainString

#: One generated candidate: ``(string id, Theorem 2 upper bound)``;
#: the bound is ``None`` when the source cannot compute one.
SourceCandidate = tuple[int, "float | None"]


class StringLookup(Protocol):
    """The engine's candidate-string mapping: a plain dict by default,
    a bounded :class:`~repro.store.source.StoreStringCache` when the
    strings live out of core."""

    def __getitem__(self, string_id: int) -> UncertainString: ...

    def __setitem__(
        self, string_id: int, string: UncertainString
    ) -> None: ...

    def __len__(self) -> int: ...


class CandidateSource:
    """Candidate generation among registered strings: the length filter,
    then Lemma 5 + Theorem 2 over segment postings (Section 4).

    The one source every engine uses. It owns the visit bookkeeping —
    rank (registration order) → caller id, the ranks of each length,
    and the ``length.eligible`` count — so every driver counts
    identically. Only the home of the q-gram postings varies:

    * none, when the filter stack has no **Q**: every registered string
      within ``k`` of the query's length is a candidate, with no upper
      bound, recorded as ``length.survivors``;
    * an incrementally built
      :class:`~repro.index.inverted.SegmentInvertedIndex` (no
      ``store``): :meth:`add` indexes each string under its rank;
    * a ``store`` (an :class:`~repro.store.base.IndexStore`): its
      postings are prebuilt, and a probe reads those with ``rank <``
      the number registered so far — byte-identical to the incremental
      index (see :mod:`repro.store.base`). Registrations must replay
      the store's visit order, because its posting entries carry
      store ranks.

    ``probe`` records ``length.eligible`` plus either
    ``qgram.survivors``/``qgram.rejected`` or ``length.survivors``, and
    takes the edit threshold from its caller: one source answers any
    ``k`` over the same strings (DESIGN.md §4).
    """

    def __init__(self, config: JoinConfig, store: Any = None) -> None:
        self._config = config
        self._store = store
        self._rank_to_id: list[int] = []
        self._ranks_by_length: dict[int, list[int]] = {}
        self._index: SegmentInvertedIndex | None = None
        if store is not None:
            store.meta.check_compatible(config)
            self._visit_ids = store.ids_in_visit_order()
        elif config.uses_qgram:
            self._index = SegmentInvertedIndex(
                k=config.k,
                q=config.q,
                selection=config.selection,
                group_mode=config.group_mode,
                bound_mode=config.bound_mode,
            )

    @property
    def store(self) -> Any:
        """The store holding the postings, or ``None``."""
        return self._store

    def __len__(self) -> int:
        return len(self._rank_to_id)

    def register(self, string_id: int, length: int) -> int:
        """Register one string by id and length, without hydrating it,
        and return its rank. Enough on its own when this source builds
        no postings (no **Q**, or a store's); :meth:`add` otherwise."""
        rank = len(self._rank_to_id)
        if self._store is not None:
            visit_ids = self._visit_ids
            expected = visit_ids[rank] if rank < len(visit_ids) else "<exhausted>"
            if expected != string_id:
                raise ConfigurationError(
                    "store-backed source must replay the store's visit order: "
                    f"rank {rank} got id {string_id}, store has {expected}"
                )
        self._rank_to_id.append(string_id)
        self._ranks_by_length.setdefault(length, []).append(rank)
        return rank

    def add(
        self, string_id: int, string: UncertainString, stats: JoinStatistics
    ) -> None:
        """Register ``string`` so later probes can return it."""
        rank = self.register(string_id, len(string))
        if self._index is not None:
            with stats.timer("index"):
                self._index.add(rank, string)

    def probe(
        self,
        query: UncertainString,
        tau: float,
        stats: JoinStatistics,
        k: int,
    ) -> list[SourceCandidate]:
        """Candidates among registered strings at edit threshold ``k``,
        ascending by rank."""
        length = len(query)
        bands = [
            ranks
            for other_length, ranks in self._ranks_by_length.items()
            if abs(other_length - length) <= k
        ]
        eligible = sum(map(len, bands))
        stats.record("length", "eligible", eligible)
        if not self._config.uses_qgram:
            stats.record("length", "survivors", eligible)
            return [
                (self._rank_to_id[rank], None)
                for rank in sorted(rank for ranks in bands for rank in ranks)
            ]
        with stats.timer("qgram"):
            ranked = self._qgram_probe(query, tau, k)
        stats.record("qgram", "survivors", len(ranked))
        stats.record("qgram", "rejected", eligible - len(ranked))
        return [(self._rank_to_id[rank], upper) for rank, upper in ranked]

    def _qgram_probe(
        self, query: UncertainString, tau: float, k: int
    ) -> list[tuple[int, float]]:
        """``(rank, Theorem 2 upper bound)`` of the survivors, by rank."""
        if self._index is not None:
            return self._index.probe(query, tau, k)
        config = self._config
        candidates = query_candidates(
            _RankLimitedView(self, len(self._rank_to_id)),
            query,
            tau,
            k=k,
            selection=config.selection,
            group_mode=config.group_mode,
            bound_mode=config.bound_mode,
        )
        return sorted((c.string_id, c.upper) for c in candidates)


class _RankLimitedView:
    """The :class:`~repro.index.probe.PostingView` of one probe over a
    store-backed source.

    Fixes ``rank_limit`` at probe start (the number of strings
    registered so far — exactly the prefix an incrementally built index
    would contain), so concurrent probes over a fully registered source
    each carry their own immutable limit.
    """

    __slots__ = ("_source", "_limit")

    def __init__(self, source: CandidateSource, limit: int) -> None:
        self._source = source
        self._limit = limit

    def partition_of(self, length: int) -> Sequence[Segment]:
        meta = self._source.store.meta
        return index_partition(length, meta.q, meta.k)

    def visit_lengths(self) -> list[int]:
        return sorted(self._source._ranks_by_length)

    def ids_of_length(self, length: int) -> Sequence[int]:
        return self._source._ranks_by_length.get(length, [])

    def has_segment(self, length: int, segment_index: int) -> bool:
        return self._source.store.has_segment(
            length, segment_index, self._limit
        )

    def posting_lists(
        self, length: int, segment_index: int, words: Sequence[str]
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        return self._source.store.posting_lists(
            length, segment_index, words, self._limit
        )


def visit_order(
    collection: Sequence[UncertainString],
) -> list[tuple[int, UncertainString]]:
    """The join's visits over an in-memory collection: ``(id, string)``
    in ascending (length, id) order (a stable sort keeps ids ascending
    within a length)."""
    return sorted(enumerate(collection), key=lambda visit: len(visit[1]))


class JoinEngine:
    """One streaming (k, τ)-matching engine: source + stage chain + stats.

    Drivers differ only in how they feed and consume it: the batch
    self-join collects :meth:`join`; the searcher adds its collection
    once and calls :meth:`matches` per query; the incremental joiner
    interleaves :meth:`probe` and :meth:`add`; the top-N join passes an
    adaptive ``tau`` provider and keeps the N best yields.

    Parameters
    ----------
    config:
        Pipeline knobs. The engine itself is serial — parallel drivers
        shard the input and run one engine per band.
    stats:
        Statistics sink; a fresh one is created when omitted. Reassign
        :attr:`stats` to redirect subsequent recording (the searcher
        does this per query).
    tau:
        Per-candidate threshold provider; defaults to the constant
        ``config.tau``.
    force_exact:
        Always verify to the exact probability (see
        :class:`~repro.core.pipeline.StageChain`).
    context:
        Shared :class:`~repro.core.context.CollectionContext` of
        per-string features (frequency profiles, support alphabets,
        certainty fast-path data), for engines that outlive one run
        over the same indexed strings — or parallel band engines
        reusing the parent process's finished features.
    store:
        An :class:`~repro.store.base.IndexStore`: candidate generation
        reads the store's prebuilt postings, candidate strings hydrate
        on demand through a bounded
        :class:`~repro.store.source.StoreStringCache`, and features
        live in a bounded :class:`~repro.store.source.StoreContext`
        (unless ``context`` is given), both at the store's configured
        capacity — peak RSS tracks the cache, not the collection. Adds
        must replay the store's (length, id) visit order.
    """

    def __init__(
        self,
        config: JoinConfig,
        stats: JoinStatistics | None = None,
        tau: TauProvider | None = None,
        force_exact: bool = False,
        context: CollectionContext | None = None,
        store: Any = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else JoinStatistics()
        self.tau: TauProvider = tau if tau is not None else (lambda: config.tau)
        self.source: CandidateSource
        self._strings: StringLookup
        if store is not None:
            from repro.store.source import (
                StoreContext,
                StoreIndexSource,
                StoreStringCache,
            )

            self.source = StoreIndexSource(config, store)
            cache = StoreStringCache(store)
            self._strings = cache
            if context is None:
                context = StoreContext(cache.capacity)
        else:
            self.source = CandidateSource(config)
            self._strings = {}
        self.chain = StageChain(config, force_exact=force_exact, context=context)

    def __len__(self) -> int:
        return len(self._strings)

    def add(self, string_id: int, string: UncertainString) -> None:
        """Register ``string`` under ``string_id`` (ids must be unique;
        internal ranks follow insertion order)."""
        self.source.add(string_id, string, self.stats)
        self._strings[string_id] = string

    def probe(
        self,
        query_id: int,
        query: UncertainString,
        *,
        stats: JoinStatistics | None = None,
        tau: "TauProvider | float | None" = None,
    ) -> Iterator[tuple[int, bool, "float | None"]]:
        """Refine ``query`` against every added candidate, lazily.

        Yields ``(candidate_id, similar, probability)`` per candidate in
        insertion-rank order. The τ provider is re-read for each
        candidate, so consumers may tighten the threshold between pulls
        (the adaptive top-N loop does). Negative ``query_id``s mark
        transient queries: their frequency profiles stay probe-local.

        ``stats`` redirects this probe's recording to a per-call sink
        instead of :attr:`stats` — the serving layer answers concurrent
        requests over one shared engine, each request folding its own
        sink, so the shared attribute is never reassigned underneath a
        sibling thread. ``tau`` overrides the engine's threshold for
        this probe only: a float is a constant threshold, a callable an
        adaptive provider.
        """
        run_stats = stats if stats is not None else self.stats
        if tau is None:
            provider = self.tau
        elif callable(tau):
            provider = tau
        else:
            threshold = float(tau)
            provider = lambda: threshold  # noqa: E731
        context = self.chain.context(query_id, query)
        for candidate_id, upper, candidate in self.candidates(
            query, provider(), run_stats, self.config.k
        ):
            similar, probability = self.chain.refine(
                context, candidate_id, candidate, provider, run_stats, upper
            )
            yield candidate_id, similar, probability

    def candidates(
        self,
        query: UncertainString,
        tau: float,
        stats: JoinStatistics,
        k: int,
    ) -> Iterator[tuple[int, "float | None", UncertainString]]:
        """The source's candidates at edit threshold ``k`` with their
        strings, ready to refine: :meth:`probe`'s first step, shared
        with the serve loop. Yields ``(id, upper bound, string)``.

        A store-backed cache hydrates the candidates one
        capacity-sized slice at a time, in one batched read as the
        consumer reaches each slice, so a consumer that stops early
        (an expired deadline) reads no further slice.
        """
        candidates = self.source.probe(query, tau, stats, k)
        strings = self._strings
        prefetch = getattr(strings, "prefetch", None)
        # A dict holds every string (one slice); a cache reads at most
        # its capacity per slice.
        step = getattr(strings, "capacity", None) or max(1, len(candidates))
        for start in range(0, len(candidates), step):
            block = candidates[start : start + step]
            if prefetch is not None:
                prefetch([candidate_id for candidate_id, _ in block])
            for candidate_id, upper in block:
                yield candidate_id, upper, strings[candidate_id]

    def matches(
        self,
        query: UncertainString,
        query_id: int = -1,
        *,
        stats: JoinStatistics | None = None,
        tau: "TauProvider | float | None" = None,
    ) -> Iterator[SearchMatch]:
        """Stream the added strings similar to ``query`` under (k, τ).

        ``stats``/``tau`` are per-call overrides (see :meth:`probe`).
        """
        for candidate_id, similar, probability in self.probe(
            query_id, query, stats=stats, tau=tau
        ):
            if similar:
                yield SearchMatch(candidate_id, probability)

    def join(
        self,
        visits: Iterable[tuple[int, UncertainString]],
        index_length_cap: int | None = None,
    ) -> Iterator[JoinPair]:
        """Stream the self-join of ``visits`` pair by pair.

        ``visits`` are the collection's ``(id, string)`` pairs in
        ascending (length, id) order — :func:`visit_order` for an
        in-memory collection,
        :meth:`~repro.store.source.StoreCollection.visits` for a store.
        Each string is probed against the already-added prefix, then
        added, so no pair is enumerated twice. Pairs are yielded as
        discovered (grouped by their later-visited string), not
        globally sorted.

        ``index_length_cap`` makes strings longer than the cap
        *probe-only*: they query the index but are never added to it, so
        no pair between two over-cap strings is ever generated — the
        banded parallel driver uses this to skip the halo×halo pairs its
        neighbor band owns (and would otherwise evaluate redundantly).
        Pairs with at most one over-cap member are produced exactly as
        without the cap: the visit order is ascending by length, so every
        under-cap candidate is already indexed when an over-cap string
        probes.
        """
        for string_id, current in visits:
            for other_id, similar, probability in self.probe(string_id, current):
                if similar:
                    left, right = (
                        (other_id, string_id)
                        if other_id < string_id
                        else (string_id, other_id)
                    )
                    yield JoinPair(left, right, probability)
            if index_length_cap is None or len(current) <= index_length_cap:
                self.add(string_id, current)


def iter_join_pairs(
    collection: Sequence[UncertainString],
    config: JoinConfig,
    stats: JoinStatistics | None = None,
) -> Iterator[JoinPair]:
    """Stream a self-join's result pairs as they are discovered.

    The streaming form of :func:`repro.core.join.similarity_join`: same
    pairs and probabilities, yielded incrementally in discovery order
    instead of returned sorted. Serial only — set ``config.workers`` to
    1 (the batch driver handles banded parallelism).
    """
    if config.workers != 1:
        raise ConfigurationError(
            "iter_join_pairs streams the serial visit loop; "
            f"config.workers must be 1, got {config.workers}"
        )
    engine = JoinEngine(config, stats=stats)
    return engine.join(visit_order(collection))


def iter_matches(
    collection: Sequence[UncertainString],
    query: UncertainString,
    config: JoinConfig,
    stats: JoinStatistics | None = None,
) -> Iterator[SearchMatch]:
    """Stream one-shot search hits (index built at call time).

    For repeated queries over one collection, build a
    :class:`~repro.core.search.SimilaritySearcher` instead.
    """
    engine = JoinEngine(config, stats=stats)
    for string_id, string in visit_order(collection):
        engine.add(string_id, string)
    return engine.matches(query)
