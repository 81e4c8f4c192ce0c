"""The streaming join engine every driver routes through.

The paper's pipeline (length filter → q-gram segment index → frequency
distance → CDF bounds → trie/DP verification) is *one* algorithm; this
module owns it once. :class:`JoinEngine` combines

* a :class:`CandidateSource` — candidate generation among previously
  added strings, with the rank ↔ id mapping and visited-length
  bookkeeping the drivers used to re-derive. Two implementations:
  :class:`SegmentIndexSource` (the Section 4 inverted segment index)
  and :class:`LengthBandSource` (the plain length filter, for variants
  without q-gram filtering);
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

from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext
from repro.core.errors import ConfigurationError
from repro.core.pipeline import StageChain, TauProvider
from repro.core.results import JoinPair, SearchMatch
from repro.core.stats import JoinStatistics
from repro.index.inverted import SegmentInvertedIndex
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


@runtime_checkable
class CandidateSource(Protocol):
    """Candidate generation among previously added strings.

    A source owns the visit bookkeeping the drivers used to duplicate:
    the internal rank (insertion order) ↔ caller id mapping, and the
    per-length population counts behind the ``length``/``qgram`` stage
    counters. ``probe`` must count identically in every driver:
    ``length.eligible`` for the length-filter universe, plus either
    ``qgram.survivors``/``qgram.rejected`` (index sources) or
    ``length.survivors`` (plain length filter).
    """

    def add(
        self, string_id: int, string: UncertainString, stats: JoinStatistics
    ) -> None:
        """Register ``string`` so later probes can return it."""
        ...

    def probe(
        self, query: UncertainString, tau: float, stats: JoinStatistics
    ) -> list[SourceCandidate]:
        """Candidates among added strings, ascending by insertion rank."""
        ...

    def __len__(self) -> int: ...


class SegmentIndexSource:
    """Candidate generation through the Section 4 inverted segment index.

    Strings are indexed under their insertion rank (ranks ascend by
    construction, which keeps posting lists sorted); probes prune with
    Lemma 5 + Theorem 2 and report the surviving candidates' Theorem 2
    upper bounds for the chain to reuse.
    """

    def __init__(
        self,
        config: JoinConfig,
        index: SegmentInvertedIndex | None = None,
    ) -> None:
        self._k = config.k
        # A preloaded ``index`` (a per-shard snapshot from
        # repro.index.persistence) skips per-string segmentation: `add`
        # still rebuilds the rank↔id and length bookkeeping — which
        # requires the caller to replay the exact insertion order the
        # snapshot was built under — but no postings are re-derived.
        self._preloaded = index is not None
        self._index = (
            index
            if index is not None
            else SegmentInvertedIndex(
                k=config.k,
                q=config.q,
                selection=config.selection,
                group_mode=config.group_mode,
                bound_mode=config.bound_mode,
            )
        )
        self._rank_to_id: list[int] = []
        self._count_by_length: dict[int, int] = {}

    @property
    def index(self) -> SegmentInvertedIndex:
        """The wrapped index (size reporting, persistence)."""
        return self._index

    def __len__(self) -> int:
        return len(self._rank_to_id)

    def add(
        self, string_id: int, string: UncertainString, stats: JoinStatistics
    ) -> None:
        rank = len(self._rank_to_id)
        if not self._preloaded:
            with stats.timer("index"):
                self._index.add(rank, string)
        self._rank_to_id.append(string_id)
        length = len(string)
        self._count_by_length[length] = self._count_by_length.get(length, 0) + 1

    def probe(
        self, query: UncertainString, tau: float, stats: JoinStatistics
    ) -> list[SourceCandidate]:
        length = len(query)
        eligible = sum(
            count
            for other_length, count in self._count_by_length.items()
            if abs(other_length - length) <= self._k
        )
        stats.record("length", "eligible", eligible)
        with stats.timer("qgram"):
            ranked = self._index.probe(query, tau)
        stats.record("qgram", "survivors", len(ranked))
        stats.record("qgram", "rejected", eligible - len(ranked))
        return [(self._rank_to_id[rank], upper) for rank, upper in ranked]


class LengthBandSource:
    """Plain length-filter candidate generation (no q-gram index).

    Serves the paper variants without **Q**: every added string within
    edit-threshold length distance of the query is a candidate, with no
    upper bound attached.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self._k = k
        self._rank_to_id: list[int] = []
        self._ranks_by_length: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._rank_to_id)

    def register(self, string_id: int, length: int) -> None:
        """Register one string by id and length, without hydrating it
        (the store-backed searcher's bulk-registration hook)."""
        rank = len(self._rank_to_id)
        self._rank_to_id.append(string_id)
        self._ranks_by_length.setdefault(length, []).append(rank)

    def add(
        self, string_id: int, string: UncertainString, stats: JoinStatistics
    ) -> None:
        self.register(string_id, len(string))

    def probe(
        self, query: UncertainString, tau: float, stats: JoinStatistics
    ) -> list[SourceCandidate]:
        length = len(query)
        ranks: list[int] = []
        for other_length, members in self._ranks_by_length.items():
            if abs(other_length - length) <= self._k:
                ranks.extend(members)
        ranks.sort()
        # Everything length-eligible survives: eligible == survivors here.
        stats.record("length", "eligible", len(ranks))
        stats.record("length", "survivors", len(ranks))
        return [(self._rank_to_id[rank], None) for rank in ranks]


def make_source(
    config: JoinConfig,
    index: SegmentInvertedIndex | None = None,
    store: Any = None,
) -> CandidateSource:
    """The candidate source ``config``'s filter stack calls for.

    ``index`` hands a :class:`SegmentIndexSource` a preloaded segment
    index (a persisted snapshot) instead of building one per string; it
    is only meaningful for q-gram configs and must be ``None`` for
    filter stacks without **Q**. ``store`` (an
    :class:`~repro.store.base.IndexStore`) routes q-gram candidate
    generation through the store's prebuilt postings instead — the two
    are mutually exclusive. Non-q-gram stacks never read postings, so
    under ``store`` they still get the plain length filter.
    """
    if index is not None and store is not None:
        raise ConfigurationError(
            "a preloaded segment index and an index store are mutually "
            "exclusive candidate-generation backends"
        )
    if store is not None:
        if config.uses_qgram:
            from repro.store.source import StoreIndexSource

            return StoreIndexSource(config, store)
        store.meta.check_compatible(config)
        return LengthBandSource(config.k)
    if config.uses_qgram:
        return SegmentIndexSource(config, index=index)
    if index is not None:
        raise ConfigurationError(
            "a preloaded segment index requires the qgram filter "
            f"(filters={config.filters!r} has no use for it)"
        )
    return LengthBandSource(config.k)


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
    index:
        Preloaded segment index (a per-shard snapshot from
        :mod:`repro.index.persistence`) for q-gram configs; the caller
        must then :meth:`add` the same strings in the same order the
        snapshot was built under, which rebuilds the id bookkeeping
        without re-segmenting any string.
    store:
        An :class:`~repro.store.base.IndexStore`: candidate generation
        reads the store's prebuilt postings, and candidate strings are
        hydrated on demand through a bounded LRU instead of being held
        in a dict — peak RSS tracks the cache, not the collection.
        Mutually exclusive with ``index``; adds must replay the store's
        (length, id) visit order.
    store_cache:
        The hydration cache to use with ``store`` (a
        :class:`~repro.store.source.StoreStringCache`); by default one
        is created at the store's configured capacity. Drivers pass a
        shared cache so the engine and their collection facade hit one
        LRU.
    """

    def __init__(
        self,
        config: JoinConfig,
        stats: JoinStatistics | None = None,
        tau: TauProvider | None = None,
        force_exact: bool = False,
        context: CollectionContext | None = None,
        index: "SegmentInvertedIndex | None" = None,
        store: Any = None,
        store_cache: Any = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else JoinStatistics()
        self.tau: TauProvider = tau if tau is not None else (lambda: config.tau)
        self.source = make_source(config, index=index, store=store)
        self.chain = StageChain(config, force_exact=force_exact, context=context)
        self._strings: StringLookup
        if store is not None:
            from repro.store.base import DEFAULT_CACHE_SIZE
            from repro.store.source import StoreStringCache

            self._strings = (
                store_cache
                if store_cache is not None
                else StoreStringCache(
                    store, getattr(store, "cache_size", DEFAULT_CACHE_SIZE)
                )
            )
        else:
            if store_cache is not None:
                raise ConfigurationError(
                    "store_cache is only meaningful together with store"
                )
            self._strings = {}

    def __len__(self) -> int:
        return len(self._strings)

    def string(self, string_id: int) -> UncertainString:
        """A previously added string."""
        return self._strings[string_id]

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
        candidates = self.source.probe(query, provider(), run_stats)
        # Store-backed string caches hydrate the whole candidate block
        # in one batched read instead of one miss per candidate.
        prefetch = getattr(self._strings, "prefetch", None)
        if prefetch is not None and len(candidates) >= 2:
            prefetch([candidate_id for candidate_id, _ in candidates])
        for candidate_id, upper in candidates:
            similar, probability = self.chain.refine(
                context,
                candidate_id,
                self._strings[candidate_id],
                provider,
                run_stats,
                upper,
            )
            yield candidate_id, similar, probability

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
        collection: Sequence[UncertainString],
        index_length_cap: int | None = None,
        order: "Sequence[int] | None" = None,
    ) -> Iterator[JoinPair]:
        """Stream the self-join of ``collection`` pair by pair.

        Visits strings in ascending (length, id) order — each string is
        probed against the already-added prefix, then added, so no pair
        is enumerated twice. Pairs are yielded as discovered (grouped by
        their later-visited string), not globally sorted.

        ``order`` supplies that visit order precomputed (it must be the
        ascending (length, id) permutation of ``collection``'s ids) —
        the store-backed driver passes the store's recorded order so the
        sort never hydrates the collection.

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
        if order is None:
            order = sorted(
                range(len(collection)), key=lambda i: (len(collection[i]), i)
            )
        for string_id in order:
            current = collection[string_id]
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
    return engine.join(collection)


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
    order = sorted(range(len(collection)), key=lambda i: (len(collection[i]), i))
    for string_id in order:
        engine.add(string_id, collection[string_id])
    return engine.matches(query)
