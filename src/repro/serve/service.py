"""The serving core: one warm index, many concurrent requests.

:class:`JoinService` owns the expensive state — the collection, the
:class:`~repro.core.search.SimilaritySearcher` (segment index + shared
:class:`~repro.core.context.CollectionContext` feature caches) — and
answers ``search`` / ``topk`` / ``mini-join`` requests from any number
of threads. Transport (HTTP, a test calling methods directly) lives
elsewhere; every robustness decision that is about *answers* lives
here:

**Per-request τ and k.** τ is a pure threshold change and reuses the
shared engine verbatim (:meth:`JoinConfig.with_tau`). A request's k
reuses the same index too: the probe keeps the index's partition and
takes its windows and pigeonhole count from the request's k (DESIGN.md
§4), and only the stage chain is rebuilt at that k. Two limits keep a
request's k honest, both typed ``bad_request``: k may not exceed the
longest string the request can touch (a larger k only buys O(k) rows
per bound), and ``"multimatch"`` selection answers only the index's k.

**The degradation ladder.** Tier 0 is the exact pipeline — responses
byte-identical to the offline drivers. When the request deadline comes
under pressure (less than ``degrade_margin`` of the budget left), the
remaining candidates switch to the Hoeffding-bounded sampling verifier
(:func:`repro.verify.sampling.sampled_verify_threshold`, deterministic
per-pair seed) and the response is flagged ``degraded: true`` — an
approximate answer in time beats an exact answer too late, but only
ever labelled as such. Tier 2 is hard expiry: a typed
``deadline_exceeded`` error carrying the partial results, raised by
the cooperative check points, never a hang.

**Warm reload.** :meth:`reload` builds and validates a complete new
generation (collection re-read and re-indexed, or a store header-checked
against the serving config) while the old one keeps serving; the swap
is a single reference assignment, and *any* failure — corrupt store,
unreadable file, malformed record — leaves the old generation in place
and returns a typed ``reload_failed``.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext
from repro.core.deadline import Deadline, deadline_scope
from repro.core.engine import JoinEngine, visit_order
from repro.core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
)
from repro.core.pipeline import StageChain, TauProvider
from repro.core.results import SearchMatch
from repro.core.search import QUERY_ID, SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.datasets.loader import load_collection
from repro.serve.protocol import error_document, match_document
from repro.uncertain.parser import UncertainStringSyntaxError, parse_uncertain
from repro.uncertain.string import UncertainString
from repro.verify.sampling import sampled_verify_threshold

__all__ = ["JoinService", "ServeOptions"]


@dataclass(frozen=True)
class ServeOptions:
    """Robustness knobs of the serving layer.

    Parameters
    ----------
    max_in_flight / queue_limit / queue_timeout / retry_after:
        Admission control; see
        :class:`~repro.serve.admission.AdmissionController`.
    request_timeout:
        Default per-request deadline in seconds (a request may ask for
        less via its ``timeout`` field; asking for more is capped here
        — the server's budget is not client-negotiable upward).
    degrade_margin:
        Fraction of the request budget below which the verifier
        degrades to sampling. ``0`` disables degradation (requests run
        exact until they hit the hard deadline).
    degrade_max_samples:
        Sample budget per degraded pair (small by design: degradation
        exists to finish fast).
    degrade_delta:
        Hoeffding confidence parameter of the degraded verifier.
    sampling_seed:
        Global seed mixed into each degraded pair's deterministic RNG,
        so a degraded answer is reproducible for a given (seed, query,
        candidate).
    drain_timeout:
        Crash-only shutdown: how long to wait for in-flight requests
        before abandoning them.
    fault_spec:
        Request-path fault plan (``slow@I/SECONDS``, ``drop@I``,
        ``corrupt-resp@I``, ``crash@I``) in
        :meth:`repro.util.faults.FaultPlan.from_spec` syntax; testing
        hook, ``None`` injects nothing.
    """

    max_in_flight: int = 8
    queue_limit: int = 16
    queue_timeout: float = 0.25
    retry_after: float = 0.5
    request_timeout: float = 5.0
    degrade_margin: float = 0.25
    degrade_max_samples: int = 2048
    degrade_delta: float = 1e-3
    sampling_seed: int = 0
    drain_timeout: float = 5.0
    fault_spec: "str | None" = None

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if not 0.0 <= self.degrade_margin < 1.0:
            raise ConfigurationError(
                f"degrade_margin must be in [0, 1), got {self.degrade_margin}"
            )
        if self.degrade_max_samples < 1:
            raise ConfigurationError(
                "degrade_max_samples must be >= 1, "
                f"got {self.degrade_max_samples}"
            )
        if not 0.0 < self.degrade_delta < 1.0:
            raise ConfigurationError(
                f"degrade_delta must be in (0, 1), got {self.degrade_delta}"
            )
        if self.drain_timeout <= 0:
            raise ConfigurationError(
                f"drain_timeout must be positive, got {self.drain_timeout}"
            )


class _Generation:
    """One immutable serving generation: collection + warm searcher.

    A request snapshots ``service._state`` once and works against that
    object for its whole lifetime, so a concurrent reload can swap the
    service's reference without ever changing state under a request.

    A generation is either in-memory (``collection`` materialized,
    optionally read from ``collection_path``) or store-backed
    (``store`` set: the collection is the store's lazy facade, strings
    hydrate through its bounded LRU, and features live in a bounded
    :class:`~repro.store.source.StoreContext`) — requests are agnostic
    to which.
    """

    def __init__(
        self,
        collection: "Sequence[UncertainString] | None",
        config: JoinConfig,
        generation: int,
        collection_path: "str | None" = None,
        store: Any = None,
        store_path: "str | None" = None,
    ) -> None:
        self.config = config
        self.generation = generation
        self.collection_path = collection_path
        self.store = store
        self.store_path = store_path
        if store is not None:
            self.searcher = SimilaritySearcher.from_store(store, config)
            lengths = store.lengths_in_visit_order()
            #: Length of the generation's longest string.
            self.longest = lengths[-1] if len(lengths) else 0
        else:
            assert collection is not None
            self.searcher = SimilaritySearcher(collection, config)
            self.longest = max(map(len, self.searcher.collection), default=0)
        self.collection: Sequence[UncertainString] = self.searcher.collection
        # The searcher's feature context (bounded for stores).
        self.context: CollectionContext = self.searcher.context
        # Exact twin of the searcher's chain for ranking work (top-k
        # needs exact probabilities); shares the feature context, so
        # profiles computed by either chain serve both.
        self.exact_chain = StageChain(
            config, force_exact=True, context=self.context
        )


def _pair_seed(seed: int, query_text: str, candidate_id: int) -> int:
    """Deterministic RNG seed for one degraded (query, candidate) pair."""
    digest = hashlib.sha256(
        f"{seed}|{candidate_id}|{query_text}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class JoinService:
    """Thread-safe query service over one (reloadable) collection.

    All methods return JSON-ready documents; failures inside a request
    surface as the typed error documents of
    :mod:`repro.serve.protocol`, raised exceptions are limited to
    programming errors. Construction is the expensive step (index
    build); requests share the warm state.
    """

    def __init__(
        self,
        collection: "Sequence[UncertainString] | None",
        config: JoinConfig,
        options: "ServeOptions | None" = None,
        collection_path: "str | None" = None,
        store: Any = None,
        store_path: "str | None" = None,
    ) -> None:
        # Serving is in-thread and serial per request: the banded
        # multiprocess driver's knobs don't apply here.
        self._config = replace(
            config, workers=1, checkpoint_dir=None, shard=None, fault_spec=None
        )
        self.options = options if options is not None else ServeOptions()
        if (store is None) == (collection is None):
            raise ConfigurationError(
                "JoinService needs exactly one of collection or store"
            )
        total = len(store) if store is not None else len(collection or ())
        self.stats = JoinStatistics(total_strings=total)
        self.draining = False
        self._swap_lock = threading.Lock()
        self._state = _Generation(
            collection,
            self._config,
            generation=0,
            collection_path=collection_path,
            store=store,
            store_path=store_path,
        )

    @classmethod
    def from_files(
        cls,
        collection_path: str,
        config: JoinConfig,
        options: "ServeOptions | None" = None,
    ) -> "JoinService":
        """Build a service from a collection file. A prebuilt index
        that restarts without re-segmenting is a store: see
        :meth:`from_store`."""
        return cls(
            load_collection(collection_path),
            config,
            options,
            collection_path=collection_path,
        )

    @classmethod
    def from_store(
        cls,
        store_path: str,
        config: JoinConfig,
        options: "ServeOptions | None" = None,
    ) -> "JoinService":
        """Serve out of a prebuilt SQLite index store (DESIGN.md §6i).

        Startup reads only the store header and the visit-order
        bookkeeping — no string is parsed until a request touches it —
        so serving a collection far larger than RAM starts in seconds
        and stays flat in memory. The store must have been built for
        the serving config's ``q``; its build k need not match, because
        the serving k and every request's k reuse the one index
        (:meth:`~repro.store.base.StoreMeta.check_compatible`). A
        mismatch fails construction with the same typed error an
        offline store join would raise.
        """
        from repro.store.sqlite import SqliteStore

        store = SqliteStore(store_path)
        return cls(None, config, options, store=store, store_path=store_path)

    @property
    def generation(self) -> int:
        """The serving generation (bumped by every successful reload)."""
        return self._state.generation

    @property
    def config(self) -> JoinConfig:
        """The (serialized-execution) serving configuration."""
        return self._config

    def __len__(self) -> int:
        return len(self._state.collection)

    # ------------------------------------------------------------------
    # request endpoints

    def search(
        self,
        query_text: str,
        tau: "float | None" = None,
        k: "int | None" = None,
        timeout: "float | None" = None,
    ) -> dict[str, Any]:
        """All collection strings similar to the query under (k, τ).

        Exact answers are byte-identical (through the wire encoding) to
        :meth:`SimilaritySearcher.search` offline; degraded and partial
        answers are flagged as such.
        """
        state = self._state
        self.stats.record("serve", "requests")
        try:
            query = _parse_query(query_text)
            request_config = _probe_config(state, query, tau, k)
        except ConfigurationError as exc:
            return error_document("bad_request", str(exc))
        deadline = self._deadline(timeout)
        matches: list[SearchMatch] = []

        def keep(
            candidate_id: int, probability: "float | None", sampled: bool
        ) -> None:
            matches.append(
                SearchMatch(candidate_id, None if sampled else probability)
            )

        degraded = False
        try:
            with deadline_scope(deadline):
                degraded = self._collect(
                    state, query, query_text, request_config,
                    lambda: request_config.tau, False, deadline, keep,
                )
        except DeadlineExceededError as exc:
            return self._deadline_error(
                exc, [match_document(m) for m in sorted(matches)]
            )
        matches.sort()
        return {
            "matches": [match_document(m) for m in matches],
            "count": len(matches),
            "tau": request_config.tau,
            "k": request_config.k,
            "algorithm": request_config.algorithm_name,
            "degraded": degraded,
            "generation": state.generation,
        }

    def topk(
        self,
        query_text: str,
        count: int,
        k: "int | None" = None,
        timeout: "float | None" = None,
    ) -> dict[str, Any]:
        """The ``count`` collection strings most probably similar.

        Adaptive-threshold ranking (the top-N join's τ ladder applied
        to one probe): τ starts at 0 and rises to the current N-th best
        probability, so every stage prunes against it. Exact mode ranks
        by exact probabilities; degraded mode ranks by the sampling
        estimate (flagged).
        """
        state = self._state
        self.stats.record("serve", "requests")
        if count <= 0:
            return error_document(
                "bad_request", f"count must be positive, got {count}"
            )
        try:
            query = _parse_query(query_text)
            request_config = _probe_config(state, query, None, k)
        except ConfigurationError as exc:
            return error_document("bad_request", str(exc))
        deadline = self._deadline(timeout)
        # Min-heap of (probability, candidate_id); heap[0] is the cut.
        best: list[tuple[float, int]] = []

        def current_tau() -> float:
            return best[0][0] if len(best) == count else 0.0

        def keep(
            candidate_id: int, probability: "float | None", sampled: bool
        ) -> None:
            # Exact mode ranks by exact probabilities, degraded mode by
            # the sampling estimate.
            if probability is not None:
                heapq.heappush(best, (probability, candidate_id))
                if len(best) > count:
                    heapq.heappop(best)

        degraded = False
        try:
            with deadline_scope(deadline):
                degraded = self._collect(
                    state, query, query_text, request_config,
                    current_tau, True, deadline, keep,
                )
        except DeadlineExceededError as exc:
            return self._deadline_error(exc, _topk_documents(best))
        return {
            "matches": _topk_documents(best),
            "count": len(best),
            "requested": count,
            "k": request_config.k,
            "algorithm": request_config.algorithm_name,
            "degraded": degraded,
            "generation": state.generation,
        }

    def mini_join(
        self,
        strings_text: Sequence[str],
        tau: "float | None" = None,
        k: "int | None" = None,
        timeout: "float | None" = None,
    ) -> dict[str, Any]:
        """Self-join the request's own strings under (k, τ).

        Runs the serial streaming engine over the request payload (ids
        are positions in the request list) — identical pairs to an
        offline ``repro-join join`` of the same strings. Bounded by the
        request deadline through the chain's cooperative check points;
        no sampling tier (the answer is pairs, not a racing scan, so
        expiry returns the partial pair list instead).
        """
        state = self._state
        self.stats.record("serve", "requests")
        try:
            strings = [_parse_query(text) for text in strings_text]
            request_config = _request_config(
                state.config, tau, k, max(map(len, strings), default=0)
            )
        except ConfigurationError as exc:
            return error_document("bad_request", str(exc))
        deadline = self._deadline(timeout)
        pairs: list[dict[str, Any]] = []
        try:
            with deadline_scope(deadline):
                for pair in JoinEngine(request_config, stats=self.stats).join(
                    visit_order(strings)
                ):
                    deadline.check()
                    pairs.append(
                        {
                            "left": pair.left_id,
                            "right": pair.right_id,
                            "probability": pair.probability,
                        }
                    )
        except DeadlineExceededError as exc:
            return self._deadline_error(exc, _sorted_pairs(pairs))
        return {
            "pairs": _sorted_pairs(pairs),
            "count": len(pairs),
            "tau": request_config.tau,
            "k": request_config.k,
            "algorithm": request_config.algorithm_name,
            "degraded": False,
            "generation": state.generation,
        }

    # ------------------------------------------------------------------
    # reload / introspection

    def reload(
        self,
        collection_path: "str | None" = None,
        store_path: "str | None" = None,
    ) -> dict[str, Any]:
        """Swap in a freshly built generation; keep the old one on failure.

        The new collection is read, indexed, and fully validated
        *before* the swap — requests keep hitting the old generation
        throughout, and the swap itself is one reference
        assignment, so there is no window where a request sees a
        half-built state. Every failure path returns a typed
        ``reload_failed`` document with the old generation intact.

        ``store_path`` reloads a store-backed service onto a new (or
        rebuilt) store file: the header and compatibility checks run
        against the *new* path while the old store keeps serving, and
        in-flight requests finish on the old generation's connections
        even after the swap. A store-backed service with no explicit
        path reuses its current store path — ``repro-join index build``
        replaces the file atomically, so re-opening the same path picks
        up the new contents. Passing both a collection and a store path
        is rejected; passing one or the other switches the service to
        that mode.
        """
        with self._swap_lock:
            old = self._state
            if collection_path is not None and store_path is not None:
                self.stats.record("serve", "reload_failed")
                return error_document(
                    "reload_failed",
                    "pass either a collection path or a store path, not both",
                    generation=old.generation,
                )
            want_store = store_path is not None or (
                collection_path is None and old.store_path is not None
            )
            source = (
                store_path or old.store_path
                if want_store
                else collection_path or old.collection_path
            )
            if source is None:
                self.stats.record("serve", "reload_failed")
                return error_document(
                    "reload_failed",
                    "service was built from an in-memory collection; "
                    "pass a collection path to reload",
                    generation=old.generation,
                )
            try:
                if want_store:
                    from repro.store.sqlite import SqliteStore

                    fresh = _Generation(
                        None,
                        self._config,
                        generation=old.generation + 1,
                        store=SqliteStore(source),
                        store_path=source,
                    )
                else:
                    fresh = _Generation(
                        load_collection(source),
                        self._config,
                        generation=old.generation + 1,
                        collection_path=source,
                    )
            except (ReproError, OSError) as exc:
                self.stats.record("serve", "reload_failed")
                return error_document(
                    "reload_failed",
                    f"{type(exc).__name__}: {exc}",
                    generation=old.generation,
                )
            self._state = fresh
            self.stats.total_strings = len(fresh.collection)
            self.stats.record("serve", "reloaded")
            return {
                "reloaded": True,
                "generation": fresh.generation,
                "strings": len(fresh.collection),
                "collection": fresh.collection_path,
                "store": fresh.store_path,
            }

    def status_document(self) -> dict[str, Any]:
        """The ``/stats`` payload: counters + serving-state snapshot."""
        state = self._state
        return {
            "generation": state.generation,
            "strings": len(state.collection),
            "algorithm": state.config.algorithm_name,
            "k": state.config.k,
            "tau": state.config.tau,
            "store": state.store_path,
            "draining": self.draining,
            "counters": self.stats.counter_report(),
        }

    # ------------------------------------------------------------------
    # internals

    def _deadline(self, timeout: "float | None") -> Deadline:
        """The request deadline: client ask, capped by the server cap."""
        cap = self.options.request_timeout
        if timeout is None:
            return Deadline(cap)
        return Deadline(min(timeout, cap))

    def _deadline_error(
        self, exc: DeadlineExceededError, partial: list[dict[str, Any]]
    ) -> dict[str, Any]:
        self.stats.record("serve", "deadline_exceeded")
        return error_document(
            "deadline_exceeded",
            str(exc),
            partial=True,
            matches=partial,
        )

    def _collect(
        self,
        state: _Generation,
        query: UncertainString,
        query_text: str,
        request_config: JoinConfig,
        tau: TauProvider,
        exact: bool,
        deadline: Deadline,
        keep: Callable[[int, "float | None", bool], None],
    ) -> bool:
        """Tiers 0/1 of the ladder over the generation's index.

        Candidates come from the engine's own probe step at the
        request's k; each similar one goes to ``keep(candidate_id,
        probability, sampled)`` as soon as it is decided, so partial
        results survive a hard expiry. ``exact`` refines to exact
        probabilities (ranking). Returns the degraded flag.
        """
        stats = self.stats
        engine = state.searcher.engine
        if request_config.k != state.config.k:
            chain = StageChain(
                request_config, force_exact=exact, context=state.context
            )
        else:
            chain = state.exact_chain if exact else engine.chain
        context = chain.context(QUERY_ID, query)
        degraded = False
        for candidate_id, upper, candidate in engine.candidates(
            query, tau(), stats, request_config.k
        ):
            deadline.check()
            if not degraded and self.options.degrade_margin > 0:
                if deadline.under_pressure(self.options.degrade_margin):
                    degraded = True
                    stats.record("serve", "degraded")
            if degraded:
                decision = self._sampled(
                    query, query_text, candidate, candidate_id,
                    request_config.k, tau(),
                )
                if decision.similar:
                    keep(candidate_id, decision.estimate, True)
            else:
                similar, probability = chain.refine(
                    context, candidate_id, candidate, tau, stats, upper
                )
                if similar:
                    keep(candidate_id, probability, False)
        return degraded

    def _sampled(
        self,
        query: UncertainString,
        query_text: str,
        candidate: UncertainString,
        candidate_id: int,
        k: int,
        tau: float,
    ) -> Any:
        """One degraded-tier verification (deterministic per-pair RNG)."""
        self.stats.record("serve", "sampled")
        return sampled_verify_threshold(
            query,
            candidate,
            k,
            tau,
            delta=self.options.degrade_delta,
            max_samples=self.options.degrade_max_samples,
            rng=_pair_seed(self.options.sampling_seed, query_text, candidate_id),
        )


def _parse_query(text: str) -> UncertainString:
    """Parse request notation, folding syntax errors into bad_request."""
    try:
        return parse_uncertain(text)
    except UncertainStringSyntaxError as exc:
        raise ConfigurationError(f"bad uncertain string {text!r}: {exc}") from exc


def _request_config(
    base: JoinConfig,
    tau: "float | None",
    k: "int | None",
    longest: int,
) -> JoinConfig:
    """``base`` specialized to one request's τ/k (validation included).

    ``longest`` is the longest string the request can touch: at that k
    every length-eligible pair is already similar, and a larger k only
    makes each bound allocate more rows.
    """
    config = base if tau is None else base.with_tau(tau)
    if k is None:
        return config
    if k > longest:
        raise ConfigurationError(
            f"k must be at most {longest}, the longest string this "
            f"request can touch (a larger k has the same answer), got {k}"
        )
    return replace(config, k=k)


def _probe_config(
    state: _Generation,
    query: UncertainString,
    tau: "float | None",
    k: "int | None",
) -> JoinConfig:
    """The config of a search or top-k request, which probes the
    generation's index: a selection that needs the index's own k needs
    the serving k (a store's build k is checked against it at load)."""
    config = _request_config(
        state.config, tau, k, max(len(query), state.longest)
    )
    if not config.can_probe_index(state.config.k):
        raise ConfigurationError(
            f"{config.selection} selection answers only the index's "
            f"k={state.config.k}, got k={k}"
        )
    return config


def _topk_documents(best: list[tuple[float, int]]) -> list[dict[str, Any]]:
    """Heap contents as ranked wire documents (probability desc)."""
    return [
        {"id": candidate_id, "probability": probability}
        for probability, candidate_id in sorted(best, reverse=True)
    ]


def _sorted_pairs(pairs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return sorted(pairs, key=lambda p: (p["left"], p["right"]))

