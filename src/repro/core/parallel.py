"""Length-banded parallel join drivers.

The Pass-Join-style partition scheme makes length bands naturally
shard-able: a pair ``(R, S)`` can survive the length filter only when
``||R| - |S|| <= k``, so disjoint contiguous length ranges — each
extended by a k-wide *halo* of the next-longer strings — can be joined
independently and their results concatenated. MinJoin exploits the same
observation to parallelize edit-similarity joins; here each band runs
the ordinary sequential driver of :mod:`repro.core.join` /
:mod:`repro.core.join_two` under the fault-tolerant band executor
(:mod:`repro.core.executor`): one future per band, per-band
timeout/retries with in-process degradation, and optional atomic
checkpointing so a killed run resumes instead of restarting.

**Ownership rule** (every pair produced exactly once): a pair belongs to
the band that owns its *shorter* string, ties broken by the smaller id.
A band's task set is its owned strings plus the halo — strings whose
length is in ``(high, high + k]``. Pairs whose shorter string falls in
the halo are discarded by the band: the next band owns them. Ties in
length never straddle a band boundary because bands are unions of whole
length groups.

The merged pair list is *identical* to the serial driver's, including
reported probabilities: within a band, strings keep their global
(length, id) visit order, so each pair is refined with the same query /
candidate orientation — and therefore the same floats — as in the
serial loop. Bands are also *deterministic*, which is what makes them
sound units of retry and resume: re-running a band can only reproduce
the same pairs.

The R×S join shards the same way over the indexed (right) collection;
there each pair has exactly one right string, so band ownership of the
right string makes pairs unique without a discard step.

Both drivers run one scaffold: plan, take the shard's slice (the whole
plan when not sharded), open the checkpoint, publish shared state,
:func:`~repro.core.executor.run_bands`, and
:func:`~repro.core.checkpoint.fold_bands`. A driver supplies only its
lengths and halo, fingerprint kind and content, what it publishes, its
band task and payload fields, and its serial fallback.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core import executor
from repro.core.checkpoint import (
    CheckpointStore,
    ShardCheckpointStore,
    fold_bands,
)
from repro.core.config import JoinConfig, shard_slice
from repro.core.context import CollectionContext
from repro.core.errors import ConfigurationError
from repro.core.executor import BandTask, RetryPolicy
from repro.core.join import similarity_join
from repro.core.join_two import probe_join, similarity_join_two
from repro.core.results import JoinOutcome, JoinPair
from repro.core.search import SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.uncertain.parser import format_uncertain
from repro.uncertain.string import UncertainString
from repro.util.faults import FaultPlan

#: Below this many strings the banding and process-spawn overhead cannot
#: pay for itself; the drivers fall back to the serial path. Tests and
#: callers that want banding regardless pass ``min_parallel=0``.
MIN_PARALLEL_STRINGS = 64


@dataclass(frozen=True)
class LengthBand:
    """One shard of a length-banded join.

    ``low``/``high`` delimit the *owned* length range; ``member_ids``
    holds the ids (ascending) of every string the band's task must see —
    owned strings plus the k-wide halo ``(high, high + k]``.
    """

    index: int
    low: int
    high: int
    member_ids: tuple[int, ...]

    def owns_length(self, length: int) -> bool:
        """Whether a string of ``length`` is owned (not halo) here."""
        return self.low <= length <= self.high


def plan_length_bands(
    lengths: Sequence[int], workers: int, k: int
) -> list[LengthBand]:
    """Partition string lengths into at most ``workers`` contiguous bands.

    Whole length groups are assigned greedily so each band owns roughly
    ``len(lengths) / workers`` strings (quantile split over the sorted
    distinct lengths). Because a band is a union of complete length
    groups, two strings of equal length always share a band — the
    ownership tie-break by id therefore never crosses a band boundary.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    counts: dict[int, int] = {}
    for length in lengths:
        counts[length] = counts.get(length, 0) + 1
    distinct = sorted(counts)
    if not distinct:
        return []
    total = len(lengths)
    bounds: list[tuple[int, int]] = []
    band_low = distinct[0]
    accumulated = 0
    for position, length in enumerate(distinct):
        accumulated += counts[length]
        if position == len(distinct) - 1:
            bounds.append((band_low, length))
            break
        share = (len(bounds) + 1) * total / workers
        if accumulated >= share and len(bounds) < workers - 1:
            bounds.append((band_low, length))
            band_low = distinct[position + 1]
    bands = []
    for index, (low, high) in enumerate(bounds):
        member_ids = tuple(
            string_id
            for string_id, length in enumerate(lengths)
            if low <= length <= high + k
        )
        bands.append(LengthBand(index, low, high, member_ids))
    return bands


# ----------------------------------------------------------------------
# fork-shared worker state
# ----------------------------------------------------------------------

#: Per-process shared join state: ``(token, collections, contexts)``.
#: The parent publishes it before dispatch; band payloads then carry
#: only id lists + config. Fork workers inherit this module global for
#: free; spawn/forkserver workers receive it exactly once through the
#: pool initializer (one pickle per *worker*, not per band).
_SHARED: "tuple[int, tuple[Any, ...], tuple[Any, ...]] | None" = None

#: Monotone tokens so a stale band task can never silently read the
#: state of a different join running in the same process.
_TOKENS = itertools.count(1)


def _publish_shared(
    token: int, collections: tuple[Any, ...], contexts: tuple[Any, ...]
) -> None:
    global _SHARED
    _SHARED = (token, collections, contexts)


def _worker_init(
    token: int, state: "tuple[tuple[Any, ...], tuple[Any, ...]] | None"
) -> None:
    """Pool initializer: adopt the parent's shared collection state.

    Under the ``fork`` start method the module global is inherited at
    fork time and ``state`` is ``None``; under ``spawn``/``forkserver``
    the collections and feature contexts arrive here, pickled once per
    worker process.
    """
    if state is not None:
        _publish_shared(token, *state)


def _shared_state(token: int) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
    if _SHARED is None or _SHARED[0] != token:
        have = _SHARED[0] if _SHARED is not None else None
        raise RuntimeError(
            "band task ran without its shared collection state "
            f"(want token {token}, have {have})"
        )
    return _SHARED[1], _SHARED[2]


def _pool_publication(
    token: int,
    collections: tuple[Any, ...],
    contexts: tuple[Any, ...],
    mp_start: "str | None",
) -> dict[str, Any]:
    """Publish shared state in-parent; return pool kwargs for run_bands.

    The in-process execution paths (``workers=1``, retry degradation)
    read the parent's module global directly; pool workers get it via
    fork inheritance or the initializer, never per band.
    """
    _publish_shared(token, collections, contexts)
    method = mp_start or multiprocessing.get_start_method()
    state = None if method == "fork" else (collections, contexts)
    return {
        "initializer": _worker_init,
        "initargs": (token, state),
        "mp_context": (
            None if mp_start is None else multiprocessing.get_context(mp_start)
        ),
    }


# ----------------------------------------------------------------------
# band tasks (module-level so ProcessPoolExecutor can pickle them)
# ----------------------------------------------------------------------


def _self_join_band(
    payload: tuple[int, int, tuple[int, ...], int, JoinConfig],
) -> tuple[int, list[JoinPair], JoinStatistics]:
    """Join one band's task set; keep only the pairs the band owns.

    The payload carries only ``(band, token, ids, owned_high, config)``
    — strings and per-string features come from the process-shared
    state, so nothing string-sized is pickled per band. Task strings
    are resolved in ascending original-id order, so local ids preserve
    the global (length, id) visit order and every kept pair is refined
    exactly as the serial driver would refine it.

    Halo strings (length above ``owned_high``) are probe-only: capping
    the engine's index at the owned length keeps halo×halo pairs — which
    the next band owns and this band would discard anyway — from ever
    being generated, instead of evaluating them through the full filter
    chain first. Owned×halo pairs are unaffected: every owned string
    precedes every halo string in the (length, id) visit order, so it is
    already indexed when the halo string probes.
    """
    band_index, token, original_ids, owned_high, config = payload
    (collection,), (context,) = _shared_state(token)
    # Store-backed collections expose bulk hydration: one batched read
    # for the band instead of per-string cache misses.
    take = getattr(collection, "take", None)
    strings = (
        list(take(original_ids))
        if take is not None
        else [collection[string_id] for string_id in original_ids]
    )
    outcome = similarity_join(
        strings,
        config,
        context=context.subcontext(original_ids),
        index_length_cap=owned_high,
    )
    kept: list[JoinPair] = []
    for pair in outcome.pairs:
        left_len = len(strings[pair.left_id])
        right_len = len(strings[pair.right_id])
        # Owner: shorter string, ties by smaller (local == original) id.
        owner_length = min(
            (left_len, pair.left_id), (right_len, pair.right_id)
        )[0]
        if owner_length <= owned_high:
            kept.append(
                JoinPair(
                    original_ids[pair.left_id],
                    original_ids[pair.right_id],
                    pair.probability,
                )
            )
    return band_index, kept, outcome.stats


def _two_join_band(
    payload: tuple[int, int, tuple[int, ...], tuple[int, ...], JoinConfig],
) -> tuple[int, list[JoinPair], JoinStatistics]:
    """R×S band task: probe the owned right band with eligible left strings.

    Left strings probe as transient queries (their features stay
    probe-local), so only the indexed right band takes a feature
    subcontext from the shared state.
    """
    band_index, token, left_ids, right_ids, config = payload
    (left, right), (right_context,) = _shared_state(token)
    left_strings = [left[left_id] for left_id in left_ids]
    right_strings = [right[right_id] for right_id in right_ids]
    searcher = SimilaritySearcher(
        right_strings, config, context=right_context.subcontext(right_ids)
    )
    outcome = probe_join(
        searcher, left_strings, len(left_strings) + len(right_strings)
    )
    pairs = [
        JoinPair(left_ids[pair.left_id], right_ids[pair.right_id], pair.probability)
        for pair in outcome.pairs
    ]
    return band_index, pairs, outcome.stats


# ----------------------------------------------------------------------
# the banded run
# ----------------------------------------------------------------------


def _join_fingerprint(
    kind: str,
    config: JoinConfig,
    bands: Sequence[LengthBand],
    content: Iterable[bytes],
) -> str:
    """Digest identifying one join run for checkpoint compatibility.

    Covers the input ``content``, every result-affecting config knob,
    and the band plan — resuming with a different ``--workers`` (hence
    a different plan) must be rejected. Runtime-only knobs (retries,
    timeouts, fault injection) are deliberately excluded: they cannot
    change the output.
    """
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    knobs = (
        config.k,
        config.tau,
        config.q,
        config.filters,
        config.verification,
        config.selection,
        config.group_mode,
        config.bound_mode,
        config.report_probabilities,
        config.early_stop_verification,
    )
    digest.update(repr(knobs).encode("utf-8"))
    plan = [(band.low, band.high, band.member_ids) for band in bands]
    digest.update(repr(plan).encode("utf-8"))
    for chunk in content:
        digest.update(chunk)
    return digest.hexdigest()


def _collection_content(
    *collections: Sequence[UncertainString],
) -> Iterator[bytes]:
    """Fingerprint content of in-memory inputs: the exact distributions
    (every string at 17 significant digits), one collection after the
    other. Lazy, so a run without checkpointing never serializes."""
    for collection in collections:
        for string in collection:
            yield format_uncertain(string, precision=17).encode("utf-8") + b"\n"
        yield b"\x00"


def _open_checkpoint(
    config: JoinConfig,
    fingerprint: Callable[[], str],
    bands: Sequence[LengthBand],
    owned: range,
    strings: int,
) -> "CheckpointStore | None":
    """Open the run's checkpoint store (``None`` without a run dir).

    Flat layout for plain checkpointed runs; partitioned
    (:class:`ShardCheckpointStore`) in shard mode — then the shared
    ``run.json`` additionally pins the shard count and input size, and
    this shard's manifest records its ``owned`` band indices.
    A zero-band plan (empty input) still opens the directory, so its
    merge finds a manifest. ``fingerprint`` is only called when there
    is a run directory to check it against.
    """
    run_dir = config.checkpoint_dir
    if run_dir is None:
        return None
    shard = config.shard_coordinates
    if shard is None:
        store = CheckpointStore(run_dir)
        store.open(fingerprint(), len(bands), strings=strings)
        return store
    shard_store = ShardCheckpointStore(run_dir, *shard)
    shard_store.open_shard(
        fingerprint(), len(bands), list(owned), strings=strings
    )
    return shard_store


#: What a driver publishes to its band tasks, built from the bands this
#: run owns: ``(collections, feature contexts)`` for the shared state.
_Publish = Callable[
    [Sequence[LengthBand], JoinStatistics],
    tuple[tuple[Any, ...], tuple[Any, ...]],
]


def _run_banded(
    config: JoinConfig,
    *,
    kind: str,
    content: Iterable[bytes],
    lengths: Sequence[int],
    halo: int,
    strings: int,
    publish: _Publish,
    band_fields: Callable[[LengthBand], tuple[Any, Any]],
    task: BandTask,
    serial: Callable[[JoinConfig], JoinOutcome],
    use_processes: bool,
    min_parallel: int,
    policy: RetryPolicy | None,
) -> JoinOutcome:
    """The one banded run both drivers share.

    Plans ``config.workers × N`` bands over ``lengths`` (``N`` = shard
    count, 1 when not sharded) with a ``halo``-wide overlap, takes this
    run's slice of them, opens the checkpoint, publishes the shared
    state for the owned bands, executes them under
    :func:`~repro.core.executor.run_bands` and folds the results. Band
    payloads are ``(band index, token, *band_fields(band), config)``.

    Without a run directory, small inputs (``strings < min_parallel``),
    ``workers == 1`` and single-band plans take ``serial`` instead.
    With one, every run goes through the bands — even a zero-band plan
    over empty input — so the directory always holds a mergeable run.
    """
    serial_config = replace(
        config,
        workers=1,
        checkpoint_dir=None,
        fault_spec=None,
        shard=None,
        mp_start=None,
    )
    checkpointing = config.checkpoint_dir is not None
    if not checkpointing and (config.workers <= 1 or strings < min_parallel):
        return serial(serial_config)
    # Every shard plans the full run: `workers` bands per shard, so the
    # plan (and the fingerprint over it) is a function of (input, k,
    # workers, N) that all N invocations and the merge agree on.
    shard = config.shard_coordinates
    plan_workers = config.workers * (shard[1] if shard is not None else 1)
    bands = plan_length_bands(lengths, plan_workers, halo)
    if not checkpointing and len(bands) <= 1:
        return serial(serial_config)
    if policy is None:
        policy = RetryPolicy(
            retries=config.retries, timeout=config.band_timeout
        )
    faults = FaultPlan.from_spec(config.fault_spec)
    owned = range(len(bands))
    if shard is not None:
        owned = shard_slice(len(bands), *shard)
        # `crash@s1:2` specs fire only inside shard 1; band indices
        # stay global.
        faults = faults.narrowed(shard[0])
    owned_bands = [bands[position] for position in owned]

    checkpoint = _open_checkpoint(
        config,
        lambda: _join_fingerprint(kind, config, bands, content),
        bands,
        owned,
        strings,
    )
    stats = JoinStatistics(total_strings=strings)
    total_timer = stats.timer("total").start()
    token = next(_TOKENS)
    collections, contexts = publish(owned_bands, stats)
    pool_kwargs = _pool_publication(
        token, collections, contexts, config.mp_start
    )
    payloads = [
        (band.index, (band.index, token, *band_fields(band), serial_config))
        for band in owned_bands
    ]
    if shard is not None:
        stats.record("shard", "owned", len(payloads))
    results = executor.run_bands(
        task,
        payloads,
        workers=config.workers if use_processes else 1,
        policy=policy,
        stats=stats,
        faults=faults,
        checkpoint=checkpoint,
        **pool_kwargs,
    )
    outcome = fold_bands(results, stats)
    total_timer.stop()
    return outcome


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def _needed_ids(
    bands: Iterable[LengthBand], ids: Callable[[LengthBand], Iterable[int]]
) -> list[int]:
    """Sorted union of ``ids(band)`` over ``bands``: what they touch."""
    return sorted({string_id for band in bands for string_id in ids(band)})


def _publish_collection(
    collection: Sequence[UncertainString],
    config: JoinConfig,
    owned: Sequence[LengthBand],
    stats: JoinStatistics,
) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
    """What an in-memory collection publishes to its band tasks (the
    R×S join's right side too): the strings its owned bands touch
    (members + halo) and their features, computed once in the parent.

    A shard thus publishes only its part, so its memory footprint
    tracks the shard, not the whole collection. Band tasks index the
    shared strings by global id, so a dict keyed by the needed ids
    stands in for the collection.
    """
    needed = _needed_ids(owned, lambda band: band.member_ids)
    with stats.timer("features"):
        context = CollectionContext.for_ids(
            collection, needed, build_profiles=config.uses_frequency
        )
    shared = {string_id: collection[string_id] for string_id in needed}
    return (shared,), (context,)


def _publish_store(
    store: Any, owned: Sequence[LengthBand], stats: JoinStatistics
) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
    """What a store-backed self-join publishes: one shared store for
    every band, worker, and shard, whatever the plan. The collection
    pickles as the store path, and band tasks bulk-hydrate their
    members through :meth:`~repro.store.source.StoreCollection.take`.
    Features are built in-band (band-sized), so the published context
    stays empty and nothing is timed here.
    """
    from repro.store.source import StoreCollection

    return (StoreCollection(store),), (CollectionContext(),)


def parallel_similarity_join(
    collection: "Sequence[UncertainString] | None",
    config: JoinConfig,
    use_processes: bool = True,
    min_parallel: int = MIN_PARALLEL_STRINGS,
    *,
    policy: RetryPolicy | None = None,
    store: Any = None,
) -> JoinOutcome:
    """Length-banded parallel self-join under the fault-tolerant executor.

    Shards the collection into ``config.workers`` contiguous length
    bands plus k-wide halos, joins each band with the serial driver, and
    deterministically merges pairs and statistics. The pair list —
    including probabilities — is identical to
    :func:`repro.core.join.similarity_join` on every input, with or
    without injected faults, retries, or a resumed checkpoint.

    The input is exactly one of ``collection`` and ``store`` (an
    :class:`~repro.store.base.IndexStore`; pass ``collection=None``).
    An in-memory collection's per-string features (frequency profiles,
    support alphabets, certainty fast-path data) are computed once here
    in the parent and published to every worker as process-shared
    state; a store is published as its path, and each band hydrates and
    featurizes just its members. Either way band payloads ship only id
    lists and the config, so no string or profile is pickled per band.
    Store runs plan from the store's length bookkeeping and fingerprint
    the store's content digest, so neither hydrates the collection.

    Execution settings come from ``config``: ``retries``/``band_timeout``
    (unless ``policy`` is given), ``fault_spec``, ``mp_start``, and
    ``checkpoint_dir``. With a run directory, completed bands are
    atomically persisted there and a re-run over the same inputs loads
    them instead of recomputing (the serial fast paths are skipped so
    every run of a checkpointed join goes through the bands).

    ``use_processes=False`` runs the band tasks in-process (same sharded
    code path, retry/fault semantics, and results; no pool); inputs
    smaller than ``min_parallel`` or yielding a single band take the
    serial driver directly unless checkpointing is on. Results are
    identical under every start method.

    With ``config.shard = "i/N"`` the run executes only shard ``i``'s
    contiguous slice of an ``N × workers``-band plan, persists it under
    ``checkpoint_dir/shard-i/``, and publishes/features only the strings
    that slice can touch; the returned outcome holds just this shard's
    pairs — :func:`repro.core.merge.merge_run` folds the N shard
    directories into the full, serial-identical result.
    """
    if (collection is None) == (store is None):
        raise ConfigurationError(
            "parallel_similarity_join needs exactly one of collection or store"
        )
    serial: Callable[[JoinConfig], JoinOutcome]
    publish: _Publish
    content: Iterable[bytes]
    if store is not None:
        from repro.store.driver import _serial_store_join

        store.meta.check_compatible(config)
        lengths = [0] * len(store)
        for string_id, length in zip(
            store.ids_in_visit_order(), store.lengths_in_visit_order()
        ):
            lengths[string_id] = length
        serial = partial(_serial_store_join, store)
        publish = partial(_publish_store, store)
        # The store's digest already hashes the exact serialized
        # strings. The ``store:`` prefix keeps store and in-memory
        # checkpoints from resuming each other: same output, different
        # provenance.
        kind = "store:self"
        content = (store.meta.digest.encode("utf-8"),)
    else:
        assert collection is not None
        lengths = [len(string) for string in collection]
        serial = partial(similarity_join, collection)
        publish = partial(_publish_collection, collection, config)
        kind = "self"
        content = _collection_content(collection)
    return _run_banded(
        config,
        kind=kind,
        content=content,
        lengths=lengths,
        halo=config.k,
        strings=len(lengths),
        publish=publish,
        band_fields=lambda band: (band.member_ids, band.high),
        task=_self_join_band,
        serial=serial,
        use_processes=use_processes,
        min_parallel=min_parallel,
        policy=policy,
    )


def parallel_similarity_join_two(
    left: Sequence[UncertainString],
    right: Sequence[UncertainString],
    config: JoinConfig,
    use_processes: bool = True,
    min_parallel: int = MIN_PARALLEL_STRINGS,
    *,
    policy: RetryPolicy | None = None,
) -> JoinOutcome:
    """Length-banded parallel R×S join under the fault-tolerant executor.

    The right (indexed) collection is sharded into contiguous length
    bands; each task indexes one band and probes it with the left
    strings whose length is within ``k`` of the band's owned range.
    Every right string lives in exactly one band, so each pair is
    produced exactly once and the merged, sorted pair list is identical
    to :func:`repro.core.join_two.similarity_join_two`. Execution
    settings, sharding, and worker-state publication behave exactly as
    in :func:`parallel_similarity_join`; only the right collection gets
    a shared feature context (left strings probe as transient queries).
    A resumed run re-indexes only the bands without a checkpoint.
    """
    left_lengths = [len(string) for string in left]

    def eligible(band: LengthBand) -> tuple[int, ...]:
        return tuple(
            left_id
            for left_id, length in enumerate(left_lengths)
            if band.low - config.k <= length <= band.high + config.k
        )

    def publish(
        owned: Sequence[LengthBand], stats: JoinStatistics
    ) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        (shared_right,), contexts = _publish_collection(
            right, config, owned, stats
        )
        shared_left = {
            left_id: left[left_id] for left_id in _needed_ids(owned, eligible)
        }
        return (shared_left, shared_right), contexts

    return _run_banded(
        config,
        kind="two",
        content=_collection_content(left, right),
        # With no left string to probe, no band has work: an empty plan.
        lengths=[len(string) for string in right] if left else [],
        halo=0,
        strings=len(left) + len(right),
        publish=publish,
        band_fields=lambda band: (eligible(band), band.member_ids),
        task=_two_join_band,
        serial=partial(similarity_join_two, left, right),
        use_processes=use_processes,
        min_parallel=min_parallel,
        policy=policy,
    )
