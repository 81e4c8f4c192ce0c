"""Out-of-core join drivers over an :class:`~repro.store.base.IndexStore`.

The store-backed counterparts of :func:`repro.core.join.similarity_join`.
Same pairs, same probabilities — the differences are purely about what
is resident: the serial path walks the store's recorded (length, id)
visit order, reading its strings in rank blocks, hydrates candidates
through the engine's bounded LRU, and probes prebuilt postings instead
of building an index, so peak RSS tracks the cache capacity, not the
collection. Banded and checkpointed runs go through
:func:`repro.core.parallel.parallel_similarity_join` with ``store=``.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import JoinConfig
from repro.core.engine import JoinEngine
from repro.core.parallel import parallel_similarity_join
from repro.core.results import JoinOutcome, JoinPair
from repro.core.stats import JoinStatistics
from repro.store.base import IndexStore
from repro.store.source import StoreCollection


def iter_store_join_pairs(
    store: IndexStore,
    config: JoinConfig,
    stats: "JoinStatistics | None" = None,
) -> Iterator[JoinPair]:
    """Stream self-join pairs out of a store in discovery order.

    The store-backed twin of :func:`repro.core.engine.iter_join_pairs`:
    one serial engine walking the store's recorded visit order, strings
    read in rank blocks — the pair stream is identical to the in-memory
    stream over the same collection.
    """
    engine = JoinEngine(config, stats=stats, store=store)
    return engine.join(StoreCollection(store).visits())


def _serial_store_join(store: IndexStore, config: JoinConfig) -> JoinOutcome:
    stats = JoinStatistics(total_strings=len(store))
    pairs: list[JoinPair] = []
    with stats.timer("total"):
        pairs.extend(iter_store_join_pairs(store, config, stats=stats))
    stats.result_pairs = len(pairs)
    pairs.sort()
    return JoinOutcome(pairs=pairs, stats=stats)


def store_similarity_join(
    store: IndexStore, config: JoinConfig
) -> JoinOutcome:
    """Self-join the store's collection; pairs identical to the in-memory
    :func:`~repro.core.join.similarity_join` of the same collection.

    ``config`` routes exactly as in the in-memory driver: ``workers``
    and ``checkpoint_dir``/``shard`` select the banded parallel path,
    everything else runs the serial visit loop. The store must have
    been built for the config's ``q``
    (:meth:`~repro.store.base.StoreMeta.check_compatible`).
    """
    if config.workers > 1 or config.checkpoint_dir is not None:
        return parallel_similarity_join(None, config, store=store)
    return _serial_store_join(store, config)

