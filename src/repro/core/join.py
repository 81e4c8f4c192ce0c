"""The self-join driver (Section 4).

A thin adapter over :class:`repro.core.engine.JoinEngine`: the engine
owns visit order (ascending length, ties by id), candidate generation
against already-visited strings, refinement, and statistics; this module
only collects the streamed pairs, sorts them, and wraps the outcome.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext
from repro.core.engine import JoinEngine, visit_order
from repro.core.results import JoinOutcome, JoinPair
from repro.core.stats import JoinStatistics
from repro.uncertain.string import UncertainString


def similarity_join(
    collection: Sequence[UncertainString],
    config: JoinConfig,
    context: CollectionContext | None = None,
    index_length_cap: int | None = None,
) -> JoinOutcome:
    """All pairs ``(i, j)`` with ``Pr(ed(S_i, S_j) <= k) > tau``.

    Returns a :class:`JoinOutcome` whose pairs are keyed by positions in
    ``collection`` (``left_id < right_id``) and whose stats carry the
    per-stage counters/timers the benchmarks report. For pair-by-pair
    consumption use :func:`repro.core.engine.iter_join_pairs`.

    With ``config.workers > 1`` or a ``config.checkpoint_dir`` set the
    work is delegated to the length-banded parallel driver
    (:mod:`repro.core.parallel`), which runs its bands — all of them,
    or one ``--shard`` slice — in-process or on a process pool under
    the fault-tolerant band executor's retries, timeouts, and
    checkpoint/resume; the pair list is identical either way. In
    shard mode (``config.shard``) the outcome holds only that shard's
    pairs — :func:`repro.core.merge.merge_run` folds the shards.

    ``context`` optionally supplies precomputed per-string features
    (profiles, support alphabets, certainty flags) keyed by position in
    ``collection`` — the parallel band driver passes each band's slice
    of the parent's shared :class:`CollectionContext` here.

    ``index_length_cap`` (serial path only) marks strings longer than
    the cap probe-only — see :meth:`JoinEngine.join`. The band driver
    caps at its owned length so halo strings pair with owned strings
    but never with each other.
    """
    if config.workers > 1 or config.checkpoint_dir is not None:
        from repro.core.parallel import parallel_similarity_join

        return parallel_similarity_join(collection, config)
    stats = JoinStatistics(total_strings=len(collection))
    engine = JoinEngine(config, stats=stats, context=context)
    pairs: list[JoinPair] = []
    with stats.timer("total"):
        pairs.extend(
            engine.join(
                visit_order(collection), index_length_cap=index_length_cap
            )
        )
    stats.result_pairs = len(pairs)
    pairs.sort()
    return JoinOutcome(pairs=pairs, stats=stats)
