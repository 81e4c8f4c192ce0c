"""R-S join over two distinct collections.

The paper focuses on the self-join "without loss of generality"
(Section 1); this module supplies the general form: all pairs
``(R in left, S in right)`` with ``Pr(ed(R, S) <= k) > tau``. The right
collection is indexed once in a :class:`~repro.core.search.SimilaritySearcher`
(one persistent :class:`~repro.core.engine.JoinEngine`); each left
string probes it exactly like a search query, so the machinery and
guarantees are identical to the self-join's.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import JoinConfig
from repro.core.context import CollectionContext
from repro.core.results import JoinOutcome, JoinPair
from repro.core.search import SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.uncertain.string import UncertainString


def similarity_join_two(
    left: Sequence[UncertainString],
    right: Sequence[UncertainString],
    config: JoinConfig,
    context: CollectionContext | None = None,
) -> JoinOutcome:
    """All cross-collection pairs satisfying (k, τ)-matching.

    Result pairs carry ``left_id`` from ``left`` and ``right_id`` from
    ``right`` (no ordering constraint between the two id spaces).

    With ``config.workers > 1`` or a ``config.checkpoint_dir`` set the
    right collection is sharded into length bands by
    :mod:`repro.core.parallel` and run under the fault-tolerant band
    executor; the pair list is identical either way. In shard mode
    (``config.shard``) the outcome holds only that shard's pairs —
    :func:`repro.core.merge.merge_run` folds the shards.

    ``context`` optionally supplies precomputed per-string features for
    the indexed (right) collection, keyed by position in ``right`` —
    the parallel band driver passes each band's slice of the parent's
    shared :class:`CollectionContext` here. Left strings probe as
    transient queries, so their features stay probe-local.
    """
    if config.workers > 1 or config.checkpoint_dir is not None:
        from repro.core.parallel import parallel_similarity_join_two

        return parallel_similarity_join_two(left, right, config)
    searcher = SimilaritySearcher(right, config, context=context)
    return probe_join(searcher, left, len(left) + len(right))


def probe_join(
    searcher: SimilaritySearcher,
    left: Sequence[UncertainString],
    total_strings: int,
) -> JoinOutcome:
    """Probe a prebuilt searcher with every left string — the R×S core.

    Split out of :func:`similarity_join_two` so callers that construct
    the searcher themselves (the parallel band task, which indexes one
    right band under a shared feature context) run the *same* probe
    loop and stats recording, keeping results byte-identical to the
    plain path.
    """
    totals = JoinStatistics(total_strings=total_strings)
    pairs: list[JoinPair] = []
    with totals.timer("total"):
        for left_id, query in enumerate(left):
            for match in searcher.iter_matches(query, stats=totals):
                pairs.append(
                    JoinPair(left_id, match.string_id, match.probability)
                )
    totals.result_pairs = len(pairs)
    pairs.sort()
    return JoinOutcome(pairs=pairs, stats=totals)
