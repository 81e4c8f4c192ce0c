"""Top-N similarity join: the N most probably similar pairs.

A (k, τ)-join needs a τ; when the right value is unknown, analysts often
want "the N most likely duplicates" instead. This adapter runs the
ordinary :class:`~repro.core.engine.JoinEngine` with an *adaptive*
:data:`~repro.core.pipeline.TauProvider`: τ starts at 0 and rises to the
N-th best probability found so far, so every stage — the index probe
(Theorem 2), frequency distance (Theorem 3), CDF bounds, and the
source's plumbed upper bound — prunes against a monotonically tightening
τ. Exactly the pruning logic the fixed-τ proof gives, applied to a
growing bound; no stage logic is duplicated here.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.core.config import JoinConfig
from repro.core.engine import JoinEngine, visit_order
from repro.core.results import JoinOutcome, JoinPair
from repro.core.stats import JoinStatistics
from repro.uncertain.string import UncertainString


def top_k_join(
    collection: "Sequence[UncertainString] | None",
    k: int,
    count: int,
    q: int = 3,
    config: JoinConfig | None = None,
    *,
    store: Any = None,
) -> JoinOutcome:
    """The ``count`` pairs with the highest ``Pr(ed <= k)`` (all > 0).

    Ties at the cut-off are broken arbitrarily. ``config`` may override
    pipeline knobs — including ``verification`` — with two caveats:
    ``tau`` is ignored (the threshold is adaptive), and every reported
    pair always carries its exact probability (ranking requires it), so
    ``report_probabilities=False`` is promoted to exact verification
    rather than skipping it. ``workers`` must be 1: the adaptive
    threshold makes the visit loop inherently sequential.

    ``store`` runs the same adaptive loop out of core over a prebuilt
    :class:`~repro.store.base.IndexStore` (pass ``collection=None``):
    identical pairs, bounded memory.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if (store is None) == (collection is None):
        raise ValueError(
            "top_k_join needs exactly one of collection or store"
        )
    base = config if config is not None else JoinConfig(k=k, tau=0.0, q=q)
    if base.k != k or base.q != q:
        raise ValueError("config.k / config.q must match the k / q arguments")
    if base.workers != 1:
        raise ValueError(
            "top_k_join does not support config.workers > 1: the adaptive "
            "threshold is shared mutable state across the visit loop, so "
            f"the join is inherently sequential (got workers={base.workers})"
        )

    visits: Iterable[tuple[int, UncertainString]]
    if store is not None:
        from repro.store.source import StoreCollection

        total = len(store)
        visits = StoreCollection(store).visits()
    else:
        assert collection is not None
        total = len(collection)
        visits = visit_order(collection)
    stats = JoinStatistics(total_strings=total)
    # Min-heap of (probability, left, right); heap[0] is the adaptive cut.
    best: list[tuple[float, int, int]] = []

    def current_tau() -> float:
        return best[0][0] if len(best) == count else 0.0

    engine = JoinEngine(
        base, stats=stats, tau=current_tau, force_exact=True, store=store
    )
    with stats.timer("total"):
        for pair in engine.join(visits):
            assert pair.probability is not None  # force_exact guarantees it
            heapq.heappush(best, (pair.probability, pair.left_id, pair.right_id))
            if len(best) > count:
                heapq.heappop(best)

    pairs = [
        JoinPair(left, right, probability)
        for probability, left, right in sorted(best, reverse=True)
    ]
    stats.result_pairs = len(pairs)
    return JoinOutcome(pairs=pairs, stats=stats)
