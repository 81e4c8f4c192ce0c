"""The out-of-core index store contract.

An :class:`IndexStore` is a *built* segment index plus the collection
it was built from, addressable by **rank**: the position of
a string in the canonical ascending ``(length, id)`` visit order every
driver in this repo walks. Ranks are what posting entries carry and
what probes return; the original collection ids travel alongside
(:meth:`IndexStore.ids_in_visit_order`) so callers can translate back.

A store is built for one ``q``; its build ``k`` fixes only the
partition, and a run or request at any other ``k`` reuses the postings
(DESIGN.md §4, :meth:`StoreMeta.check_compatible`).

Two implementations:

* :class:`repro.store.memory.MemoryStore` — the reference: a
  :class:`~repro.index.inverted.SegmentInvertedIndex` fed the visits
  under their ranks, plus the rank-limited read. It exists to pin the
  adapter layer — any divergence between a store-backed run and the
  classic in-memory run can be bisected to either the adapter
  (MemoryStore differs) or the SQLite page layer (only SqliteStore
  differs).
* :class:`repro.store.sqlite.SqliteStore` — the out-of-core store: one
  SQLite file holding per-string records, posting lists, and metadata,
  probed with batched ``IN (...)`` lookups. Peak RSS is governed by the
  hydration caches of :mod:`repro.store.source`, not collection size.

Both stores, like the in-memory index, take their posting entries from
:func:`repro.index.inverted.segment_postings`; the engine reads any of
them through the one :class:`~repro.core.engine.CandidateSource`.

Why probing a full prebuilt index restricted to ``rank < limit`` is
byte-identical to probing an index built incrementally up to that
rank: each posting list restricted to ranks below the limit *is* the
list the incremental build would hold (ranks ascend within a list by
construction), and every per-candidate float in the probe depends only
on the query and that candidate's postings — see
:mod:`repro.index.probe`, which both paths execute verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.core.config import JoinConfig
from repro.core.errors import CheckpointMismatchError
from repro.uncertain.string import UncertainString

#: File-format identity of a persisted store.
STORE_MAGIC = "repro-index-store"
#: Bump when the on-disk layout changes incompatibly.
STORE_FORMAT = 1
#: Float precision strings are serialized at. 17 significant digits
#: round-trip IEEE doubles exactly — the byte-identity guarantee needs
#: hydrated strings to carry the *same* floats the builder saw.
STORE_PRECISION = 17
#: Default bounded-cache size (strings / feature rows) of the hydration
#: layer. Peak RSS of a store-backed run is proportional to this, never
#: to the collection.
DEFAULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class StoreMeta:
    """Identity and shape of a built store.

    ``digest`` is the SHA-256 over the collection's canonical serialized
    form (``format_uncertain(precision=17)`` lines in original id
    order) — the content fingerprint checkpointed shard runs use in
    place of re-hashing a collection they never materialize.
    """

    k: int
    q: int
    count: int
    entry_count: int
    digest: str

    def check_compatible(self, config: JoinConfig) -> None:
        """Reject configs the stored postings cannot answer.

        Only ``q`` must match: a probe at any ``k`` reuses the store's
        partition, unless :meth:`JoinConfig.can_probe_index` says the
        selection needs the store's own k. The other probe-time knobs
        are free, and non-q-gram stacks never read postings.
        """
        if not config.uses_qgram:
            return
        if self.q != config.q or not config.can_probe_index(self.k):
            raise CheckpointMismatchError(
                "index store",
                f"store was built for (k={self.k}, q={self.q}), config "
                f"is (k={config.k}, q={config.q}, selection="
                f"{config.selection!r}); a store answers every k at its "
                "own q, and multimatch selection only at its own k — "
                "rebuild with `repro-join index build`",
            )


@runtime_checkable
class IndexStore(Protocol):
    """Read-side surface of a built store. All methods are thread-safe."""

    @property
    def meta(self) -> StoreMeta: ...

    def __len__(self) -> int:
        """Number of strings in the collection."""
        ...

    def ids_in_visit_order(self) -> Sequence[int]:
        """Original collection id at each rank (rank = list position)."""
        ...

    def lengths_in_visit_order(self) -> Sequence[int]:
        """String length at each rank — bookkeeping without hydration."""
        ...

    def strings_at_ranks(self, start: int, stop: int) -> list[UncertainString]:
        """Hydrate the strings with ``start <= rank < stop``, rank order."""
        ...

    def strings_by_ids(
        self, ids: Sequence[int]
    ) -> dict[int, UncertainString]:
        """Hydrate by original collection id (batched)."""
        ...

    def has_segment(
        self, length: int, segment_index: int, rank_limit: int
    ) -> bool:
        """Any posting for ``(length, segment)`` below ``rank_limit``?

        Not on the probe path (see :mod:`repro.index.probe`).
        """
        ...

    def posting_lists(
        self,
        length: int,
        segment_index: int,
        words: Sequence[str],
        rank_limit: int,
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        """The non-empty rank-limited posting lists among ``words``.

        Entries are ``(rank, prob)`` ascending by rank — the probe's
        merge order; see :class:`repro.index.probe.PostingView`.
        """
        ...
