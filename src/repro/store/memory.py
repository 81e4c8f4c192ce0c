"""The in-memory reference :class:`~repro.store.base.IndexStore`.

Holds exactly what the SQLite store persists — rank-ordered string
records plus ``(length, segment) → word → [(rank, prob)]`` posting
lists — in a :class:`repro.index.inverted.SegmentInvertedIndex` built
by adding the visits under their ranks. What it adds is the
rank-limited read: binary search over the rank-sorted lists, mirroring
the SQL ``rank < ?`` predicate.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.core.engine import visit_order
from repro.index.inverted import SegmentInvertedIndex
from repro.store.base import STORE_PRECISION, StoreMeta
from repro.uncertain.parser import format_uncertain
from repro.uncertain.string import UncertainString


def collection_digest(collection: Iterable[UncertainString]) -> str:
    """SHA-256 over the canonical serialized collection, id order."""
    digest = hashlib.sha256()
    for string in collection:
        digest.update(
            format_uncertain(string, precision=STORE_PRECISION).encode("utf-8")
        )
        digest.update(b"\n")
    return digest.hexdigest()


class MemoryStore:
    """A built (k, q) index plus its collection, frozen in memory."""

    def __init__(
        self,
        collection: Sequence[UncertainString],
        k: int,
        q: int,
    ) -> None:
        self._index = SegmentInvertedIndex(k=k, q=q)
        self._collection = list(collection)
        visits = visit_order(self._collection)
        self._ids_visit = [string_id for string_id, _ in visits]
        self._lengths_visit = [len(string) for _, string in visits]
        for rank, (_, string) in enumerate(visits):
            self._index.add(rank, string)
        self.meta = StoreMeta(
            k=k,
            q=q,
            count=len(self._collection),
            entry_count=self._index.entry_count,
            digest=collection_digest(self._collection),
        )

    def __len__(self) -> int:
        return len(self._collection)

    def ids_in_visit_order(self) -> Sequence[int]:
        return self._ids_visit

    def lengths_in_visit_order(self) -> Sequence[int]:
        return self._lengths_visit

    def strings_at_ranks(self, start: int, stop: int) -> list[UncertainString]:
        return [
            self._collection[string_id]
            for string_id in self._ids_visit[start:stop]
        ]

    def strings_by_ids(
        self, ids: Sequence[int]
    ) -> dict[int, UncertainString]:
        return {string_id: self._collection[string_id] for string_id in ids}

    def has_segment(
        self, length: int, segment_index: int, rank_limit: int
    ) -> bool:
        # Every string has postings in every segment of its partition
        # (its most likely window world has a positive probability), so
        # a segment has one below the limit iff its length's first rank
        # is below it.
        ranks = self._index.ids_of_length(length)
        return (
            self._index.has_segment(length, segment_index)
            and ranks[0] < rank_limit
        )

    def posting_lists(
        self,
        length: int,
        segment_index: int,
        words: Sequence[str],
        rank_limit: int,
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        out: dict[str, Sequence[tuple[int, float]]] = {}
        lists = self._index.posting_lists(length, segment_index, words)
        for word, postings in lists.items():
            # Entries ascend by rank; (rank_limit,) sorts before any
            # (rank_limit, prob), so bisect_left cuts at rank >= limit.
            cut = bisect_left(postings, (rank_limit,))
            if cut:
                out[word] = postings[:cut]
        return out
