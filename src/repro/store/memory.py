"""The in-memory reference :class:`~repro.store.base.IndexStore`.

Holds exactly what the SQLite store persists — rank-ordered string
records plus ``(length, segment) → word → [(rank, prob)]`` posting
lists — but in plain Python structures, built with the same partition
and world enumeration :class:`repro.index.inverted.SegmentInvertedIndex`
uses. Rank limits are applied by binary search over the rank-sorted
lists, mirroring the SQL ``rank < ?`` predicate.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.core.engine import visit_order
from repro.partition.even import partition_for
from repro.store.base import STORE_PRECISION, StoreMeta
from repro.uncertain.parser import format_uncertain
from repro.uncertain.string import UncertainString
from repro.uncertain.worlds import window_worlds


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
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        self._collection = list(collection)
        visits = visit_order(self._collection)
        self._ids_visit = [string_id for string_id, _ in visits]
        self._lengths_visit = [len(string) for _, string in visits]
        # (length, segment index) -> word -> [(rank, prob)] ascending.
        self._lists: dict[
            tuple[int, int], dict[str, list[tuple[int, float]]]
        ] = {}
        entry_count = 0
        for rank, (_, string) in enumerate(visits):
            length = len(string)
            partition = (
                [] if length == 0 else partition_for(length, q, k)
            )
            for segment in partition:
                lists = self._lists.setdefault((length, segment.index), {})
                for word, prob in window_worlds(
                    string, segment.start, segment.length
                ):
                    if prob > 0.0:
                        lists.setdefault(word, []).append((rank, prob))
                        entry_count += 1
        self.meta = StoreMeta(
            k=k,
            q=q,
            count=len(self._collection),
            entry_count=entry_count,
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
        lists = self._lists.get((length, segment_index))
        if not lists:
            return False
        return any(
            postings[0][0] < rank_limit for postings in lists.values()
        )

    def posting_lists(
        self,
        length: int,
        segment_index: int,
        words: Sequence[str],
        rank_limit: int,
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        lists = self._lists.get((length, segment_index))
        if not lists:
            return {}
        out: dict[str, Sequence[tuple[int, float]]] = {}
        for word in words:
            postings = lists.get(word)
            if not postings:
                continue
            # Entries ascend by rank; (rank_limit,) sorts before any
            # (rank_limit, prob), so bisect_left cuts at rank >= limit.
            cut = bisect_left(postings, (rank_limit,))
            if cut:
                out[word] = postings[:cut]
        return out
