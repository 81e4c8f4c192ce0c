"""The segment inverted index ``L^x_l`` (Section 4).

For every string length ``l`` present in the collection and every segment
position ``x`` of the canonical (q, k) partition of that length, the index
stores a mapping from deterministic segment instances ``w`` to the posting
list ``L^x_l(w) = [(string id, Pr(w = S_i^x)), ...]`` sorted by id. A
string id appears at most once per list and in as many lists of ``L^x_l``
as its segment has instances.

Postings are built in one place: :func:`segment_postings` lists the
entries one string contributes, and this index, the
:class:`~repro.store.memory.MemoryStore` reference (which is this index
built under visit ranks) and the SQLite store builder all consume it.
:func:`index_partition` is the one partition every index reads.

Strings are inserted in ascending id order by the join driver *after*
being queried, so posting lists stay sorted by construction and no pair is
enumerated twice.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from repro.filters.alpha import GroupMode
from repro.index.probe import IndexCandidate, query_candidates
from repro.partition.even import Segment, partition_for
from repro.partition.selection import SelectionMode
from repro.uncertain.string import UncertainString
from repro.uncertain.worlds import window_worlds

__all__ = [
    "IndexCandidate",
    "SegmentInvertedIndex",
    "index_partition",
    "segment_postings",
]


@lru_cache(maxsize=4096)
def index_partition(length: int, q: int, k: int) -> tuple[Segment, ...]:
    """The segments an index built at ``(q, k)`` holds for strings of
    ``length``: the canonical partition, and none for the empty string
    (which flows through the vacuous-pigeonhole path like other strings
    shorter than k + 1)."""
    return tuple(partition_for(length, q, k)) if length else ()


def segment_postings(
    string: UncertainString, q: int, k: int
) -> Iterator[tuple[int, str, float]]:
    """The posting entries ``string`` contributes to a ``(q, k)`` index:
    ``(segment index, word, probability)`` for every world of every
    segment of its partition with a positive probability, in segment
    order."""
    for segment in index_partition(len(string), q, k):
        for word, prob in window_worlds(string, segment.start, segment.length):
            if prob > 0.0:
                yield segment.index, word, prob


class SegmentInvertedIndex:
    """Incremental inverted index over segment instances.

    Parameters
    ----------
    k, q:
        Edit threshold and segment length target; they determine the
        canonical partition of every length. :meth:`probe` answers any
        other ``k`` over the same partition; :meth:`query` defaults to
        this one.
    selection, group_mode, bound_mode:
        Substring-selection window, overlap-group estimator, and tail
        bound, as in :class:`repro.filters.qgram.QGramFilter`.
    """

    def __init__(
        self,
        k: int,
        q: int = 3,
        selection: SelectionMode = "shift",
        group_mode: GroupMode = "exact",
        bound_mode: str = "paper",
    ) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        self.k = k
        self.q = q
        self.selection = selection
        self.group_mode = group_mode
        self.bound_mode = bound_mode
        # (length, segment index x) -> instance w -> sorted postings.
        self._lists: dict[tuple[int, int], dict[str, list[tuple[int, float]]]] = {}
        self._ids_by_length: dict[int, list[int]] = {}
        self._entry_count = 0
        self._last_id: int | None = None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def partition_of(self, length: int) -> Sequence[Segment]:
        """Canonical (q, k) partition of strings with ``length`` (see
        :func:`index_partition`)."""
        return index_partition(length, self.q, self.k)

    def add(self, string_id: int, string: UncertainString) -> None:
        """Insert ``string``'s segment instances; ids must be ascending."""
        if self._last_id is not None and string_id <= self._last_id:
            raise ValueError(
                f"string ids must be inserted in ascending order "
                f"({string_id} after {self._last_id})"
            )
        self._last_id = string_id
        length = len(string)
        self._ids_by_length.setdefault(length, []).append(string_id)
        segment_lists: dict[str, list[tuple[int, float]]] = {}
        current = 0  # segment indices start at 1
        for segment_index, word, prob in segment_postings(string, self.q, self.k):
            if segment_index != current:
                current = segment_index
                segment_lists = self._lists.setdefault((length, current), {})
            segment_lists.setdefault(word, []).append((string_id, prob))
            self._entry_count += 1

    @property
    def entry_count(self) -> int:
        """Total posting entries — the Figure 7 index-size measure."""
        return self._entry_count

    @property
    def indexed_lengths(self) -> set[int]:
        """String lengths currently present in the index."""
        return set(self._ids_by_length)

    # ------------------------------------------------------------------
    # probing — the PostingView surface of repro.index.probe
    # ------------------------------------------------------------------

    def visit_lengths(self) -> list[int]:
        """Lengths with at least one indexed string, ascending."""
        return sorted(self._ids_by_length)

    def ids_of_length(self, length: int) -> Sequence[int]:
        """Ids of the indexed strings of ``length``, ascending."""
        return self._ids_by_length.get(length, [])

    def has_segment(self, length: int, segment_index: int) -> bool:
        """Whether any posting list exists for ``(length, segment)``."""
        return bool(self._lists.get((length, segment_index)))

    def posting_lists(
        self, length: int, segment_index: int, words: Sequence[str]
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        """The posting lists present among ``words``."""
        lists = self._lists.get((length, segment_index))
        if not lists:
            return {}
        return {word: lists[word] for word in words if word in lists}

    def query(
        self, query: UncertainString, tau: float, k: "int | None" = None
    ) -> list[IndexCandidate]:
        """All indexed candidates ``S_i`` that survive Lemma 5 + Theorem 2
        at edit threshold ``k`` (default: the index's own).

        The shared probe math of :mod:`repro.index.probe` over this
        index's posting lists; see :func:`~repro.index.probe.query_candidates`
        for the pruning sequence.
        """
        return query_candidates(
            self,
            query,
            tau,
            k=self.k if k is None else k,
            selection=self.selection,
            group_mode=self.group_mode,
            bound_mode=self.bound_mode,
        )

    def probe(
        self, query: UncertainString, tau: float, k: int
    ) -> list[tuple[int, float]]:
        """``(string id, Theorem 2 upper bound)`` for every surviving
        candidate at ``k``, ascending by id — the flat surface
        :class:`repro.core.engine.CandidateSource` reads when its
        postings live in this index."""
        pairs = [
            (candidate.string_id, candidate.upper)
            for candidate in self.query(query, tau, k)
        ]
        pairs.sort()
        return pairs
