"""Backend-independent probe math for the segment index (Section 4).

The Lemma 5 + Theorem 2 candidate computation — equivalent substring
sets per segment, weighted posting merges, segment-count pigeonhole,
tail bound, τ prune — is one fixed sequence of float operations. The
repo's byte-identity guarantee across index backends (the in-memory
dict index, the out-of-core SQLite store) holds because that sequence
lives *here*, exactly once, parameterized by a :class:`PostingView`
that only answers "which posting lists exist and what do they hold".
Every posting home therefore accumulates the same floats in the same
order; none can drift from the others. The homes' postings come from
one builder too (:func:`repro.index.inverted.segment_postings`).

Postings come first, weights second. Per segment the probe collects
the query's window occurrences (word → starts), asks the view which of
those words have postings, and computes the Section 3.2 group
probability only for the words that hit — most words of an equivalent
set have no postings. Hits are weighted in occurrence order, so the
merge adds the same ``(weight, postings)`` pairs in the same order as
merging the full equivalent set would. The occurrence and weight rules
are :func:`~repro.filters.alpha.substring_occurrences` and
:func:`~repro.filters.alpha.occurrence_weight`, the same helpers that
build :func:`~repro.filters.alpha.equivalent_substring_set`.

Per segment the view is asked one thing: :meth:`PostingView.posting_lists`.
The probe does not first ask :meth:`PostingView.has_segment` — every
segment of a visited length has postings, and a segment that had none
would read as an empty answer, which the pigeonhole count already
handles. For the SQLite store that check would be one more round trip
per probed segment, deciding nothing.

The 2k + 1 probed lengths share most query windows, so one query keeps
one window table (``(start, length)`` → words) for all of them. It is
local to :func:`query_candidates` and dies with the query.

The view's partition belongs to the index's build k; the probe's
``k`` sets the length window, substring starts and ``required = m -
k``. Lemma 5 holds for any m-segment partition, so one index answers
every k (DESIGN.md §4), except under ``"multimatch"`` selection.

A view answers in *rank* space: posting entries carry the insertion
rank the index was built under, and every returned candidate's
``string_id`` is such a rank. :class:`repro.core.engine.CandidateSource`,
the one caller, builds or reads every home under visit ranks and
translates them to caller ids afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from repro.filters.alpha import (
    GroupMode,
    WindowTable,
    occurrence_weight,
    substring_occurrences,
)
from repro.filters.events import markov_tail_bound, tail_probability
from repro.index.merge import join_sorted_lists, merge_weighted_postings
from repro.partition.even import Segment
from repro.partition.selection import SelectionMode, substring_starts
from repro.uncertain.string import UncertainString


@dataclass(frozen=True)
class IndexCandidate:
    """One candidate produced by an index probe.

    ``alphas`` holds the segment match probabilities for the candidate's
    partition (zeros for unmatched segments); ``upper`` is the Theorem 2
    bound computed from them.
    """

    string_id: int
    alphas: tuple[float, ...]
    matched_segments: int
    required: int
    upper: float


class PostingView(Protocol):
    """What a probe needs to know about an index, wherever it lives.

    Implementations: :class:`repro.index.inverted.SegmentInvertedIndex`
    (postings in dicts) and the rank-limited view a store-backed
    :class:`repro.core.engine.CandidateSource` reads through (postings
    in SQLite pages or a :class:`repro.store.memory.MemoryStore`). All
    ids are insertion ranks.
    """

    def partition_of(self, length: int) -> Sequence[Segment]:
        """Canonical partition of strings with ``length``, for the
        ``(q, k)`` the index was built under."""
        ...

    def visit_lengths(self) -> Iterable[int]:
        """Lengths with at least one indexed string, ascending."""
        ...

    def ids_of_length(self, length: int) -> Sequence[int]:
        """Ranks of the indexed strings of ``length``, ascending."""
        ...

    def has_segment(self, length: int, segment_index: int) -> bool:
        """Whether any posting list exists for ``(length, segment)``.

        Not on the probe path: every segment of a visited length has
        postings, and an empty one shows up as an empty
        :meth:`posting_lists` answer anyway. Kept for callers that ask
        about the index's layout (the tests' frozen reference probe).
        """
        ...

    def posting_lists(
        self, length: int, segment_index: int, words: Sequence[str]
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        """The non-empty posting lists among ``words``.

        Each list is ``[(rank, prob), ...]`` ascending by rank — the
        insertion-sorted order :func:`merge_weighted_postings` requires.
        Words without postings may be omitted or mapped to empty lists;
        either way the merge below ignores them.
        """
        ...


def query_candidates(
    view: PostingView,
    query: UncertainString,
    tau: float,
    *,
    k: int,
    selection: SelectionMode,
    group_mode: GroupMode,
    bound_mode: str,
) -> list[IndexCandidate]:
    """All indexed candidates surviving Lemma 5 + Theorem 2 at ``k``.

    ``k`` may differ from the view's build k. Only lengths within ``k``
    of ``|query|`` are probed; per length the
    query's window occurrences are looked up once per segment and the
    hits merged against the posting lists with top-pointer scans.
    Candidates failing the ``>= m - k`` count or whose bound is
    ``<= tau`` are pruned here.
    """
    out: list[IndexCandidate] = []
    windows: WindowTable = {}
    query_length = len(query)
    for length in view.visit_lengths():
        if abs(length - query_length) > k:
            continue
        out.extend(
            query_length_candidates(
                view,
                query,
                length,
                tau,
                k=k,
                selection=selection,
                group_mode=group_mode,
                bound_mode=bound_mode,
                windows=windows,
            )
        )
    return out


def query_length_candidates(
    view: PostingView,
    query: UncertainString,
    length: int,
    tau: float,
    *,
    k: int,
    selection: SelectionMode,
    group_mode: GroupMode,
    bound_mode: str,
    windows: WindowTable,
) -> list[IndexCandidate]:
    """The surviving candidates among indexed strings of one length.

    ``windows`` is the calling query's window table. Returns early, with
    no further view calls, once more than ``m - required`` segments have
    come up empty: the pigeonhole can no longer be met.
    """
    segments = view.partition_of(length)
    m = len(segments)
    required = m - k
    if required <= 0:
        # k edits can touch every segment (short strings, or a probe k
        # above the build k): this is the length scan, every indexed
        # string of this length is a candidate.
        return [
            IndexCandidate(
                string_id=string_id,
                alphas=(0.0,) * m,
                matched_segments=0,
                required=required,
                upper=1.0,
            )
            for string_id in view.ids_of_length(length)
        ]
    per_segment: list[list[tuple[int, float]]] = []
    empty_allowed = m - required
    for segment in segments:
        merged: list[tuple[int, float]] = []
        starts = substring_starts(segment, len(query), length, k, m, selection)
        if starts:
            occurrences = substring_occurrences(
                query, starts, segment.length, windows
            )
            lists = view.posting_lists(length, segment.index, list(occurrences))
            weighted = []
            for word, word_starts in occurrences.items():
                postings = lists.get(word)
                if postings:
                    weight = occurrence_weight(
                        query, word, word_starts, group_mode
                    )
                    if weight > 0.0:
                        weighted.append((weight, postings))
            if weighted:
                merged = merge_weighted_postings(weighted)
        if not merged:
            empty_allowed -= 1
            if empty_allowed < 0:
                return []
        per_segment.append(merged)
    candidates: list[IndexCandidate] = []
    for string_id, entries in join_sorted_lists(per_segment):
        matched = sum(1 for _, alpha in entries if alpha > 0.0)
        if matched < required:
            continue
        alphas = [0.0] * m
        for segment_offset, alpha in entries:
            alphas[segment_offset] = min(1.0, alpha)
        if bound_mode == "markov":
            upper = markov_tail_bound(alphas, required)
        else:
            upper = tail_probability(alphas, required)
        if upper <= tau:
            continue
        candidates.append(
            IndexCandidate(
                string_id=string_id,
                alphas=tuple(alphas),
                matched_segments=matched,
                required=required,
                upper=upper,
            )
        )
    return candidates
