"""Inverted segment indexing (Section 4).

Strings are visited in ascending length order; each visited string's
segments are instantiated into per-(length, segment) inverted lists
``L^x_l``. A query string ``R`` probes the lists with its equivalent
substring sets ``q(r, x)``; sorted posting merges produce, per candidate
string id, the segment match probabilities ``alpha_x`` — feeding the
Lemma 5 count check and the Theorem 2 bound without comparing ``R``
against every string in the collection.
"""

from repro.index.merge import merge_weighted_postings, join_sorted_lists
from repro.index.inverted import SegmentInvertedIndex, IndexCandidate

__all__ = [
    "merge_weighted_postings",
    "join_sorted_lists",
    "SegmentInvertedIndex",
    "IndexCandidate",
]
