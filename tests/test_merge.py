"""Tests for the sorted-posting merges of Section 4."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.merge import join_sorted_lists, merge_weighted_postings

from tests.helpers import (
    reference_join_sorted_lists,
    reference_merge_weighted_postings,
)


def dict_reference_merge(lists):
    out = {}
    for weight, postings in lists:
        for string_id, prob in postings:
            out[string_id] = out.get(string_id, 0.0) + weight * prob
    return out


POSTING_LISTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            max_size=10,
        ).map(lambda ps: sorted({i: p for i, p in ps}.items())),
    ),
    max_size=6,
)


class TestMergeWeightedPostings:
    def test_empty(self):
        assert merge_weighted_postings([]) == []

    def test_single_list_scaled_by_weight(self):
        merged = merge_weighted_postings([(0.5, [(1, 0.4), (7, 1.0)])])
        assert merged == [(1, pytest.approx(0.2)), (7, pytest.approx(0.5))]

    def test_union_accumulates_across_lists(self):
        merged = merge_weighted_postings(
            [
                (1.0, [(1, 0.5), (3, 0.5)]),
                (0.5, [(1, 1.0), (2, 1.0)]),
            ]
        )
        assert merged == [
            (1, pytest.approx(1.0)),
            (2, pytest.approx(0.5)),
            (3, pytest.approx(0.5)),
        ]

    @given(POSTING_LISTS)
    @settings(max_examples=150)
    def test_matches_dict_reference(self, lists):
        # Bitwise: the ids and every float equal both the list-order
        # dict sum and the frozen heap merge (ties pop in list order).
        merged = merge_weighted_postings(lists)
        reference = dict_reference_merge(lists)
        assert merged == sorted(reference.items())
        assert merged == reference_merge_weighted_postings(lists)

    @given(POSTING_LISTS)
    @settings(max_examples=60)
    def test_output_sorted_and_unique(self, lists):
        merged = merge_weighted_postings(lists)
        ids = [i for i, _ in merged]
        assert ids == sorted(set(ids))


SEGMENT_LISTS = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=10,
    ).map(lambda ps: sorted({i: p for i, p in ps}.items())),
    max_size=6,
)


class TestJoinSortedLists:
    @given(SEGMENT_LISTS)
    @settings(max_examples=150)
    def test_matches_frozen_heap_join(self, lists):
        assert join_sorted_lists(lists) == reference_join_sorted_lists(lists)

    def test_tags_segment_indices(self):
        joined = join_sorted_lists(
            [
                [(1, 0.5), (2, 0.25)],
                [],
                [(2, 0.75)],
            ]
        )
        assert joined == [
            (1, [(0, 0.5)]),
            (2, [(0, 0.25), (2, 0.75)]),
        ]

    def test_counts_support_lemma5(self):
        rng = random.Random(3)
        lists = []
        membership = {}
        for segment in range(4):
            postings = []
            for string_id in range(10):
                if rng.random() < 0.4:
                    postings.append((string_id, rng.random()))
                    membership.setdefault(string_id, set()).add(segment)
            lists.append(postings)
        joined = dict(join_sorted_lists(lists))
        for string_id, segments in membership.items():
            assert {seg for seg, _ in joined[string_id]} == segments

    def test_empty_lists(self):
        assert join_sorted_lists([[], []]) == []

    def test_no_lists(self):
        assert join_sorted_lists([]) == []

    def test_disjoint_segments_one_tag_each(self):
        # Non-overlapping segment lists: every id surfaces exactly once,
        # tagged with exactly its own segment, in global id order.
        joined = join_sorted_lists(
            [
                [(4, 0.9), (9, 0.1)],
                [(2, 0.3)],
                [(7, 0.6)],
            ]
        )
        assert joined == [
            (2, [(1, 0.3)]),
            (4, [(0, 0.9)]),
            (7, [(2, 0.6)]),
            (9, [(0, 0.1)]),
        ]

    def test_id_in_every_segment(self):
        joined = join_sorted_lists([[(5, 0.1)], [(5, 0.2)], [(5, 0.3)]])
        assert joined == [(5, [(0, 0.1), (1, 0.2), (2, 0.3)])]


class TestMergeEdgeCases:
    """The operand shapes the ISSUE calls out, pinned directly."""

    def test_all_operands_empty(self):
        assert merge_weighted_postings([(1.0, []), (0.5, [])]) == []

    def test_empty_operands_among_nonempty(self):
        merged = merge_weighted_postings(
            [(1.0, []), (0.5, [(3, 1.0)]), (0.25, [])]
        )
        assert merged == [(3, 0.5)]

    def test_zero_weight_operand_still_surfaces_ids(self):
        # A zero-weight list contributes alpha 0 but must still emit the
        # id: downstream segment counting treats presence as a match.
        merged = merge_weighted_postings([(0.0, [(2, 1.0)])])
        assert merged == [(2, 0.0)]

    def test_duplicate_id_across_all_operands_emitted_once(self):
        merged = merge_weighted_postings(
            [(0.5, [(1, 0.2)]), (0.25, [(1, 0.4)]), (1.0, [(1, 0.1)])]
        )
        assert len(merged) == 1
        string_id, alpha = merged[0]
        assert string_id == 1
        assert alpha == pytest.approx(0.5 * 0.2 + 0.25 * 0.4 + 1.0 * 0.1)

    def test_accumulation_order_is_operand_order(self):
        # Byte-identity across index backends hinges on this: for a tied
        # id the merge adds operands in list order, so the alpha sum is
        # the exact left-to-right float sum — not merely approximately
        # equal. Weights are chosen so the sum rounds differently under
        # reassociation.
        lists = [
            (0.1, [(0, 0.3)]),
            (0.2, [(0, 0.7)]),
            (0.3, [(0, 0.9)]),
        ]
        expected = 0.0
        for weight, postings in lists:
            expected += weight * postings[0][1]
        [(string_id, alpha)] = merge_weighted_postings(lists)
        assert string_id == 0
        assert alpha == expected  # bit-exact, not approx
