"""Tests for segment match probabilities and equivalent substring sets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.alpha import (
    OccurrenceGroup,
    _split_into_groups,
    equivalent_substring_set,
    group_probability,
    segment_match_probability,
)
from repro.uncertain.parser import parse_uncertain
from repro.uncertain.string import UncertainString
from repro.uncertain.worlds import enumerate_worlds

from tests.helpers import random_uncertain, uncertain_strings


def brute_union_probability(string, word, starts):
    """Reference Pr(at least one window of `string` equals `word`)."""
    total = 0.0
    for text, prob in enumerate_worlds(string, limit=None):
        if any(text[s : s + len(word)] == word for s in starts):
            total += prob
    return total


def brute_alpha(string, starts, segment):
    """Reference alpha_x: Pr(exists selected window of R matching S^x)."""
    total = 0.0
    for text, prob in enumerate_worlds(string, limit=None):
        for seg_text, seg_prob in enumerate_worlds(segment, limit=None):
            if any(
                text[s : s + len(seg_text)] == seg_text for s in starts
            ):
                total += prob * seg_prob
    return total


class TestGrouping:
    def test_non_overlapping_occurrences_split(self):
        groups = _split_into_groups("AB", [0, 5, 6, 10])
        assert [g.starts for g in groups] == [(0,), (5, 6), (10,)]

    def test_transitive_overlap_single_group(self):
        groups = _split_into_groups("ABCD", [0, 2, 4])
        assert [g.starts for g in groups] == [(0, 2, 4)]

    def test_unsorted_input_sorted(self):
        groups = _split_into_groups("AB", [6, 0, 5])
        assert [g.starts for g in groups] == [(0,), (5, 6)]


class TestGroupProbability:
    def test_paper_example_group(self):
        # Section 3.2: R = A{(A,0.8),(C,0.2)}AATT, w = AAA at starts {0, 1}
        # form one group with probability 0.8.
        string = parse_uncertain("A{(A,0.8),(C,0.2)}AATT")
        group = OccurrenceGroup("AAA", (0, 1))
        assert group_probability(string, group, "exact") == pytest.approx(0.8)
        assert group_probability(string, group, "beta") == pytest.approx(0.8)

    def test_single_occurrence_is_match_probability(self):
        string = parse_uncertain("A{(A,0.8),(C,0.2)}AATT")
        group = OccurrenceGroup("ACA", (0,))
        assert group_probability(string, group, "exact") == pytest.approx(0.2)

    @given(uncertain_strings(alphabet="AC", min_length=4, max_length=7, max_support=2))
    @settings(max_examples=120, deadline=None)
    def test_exact_mode_matches_enumeration(self, string):
        # Periodic word so overlapping occurrences actually interact.
        word = "AA"
        starts = [s for s in range(len(string) - 1) if string.can_match(word, s)]
        if not starts:
            return
        for group in _split_into_groups(word, starts):
            expected = brute_union_probability(string, word, list(group.starts))
            assert group_probability(string, group, "exact") == pytest.approx(
                expected, abs=1e-9
            )

    @given(uncertain_strings(alphabet="AC", min_length=4, max_length=7, max_support=2))
    @settings(max_examples=80, deadline=None)
    def test_beta_mode_within_union_bounds(self, string):
        # The beta chain approximates the union; it must stay within the
        # trivial Frechet bounds [max single, min(1, sum)].
        word = "AA"
        starts = [s for s in range(len(string) - 1) if string.can_match(word, s)]
        for group in _split_into_groups(word, starts):
            singles = [string.match_probability(word, s) for s in group.starts]
            value = group_probability(string, group, "beta")
            assert value <= min(1.0, sum(singles)) + 1e-9
            assert value >= -1e-9


class TestEquivalentSet:
    def test_paper_example_set(self):
        # Section 3.2: q(r, 1) = {(AAA, 0.8), (ACA, 0.2), (CAA, 0.2)}.
        string = parse_uncertain("A{(A,0.8),(C,0.2)}AATT")
        equivalent = equivalent_substring_set(string, [0, 1], 3)
        assert equivalent == pytest.approx(
            {"AAA": 0.8, "ACA": 0.2, "CAA": 0.2}
        )

    def test_deterministic_string_yields_unit_probabilities(self):
        string = UncertainString.from_text("GGATCC")
        equivalent = equivalent_substring_set(string, [0, 1, 2], 2)
        assert equivalent == {"GG": 1.0, "GA": 1.0, "AT": 1.0}

    def test_out_of_range_starts_ignored(self):
        string = UncertainString.from_text("ACGT")
        equivalent = equivalent_substring_set(string, [-1, 2, 99], 2)
        assert equivalent == {"GT": 1.0}

    @given(
        uncertain_strings(alphabet="AC", min_length=3, max_length=6, max_support=2),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_entry_matches_union_enumeration(self, string, length):
        starts = list(range(len(string) - length + 1))
        equivalent = equivalent_substring_set(string, starts, length, "exact")
        for word, prob in equivalent.items():
            assert prob == pytest.approx(
                brute_union_probability(string, word, starts), abs=1e-9
            )


class TestSegmentMatchProbability:
    def test_naive_sum_would_exceed_one_but_alpha_is_correct(self):
        # The Section 3.2 example where the naive sum gives 1.32.
        string = parse_uncertain("A{(A,0.8),(C,0.2)}AATT")
        segment = parse_uncertain("A{(A,0.8),(C,0.2)}A")
        naive = sum(
            prob * segment.instance_probability(word)
            for start in (0, 1)
            for word, prob in enumerate_worlds(string.substring(start, 3), limit=None)
        )
        assert naive == pytest.approx(1.32)  # the paper's incorrect value
        alpha = segment_match_probability(string, [0, 1], segment, "exact")
        assert alpha == pytest.approx(0.68)

    def test_deterministic_r_reduces_to_simple_sum(self):
        # Section 3.1: alpha_x = sum of segment match probabilities of the
        # distinct substrings.
        r = UncertainString.from_text("GGATCC")
        segment = parse_uncertain("{(G,0.8),(T,0.2)}G")
        alpha = segment_match_probability(r, [0, 1], segment)
        assert alpha == pytest.approx(0.8)  # only GG matches

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_alpha_matches_enumeration(self, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=100_000)))
        string = random_uncertain(rng, rng.randint(3, 6), 0.4)
        seg_len = rng.randint(1, 3)
        segment = random_uncertain(rng, seg_len, 0.5)
        starts = list(range(len(string) - seg_len + 1))
        alpha = segment_match_probability(string, starts, segment, "exact")
        assert alpha == pytest.approx(
            brute_alpha(string, starts, segment), abs=1e-9
        )

    def test_alpha_clamped_to_one(self):
        string = UncertainString.from_text("AAAA")
        segment = UncertainString.from_text("AA")
        alpha = segment_match_probability(string, [0, 1, 2], segment)
        assert alpha == 1.0
