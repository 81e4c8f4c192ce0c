"""Tests for deterministic frequency vectors and frequency distance."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.edit import edit_distance
from repro.distance.frequency import (
    frequency_distance,
    frequency_vector,
    positive_negative_distance,
)
from repro.uncertain.alphabet import DNA

WORDS = st.text(alphabet="ACGT", min_size=0, max_size=12)


class TestFrequencyVector:
    def test_counts(self):
        assert frequency_vector("GATTACA") == {"G": 1, "A": 3, "T": 2, "C": 1}

    def test_with_alphabet_includes_zeros(self):
        vec = frequency_vector("AA", DNA)
        assert vec == {"A": 2, "C": 0, "G": 0, "T": 0}

    def test_empty_string(self):
        assert frequency_vector("") == {}


class TestPositiveNegative:
    def test_paper_definition(self):
        # r has 2 extra A's; s has 1 extra C and 1 extra G.
        p, n = positive_negative_distance(
            frequency_vector("AAAA"), frequency_vector("AACG")
        )
        assert (p, n) == (2, 2)

    def test_disjoint_alphabets(self):
        p, n = positive_negative_distance(
            frequency_vector("AAA"), frequency_vector("CC")
        )
        assert (p, n) == (3, 2)


class TestFrequencyDistance:
    def test_anagrams_have_zero_distance(self):
        assert frequency_distance("ACGT", "TGCA") == 0

    def test_simple(self):
        assert frequency_distance("AAAA", "AACG") == 2

    @given(WORDS, WORDS)
    @settings(max_examples=200)
    def test_lower_bounds_edit_distance(self, a, b):
        # The foundational property (Section 2.2): fd <= ed.
        assert frequency_distance(a, b) <= edit_distance(a, b)

    @given(WORDS, WORDS)
    @settings(max_examples=100)
    def test_symmetric(self, a, b):
        assert frequency_distance(a, b) == frequency_distance(b, a)

    @given(WORDS)
    @settings(max_examples=50)
    def test_identity(self, a):
        assert frequency_distance(a, a) == 0
