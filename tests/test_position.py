"""Tests for repro.uncertain.position."""

import pickle
import random

import pytest

from repro.datasets.loader import load_collection
from repro.uncertain.parser import parse_normalized, parse_uncertain
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString


class TestConstruction:
    def test_from_mapping(self):
        pos = UncertainPosition({"A": 0.7, "C": 0.3})
        assert pos.probability("A") == pytest.approx(0.7)
        assert pos.probability("C") == pytest.approx(0.3)

    def test_from_pairs(self):
        pos = UncertainPosition((("A", 0.5), ("G", 0.5)))
        assert set(pos.chars) == {"A", "G"}

    def test_certain_constructor(self):
        pos = UncertainPosition.certain("Q")
        assert pos.is_certain
        assert pos.top == "Q"
        assert pos.probability("Q") == 1.0
        assert pos == UncertainPosition({"Q": 1.0})
        assert (pos.chars, pos.probs, pos.pdf) == (("Q",), (1.0,), {"Q": 1.0})
        for bad in ("", "QQ", 7, "ab", 1, ["a"], None):
            with pytest.raises(ValueError, match="single character"):
                UncertainPosition.certain(bad)

    def test_sorted_most_probable_first(self):
        pos = UncertainPosition({"A": 0.2, "C": 0.5, "G": 0.3})
        assert pos.chars == ("C", "G", "A")

    def test_ties_broken_by_character(self):
        pos = UncertainPosition({"G": 0.5, "A": 0.5})
        assert pos.chars == ("A", "G")

    def test_zero_probability_alternatives_dropped(self):
        pos = UncertainPosition({"A": 1.0, "C": 0.0})
        assert pos.chars == ("A",)
        assert pos.is_certain

    def test_probabilities_normalized(self):
        # Tiny float drift within tolerance is renormalized exactly.
        pos = UncertainPosition({"A": 0.3 + 1e-9, "C": 0.7})
        assert sum(pos.probs) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            UncertainPosition({"A": 0.5, "C": 0.4})

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            UncertainPosition({"A": 1.2, "C": -0.2})

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            UncertainPosition((("A", 0.5), ("A", 0.5)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            UncertainPosition({})

    def test_rejects_multichar(self):
        with pytest.raises(ValueError, match="single character"):
            UncertainPosition({"AB": 1.0})


class TestAgreement:
    def test_agreement_identical_certain(self):
        a = UncertainPosition.certain("A")
        assert a.agreement(a) == 1.0

    def test_agreement_disjoint(self):
        a = UncertainPosition.certain("A")
        c = UncertainPosition.certain("C")
        assert a.agreement(c) == 0.0

    def test_agreement_formula(self):
        # p1 = sum_c P(x=c) P(y=c) (Theorem 4's match probability).
        x = UncertainPosition({"A": 0.6, "C": 0.4})
        y = UncertainPosition({"A": 0.5, "G": 0.5})
        assert x.agreement(y) == pytest.approx(0.6 * 0.5)

    def test_agreement_symmetric(self):
        x = UncertainPosition({"A": 0.6, "C": 0.4})
        y = UncertainPosition({"A": 0.1, "C": 0.2, "G": 0.7})
        assert x.agreement(y) == pytest.approx(y.agreement(x))


class TestSampling:
    def test_sample_respects_support(self):
        rng = random.Random(7)
        pos = UncertainPosition({"A": 0.5, "C": 0.5})
        draws = {pos.sample(rng) for _ in range(50)}
        assert draws <= {"A", "C"}

    def test_sample_frequency_tracks_probability(self):
        rng = random.Random(7)
        pos = UncertainPosition({"A": 0.9, "C": 0.1})
        hits = sum(pos.sample(rng) == "A" for _ in range(2000))
        assert 1650 <= hits <= 1990


class TestProtocol:
    def test_equality_and_hash(self):
        a = UncertainPosition({"A": 0.5, "C": 0.5})
        b = UncertainPosition({"C": 0.5, "A": 0.5})
        assert a == b
        assert hash(a) == hash(b)

    def test_len_is_support_size(self):
        assert len(UncertainPosition({"A": 0.5, "C": 0.5})) == 2

    def test_repr_round_trips_certain(self):
        assert "certain" in repr(UncertainPosition.certain("A"))


class TestSharedCertain:
    """One shared object per certain character, equal to any other
    certain position of that character."""

    def test_certain_is_shared(self):
        assert UncertainPosition.certain("Q") is UncertainPosition.certain("Q")
        assert UncertainPosition.certain("Q") is not UncertainPosition.certain("R")

    def test_unhashable_argument_is_a_value_error(self):
        # The shared-instance lookup must not turn the validation error
        # into a TypeError.
        for bad in (["a"], {"a": 1.0}, {"a"}):
            with pytest.raises(ValueError, match="single character"):
                UncertainPosition.certain(bad)

    def test_equality_and_hash_unchanged(self):
        shared = UncertainPosition.certain("A")
        built = UncertainPosition({"A": 1.0})
        assert built is not shared
        assert built == shared and hash(built) == hash(shared)
        assert UncertainPosition.from_normalized([("A", 1.0)]) == shared

    @pytest.mark.parametrize("parse", [parse_uncertain, parse_normalized])
    def test_parsers_share_certain_positions(self, parse):
        string = parse("AB{(A,0.5),(C,0.5)}BA")
        assert string[0] is string[4] is UncertainPosition.certain("A")
        assert string[1] is string[3] is UncertainPosition.certain("B")
        assert not string[2].is_certain

    def test_from_text_shares_certain_positions(self):
        string = UncertainString.from_text("ABBA")
        assert string[0] is string[3] is UncertainPosition.certain("A")
        assert string[1] is string[2] is UncertainPosition.certain("B")

    def test_loader_shares_certain_positions(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("AB{(A,0.5),(C,0.5)}\nBA\n")
        first, second = load_collection(path)
        assert first[0] is second[1] is UncertainPosition.certain("A")
        assert first[1] is second[0] is UncertainPosition.certain("B")

    def test_pickle_round_trip(self):
        shared = UncertainPosition.certain("A")
        assert pickle.loads(pickle.dumps(shared)) is shared
        string = parse_uncertain("A{(A,0.3),(C,0.7)}A")
        clone = pickle.loads(pickle.dumps(string))
        assert clone == string
        assert clone[0] is clone[2] is shared
        assert clone[1].probs == string[1].probs
        # A single alternative below 1.0 keeps its float verbatim.
        near = UncertainPosition.from_normalized([("A", 1.0 - 1e-9)])
        assert pickle.loads(pickle.dumps(near)).probs == near.probs
