"""Tests for possible-world enumeration."""

import random

import pytest
from hypothesis import given, settings

from repro.uncertain.parser import parse_uncertain
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString
from repro.uncertain.worlds import (
    enumerate_joint_worlds,
    enumerate_worlds,
    sample_world,
    window_worlds,
    world_count,
)

from tests.helpers import (
    ONE_MINUS_ULP,
    reference_enumerate_worlds,
    uncertain_strings,
)


@pytest.fixture
def two_uncertain():
    return parse_uncertain("{(A,0.6),(C,0.4)}G{(T,0.9),(A,0.1)}")


class TestEnumerateWorlds:
    def test_counts(self, two_uncertain):
        worlds = list(enumerate_worlds(two_uncertain))
        assert len(worlds) == 4
        assert world_count(two_uncertain) == 4

    def test_probabilities_sum_to_one(self, two_uncertain):
        assert sum(p for _, p in enumerate_worlds(two_uncertain)) == pytest.approx(1.0)

    def test_each_world_probability_is_product(self, two_uncertain):
        worlds = dict(enumerate_worlds(two_uncertain))
        assert worlds["AGT"] == pytest.approx(0.6 * 0.9)
        assert worlds["CGA"] == pytest.approx(0.4 * 0.1)

    def test_deterministic_string_single_world(self):
        worlds = list(enumerate_worlds(UncertainString.from_text("AC")))
        assert worlds == [("AC", 1.0)]

    def test_order_is_most_probable_first_per_position(self, two_uncertain):
        worlds = [w for w, _ in enumerate_worlds(two_uncertain)]
        assert worlds[0] == "AGT"  # modal instance first

    def test_limit_guard(self):
        s = parse_uncertain("{(A,0.5),(C,0.5)}" * 4)
        with pytest.raises(ValueError, match="refusing"):
            list(enumerate_worlds(s, limit=8))
        assert len(list(enumerate_worlds(s, limit=None))) == 16


class TestEnumeratorParity:
    """Skipping positions fixed at exactly 1.0 must leave every world,
    its order and its float identical to the frozen recursive generator,
    which multiplies every position in."""

    @given(
        uncertain_strings(
            alphabet="ACG", min_length=0, max_length=9, max_uncertain=4,
            verbatim=True,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_recursive_reference(self, string):
        assert list(enumerate_worlds(string, limit=None)) == list(
            reference_enumerate_worlds(string)
        )

    @given(
        uncertain_strings(
            alphabet="ACG", min_length=0, max_length=9, max_uncertain=4,
            verbatim=True,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_every_window_matches_recursive_reference(self, string):
        for start in range(len(string) + 1):
            for length in range(len(string) - start + 1):
                assert list(window_worlds(string, start, length)) == list(
                    reference_enumerate_worlds(string.substring(start, length))
                ), (start, length)

    def test_window_out_of_range_raises(self):
        string = UncertainString.from_text("ACG")
        for start, length in ((-1, 1), (0, -1), (2, 2), (4, 0)):
            with pytest.raises(ValueError, match="out of range"):
                list(window_worlds(string, start, length))

    def test_empty_string_has_one_empty_world(self):
        empty = UncertainString([])
        assert list(enumerate_worlds(empty)) == [("", 1.0)]
        assert list(reference_enumerate_worlds(empty)) == [("", 1.0)]

    def test_all_certain_string(self):
        certain = UncertainString.from_text("GATTACA")
        assert list(enumerate_worlds(certain)) == [("GATTACA", 1.0)]

    def test_single_alternative_below_one_is_multiplied(self):
        # is_certain holds for these positions, but their float is
        # 1 - 2**-53: it must enter the product as the reference does.
        near = UncertainPosition.from_normalized([("A", ONE_MINUS_ULP)])
        assert near.is_certain and near.probs != (1.0,)
        string = UncertainString(
            [near, UncertainPosition.certain("C"), near,
             UncertainPosition({"G": 0.3, "T": 0.7})]
        )
        worlds = list(enumerate_worlds(string))
        assert worlds == list(reference_enumerate_worlds(string))
        assert worlds[0] == ("ACAT", ONE_MINUS_ULP * ONE_MINUS_ULP * 0.7)

    def test_stays_lazy(self):
        huge = parse_uncertain("{(A,0.5),(C,0.5)}" * 60)
        assert huge.world_count() == 2**60
        assert next(enumerate_worlds(huge, limit=None)) == ("A" * 60, 0.5**60)

    def test_limit_guard_raises_at_call(self):
        s = parse_uncertain("{(A,0.5),(C,0.5)}" * 4)
        with pytest.raises(ValueError, match="refusing"):
            enumerate_worlds(s, limit=15)
        assert len(list(enumerate_worlds(s, limit=16))) == 16


class TestJointWorlds:
    def test_joint_probabilities_sum_to_one(self, two_uncertain):
        other = parse_uncertain("A{(C,0.3),(G,0.7)}")
        total = sum(p for _, _, p in enumerate_joint_worlds(two_uncertain, other))
        assert total == pytest.approx(1.0)

    def test_joint_is_product_of_marginals(self, two_uncertain):
        other = parse_uncertain("A{(C,0.3),(G,0.7)}")
        for left, right, prob in enumerate_joint_worlds(two_uncertain, other):
            expected = two_uncertain.instance_probability(
                left
            ) * other.instance_probability(right)
            assert prob == pytest.approx(expected)

    def test_joint_limit_guard(self, two_uncertain):
        with pytest.raises(ValueError, match="joint"):
            list(enumerate_joint_worlds(two_uncertain, two_uncertain, limit=8))


class TestSampling:
    def test_sample_world_valid(self, two_uncertain):
        rng = random.Random(11)
        for _ in range(10):
            text = sample_world(two_uncertain, rng)
            assert two_uncertain.instance_probability(text) > 0
