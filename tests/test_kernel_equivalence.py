"""Property tests: optimized kernels vs. frozen reference kernels.

The PR-5 rewrites (flat-buffer CDF DP, two-row banded edit distance,
merged-support frequency bounds, certain×certain fast path) claim to be
pure mechanical optimizations. These tests hold them to the strongest
version of that claim: **float-for-float equality** (``==``, never
``approx``) against the pre-optimization copies frozen in
``tests/helpers.py``, over randomized θ/γ/k workloads.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.context import StringFeatures
from repro.distance.edit import edit_distance, edit_distance_banded
from repro.filters.cdf import cdf_bounds
from repro.filters.frequency import (
    FrequencyProfile,
    expected_negative,
    expected_positive_negative,
    fd_lower_bound,
    merged_support,
)
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString
from repro.verify.naive import naive_verify

from tests.helpers import (
    ONE_MINUS_ULP,
    random_uncertain,
    reference_cdf_bounds,
    reference_edit_distance_banded,
    reference_expected_negative,
    reference_expected_positive_negative,
    reference_fd_lower_bound,
    reference_profile_distributions,
    uncertain_strings,
)

KS = st.integers(min_value=0, max_value=3)

STRINGS = uncertain_strings(alphabet="ACGT", min_length=1, max_length=7)

PROP = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCdfBoundsEquivalence:
    @given(STRINGS, STRINGS, KS)
    @PROP
    def test_matches_reference_bit_for_bit(self, left, right, k):
        assert cdf_bounds(left, right, k) == reference_cdf_bounds(
            left, right, k
        )

    @given(STRINGS, STRINGS, KS)
    @PROP
    def test_features_do_not_change_the_answer(self, left, right, k):
        plain = cdf_bounds(left, right, k)
        with_features = cdf_bounds(
            left,
            right,
            k,
            left_features=StringFeatures(left),
            right_features=StringFeatures(right),
        )
        assert with_features == plain

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_randomized_theta_gamma_sweep(self, k):
        rng = random.Random(5150 + k)
        for theta in (0.0, 0.2, 0.6, 1.0):
            for gamma in (2, 3):
                for _ in range(12):
                    left = random_uncertain(
                        rng, rng.randint(1, 9), theta=theta, gamma=gamma
                    )
                    right = random_uncertain(
                        rng, rng.randint(1, 9), theta=theta, gamma=gamma
                    )
                    assert cdf_bounds(left, right, k) == reference_cdf_bounds(
                        left, right, k
                    ), (left, right, k)


class TestCertainFastPath:
    """Certain×certain pairs short-circuit to the banded integer kernel."""

    @given(
        st.text(alphabet="ACGT", min_size=1, max_size=9),
        st.text(alphabet="ACGT", min_size=1, max_size=9),
        KS,
    )
    @PROP
    def test_equals_reference_dp_on_certain_pairs(self, a, b, k):
        from repro.uncertain.string import UncertainString

        left = UncertainString.from_text(a)
        right = UncertainString.from_text(b)
        assert cdf_bounds(left, right, k) == reference_cdf_bounds(
            left, right, k
        )

    @given(
        st.text(alphabet="AC", min_size=1, max_size=7),
        st.text(alphabet="AC", min_size=1, max_size=7),
        st.integers(min_value=0, max_value=2),
    )
    @PROP
    def test_agrees_with_naive_verify(self, a, b, k):
        """For one-world strings the bounds ARE the exact probability."""
        from repro.uncertain.string import UncertainString

        left = UncertainString.from_text(a)
        right = UncertainString.from_text(b)
        lower, upper = cdf_bounds(left, right, k)
        exact = naive_verify(left, right, k)
        assert lower[k] == exact
        assert upper[k] == exact


class TestBandedEditEquivalence:
    @given(
        st.text(alphabet="abcd", max_size=12),
        st.text(alphabet="abcd", max_size=12),
        st.integers(min_value=0, max_value=4),
    )
    @PROP
    def test_matches_reference(self, a, b, k):
        assert edit_distance_banded(a, b, k) == reference_edit_distance_banded(
            a, b, k
        )

    @given(
        st.text(alphabet="ab", max_size=9),
        st.text(alphabet="ab", max_size=9),
        st.integers(min_value=0, max_value=4),
    )
    @PROP
    def test_matches_full_dp_within_band(self, a, b, k):
        banded = edit_distance_banded(a, b, k)
        exact = edit_distance(a, b)
        assert banded == (exact if exact <= k else k + 1)


class TestFrequencyProfileEquivalence:
    """The one-pass profile constructor against the frozen
    scan-per-character one: same support, counts and pmf floats."""

    @given(
        uncertain_strings(
            alphabet="ACGT", min_length=0, max_length=10, max_uncertain=5,
            verbatim=True,
        )
    )
    @PROP
    def test_distributions_match_reference(self, string):
        profile = FrequencyProfile(string)
        got = {
            char: (profile.distribution(char).certain,
                   profile.distribution(char).pmf)
            for char in profile.sorted_chars
        }
        expected = reference_profile_distributions(string)
        assert list(got.items()) == list(expected.items())
        assert profile.chars() == frozenset(expected)


    def test_weighted_single_alternatives_count_as_certain(self):
        # Single alternatives at 1 - 2**-53 are weighted in the heavy
        # form but certain: they count, as in the reference.
        near = UncertainPosition.from_normalized([("A", ONE_MINUS_ULP)])
        string = UncertainString(
            [near, UncertainPosition({"A": 0.6, "C": 0.4}), near,
             UncertainPosition.certain("A"), UncertainPosition.certain("C")]
        )
        profile = FrequencyProfile(string)
        got = {
            char: (profile.distribution(char).certain,
                   profile.distribution(char).pmf)
            for char in profile.sorted_chars
        }
        assert got == reference_profile_distributions(string)
        assert got["A"][0] == 3 and got["C"][0] == 1


class TestFrequencyEquivalence:
    @staticmethod
    def _profiles(seed):
        rng = random.Random(seed)
        return [
            FrequencyProfile(
                random_uncertain(
                    rng,
                    rng.randint(1, 8),
                    theta=rng.choice([0.0, 0.3, 0.8]),
                    gamma=rng.choice([2, 3]),
                )
            )
            for _ in range(20)
        ]

    def test_merged_support_equals_sorted_union(self):
        profiles = self._profiles(901)
        for left in profiles:
            for right in profiles:
                assert list(merged_support(left, right)) == sorted(
                    left.chars() | right.chars()
                )

    def test_fd_lower_bound_matches_reference(self):
        profiles = self._profiles(902)
        for left in profiles:
            for right in profiles:
                assert fd_lower_bound(left, right) == reference_fd_lower_bound(
                    left, right
                )

    def test_expected_negative_matches_reference_floats(self):
        profiles = self._profiles(903)
        for left in profiles:
            for right in profiles:
                assert expected_negative(left, right) == (
                    reference_expected_negative(left, right)
                )

    def test_expected_positive_negative_matches_reference_floats(self):
        profiles = self._profiles(904)
        for left in profiles:
            for right in profiles:
                assert expected_positive_negative(left, right) == (
                    reference_expected_positive_negative(left, right)
                )
