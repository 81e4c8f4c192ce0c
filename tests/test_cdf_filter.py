"""Tests for the CDF-bound filter (Theorem 4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.probability import edit_similarity_probability
from repro.filters.base import FilterVerdict
from repro.filters.cdf import (
    _BOUNDARY_CACHE,
    _BOUNDARY_CACHE_MAX,
    _ZERO_CACHE,
    _ZERO_CACHE_MAX,
    CdfBoundFilter,
    _boundary_cell,
    _zero_cell,
    cdf_bounds,
    clear_cdf_caches,
)
from repro.uncertain.parser import parse_uncertain
from repro.uncertain.string import UncertainString

from tests.helpers import random_uncertain, uncertain_strings


class TestDeterministicCases:
    def test_equal_strings(self):
        a = UncertainString.from_text("ACGT")
        lower, upper = cdf_bounds(a, a, 2)
        assert lower[0] == pytest.approx(1.0)
        assert upper[0] == pytest.approx(1.0)

    def test_detects_exact_distance_one(self):
        a = UncertainString.from_text("ACGT")
        b = UncertainString.from_text("ACGA")
        lower, upper = cdf_bounds(a, b, 2)
        assert upper[0] == pytest.approx(0.0)   # ed > 0 surely
        assert lower[1] == pytest.approx(1.0)   # ed <= 1 surely

    def test_length_gap_shortcut(self):
        a = UncertainString.from_text("A")
        b = UncertainString.from_text("AAAAA")
        lower, upper = cdf_bounds(a, b, 2)
        assert max(upper) == 0.0


class TestPaperFootnoteExamples:
    """The footnote shows Ge-Li's original bounds violated on these pairs;
    Theorem 4's corrected bounds must hold."""

    def test_lower_bound_example(self):
        r = UncertainString.from_text("ACC")
        s = parse_uncertain("A{(C,0.7),(G,0.2),(T,0.1)}C")
        lower, upper = cdf_bounds(r, s, 1)
        exact = edit_similarity_probability(r, s, 1)
        assert lower[1] <= exact + 1e-9 <= upper[1] + 2e-9

    def test_upper_bound_example(self):
        # DISC vs DI{(C,0.4),(S,0.5),(R,0.1)} with k = 1 — length 4 vs 3.
        r = UncertainString.from_text("DISC")
        s = parse_uncertain("DI{(C,0.4),(S,0.5),(R,0.1)}")
        lower, upper = cdf_bounds(r, s, 1)
        exact = edit_similarity_probability(r, s, 1)
        assert lower[1] <= exact + 1e-9 <= upper[1] + 2e-9


class TestSandwichProperty:
    @given(
        uncertain_strings(max_length=6),
        uncertain_strings(max_length=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_sandwich_exact_probability(self, left, right, k):
        lower, upper = cdf_bounds(left, right, k)
        for j in range(k + 1):
            exact = edit_similarity_probability(left, right, j)
            assert lower[j] <= exact + 1e-9
            assert upper[j] >= exact - 1e-9

    @given(
        uncertain_strings(max_length=6),
        uncertain_strings(max_length=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_monotone_in_j(self, left, right):
        lower, upper = cdf_bounds(left, right, 3)
        for j in range(3):
            assert upper[j] <= upper[j + 1] + 1e-9
        # L need not be monotone by construction, but must stay in [0, 1].
        assert all(0.0 <= v <= 1.0 for v in lower)
        assert all(0.0 <= v <= 1.0 for v in upper)


class TestFilterDecisions:
    def test_accept_identical_strings(self):
        f = CdfBoundFilter(k=1)
        a = UncertainString.from_text("ACGTACGT")
        decision = f.decide(a, a, tau=0.5)
        assert decision.verdict is FilterVerdict.ACCEPT

    def test_reject_distant_strings(self):
        f = CdfBoundFilter(k=1)
        a = UncertainString.from_text("AAAAAAAA")
        b = UncertainString.from_text("CCCCCCCC")
        decision = f.decide(a, b, tau=0.01)
        assert decision.rejected

    def test_undecided_in_between(self):
        rng = random.Random(23)
        f = CdfBoundFilter(k=1)
        seen_undecided = False
        for _ in range(120):
            a = random_uncertain(rng, 5, theta=0.5)
            b = random_uncertain(rng, 5, theta=0.5)
            decision = f.decide(a, b, tau=0.3)
            if decision.verdict is FilterVerdict.UNDECIDED:
                seen_undecided = True
                # undecided means tau within (L, U]
                assert decision.lower <= 0.3 < max(decision.upper, 0.3 + 1e-12)
        assert seen_undecided

    def test_decisions_never_contradict_truth(self):
        rng = random.Random(29)
        f = CdfBoundFilter(k=2)
        for _ in range(100):
            a = random_uncertain(rng, rng.randint(4, 6), theta=0.4)
            b = random_uncertain(rng, rng.randint(4, 6), theta=0.4)
            decision = f.decide(a, b, tau=0.2)
            exact = edit_similarity_probability(a, b, 2)
            if decision.accepted:
                assert exact > 0.2 - 1e-9
            elif decision.rejected:
                assert exact <= 0.2 + 1e-9

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            CdfBoundFilter(k=-1)


class TestKernelCaches:
    """Regression: per-(distance, k) boundary cells are memoized."""

    def test_boundary_cell_memoized(self):
        from repro.filters.cdf import _boundary_cell

        assert _boundary_cell(3, 2) is _boundary_cell(3, 2)
        assert _boundary_cell(0, 4) is _boundary_cell(0, 4)
        assert _boundary_cell(2, 2) == (
            (0.0, 0.0, 1.0),
            (0.0, 0.0, 1.0),
        )

    def test_certain_pair_fast_path_uses_boundary_cells(self):
        from repro.filters.cdf import _boundary_cell

        a = UncertainString.from_text("ACGT")
        b = UncertainString.from_text("ACGA")
        assert cdf_bounds(a, b, 2) is _boundary_cell(1, 2)

    def test_boundary_cache_is_bounded(self):
        clear_cdf_caches()
        try:
            for distance in range(_BOUNDARY_CACHE_MAX + 300):
                _boundary_cell(distance, 2)
            assert len(_BOUNDARY_CACHE) == _BOUNDARY_CACHE_MAX
            for k in range(_ZERO_CACHE_MAX + 20):
                _zero_cell(k)
            assert len(_ZERO_CACHE) == _ZERO_CACHE_MAX
        finally:
            clear_cdf_caches()

    def test_boundary_cache_eviction_is_lru(self):
        clear_cdf_caches()
        try:
            first = _boundary_cell(0, 1)
            for distance in range(1, _BOUNDARY_CACHE_MAX):
                _boundary_cell(distance, 1)
            # Touch the oldest entry, then overflow: the second-oldest is
            # the one evicted, the touched entry survives.
            assert _boundary_cell(0, 1) is first
            _boundary_cell(_BOUNDARY_CACHE_MAX, 1)
            assert (0, 1) in _BOUNDARY_CACHE
            assert (1, 1) not in _BOUNDARY_CACHE
        finally:
            clear_cdf_caches()
