"""Integration tests: every join variant must equal the brute-force join."""

import random

import pytest

from repro.baselines.brute import brute_force_join
from repro.core.config import JoinConfig
from repro.core.join import similarity_join
from repro.uncertain.parser import parse_uncertain
from repro.uncertain.string import UncertainString

from tests.helpers import random_collection


def brute_pairs(collection, k, tau):
    return {(i, j) for i, j, _ in brute_force_join(collection, k, tau)}


class TestCorrectnessAgainstBruteForce:
    @pytest.mark.parametrize("algorithm", ["QFCT", "QCT", "QFT", "FCT", "QT", "T"])
    def test_variant_matches_ground_truth(self, algorithm):
        rng = random.Random(hash(algorithm) % 1000)
        collection = random_collection(rng, 14, length_range=(4, 7), theta=0.35)
        config = JoinConfig.for_algorithm(algorithm, k=1, tau=0.1, q=2)
        outcome = similarity_join(collection, config)
        assert outcome.id_pairs() == brute_pairs(collection, 1, 0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k,tau,q", [(1, 0.05, 2), (2, 0.3, 2), (1, 0.5, 3)])
    def test_parameter_grid(self, seed, k, tau, q):
        rng = random.Random(seed * 101 + k)
        collection = random_collection(rng, 12, length_range=(4, 8), theta=0.3)
        config = JoinConfig(k=k, tau=tau, q=q)
        outcome = similarity_join(collection, config)
        assert outcome.id_pairs() == brute_pairs(collection, k, tau)

    def test_naive_verification_variant(self):
        rng = random.Random(77)
        collection = random_collection(rng, 10, length_range=(4, 6))
        config = JoinConfig(k=1, tau=0.2, q=2, verification="naive")
        outcome = similarity_join(collection, config)
        assert outcome.id_pairs() == brute_pairs(collection, 1, 0.2)

    def test_selection_modes_agree(self):
        rng = random.Random(13)
        collection = random_collection(rng, 12, length_range=(4, 7))
        truth = brute_pairs(collection, 1, 0.15)
        for mode in ("shift", "multimatch", "window"):
            config = JoinConfig(k=1, tau=0.15, q=2, selection=mode)
            assert similarity_join(collection, config).id_pairs() == truth

    def test_group_and_bound_modes_agree(self):
        rng = random.Random(14)
        collection = random_collection(rng, 12, length_range=(4, 7))
        truth = brute_pairs(collection, 1, 0.15)
        for group_mode in ("exact", "beta"):
            for bound_mode in ("paper", "markov"):
                config = JoinConfig(
                    k=1, tau=0.15, q=2, group_mode=group_mode, bound_mode=bound_mode
                )
                assert similarity_join(collection, config).id_pairs() == truth


class TestReportedProbabilities:
    def test_probabilities_match_reference(self):
        rng = random.Random(4)
        collection = random_collection(rng, 10, length_range=(4, 6))
        config = JoinConfig(k=1, tau=0.1, q=2, report_probabilities=True)
        outcome = similarity_join(collection, config)
        truth = {(i, j): p for i, j, p in brute_force_join(collection, 1, 0.1)}
        assert outcome.id_pairs() == set(truth)
        for pair in outcome.pairs:
            assert pair.probability == pytest.approx(truth[pair.ids], abs=1e-9)

    def test_without_reporting_cdf_accepts_may_skip_probability(self):
        collection = [
            UncertainString.from_text("ACGTACGT"),
            UncertainString.from_text("ACGTACGT"),
        ]
        outcome = similarity_join(collection, JoinConfig(k=1, tau=0.5, q=2))
        assert outcome.id_pairs() == {(0, 1)}
        # identical strings are CDF-accepted without verification
        assert outcome.pairs[0].probability is None


class TestEdgeCases:
    def test_empty_collection(self):
        outcome = similarity_join([], JoinConfig(k=1, tau=0.1))
        assert outcome.pairs == []

    def test_single_string(self):
        outcome = similarity_join(
            [UncertainString.from_text("ACGT")], JoinConfig(k=1, tau=0.1)
        )
        assert outcome.pairs == []

    def test_duplicate_strings_all_pair(self):
        s = parse_uncertain("AC{(G,0.5),(T,0.5)}T")
        outcome = similarity_join([s, s, s], JoinConfig(k=1, tau=0.1, q=2))
        assert outcome.id_pairs() == {(0, 1), (0, 2), (1, 2)}

    def test_tau_zero_keeps_strictly_positive_pairs(self):
        collection = [
            UncertainString.from_text("AAAA"),
            UncertainString.from_text("CCCC"),
            UncertainString.from_text("AAAC"),
        ]
        outcome = similarity_join(collection, JoinConfig(k=1, tau=0.0, q=2))
        assert outcome.id_pairs() == {(0, 2)}

    def test_very_short_strings(self):
        collection = [
            UncertainString.from_text("A"),
            UncertainString.from_text("C"),
            UncertainString.from_text("AG"),
        ]
        outcome = similarity_join(collection, JoinConfig(k=2, tau=0.1, q=3))
        assert outcome.id_pairs() == brute_pairs(collection, 2, 0.1)


class TestStatistics:
    def test_counters_populated(self):
        rng = random.Random(8)
        collection = random_collection(rng, 10, length_range=(4, 6))
        outcome = similarity_join(collection, JoinConfig(k=1, tau=0.1, q=2))
        stats = outcome.stats
        assert stats.total_strings == 10
        assert stats.result_pairs == len(outcome.pairs)
        assert stats.qgram_survivors >= stats.frequency_checked >= 0
        assert stats.total_seconds > 0
        assert "strings" in stats.summary()

    def test_filter_order_counts_are_consistent(self):
        rng = random.Random(9)
        collection = random_collection(rng, 12, length_range=(4, 7))
        outcome = similarity_join(collection, JoinConfig(k=1, tau=0.2, q=2))
        stats = outcome.stats
        assert stats.frequency_checked == stats.qgram_survivors
        assert stats.cdf_checked == stats.frequency_survivors
        assert (
            stats.cdf_accepted + stats.cdf_rejected + stats.cdf_undecided
            == stats.cdf_checked
        )
        assert stats.verifications <= stats.cdf_undecided + stats.cdf_accepted
