"""Tests for the streaming JoinEngine, its sources, and stats parity."""

import inspect
import random

import pytest

from repro.core import incremental as incremental_module
from repro.core import join as join_module
from repro.core import join_two as join_two_module
from repro.core import search as search_module
from repro.core import topk as topk_module
from repro.core.config import JoinConfig
from repro.core.engine import (
    CandidateSource,
    JoinEngine,
    iter_join_pairs,
    visit_order,
)
from repro.core.incremental import IncrementalJoiner
from repro.core.join import similarity_join
from repro.core.pipeline import StageChain
from repro.core.search import SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.store import StoreIndexSource
from repro.uncertain.string import UncertainString

from tests.helpers import SOURCE_MODES, random_collection, source_in_mode


def qfct(k=1, tau=0.1, **kwargs):
    return JoinConfig.for_algorithm("QFCT", k=k, tau=tau, q=2, **kwargs)


class TestStatsParity:
    """Search/incremental credit the same stage counters as batch join."""

    def test_incremental_visit_order_matches_batch_counters(self):
        rng = random.Random(41)
        collection = random_collection(rng, 14, length_range=(3, 7))
        config = qfct(report_probabilities=True)
        batch = similarity_join(collection, config).stats

        joiner = IncrementalJoiner(config)
        visit = sorted(
            range(len(collection)), key=lambda i: (len(collection[i]), i)
        )
        for index in visit:
            joiner.add(collection[index])

        for name in JoinStatistics.MERGE_COUNTERS:
            assert getattr(joiner.stats, name) == getattr(batch, name), name
        assert joiner.stats.stage_counters == batch.stage_counters
        assert joiner.stats.result_pairs == batch.result_pairs

    def test_search_counters_match_batch_probe_delta(self):
        # The batch join's final probe (of the last-visited string against
        # everything before it) must record exactly what a searcher over
        # the prefix records for the same query.
        rng = random.Random(42)
        collection = random_collection(rng, 14, length_range=(3, 7))
        config = qfct(report_probabilities=True)
        last = max(range(len(collection)), key=lambda i: (len(collection[i]), i))
        prefix = [s for i, s in enumerate(collection) if i != last]

        full = similarity_join(collection, config).stats
        before = similarity_join(prefix, config).stats
        outcome = SimilaritySearcher(prefix, config).search(collection[last])

        assert outcome.stats.length_eligible_pairs > 0
        for name in JoinStatistics.MERGE_COUNTERS:
            delta = getattr(full, name) - getattr(before, name)
            assert getattr(outcome.stats, name) == delta, name

    def test_search_credits_qgram_rejections(self):
        rng = random.Random(43)
        collection = random_collection(rng, 16, length_range=(3, 6))
        searcher = SimilaritySearcher(collection, qfct())
        query = random_collection(random.Random(44), 1, length_range=(4, 5))[0]
        stats = searcher.search(query).stats
        assert stats.length_eligible_pairs > 0
        assert (
            stats.length_eligible_pairs
            == stats.qgram_survivors + stats.qgram_rejected
        )

    def test_no_qgram_search_credits_length_survivors(self):
        rng = random.Random(45)
        collection = random_collection(rng, 12, length_range=(4, 6))
        config = JoinConfig.for_algorithm("FCT", k=1, tau=0.1, q=2)
        searcher = SimilaritySearcher(collection, config)
        query = random_collection(random.Random(46), 1, length_range=(4, 5))[0]
        stats = searcher.search(query).stats
        assert stats.length_survivors == stats.length_eligible_pairs > 0
        assert stats.qgram_survivors == 0
        assert stats.qgram_rejected == 0


class TestStageRegistry:
    def test_known_events_land_in_legacy_fields(self):
        stats = JoinStatistics()
        stats.record("qgram", "survivors", 3)
        stats.record("length", "eligible", 7)
        stats.record("verification", "checked")
        assert stats.qgram_survivors == 3
        assert stats.length_eligible_pairs == 7
        assert stats.verifications == 1
        assert stats.stage_count("qgram", "survivors") == 3
        assert stats.stage_counters == {}

    def test_frequency_undecided_counts_as_survival(self):
        # The frequency filter never ACCEPTs, so the chain's generic
        # "undecided" verdict must keep feeding the legacy field.
        stats = JoinStatistics()
        stats.record("frequency", "undecided", 2)
        assert stats.frequency_survivors == 2

    def test_unknown_events_accumulate_in_registry(self):
        stats = JoinStatistics()
        stats.record("bound", "rejected", 2)
        stats.record("bound", "rejected")
        assert stats.stage_counters == {"bound.rejected": 3}
        assert stats.stage_count("bound", "rejected") == 3
        assert stats.stage_count("bound", "accepted") == 0

    def test_merge_folds_registry_counters(self):
        a, b = JoinStatistics(), JoinStatistics()
        a.record("bound", "rejected", 1)
        b.record("bound", "rejected", 4)
        b.record("custom", "event", 2)
        a.merge(b)
        assert a.stage_counters == {"bound.rejected": 5, "custom.event": 2}

    def test_summary_lists_registry_counters(self):
        stats = JoinStatistics()
        stats.record("bound", "rejected", 9)
        assert "bound.rejected:" in stats.summary()
        assert "9" in stats.summary()


class TestBoundPlumbing:
    """The source's Theorem 2 upper bound reaches the stage chain."""

    def test_upper_bound_at_or_below_tau_rejects_before_any_stage(self):
        config = qfct(tau=0.5)
        chain = StageChain(config)
        stats = JoinStatistics()
        query = UncertainString.from_text("ACGT")
        candidate = UncertainString.from_text("ACGA")
        context = chain.context(0, query)
        similar, probability = chain.refine(
            context, 1, candidate, lambda: 0.5, stats, 0.25
        )
        assert not similar and probability is None
        assert stats.stage_count("bound", "rejected") == 1
        assert stats.frequency_checked == 0
        assert stats.verifications == 0

    def test_upper_bound_above_tau_proceeds_to_stages(self):
        config = qfct(tau=0.5)
        chain = StageChain(config)
        stats = JoinStatistics()
        query = UncertainString.from_text("ACGT")
        candidate = UncertainString.from_text("ACGA")
        context = chain.context(0, query)
        chain.refine(context, 1, candidate, lambda: 0.5, stats, 0.9)
        assert stats.stage_count("bound", "rejected") == 0
        assert stats.frequency_checked == 1


class TestCandidateSources:
    def test_sources_satisfy_protocol(self, tmp_path):
        # One class in every mode; the store-backed name adds nothing.
        collection = [UncertainString.from_text("ACGT")]
        for mode in SOURCE_MODES:
            source = source_in_mode(mode, collection, 1, 2, tmp_path)
            assert isinstance(source, CandidateSource)
        assert StoreIndexSource.__bases__ == (CandidateSource,)
        assert set(vars(StoreIndexSource)) <= {"__module__", "__doc__"}

    def test_sources_map_ranks_to_caller_ids(self, tmp_path):
        strings = {
            17: UncertainString.from_text("ACGT"),
            5: UncertainString.from_text("ACGA"),
            99: UncertainString.from_text("AAAAAAAAAA"),
        }
        query = UncertainString.from_text("ACGG")
        # Without a store, ids and their order are the caller's.
        for mode in ("none", "index"):
            source = source_in_mode(mode, [], 1, 2, tmp_path)
            stats = JoinStatistics()
            for string_id, string in strings.items():
                source.add(string_id, string, stats)
            assert len(source) == 3
            ids = [cid for cid, _ in source.probe(query, 0.0, stats, 1)]
            # id 99 is length-pruned; insertion (rank) order preserved.
            assert ids == [17, 5]

    @pytest.mark.parametrize("mode", SOURCE_MODES)
    def test_engines_join_alike_in_every_mode(self, mode, tmp_path):
        # The engine over each mode's source yields the in-memory join's
        # pairs and candidate-stage counters.
        rng = random.Random(48)
        collection = random_collection(rng, 20, length_range=(2, 8))
        source = source_in_mode(mode, collection, 1, 2, tmp_path)
        config = JoinConfig.for_algorithm(
            "FCT" if mode == "none" else "QFCT", k=1, tau=0.1, q=2
        )
        expected = similarity_join(collection, config)
        engine = JoinEngine(config, store=source.store)
        assert type(engine.source) is type(source)
        pairs = sorted(engine.join(visit_order(collection)))
        assert pairs == expected.pairs
        for name in (
            "length_eligible_pairs",
            "length_survivors",
            "qgram_survivors",
            "qgram_rejected",
        ):
            assert getattr(engine.stats, name) == getattr(
                expected.stats, name
            ), name

    def test_engine_accepts_arbitrary_ids(self):
        engine = JoinEngine(qfct(tau=0.0))
        engine.add(17, UncertainString.from_text("ACGT"))
        engine.add(5, UncertainString.from_text("ACGA"))
        query = UncertainString.from_text("ACGT")
        assert [cid for cid, _, _ in engine.probe(-1, query)] == [17, 5]


class TestDriverHygiene:
    """No driver rebuilds the index or applies filters/verifiers inline."""

    FORBIDDEN = (
        "SegmentInvertedIndex",
        "FrequencyDistanceFilter",
        "CdfBoundFilter",
        "trie_verify",
        "naive_verify",
        "build_trie",
    )
    DRIVERS = (
        join_module,
        join_two_module,
        search_module,
        incremental_module,
        topk_module,
    )

    @pytest.mark.parametrize(
        "module", DRIVERS, ids=[m.__name__.rsplit(".", 1)[-1] for m in DRIVERS]
    )
    def test_driver_has_no_inline_pipeline_code(self, module):
        source = inspect.getsource(module)
        for token in self.FORBIDDEN:
            assert token not in source, f"{module.__name__} references {token}"


class TestStreaming:
    def test_iter_join_pairs_rejects_parallel_config(self):
        with pytest.raises(ValueError, match="workers"):
            next(iter(iter_join_pairs([], qfct(workers=4))))

    def test_adaptive_tau_is_reread_per_candidate(self):
        taus = []

        def provider():
            taus.append(len(taus))
            return 0.0

        engine = JoinEngine(qfct(tau=0.0), tau=provider)
        engine.add(0, UncertainString.from_text("ACGT"))
        engine.add(1, UncertainString.from_text("ACGA"))
        list(engine.probe(-1, UncertainString.from_text("ACGT")))
        # One read for the source probe plus one per surviving candidate.
        assert len(taus) >= 2
