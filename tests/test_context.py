"""CollectionContext / StringFeatures and fork-shared dispatch tests.

Covers the per-collection feature context (PR 5's tentpole): feature
correctness, id re-keying for band workers, and the dispatch contract
of the parallel driver — band payloads must serialize only id lists
plus the config (no strings, no profiles), with the collection state
published to workers once per process on both fork and spawn start
methods.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
from dataclasses import replace

import pytest

import repro.core.executor as executor
import repro.core.parallel as parallel
from repro.core.config import JoinConfig
from repro.core.context import CollectionContext, StringFeatures
from repro.core.join import similarity_join
from repro.core.parallel import (
    parallel_similarity_join,
    parallel_similarity_join_two,
)
from repro.filters.frequency import FrequencyProfile
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString

from tests.helpers import ONE_MINUS_ULP, random_collection, random_uncertain


class TestStringFeatures:
    def test_certain_string_features(self):
        string = UncertainString.from_text("ACGT")
        features = StringFeatures(string)
        assert features.length == 4
        assert features.is_certain
        assert string.heavy_form() == ("ACGT", ())
        assert features.support == frozenset("ACGT")
        assert features.sorted_support == ("A", "C", "G", "T")

    def test_uncertain_string_features(self):
        rng = random.Random(31)
        string = random_uncertain(rng, 6, theta=1.0, gamma=2)
        features = StringFeatures(string)
        assert not features.is_certain
        assert features.length == 6
        assert features.support == string.support_alphabet()
        assert not hasattr(features, "certain_text")
        assert not hasattr(features, "position_chars")
        assert not hasattr(features, "position_probs")

    def test_weighted_single_alternative_is_certain(self):
        # A single alternative kept verbatim below 1.0 is weighted (it
        # is a factor of every world) but certain (one world).
        near = UncertainPosition.from_normalized([("A", ONE_MINUS_ULP)])
        string = UncertainString(
            [UncertainPosition.certain("C"), near, UncertainPosition.certain("G")]
        )
        features = StringFeatures(string)
        assert string.heavy_form() == ("CAG", (1,))
        assert features.is_certain
        assert features.support == frozenset("ACG")

    def test_profile_lazy_and_cached(self):
        string = UncertainString.from_text("AC")
        features = StringFeatures(string)
        assert features.profile is None
        profile = features.ensure_profile()
        assert features.profile is profile
        assert features.ensure_profile() is profile

    def test_support_views_agree_with_profile(self):
        rng = random.Random(32)
        string = random_uncertain(rng, 7, theta=0.5)
        eager = StringFeatures(string)
        lazy_support = eager.sorted_support
        profiled = StringFeatures(string)
        profiled.ensure_profile()
        assert profiled.sorted_support == lazy_support
        assert profiled.support == eager.support


class TestCollectionContext:
    def test_for_collection_builds_everything_once(self):
        collection = random_collection(random.Random(33), 8)
        context = CollectionContext.for_collection(collection)
        assert len(context) == len(collection)
        for string_id, string in enumerate(collection):
            features = context.cached(string_id)
            assert features is not None
            assert features.string is string
            assert isinstance(features.profile, FrequencyProfile)

    def test_build_profiles_false_skips_profiles(self):
        collection = random_collection(random.Random(34), 4)
        context = CollectionContext.for_collection(
            collection, build_profiles=False
        )
        assert all(
            context.cached(i).profile is None for i in range(len(collection))
        )

    def test_negative_ids_are_fresh_per_call(self):
        context = CollectionContext()
        query = UncertainString.from_text("ACA")
        first = context.features(-1, query)
        second = context.features(-1, query)
        assert first is not second
        assert len(context) == 0

    def test_nonnegative_ids_are_cached(self):
        context = CollectionContext()
        string = UncertainString.from_text("ACA")
        assert context.features(3, string) is context.features(3, string)

    def test_subcontext_rekeys_without_copying(self):
        collection = random_collection(random.Random(35), 6)
        context = CollectionContext.for_collection(collection)
        id_map = (4, 1, 3)
        sub = context.subcontext(id_map)
        assert len(sub) == 3
        for local_id, global_id in enumerate(id_map):
            assert sub.cached(local_id) is context.cached(global_id)


def _capture_payloads(monkeypatch):
    """Intercept run_bands to record the per-band payloads dispatched.

    Both banded drivers call ``executor.run_bands`` (looked up at call
    time), so patching it there observes the exact payloads they ship.
    """
    captured = []
    real = executor.run_bands

    def recording(task, payloads, **kwargs):
        captured.extend(payload for _, payload in payloads)
        return real(task, payloads, **kwargs)

    monkeypatch.setattr(executor, "run_bands", recording)
    return captured


class TestPayloadsShipOnlyIds:
    """The dispatch contract: payloads are ids + config, nothing else."""

    @staticmethod
    def _assert_lean(payload, config_bytes):
        blob = pickle.dumps(payload)
        # No uncertain-string (or feature/profile) class is referenced
        # anywhere in the pickle — strings travel via shared state only.
        assert b"repro.uncertain" not in blob
        assert b"repro.core.context" not in blob
        assert b"FrequencyProfile" not in blob
        # Byte budget: the config plus a few ints per member id.
        id_count = sum(
            len(field) for field in payload if isinstance(field, tuple)
        )
        assert len(blob) <= config_bytes + 128 + 12 * id_count

    def test_self_join_payloads(self, monkeypatch):
        collection = random_collection(
            random.Random(36), 24, length_range=(4, 10)
        )
        config = JoinConfig(k=1, tau=0.1, q=2, workers=3)
        captured = _capture_payloads(monkeypatch)
        parallel_similarity_join(
            collection, config, use_processes=False, min_parallel=0
        )
        assert captured, "expected banded dispatch"
        config_bytes = len(pickle.dumps(config))
        for payload in captured:
            band_index, token, member_ids, owned_high, cfg = payload
            assert isinstance(member_ids, tuple)
            assert all(isinstance(i, int) for i in member_ids)
            assert isinstance(cfg, JoinConfig)
            self._assert_lean(payload, config_bytes)

    def test_two_join_payloads(self, monkeypatch):
        rng = random.Random(37)
        left = random_collection(rng, 14, length_range=(4, 9))
        right = random_collection(rng, 14, length_range=(4, 9))
        config = JoinConfig(k=1, tau=0.1, q=2, workers=3)
        captured = _capture_payloads(monkeypatch)
        parallel_similarity_join_two(
            left, right, config, use_processes=False, min_parallel=0
        )
        assert captured, "expected banded dispatch"
        config_bytes = len(pickle.dumps(config))
        for payload in captured:
            band_index, token, left_ids, right_ids, cfg = payload
            assert all(isinstance(i, int) for i in left_ids + right_ids)
            self._assert_lean(payload, config_bytes)


class TestWorkerPublication:
    """Shared collection state reaches real worker processes intact."""

    @staticmethod
    def _workload():
        collection = random_collection(
            random.Random(38), 26, length_range=(4, 10)
        )
        config = JoinConfig(k=1, tau=0.1, q=2, workers=2)
        serial = similarity_join(collection, JoinConfig(k=1, tau=0.1, q=2))
        return collection, config, serial

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_method_produces_serial_results(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        collection, config, serial = self._workload()
        outcome = parallel_similarity_join(
            collection, replace(config, mp_start=method), min_parallel=0
        )
        assert outcome.pairs == serial.pairs
        # The pool must have been used, not the in-process fallback.
        assert outcome.stats.stage_count("fault", "pool_unavailable") == 0

    def test_stale_token_is_rejected(self):
        token = next(parallel._TOKENS)
        parallel._publish_shared(token, ((),), (CollectionContext(),))
        with pytest.raises(RuntimeError, match="shared collection state"):
            parallel._shared_state(token + 1)
