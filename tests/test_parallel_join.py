"""Property tests: the length-banded parallel join equals the serial join.

The acceptance bar is byte-identity — same pairs, same order, same
reported probabilities (float-for-float) — across every algorithm
variant, k ∈ {1, 2, 3}, and workers ∈ {1, 2, 4}. The sweep runs the
band tasks in-process (same sharded code path, no pool) so the full
grid stays fast; dedicated tests cover the real ProcessPoolExecutor
path and the public ``config.workers`` dispatch.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.core.config import ALGORITHMS, JoinConfig
from repro.core.errors import ConfigurationError
from repro.core.join import similarity_join
from repro.core.join_two import similarity_join_two
from repro.core.parallel import (
    LengthBand,
    parallel_similarity_join,
    parallel_similarity_join_two,
    plan_length_bands,
)
from repro.store import MemoryStore, SqliteStore, build_sqlite_store

from tests import equivalence_spec as spec
from tests.helpers import random_collection


def assert_outcomes_identical(parallel, serial):
    """Pair lists must match exactly, including probability floats."""
    assert parallel.pairs == serial.pairs
    assert [pair.probability for pair in parallel.pairs] == [
        pair.probability for pair in serial.pairs
    ]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_variants_all_worker_counts(self, algorithm, k):
        rng = random.Random(hash((algorithm, k)) % 100_000)
        collection = random_collection(
            rng, 20, length_range=(3, 9), theta=0.3
        )
        base = JoinConfig.for_algorithm(
            algorithm, k=k, tau=0.1, q=2, report_probabilities=True
        )
        serial = similarity_join(collection, base)
        for workers in (1, 2, 4):
            config = JoinConfig.for_algorithm(
                algorithm,
                k=k,
                tau=0.1,
                q=2,
                report_probabilities=True,
                workers=workers,
            )
            parallel = parallel_similarity_join(
                collection, config, use_processes=False, min_parallel=0
            )
            assert_outcomes_identical(parallel, serial)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unverified_probabilities_also_match(self, seed):
        """Paper behaviour (CDF-accepted pairs carry None) shards too."""
        rng = random.Random(seed)
        collection = random_collection(rng, 24, length_range=(3, 10))
        serial = similarity_join(collection, JoinConfig(k=2, tau=0.1, q=2))
        parallel = parallel_similarity_join(
            collection,
            JoinConfig(k=2, tau=0.1, q=2, workers=3),
            use_processes=False,
            min_parallel=0,
        )
        assert_outcomes_identical(parallel, serial)

    def test_process_pool_path(self):
        """The real ProcessPoolExecutor produces the identical pair list."""
        rng = random.Random(99)
        collection = random_collection(rng, 30, length_range=(3, 10))
        config = JoinConfig(k=2, tau=0.1, q=2, workers=2)
        serial = similarity_join(collection, JoinConfig(k=2, tau=0.1, q=2))
        parallel = parallel_similarity_join(collection, config, min_parallel=0)
        assert_outcomes_identical(parallel, serial)

    def test_probe_only_halos_remove_duplicate_filter_work(self):
        """Summed band filter counters equal the serial driver's exactly.

        Halo strings are probe-only (``index_length_cap``), so no
        halo×halo pair is ever evaluated: every length-eligible pair is
        counted once, in the band owning its shorter string.
        """
        rng = random.Random(42)
        collection = random_collection(rng, 60, length_range=(3, 12))
        serial = similarity_join(collection, JoinConfig(k=2, tau=0.1, q=2))
        parallel = parallel_similarity_join(
            collection,
            JoinConfig(k=2, tau=0.1, q=2, workers=4),
            use_processes=False,
            min_parallel=0,
        )
        assert_outcomes_identical(parallel, serial)
        for stage, counter in (
            ("length", "eligible"),
            ("qgram", "survivors"),
            ("qgram", "rejected"),
        ):
            assert parallel.stats.stage_count(stage, counter) == serial.stats.stage_count(
                stage, counter
            )

    def test_public_driver_dispatches_on_workers(self):
        """similarity_join(config.workers > 1) routes through the bands."""
        rng = random.Random(7)
        collection = random_collection(rng, 70, length_range=(3, 10))
        serial = similarity_join(collection, JoinConfig(k=1, tau=0.1, q=2))
        parallel = similarity_join(
            collection, JoinConfig(k=1, tau=0.1, q=2, workers=2)
        )
        assert_outcomes_identical(parallel, serial)

    def test_join_two_parallel_equals_serial(self):
        rng = random.Random(13)
        left = random_collection(rng, 18, length_range=(3, 9))
        right = random_collection(rng, 22, length_range=(3, 9))
        base = JoinConfig(k=2, tau=0.1, q=2, report_probabilities=True)
        serial = similarity_join_two(left, right, base)
        for workers in (2, 4):
            config = JoinConfig(
                k=2, tau=0.1, q=2, report_probabilities=True, workers=workers
            )
            parallel = parallel_similarity_join_two(
                left, right, config, use_processes=False, min_parallel=0
            )
            assert_outcomes_identical(parallel, serial)

    def test_empty_and_tiny_collections(self):
        config = JoinConfig(k=1, tau=0.1, workers=4)
        assert parallel_similarity_join([], config).pairs == []
        rng = random.Random(1)
        collection = random_collection(rng, 3, length_range=(4, 5))
        serial = similarity_join(collection, JoinConfig(k=1, tau=0.1))
        parallel = parallel_similarity_join(collection, config, min_parallel=0)
        assert_outcomes_identical(parallel, serial)


class TestBandPlanning:
    def test_bands_cover_all_lengths_disjointly(self):
        rng = random.Random(17)
        lengths = [rng.randint(2, 20) for _ in range(200)]
        k = 2
        bands = plan_length_bands(lengths, 4, k)
        assert 1 <= len(bands) <= 4
        # owned ranges are contiguous, ordered, and disjoint
        for before, after in zip(bands, bands[1:]):
            assert before.high < after.low
        owned = sorted(
            length
            for band in bands
            for length in range(band.low, band.high + 1)
        )
        assert owned[0] <= min(lengths) and owned[-1] >= max(lengths)
        # every string id appears in exactly one band as owned
        owners = {}
        for band in bands:
            for string_id in band.member_ids:
                if band.owns_length(lengths[string_id]):
                    assert string_id not in owners
                    owners[string_id] = band.index
        assert len(owners) == len(lengths)

    def test_halo_extends_k_past_owned_range(self):
        lengths = [4] * 10 + [5] * 10 + [6] * 10 + [7] * 10
        bands = plan_length_bands(lengths, 2, 1)
        assert len(bands) == 2
        first = bands[0]
        assert (first.low, first.high) == (4, 5)
        member_lengths = {lengths[i] for i in first.member_ids}
        assert member_lengths == {4, 5, 6}  # 6 is the k-wide halo

    def test_equal_lengths_never_straddle_bands(self):
        lengths = [5] * 100
        bands = plan_length_bands(lengths, 4, 2)
        assert len(bands) == 1
        assert bands[0].member_ids == tuple(range(100))

    def test_workers_one_is_single_band(self):
        bands = plan_length_bands([3, 4, 5, 9], 1, 1)
        assert len(bands) == 1
        assert (bands[0].low, bands[0].high) == (3, 9)

    def test_empty_input(self):
        assert plan_length_bands([], 4, 1) == []

    def test_band_dataclass_ownership_rule(self):
        band = LengthBand(index=0, low=3, high=5, member_ids=(0, 1))
        assert band.owns_length(3) and band.owns_length(5)
        assert not band.owns_length(6)  # halo, owned by the next band


class TestWorkersConfig:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            JoinConfig(k=1, tau=0.1, workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            JoinConfig(k=1, tau=0.1, workers=-2)
        with pytest.raises(ValueError, match="workers must be an int"):
            JoinConfig(k=1, tau=0.1, workers=2.5)

    def test_default_is_serial(self):
        assert JoinConfig(k=1, tau=0.1).workers == 1


class TestCheckpointFingerprints:
    """Run directories outlive releases: the fingerprint a checkpointed
    run writes to ``run.json`` must stay byte-identical, or a resume
    after an upgrade would be rejected. Literal digests, per input kind
    (in-memory self-join, store self-join, R×S join)."""

    @pytest.fixture
    def config(self):
        return JoinConfig.for_algorithm(
            "QFCT", k=2, tau=spec.TAU, q=spec.Q,
            report_probabilities=True, workers=2,
        )

    @staticmethod
    def fingerprint(run_dir):
        return json.loads((run_dir / "run.json").read_text())["fingerprint"]

    def test_self_join(self, config, tmp_path):
        parallel_similarity_join(
            spec.self_collection(),
            replace(config, checkpoint_dir=str(tmp_path)),
            use_processes=False,
        )
        assert self.fingerprint(tmp_path) == (
            "2ce248465c3556c87410cf3871156bc49b0bab0c3ef7fc64972b878365913185"
        )

    def test_store_self_join(self, config, tmp_path):
        collection = spec.self_collection()
        build_sqlite_store(iter(collection), tmp_path / "s.db", k=2, q=spec.Q)
        for name, store in (
            ("memory", MemoryStore(collection, k=2, q=spec.Q)),
            ("sqlite", SqliteStore(tmp_path / "s.db")),
        ):
            parallel_similarity_join(
                None,
                replace(config, checkpoint_dir=str(tmp_path / name)),
                use_processes=False,
                store=store,
            )
            assert self.fingerprint(tmp_path / name) == (
                "2154bd973366947edc1afcf6666ec79e37a891b2942f233bde181461092d54e5"
            )

    def test_two_join(self, config, tmp_path):
        parallel_similarity_join_two(
            spec.left_collection(),
            spec.right_collection(),
            replace(config, checkpoint_dir=str(tmp_path)),
            use_processes=False,
        )
        assert self.fingerprint(tmp_path) == (
            "7ddb2e691302eb74a860c38c30c41f06ceda627d1e5ac831116fd6e37ccbd02d"
        )

    def test_needs_exactly_one_input(self, config):
        with pytest.raises(ConfigurationError, match="exactly one"):
            parallel_similarity_join(None, config)
        with pytest.raises(ConfigurationError, match="exactly one"):
            parallel_similarity_join(
                [], config, store=MemoryStore([], k=2, q=2)
            )
