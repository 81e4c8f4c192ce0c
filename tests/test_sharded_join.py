"""Shard-parallel joins, partitioned checkpoints, and the merge step.

ISSUE 7's tentpole: ``--shard i/N`` invocations each own a contiguous,
deterministic slice of the band plan, checkpoint into ``shard-i/``
subdirectories of one shared run directory, and ``merge_run`` folds
them into a result byte-identical to the serial join — for every
decomposition, with injected faults, and across a killed-and-resumed
shard. The merge must never silently combine mismatched or truncated
state, and the pool-width clamp must stay out of the fingerprint so a
run started on a wide host resumes on a narrow one.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core.executor as executor
from repro.core.checkpoint import CheckpointStore, ShardCheckpointStore
from repro.core.config import JoinConfig, parse_shard, shard_slice
from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigurationError,
    ShardIncompleteError,
    WorkerCrashError,
)
from repro.core.executor import RetryPolicy, effective_pool_width
from repro.core.join import similarity_join
from repro.core.merge import merge_run
from repro.core.parallel import (
    parallel_similarity_join,
    parallel_similarity_join_two,
    plan_length_bands,
)

from tests import equivalence_spec as spec
from tests.helpers import random_collection

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_driver_outputs.json").read_text()
)

DECOMPOSITIONS = (2, 3, 4)


def no_sleep(_seconds: float) -> None:
    """Backoff stand-in: schedules are computed but never waited for."""


def run_shard(collection, config, run_dir, shard_index, shard_count, **kwargs):
    """One ``--shard i/N`` invocation of the self-join driver."""
    kwargs.setdefault("policy", RetryPolicy(sleep=no_sleep))
    return parallel_similarity_join(
        collection,
        replace(
            config,
            shard=f"{shard_index}/{shard_count}",
            checkpoint_dir=str(run_dir),
        ),
        use_processes=False,
        min_parallel=0,
        **kwargs,
    )


def run_all_shards(collection, config, run_dir, shard_count):
    return [
        run_shard(collection, config, run_dir, i, shard_count)
        for i in range(shard_count)
    ]


# ----------------------------------------------------------------------
# shard coordinates and pool width
# ----------------------------------------------------------------------


class TestParseShard:
    def test_parses_coordinates(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("2/3") == (2, 3)

    @pytest.mark.parametrize(
        "bad", ["", "1", "1/", "/3", "a/3", "1/b", "-1/3", "3/3", "4/3", "0/0"]
    )
    def test_rejects_malformed_or_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            parse_shard(bad)


class TestShardSlice:
    @pytest.mark.parametrize("total", [0, 1, 2, 5, 7, 16])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5])
    def test_slices_partition_the_plan(self, total, shards):
        """Disjoint, covering, contiguous, and in shard order."""
        seen: list[int] = []
        for i in range(shards):
            seen.extend(shard_slice(total, i, shards))
        assert seen == list(range(total))

    def test_balanced_within_one(self):
        sizes = [len(shard_slice(10, i, 3)) for i in range(3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1


class TestEffectivePoolWidth:
    def test_clamps_to_pending_and_cores(self, monkeypatch):
        monkeypatch.setattr(executor.os, "cpu_count", lambda: 2)
        assert effective_pool_width(8, 10) == 2
        assert effective_pool_width(8, 1) == 1
        assert effective_pool_width(1, 10) == 1

    def test_cpu_count_unknown_degrades_to_one(self, monkeypatch):
        monkeypatch.setattr(executor.os, "cpu_count", lambda: None)
        assert effective_pool_width(8, 10) == 1


class TestShardConfig:
    def test_shard_requires_run_directory(self):
        with pytest.raises(ConfigurationError, match="run directory"):
            JoinConfig(k=1, tau=0.1, q=2, shard="0/2")

    def test_shard_coordinates_property(self, tmp_path):
        config = JoinConfig(
            k=1, tau=0.1, q=2, shard="1/3", checkpoint_dir=str(tmp_path)
        )
        assert config.shard_coordinates == (1, 3)

    def test_bad_mp_start_rejected(self):
        with pytest.raises(ConfigurationError):
            JoinConfig(k=1, tau=0.1, q=2, mp_start="thread")


# ----------------------------------------------------------------------
# golden byte-identity across decompositions
# ----------------------------------------------------------------------


class TestShardedGolden:
    """Merged shard output equals the committed golden fixture."""

    @pytest.fixture(scope="class")
    def workload(self):
        return spec.self_collection()

    @pytest.mark.parametrize("shards", DECOMPOSITIONS)
    def test_merged_equals_golden(self, workload, shards, tmp_path):
        config = JoinConfig.for_algorithm(
            "QFCT",
            k=2,
            tau=spec.TAU,
            q=spec.Q,
            report_probabilities=True,
            workers=2,
        )
        run_all_shards(workload, config, tmp_path, shards)
        merged = merge_run(tmp_path)
        assert spec.encode_pairs(merged.pairs) == GOLDEN["QFCT-k2-probs"]["join"]
        assert merged.stats.total_strings == len(workload)
        assert merged.stats.result_pairs == len(merged.pairs)

    @pytest.mark.parametrize("shards", DECOMPOSITIONS)
    def test_paper_mode_matches_golden(self, workload, shards, tmp_path):
        config = JoinConfig.for_algorithm(
            "QFCT", k=1, tau=spec.TAU, q=spec.Q, workers=2
        )
        run_all_shards(workload, config, tmp_path, shards)
        merged = merge_run(tmp_path)
        assert spec.encode_pairs(merged.pairs) == GOLDEN["QFCT-k1-paper"]["join"]

    def test_shard_outcomes_are_partial(self, workload, tmp_path):
        config = JoinConfig(
            k=2, tau=spec.TAU, q=spec.Q, report_probabilities=True, workers=2
        )
        outcomes = run_all_shards(workload, config, tmp_path, 2)
        merged = merge_run(tmp_path)
        shard_pairs = sorted(
            pair for outcome in outcomes for pair in outcome.pairs
        )
        assert shard_pairs == merged.pairs
        assert any(
            outcome.stats.stage_count("shard", "owned") for outcome in outcomes
        )

    def test_merge_stats_equal_single_process_run(self, workload, tmp_path):
        """The fold carries full statistics, not just pairs."""
        from repro.core.stats import JoinStatistics

        config = JoinConfig(
            k=2, tau=spec.TAU, q=spec.Q, report_probabilities=True, workers=2
        )
        single = parallel_similarity_join(
            workload, config, use_processes=False, min_parallel=0
        )
        run_all_shards(workload, config, tmp_path, 3)
        merged = merge_run(tmp_path)
        assert merged.pairs == single.pairs
        for name in JoinStatistics.MERGE_COUNTERS:
            assert getattr(merged.stats, name) == getattr(
                single.stats, name
            ), name


# ----------------------------------------------------------------------
# faults and the killed-and-resumed shard
# ----------------------------------------------------------------------


class TestShardedFaults:
    @pytest.fixture(scope="class")
    def workload(self):
        return spec.self_collection()

    @pytest.fixture
    def config(self):
        return JoinConfig(
            k=2, tau=spec.TAU, q=spec.Q, report_probabilities=True, workers=2
        )

    def _owned_band(self, workload, config, shard_index, shards):
        bands = plan_length_bands(
            [len(s) for s in workload], config.workers * shards, config.k
        )
        owned = shard_slice(len(bands), shard_index, shards)
        assert owned, "decomposition left the target shard without bands"
        return bands[owned[0]].index

    def test_shard_qualified_fault_fires_only_on_its_shard(
        self, workload, config, tmp_path
    ):
        shards = 3
        band = self._owned_band(workload, config, 1, shards)
        faulted = replace(config, fault_spec=f"crash@s1:{band}")
        outcomes = run_all_shards(workload, faulted, tmp_path, shards)
        crashes = [
            outcome.stats.stage_count("fault", "crashed")
            for outcome in outcomes
        ]
        assert crashes[1] == 1
        assert crashes[0] == crashes[2] == 0
        merged = merge_run(tmp_path)
        assert spec.encode_pairs(merged.pairs) == GOLDEN["QFCT-k2-probs"]["join"]

    def test_killed_shard_resumes_and_merges_identically(
        self, workload, config, tmp_path
    ):
        shards = 3
        bands = plan_length_bands(
            [len(s) for s in workload], config.workers * shards, config.k
        )
        # Kill a shard that owns at least two bands: its LAST owned band
        # crashes on every attempt including the degraded one, so the
        # earlier owned bands are checkpointed before the shard dies.
        victim = next(
            i
            for i in range(shards)
            if len(shard_slice(len(bands), i, shards)) >= 2
        )
        owned = shard_slice(len(bands), victim, shards)
        band = bands[owned[-1]].index
        with pytest.raises(WorkerCrashError):
            run_shard(
                workload,
                replace(config, fault_spec=f"crash@s{victim}:{band}x2"),
                tmp_path,
                victim,
                shards,
                policy=RetryPolicy(retries=0, sleep=no_sleep),
            )
        for shard_index in range(shards):
            if shard_index != victim:
                run_shard(workload, config, tmp_path, shard_index, shards)
        # The run is incomplete until the killed shard is re-run.
        with pytest.raises(ShardIncompleteError):
            merge_run(tmp_path)
        resumed = run_shard(workload, config, tmp_path, victim, shards)
        assert resumed.stats.stage_count("fault", "resumed") == len(owned) - 1
        merged = merge_run(tmp_path)
        assert spec.encode_pairs(merged.pairs) == GOLDEN["QFCT-k2-probs"]["join"]


class TestPoolWidthClampRegression:
    """Resuming on a host with fewer cores than ``--workers`` works.

    The pool-width clamp is runtime-only: the band plan (and hence the
    run fingerprint) is keyed to ``config.workers``, so a checkpoint
    written on an 8-core host must resume — fingerprint-matched — on a
    1-core host with the same ``--workers``.
    """

    def test_resume_on_narrower_host_fingerprint_matches(
        self, tmp_path, monkeypatch
    ):
        collection = random_collection(random.Random(77), 20, (3, 10))
        config = JoinConfig(
            k=1, tau=0.1, q=2, report_probabilities=True, workers=4
        )
        bands = plan_length_bands(
            [len(s) for s in collection], config.workers, config.k
        )
        last = bands[-1].index
        expected = parallel_similarity_join(
            collection, config, use_processes=False, min_parallel=0
        )
        checkpointed = replace(config, checkpoint_dir=str(tmp_path))
        with pytest.raises(WorkerCrashError):
            parallel_similarity_join(
                collection,
                replace(checkpointed, fault_spec=f"crash@{last}x2"),
                use_processes=False,
                min_parallel=0,
                policy=RetryPolicy(retries=0, sleep=no_sleep),
            )
        monkeypatch.setattr(executor.os, "cpu_count", lambda: 1)
        assert effective_pool_width(config.workers, len(bands)) == 1
        resumed = parallel_similarity_join(
            collection,
            checkpointed,
            min_parallel=0,
            policy=RetryPolicy(sleep=no_sleep),
        )
        assert resumed.pairs == expected.pairs
        assert resumed.stats.stage_count("fault", "resumed") == len(bands) - 1


# ----------------------------------------------------------------------
# two-collection join: sharding + band recomputation
# ----------------------------------------------------------------------


def run_two_shard(left, right, config, run_dir, shard_index, shard_count):
    return parallel_similarity_join_two(
        left,
        right,
        replace(
            config,
            shard=f"{shard_index}/{shard_count}",
            checkpoint_dir=str(run_dir),
        ),
        use_processes=False,
        min_parallel=0,
        policy=RetryPolicy(sleep=no_sleep),
    )


class TestShardedTwoJoin:
    @pytest.fixture(scope="class")
    def workload(self):
        return spec.left_collection(), spec.right_collection()

    @pytest.fixture
    def config(self):
        return JoinConfig.for_algorithm(
            "QFCT",
            k=2,
            tau=spec.TAU,
            q=spec.Q,
            report_probabilities=True,
            workers=2,
        )

    def test_merged_equals_golden(self, workload, config, tmp_path):
        left, right = workload
        for i in range(3):
            run_two_shard(left, right, config, tmp_path, i, 3)
        merged = merge_run(tmp_path)
        assert (
            spec.encode_pairs(merged.pairs)
            == GOLDEN["QFCT-k2-probs"]["join_two"]
        )

    def test_band_recomputed_from_snapshot_is_identical(
        self, workload, config, tmp_path
    ):
        left, right = workload
        for i in range(3):
            run_two_shard(left, right, config, tmp_path, i, 3)
        baseline = merge_run(tmp_path)
        # Delete one band checkpoint: the re-run loads the others and
        # re-indexes only that band, reproducing the identical pairs.
        store = ShardCheckpointStore(tmp_path, 0, 3)
        completed = store.completed_bands()
        assert completed
        victim = completed[0]
        store.band_path(victim).unlink()
        with pytest.raises(ShardIncompleteError):
            merge_run(tmp_path)
        rerun = run_two_shard(left, right, config, tmp_path, 0, 3)
        assert rerun.stats.stage_count("fault", "resumed") == len(completed) - 1
        merged = merge_run(tmp_path)
        assert merged.pairs == baseline.pairs
        assert [p.probability for p in merged.pairs] == [
            p.probability for p in baseline.pairs
        ]


# ----------------------------------------------------------------------
# merge validation: nothing mismatched or truncated merges silently
# ----------------------------------------------------------------------


class TestMergeValidation:
    @pytest.fixture(scope="class")
    def workload(self):
        return spec.self_collection()

    @pytest.fixture
    def config(self):
        return JoinConfig(
            k=2, tau=spec.TAU, q=spec.Q, report_probabilities=True, workers=2
        )

    @pytest.fixture
    def complete_run(self, workload, config, tmp_path):
        run_all_shards(workload, config, tmp_path, 2)
        return tmp_path

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(ShardIncompleteError, match="run.json"):
            merge_run(tmp_path / "nowhere")

    def test_missing_shard_directory(self, complete_run):
        manifest = (
            ShardCheckpointStore(complete_run, 1, 2).shard_manifest_path
        )
        manifest.unlink()
        with pytest.raises(ShardIncompleteError, match="shard 1"):
            merge_run(complete_run)

    def test_truncated_shard_manifest(self, complete_run):
        manifest = (
            ShardCheckpointStore(complete_run, 0, 2).shard_manifest_path
        )
        manifest.write_text(manifest.read_text()[:12])
        with pytest.raises(CheckpointCorruptError):
            merge_run(complete_run)

    def test_foreign_fingerprint_in_shard_manifest(self, complete_run):
        manifest = (
            ShardCheckpointStore(complete_run, 0, 2).shard_manifest_path
        )
        document = json.loads(manifest.read_text())
        document["fingerprint"] = "0" * 64
        manifest.write_text(json.dumps(document))
        with pytest.raises(CheckpointMismatchError, match="disagrees"):
            merge_run(complete_run)

    def test_overlapping_ownership_detected(self, complete_run):
        manifest = (
            ShardCheckpointStore(complete_run, 1, 2).shard_manifest_path
        )
        document = json.loads(manifest.read_text())
        stolen = json.loads(
            ShardCheckpointStore(complete_run, 0, 2)
            .shard_manifest_path.read_text()
        )["owned"][0]
        document["owned"] = [stolen] + document["owned"]
        manifest.write_text(json.dumps(document))
        with pytest.raises(CheckpointMismatchError, match="overlapping"):
            merge_run(complete_run)

    def test_malformed_owned_list(self, complete_run):
        manifest = (
            ShardCheckpointStore(complete_run, 0, 2).shard_manifest_path
        )
        document = json.loads(manifest.read_text())
        document["owned"] = ["zero"]
        manifest.write_text(json.dumps(document))
        with pytest.raises(CheckpointCorruptError, match="owned"):
            merge_run(complete_run)

    def test_missing_band_checkpoint(self, complete_run):
        store = ShardCheckpointStore(complete_run, 0, 2)
        band = store.completed_bands()[0]
        store.band_path(band).unlink()
        with pytest.raises(ShardIncompleteError) as excinfo:
            merge_run(complete_run)
        assert band in excinfo.value.missing

    def test_truncated_band_checkpoint(self, complete_run):
        store = ShardCheckpointStore(complete_run, 0, 2)
        victim = store.band_path(store.completed_bands()[0])
        victim.write_bytes(victim.read_bytes()[:10])
        with pytest.raises(CheckpointCorruptError):
            merge_run(complete_run)

    def test_checkpoint_from_other_plan_detected(
        self, workload, config, complete_run, tmp_path_factory
    ):
        """A ckpt written under a different fingerprint never merges."""
        other_dir = tmp_path_factory.mktemp("other")
        run_all_shards(workload, replace(config, tau=0.2), other_dir, 2)
        ours = ShardCheckpointStore(complete_run, 0, 2)
        theirs = ShardCheckpointStore(other_dir, 0, 2)
        band = ours.completed_bands()[0]
        assert band in theirs.completed_bands()
        ours.band_path(band).write_bytes(
            theirs.band_path(band).read_bytes()
        )
        with pytest.raises(CheckpointMismatchError):
            merge_run(complete_run)

    def test_mixed_decompositions_rejected_at_open(
        self, workload, config, complete_run
    ):
        """A third shard of a 3-way plan cannot join a 2-way run dir."""
        with pytest.raises(CheckpointMismatchError):
            run_shard(workload, config, complete_run, 2, 3)

    def test_flat_run_directory_merges_too(self, workload, config, tmp_path):
        serial = similarity_join(
            spec.self_collection(),
            replace(config, workers=1),
        )
        parallel_similarity_join(
            workload,
            replace(config, checkpoint_dir=str(tmp_path)),
            use_processes=False,
            min_parallel=0,
            policy=RetryPolicy(sleep=no_sleep),
        )
        merged = merge_run(tmp_path)
        assert merged.pairs == serial.pairs

    def test_flat_run_missing_band_is_incomplete(
        self, workload, config, tmp_path
    ):
        parallel_similarity_join(
            workload,
            replace(config, checkpoint_dir=str(tmp_path)),
            use_processes=False,
            min_parallel=0,
            policy=RetryPolicy(sleep=no_sleep),
        )
        store = CheckpointStore(tmp_path)
        store.band_path(store.completed_bands()[-1]).unlink()
        with pytest.raises(ShardIncompleteError):
            merge_run(tmp_path)


# ----------------------------------------------------------------------
# empty input: the run directory exists and merges to nothing
# ----------------------------------------------------------------------


class TestEmptyInputMerges:
    """A checkpointed or sharded run over empty input plans zero bands
    but still opens its run directory, so ``merge_run`` returns no pairs
    with the input size recorded instead of failing for a missing
    ``run.json``."""

    @pytest.fixture
    def config(self):
        return JoinConfig(k=1, tau=0.1, q=2, workers=2)

    @staticmethod
    def assert_empty_merge(run_dir, strings):
        merged = merge_run(run_dir)
        assert merged.pairs == []
        assert merged.stats.result_pairs == 0
        assert merged.stats.total_strings == strings

    def test_self_join_flat(self, config, tmp_path):
        outcome = parallel_similarity_join(
            [], replace(config, checkpoint_dir=str(tmp_path))
        )
        assert outcome.pairs == []
        self.assert_empty_merge(tmp_path, 0)

    def test_self_join_sharded(self, config, tmp_path):
        for shard_index in range(2):
            assert run_shard([], config, tmp_path, shard_index, 2).pairs == []
        self.assert_empty_merge(tmp_path, 0)

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_two_join_flat(self, config, tmp_path, empty_side):
        one = random_collection(random.Random(3), 1)
        left, right = ([], one) if empty_side == "left" else (one, [])
        outcome = parallel_similarity_join_two(
            left, right, replace(config, checkpoint_dir=str(tmp_path))
        )
        assert outcome.pairs == []
        self.assert_empty_merge(tmp_path, 1)

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_two_join_sharded(self, config, tmp_path, empty_side):
        one = random_collection(random.Random(3), 1)
        left, right = ([], one) if empty_side == "left" else (one, [])
        for shard_index in range(2):
            outcome = run_two_shard(left, right, config, tmp_path, shard_index, 2)
            assert outcome.pairs == []
        self.assert_empty_merge(tmp_path, 1)
