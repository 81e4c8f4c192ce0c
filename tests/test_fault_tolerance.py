"""Fault-tolerance tests: injection, retries, timeouts, checkpoint/resume.

The acceptance bar mirrors the driver-equivalence fixture: with faults
injected (crash, hang, corrupt — and a real broken process pool), the
banded join must still produce output byte-identical to the serial
driver, with every failure accounted for in the ``fault.*`` counters.
A killed run with at least one checkpointed band must resume from its
run directory to the identical pairs, probabilities, and merged
statistics while skipping the completed bands.
"""

import json
import pickle
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import JoinConfig
from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigurationError,
    WorkerCrashError,
)
from repro.core.executor import CheckpointStore, RetryPolicy, run_bands
from repro.core.join import similarity_join
from repro.core.parallel import (
    parallel_similarity_join,
    parallel_similarity_join_two,
    plan_length_bands,
)
from repro.core.stats import JoinStatistics
from repro.util.faults import FaultPlan, FaultSpec, InjectedCrashError, inject

from tests import equivalence_spec as spec
from tests.helpers import random_collection

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_driver_outputs.json").read_text()
)


def no_sleep(_seconds: float) -> None:
    """Backoff stand-in: the schedule is computed but never waited for."""


def policy(**kwargs) -> RetryPolicy:
    kwargs.setdefault("sleep", no_sleep)
    return RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# fault plan parsing and injection
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_single_spec_defaults(self):
        plan = FaultPlan.from_spec("crash@2")
        assert plan.specs == (FaultSpec("crash", 2, times=1, seconds=3600.0),)

    def test_parse_full_grammar(self):
        plan = FaultPlan.from_spec("crash@2x3, hang@0/1.5 ,corrupt@1")
        assert plan.specs == (
            FaultSpec("crash", 2, times=3),
            FaultSpec("hang", 0, times=1, seconds=1.5),
            FaultSpec("corrupt", 1),
        )

    def test_empty_and_none_are_falsy(self):
        assert not FaultPlan.from_spec(None)
        assert not FaultPlan.from_spec("   ")
        assert FaultPlan.from_spec("crash@0")

    @pytest.mark.parametrize(
        "bad", ["explode@0", "crash", "crash@-1", "crash@0x0", "hang@0/0"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)

    def test_matches_covers_attempts_below_times(self):
        fault = FaultSpec("crash", 1, times=2)
        assert fault.matches(1, 0) and fault.matches(1, 1)
        assert not fault.matches(1, 2)
        assert not fault.matches(0, 0)

    def test_fault_for_returns_first_match(self):
        plan = FaultPlan.from_spec("crash@1,hang@1/9")
        assert plan.fault_for(1, 0).kind == "crash"
        assert plan.fault_for(2, 0) is None

    def test_inject_crash_raises_with_coordinates(self):
        with pytest.raises(InjectedCrashError) as excinfo:
            inject(FaultSpec("crash", 3), attempt=1)
        assert excinfo.value.band == 3
        assert excinfo.value.attempt == 1

    def test_injected_crash_pickles(self):
        # The error must survive the pool's result pipe intact.
        error = InjectedCrashError(4, 2)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.band, clone.attempt) == (4, 2)

    def test_config_validates_fault_spec(self):
        with pytest.raises(ConfigurationError):
            JoinConfig(k=1, tau=0.1, fault_spec="explode@0")
        assert JoinConfig(k=1, tau=0.1, fault_spec="crash@0").fault_spec == "crash@0"

    def test_parse_shard_qualified_spec(self):
        plan = FaultPlan.from_spec("crash@s1:2x3,hang@0/1.5")
        assert plan.specs == (
            FaultSpec("crash", 2, times=3, shard=1),
            FaultSpec("hang", 0, times=1, seconds=1.5),
        )

    @pytest.mark.parametrize("bad", ["crash@s:2", "crash@s-1:2", "crash@sx:2"])
    def test_bad_shard_qualifiers_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)

    def test_shard_qualified_spec_never_fires_unnarrowed(self):
        # A qualified spec is inert until a ShardBackend narrows the
        # plan to its shard — band indices alone must not trigger it.
        plan = FaultPlan.from_spec("crash@s1:2")
        assert plan.fault_for(2, 0) is None

    def test_narrowed_keeps_own_shard_and_drops_others(self):
        plan = FaultPlan.from_spec("crash@s1:2x3,corrupt@s0:1,hang@0/1.5")
        mine = plan.narrowed(1)
        assert mine.specs == (
            FaultSpec("crash", 2, times=3),  # qualifier stripped: now live
            FaultSpec("hang", 0, times=1, seconds=1.5),
        )
        assert mine.fault_for(2, 0).kind == "crash"
        other = plan.narrowed(2)
        assert other.specs == (FaultSpec("hang", 0, times=1, seconds=1.5),)

    def test_config_accepts_shard_qualified_spec(self):
        config = JoinConfig(k=1, tau=0.1, fault_spec="crash@s1:2x3")
        assert config.fault_spec == "crash@s1:2x3"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_exponential_delay_schedule(self):
        p = RetryPolicy(backoff=0.1, backoff_factor=2.0)
        assert [p.delay(a) for a in range(3)] == [0.1, 0.2, 0.4]

    def test_retry_default_timing_is_unchanged(self):
        p = RetryPolicy(backoff=0.05, backoff_factor=2.0)
        assert p.delay(0) == 0.05
        assert p.delay(1) == 0.05 * 2.0
        assert p.delay(3, band_index=7) == 0.05 * 2.0**3

    def test_retry_jitter_is_deterministic_and_desynchronizes_bands(self):
        p = RetryPolicy(backoff=0.05, jitter=0.5, jitter_seed=11)
        again = RetryPolicy(backoff=0.05, jitter=0.5, jitter_seed=11)
        assert p.delay(1, band_index=3) == again.delay(1, band_index=3)
        delays = {p.delay(1, band_index=band) for band in range(8)}
        assert len(delays) == 8  # no two bands back off in lockstep
        base = RetryPolicy(backoff=0.05).delay(1)
        for value in delays:
            assert base <= value <= base * 1.5
        reseeded = RetryPolicy(backoff=0.05, jitter=0.5, jitter_seed=12)
        assert reseeded.delay(1, band_index=3) != p.delay(1, band_index=3)

    def test_retry_jitter_fraction_range_and_validation(self):
        p = RetryPolicy(jitter=1.0)
        for band in range(4):
            for attempt in range(4):
                assert 0.0 <= p.jitter_fraction(band, attempt) < 1.0
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)


# ----------------------------------------------------------------------
# run_bands unit tests (toy band task, in-process)
# ----------------------------------------------------------------------

CALLS: list[int] = []


def toy_band_task(payload):
    """Module-level so the pool path could pickle it; records each call."""
    band_index, values = payload
    CALLS.append(band_index)
    return band_index, list(values), JoinStatistics()


def toy_payloads(n=3):
    return [(i, (i, [f"band-{i}"])) for i in range(n)]


@pytest.fixture(autouse=True)
def _clear_calls():
    CALLS.clear()


class TestRunBands:
    def test_clean_run_executes_each_band_once(self):
        stats = JoinStatistics()
        results = run_bands(
            toy_band_task,
            toy_payloads(),
            workers=1,
            use_processes=False,
            stats=stats,
        )
        assert [band for band, _, _ in results] == [0, 1, 2]
        assert [pairs for _, pairs, _ in results] == [
            ["band-0"], ["band-1"], ["band-2"]
        ]
        assert sorted(CALLS) == [0, 1, 2]
        assert stats.fault_counts() == {}

    def test_crash_is_retried_and_counted(self):
        stats = JoinStatistics()
        results = run_bands(
            toy_band_task,
            toy_payloads(),
            workers=1,
            use_processes=False,
            policy=policy(retries=2),
            stats=stats,
            faults=FaultPlan.from_spec("crash@1"),
        )
        assert len(results) == 3
        assert stats.fault_counts() == {"fault.crashed": 1, "fault.retried": 1}
        # The injected crash fires before the task body, so only the
        # successful retry actually executed the band.
        assert CALLS.count(1) == 1

    def test_exhausted_retries_degrade_in_process(self):
        stats = JoinStatistics()
        results = run_bands(
            toy_band_task,
            toy_payloads(),
            workers=1,
            use_processes=False,
            policy=policy(retries=2),
            stats=stats,
            faults=FaultPlan.from_spec("crash@0x3"),  # attempts 0-2 crash
        )
        assert len(results) == 3
        counts = stats.fault_counts()
        assert counts["fault.crashed"] == 3
        assert counts["fault.retried"] == 2
        assert counts["fault.degraded"] == 1

    def test_degraded_failure_is_terminal(self):
        stats = JoinStatistics()
        with pytest.raises(WorkerCrashError) as excinfo:
            run_bands(
                toy_band_task,
                toy_payloads(),
                workers=1,
                use_processes=False,
                policy=policy(retries=1),
                stats=stats,
                faults=FaultPlan.from_spec("crash@2x3"),  # degraded attempt too
            )
        assert excinfo.value.band_index == 2
        assert isinstance(excinfo.value.__cause__, InjectedCrashError)
        assert stats.fault_counts()["fault.degraded"] == 1

    def test_corrupt_result_is_detected_and_retried(self):
        stats = JoinStatistics()
        results = run_bands(
            toy_band_task,
            toy_payloads(),
            workers=1,
            use_processes=False,
            policy=policy(retries=1),
            stats=stats,
            faults=FaultPlan.from_spec("corrupt@0"),
        )
        assert [band for band, _, _ in results] == [0, 1, 2]
        counts = stats.fault_counts()
        assert counts["fault.corrupt"] == 1
        assert counts["fault.retried"] == 1

    def test_hang_hits_deadline_then_degrades(self):
        # Attempts 0 and 1 sleep 5s; the 50ms SIGALRM deadline fires
        # first both times, then the degraded attempt (no deadline, no
        # scheduled fault) completes the band.
        stats = JoinStatistics()
        results = run_bands(
            toy_band_task,
            toy_payloads(1),
            workers=1,
            use_processes=False,
            policy=policy(retries=1, timeout=0.05),
            stats=stats,
            faults=FaultPlan.from_spec("hang@0x2/5"),
        )
        assert [band for band, _, _ in results] == [0]
        counts = stats.fault_counts()
        assert counts["fault.timeout"] == 2
        assert counts["fault.retried"] == 1
        assert counts["fault.degraded"] == 1

    def test_backoff_schedule_is_consulted(self):
        slept: list[float] = []
        stats = JoinStatistics()
        run_bands(
            toy_band_task,
            toy_payloads(1),
            workers=1,
            use_processes=False,
            policy=RetryPolicy(
                retries=2, backoff=0.1, backoff_factor=2.0, sleep=slept.append
            ),
            stats=stats,
            faults=FaultPlan.from_spec("crash@0x3"),
        )
        assert slept == [0.1, 0.2]

    def test_checkpoint_resume_skips_completed_bands(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open("fp", 3)
        first = run_bands(
            toy_band_task,
            toy_payloads(),
            workers=1,
            use_processes=False,
            checkpoint=store,
        )
        assert len(CALLS) == 3
        CALLS.clear()
        stats = JoinStatistics()
        second = run_bands(
            toy_band_task,
            toy_payloads(),
            workers=1,
            use_processes=False,
            stats=stats,
            checkpoint=store,
        )
        assert CALLS == []  # nothing re-executed
        assert [(b, p) for b, p, _ in second] == [(b, p) for b, p, _ in first]
        assert stats.stage_count("fault", "resumed") == 3


# ----------------------------------------------------------------------
# golden byte-identity under injected faults
# ----------------------------------------------------------------------

FAULT_KEYS = ["QFCT-k1-probs", "QCT-k2-probs", "FCT-k3-probs", "QCT-k2-paper"]


class TestGoldenUnderFaults:
    @pytest.mark.parametrize("key", FAULT_KEYS)
    def test_crash_and_corrupt_do_not_change_output(self, key):
        config = dict(spec.config_grid())[key]
        outcome = parallel_similarity_join(
            spec.self_collection(),
            replace(config, workers=4),
            use_processes=False,
            min_parallel=0,
            policy=policy(retries=2),
            faults=FaultPlan.from_spec("crash@1x2,corrupt@0"),
        )
        assert spec.encode_pairs(outcome.pairs) == GOLDEN[key]["join"]

    def test_fault_counters_surface_in_outcome_stats(self):
        config = dict(spec.config_grid())["QFCT-k1-probs"]
        outcome = parallel_similarity_join(
            spec.self_collection(),
            replace(config, workers=4),
            use_processes=False,
            min_parallel=0,
            policy=policy(retries=2),
            faults=FaultPlan.from_spec("crash@0x3"),
        )
        counts = outcome.stats.fault_counts()
        assert counts["fault.crashed"] == 3
        assert counts["fault.retried"] == 2
        assert counts["fault.degraded"] == 1
        assert "fault.degraded" in outcome.stats.summary()

    def test_two_join_under_faults_equals_serial(self):
        rng = random.Random(41)
        left = random_collection(rng, 14, length_range=(3, 9))
        right = random_collection(rng, 18, length_range=(3, 9))
        base = JoinConfig(k=2, tau=0.1, q=2, report_probabilities=True)
        serial = parallel_similarity_join_two(
            left, right, base, use_processes=False, min_parallel=0
        )
        faulted = parallel_similarity_join_two(
            left,
            right,
            replace(base, workers=3),
            use_processes=False,
            min_parallel=0,
            policy=policy(retries=1),
            faults=FaultPlan.from_spec("crash@0,corrupt@1"),
        )
        assert faulted.pairs == serial.pairs

    def test_fault_spec_via_config_field(self):
        # The config-driven path (CLI --inject-faults) wires through too.
        config = dict(spec.config_grid())["QFCT-k1-probs"]
        outcome = parallel_similarity_join(
            spec.self_collection(),
            replace(config, workers=4, fault_spec="crash@1", retries=1),
            use_processes=False,
            min_parallel=0,
        )
        assert spec.encode_pairs(outcome.pairs) == GOLDEN["QFCT-k1-probs"]["join"]
        assert outcome.stats.stage_count("fault", "crashed") == 1


# ----------------------------------------------------------------------
# the real process pool: broken pools, crashes crossing the pipe
# ----------------------------------------------------------------------


class TestProcessPoolFaults:
    def test_broken_pool_degrades_without_duplicates(self):
        # abort kills the worker with os._exit -> BrokenProcessPool. All
        # dispatched attempts of band 0 die (x3 covers attempts 0-2), so
        # the band must finish via the in-process degraded attempt. The
        # regression this pins: pairs from bands completed before the
        # pool broke are kept, not re-emitted, so the merged list has no
        # duplicates and equals the serial driver's exactly.
        rng = random.Random(99)
        collection = random_collection(rng, 30, length_range=(3, 10))
        serial = similarity_join(collection, JoinConfig(k=2, tau=0.1, q=2))
        outcome = parallel_similarity_join(
            collection,
            JoinConfig(k=2, tau=0.1, q=2, workers=4),
            min_parallel=0,
            policy=policy(retries=2),
            faults=FaultPlan.from_spec("abort@0x3"),
        )
        assert outcome.pairs == serial.pairs
        ids = [(pair.left_id, pair.right_id) for pair in outcome.pairs]
        assert len(ids) == len(set(ids))
        counts = outcome.stats.fault_counts()
        assert counts.get("fault.degraded", 0) >= 1

    def test_worker_crash_error_crosses_the_pipe(self):
        # A crash inside a pool worker arrives in the parent as the
        # original InjectedCrashError (custom __reduce__), is retried,
        # and the join still matches the serial output.
        rng = random.Random(98)
        collection = random_collection(rng, 30, length_range=(3, 10))
        serial = similarity_join(collection, JoinConfig(k=1, tau=0.1, q=2))
        outcome = parallel_similarity_join(
            collection,
            JoinConfig(k=1, tau=0.1, q=2, workers=2),
            min_parallel=0,
            policy=policy(retries=2),
            faults=FaultPlan.from_spec("crash@1"),
        )
        assert outcome.pairs == serial.pairs
        counts = outcome.stats.fault_counts()
        assert counts.get("fault.crashed", 0) == 1
        assert counts.get("fault.retried", 0) == 1


# ----------------------------------------------------------------------
# checkpoint/resume
# ----------------------------------------------------------------------


def banded(collection, config, run_dir=None, faults=None, retries=0):
    return parallel_similarity_join(
        collection,
        config,
        use_processes=False,
        min_parallel=0,
        policy=policy(retries=retries),
        faults=faults,
        run_dir=None if run_dir is None else str(run_dir),
    )


class TestCheckpointResume:
    @pytest.fixture
    def collection(self):
        return random_collection(random.Random(55), 20, length_range=(3, 10))

    @pytest.fixture
    def config(self):
        return JoinConfig(
            k=2, tau=0.1, q=2, report_probabilities=True, workers=3
        )

    def test_interrupted_join_resumes_byte_identical(
        self, collection, config, tmp_path
    ):
        bands = plan_length_bands(
            [len(s) for s in collection], config.workers, config.k
        )
        assert len(bands) >= 2
        last = bands[-1].index
        uninterrupted = banded(collection, config)

        # First run: the last band fails every attempt including the
        # degraded one — the join dies, earlier bands are checkpointed.
        with pytest.raises(WorkerCrashError):
            banded(
                collection,
                config,
                run_dir=tmp_path,
                faults=FaultPlan.from_spec(f"crash@{last}x2"),
            )
        store = CheckpointStore(tmp_path)
        completed = store.completed_bands()
        assert completed == [band.index for band in bands[:-1]]

        # Second run, faults gone: resumes, byte-identical output.
        resumed = banded(collection, config, run_dir=tmp_path)
        assert resumed.pairs == uninterrupted.pairs
        assert [p.probability for p in resumed.pairs] == [
            p.probability for p in uninterrupted.pairs
        ]
        assert resumed.stats.stage_count("fault", "resumed") == len(completed)
        # Merged pipeline counters equal the uninterrupted run's: the
        # checkpoints carry band statistics, not just pairs.
        for name in JoinStatistics.MERGE_COUNTERS:
            assert getattr(resumed.stats, name) == getattr(
                uninterrupted.stats, name
            ), name

    def test_completed_run_resumes_every_band(
        self, collection, config, tmp_path
    ):
        first = banded(collection, config, run_dir=tmp_path)
        bands = plan_length_bands(
            [len(s) for s in collection], config.workers, config.k
        )
        again = banded(collection, config, run_dir=tmp_path)
        assert again.pairs == first.pairs
        assert again.stats.stage_count("fault", "resumed") == len(bands)

    def test_checkpointing_forces_banded_path_for_tiny_input(self, tmp_path):
        # Below min_parallel the driver normally takes the serial fast
        # path; with a run directory it must still band and checkpoint.
        collection = random_collection(random.Random(5), 6, length_range=(4, 7))
        config = JoinConfig(k=1, tau=0.1, q=2, workers=2)
        outcome = parallel_similarity_join(
            collection, config, use_processes=False, run_dir=str(tmp_path)
        )
        serial = similarity_join(collection, JoinConfig(k=1, tau=0.1, q=2))
        assert outcome.pairs == serial.pairs
        assert CheckpointStore(tmp_path).completed_bands() != []

    def test_resume_with_different_tau_rejected(
        self, collection, config, tmp_path
    ):
        banded(collection, config, run_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError):
            banded(collection, replace(config, tau=0.2), run_dir=tmp_path)

    def test_resume_with_different_workers_rejected(
        self, collection, config, tmp_path
    ):
        # A different worker count yields a different band plan; silently
        # mixing plans would corrupt ownership, so it must fail loudly.
        banded(collection, config, run_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError):
            banded(collection, replace(config, workers=2), run_dir=tmp_path)

    def test_truncated_band_checkpoint_detected(
        self, collection, config, tmp_path
    ):
        banded(collection, config, run_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        victim = store.band_path(store.completed_bands()[0])
        victim.write_bytes(victim.read_bytes()[:10])
        with pytest.raises(CheckpointCorruptError) as excinfo:
            banded(collection, config, run_dir=tmp_path)
        assert str(victim) in str(excinfo.value)

    def test_corrupt_manifest_detected(self, collection, config, tmp_path):
        banded(collection, config, run_dir=tmp_path)
        (tmp_path / "run.json").write_text("{ half a manifest")
        with pytest.raises(CheckpointCorruptError):
            banded(collection, config, run_dir=tmp_path)

    def test_foreign_manifest_detected(self, collection, config, tmp_path):
        (tmp_path / "run.json").write_text(json.dumps({"magic": "other"}))
        with pytest.raises(CheckpointCorruptError):
            banded(collection, config, run_dir=tmp_path)

    def test_checkpoint_writes_are_atomic(self, collection, config, tmp_path):
        # No .tmp residue may survive a completed run: every write went
        # through the tmp-file + rename protocol.
        banded(collection, config, run_dir=tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []
