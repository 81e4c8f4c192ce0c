"""Deadline tests: monotonic budgets, scopes, pipeline + executor hooks.

The serve layer's whole robustness story hangs off
:mod:`repro.core.deadline`: budgets must be monotonic-clock anchored,
scopes strictly per-thread, the engine's refinement path must honour
the innermost active scope without deadlines threaded through call
signatures, and the band executor's per-band timeout must still fire
when band code runs off the main thread (where ``SIGALRM`` never
arms — the regression that motivated the cooperative fallback).
"""

import threading
import time

import pytest

from repro.core.config import JoinConfig
from repro.core.deadline import (
    Deadline,
    active_deadline,
    check_active,
    deadline_scope,
)
from repro.core.errors import DeadlineExceededError
from repro.core.executor import RetryPolicy, run_bands
from repro.core.search import SimilaritySearcher
from repro.core.stats import JoinStatistics
from repro.datasets.presets import dblp_like_collection
from repro.util.faults import FaultPlan


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1.5)

    def test_limitless_deadline_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        deadline.check()  # never raises
        assert not deadline.under_pressure(1.0)

    def test_remaining_counts_down_and_floors_at_zero(self):
        deadline = Deadline(60.0)
        first = deadline.remaining()
        assert 0.0 < first <= 60.0
        assert deadline.remaining() <= first
        tiny = Deadline(0.001)
        time.sleep(0.01)
        assert tiny.remaining() == 0.0
        assert tiny.expired()

    def test_check_raises_typed_error_with_budget_and_elapsed(self):
        deadline = Deadline(0.001)
        time.sleep(0.01)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check()
        assert excinfo.value.budget == 0.001
        assert excinfo.value.elapsed >= 0.001

    def test_under_pressure_is_a_fraction_of_the_budget(self):
        generous = Deadline(60.0)
        assert not generous.under_pressure(0.25)
        assert generous.under_pressure(1.0)  # remaining < budget already
        spent = Deadline(0.001)
        time.sleep(0.01)
        assert spent.under_pressure(0.25)
        # margin 0 never triggers: remaining() is never negative.
        assert not spent.under_pressure(0.0)

    def test_after_alias(self):
        assert Deadline.after(5.0).budget == 5.0
        assert Deadline.after(None).budget is None


class TestScopes:
    def test_no_scope_is_a_cheap_no_op(self):
        assert active_deadline() is None
        check_active()  # no scope: never raises

    def test_scope_nesting_innermost_wins(self):
        outer, inner = Deadline(60.0), Deadline(30.0)
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_check_active_enforces_innermost_scope(self):
        with deadline_scope(Deadline(0.001)):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                check_active()

    def test_scope_is_popped_even_on_error(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(Deadline(60.0)):
                raise RuntimeError("boom")
        assert active_deadline() is None

    def test_scopes_do_not_leak_across_threads(self):
        seen: list["Deadline | None"] = []
        with deadline_scope(Deadline(60.0)):
            worker = threading.Thread(
                target=lambda: seen.append(active_deadline())
            )
            worker.start()
            worker.join()
        assert seen == [None]


class TestPipelineIntegration:
    def test_search_raises_under_an_expired_scope(self):
        # The engine's refinement path calls check_active() per
        # candidate, so a served request's deadline bounds real work
        # without being threaded through the call signatures.
        collection = dblp_like_collection(30, theta=0.2, rng=5)
        config = JoinConfig(k=2, tau=0.05, q=3, report_probabilities=True)
        searcher = SimilaritySearcher(collection, config)
        expired = Deadline(0.001)
        time.sleep(0.01)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                searcher.search(collection[0])

    def test_search_completes_under_a_generous_scope(self):
        collection = dblp_like_collection(30, theta=0.2, rng=5)
        config = JoinConfig(k=2, tau=0.05, q=3, report_probabilities=True)
        searcher = SimilaritySearcher(collection, config)
        baseline = searcher.search(collection[0]).matches
        with deadline_scope(Deadline(60.0)):
            scoped = searcher.search(collection[0]).matches
        assert scoped == baseline


def _checking_band_task(payload):
    """A band task with one cooperative check point (module-level so
    the pool path could pickle it)."""
    band_index, values = payload
    check_active()
    return band_index, list(values), JoinStatistics()


class TestExecutorOffMainThread:
    def test_band_timeout_fires_off_the_main_thread(self):
        # Regression: the per-band SIGALRM deadline only arms in the
        # main thread, so a band driven from a server thread used to
        # run with *no* deadline at all. The cooperative scope fallback
        # must convert the expired budget into the same BandTimeoutError
        # retry/degradation accounting as the signal path.
        stats = JoinStatistics()
        outcome: dict = {}

        def drive() -> None:
            try:
                outcome["results"] = run_bands(
                    _checking_band_task,
                    [(0, (0, ["band-0"]))],
                    workers=1,
                    policy=RetryPolicy(retries=1, timeout=0.05, sleep=lambda _s: None),
                    stats=stats,
                    faults=FaultPlan.from_spec("hang@0/0.3"),
                )
            except BaseException as exc:  # pragma: no cover - diagnostics
                outcome["error"] = exc

        worker = threading.Thread(target=drive, name="off-main-band")
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert [band for band, _, _ in outcome["results"]] == [0]
        counts = stats.fault_counts()
        # The hang out-sleeps the 50ms budget; the first cooperative
        # check point after it raises, and the clean retry completes.
        assert counts["fault.timeout"] == 1
        assert counts["fault.retried"] == 1

    def test_band_without_timeout_is_unaffected_off_main_thread(self):
        stats = JoinStatistics()
        results: list = []
        worker = threading.Thread(
            target=lambda: results.extend(
                run_bands(
                    _checking_band_task,
                    [(0, (0, ["band-0"]))],
                    workers=1,
                    policy=RetryPolicy(retries=0, timeout=None),
                    stats=stats,
                )
            )
        )
        worker.start()
        worker.join(timeout=30.0)
        assert [band for band, _, _ in results] == [0]
        assert stats.fault_counts() == {}
