"""Fault-tolerant band execution: futures, retries, timeouts, checkpoints.

The banded parallel join makes length bands natural *fault domains*:
each band is independent and deterministic, so a crashed, hung, or
corrupted band can be re-dispatched alone while every other band's
result is kept. :func:`run_bands` replaces the old all-or-nothing
``pool.map`` with that policy:

* **future per band** — one ``ProcessPoolExecutor`` future per band, so
  a single worker death no longer discards completed bands;
* **per-band timeout** — a worker-side ``SIGALRM`` deadline (raising
  :class:`~repro.core.errors.BandTimeoutError` inside the band call),
  a cooperative :mod:`repro.core.deadline` scope for threads where the
  signal cannot arm (server threads driving the executor), and a
  parent-side backstop for workers too wedged to take a signal;
* **bounded retries with exponential backoff** — each failed band is
  resubmitted up to ``RetryPolicy.retries`` times; a broken pool is
  rebuilt between rounds;
* **per-band degradation** — a band that exhausts its retries runs once
  more *in-process* with no timeout; only if that also fails does the
  join abort, with :class:`~repro.core.errors.WorkerCrashError`
  chaining the original cause;
* **fault accounting** — every event lands in ``JoinStatistics`` stage
  counters: ``fault.retried``, ``fault.degraded``, ``fault.timeout``,
  plus ``fault.crashed``, ``fault.corrupt``, ``fault.resumed`` and
  ``fault.pool_unavailable``;
* **checkpoint/resume** — with a :class:`CheckpointStore`, each
  completed band is atomically persisted (tmp file + ``os.replace``,
  versioned header) and a later run over the same inputs loads it
  instead of recomputing, producing byte-identical output.

Fault injection (:mod:`repro.util.faults`) hooks into the single
``_band_call`` wrapper every execution path shares, so the same
deterministic plan exercises the pool path, the in-process path, the
retry loop, and degradation.

:func:`run_bands` is the only way bands execute. It picks the pool or
the in-process loop from ``workers`` and the pending band count; the
banded drivers in :mod:`repro.core.parallel` call it directly, after
taking their shard's slice of the plan and narrowing the fault plan
to that shard.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.core.checkpoint import BandResult, CheckpointStore
from repro.core.deadline import Deadline, deadline_scope
from repro.core.errors import (
    BandTimeoutError,
    ConfigurationError,
    CorruptResultError,
    DeadlineExceededError,
    WorkerCrashError,
)
from repro.core.stats import JoinStatistics
from repro.util.faults import FaultPlan, inject

#: A band task: module-level callable (pool-picklable) payload -> result.
BandTask = Callable[[Any], BandResult]

#: Sentinel head of the garbage tuple a ``corrupt`` fault returns.
_CORRUPT_SENTINEL = "__corrupt-band-result__"


def effective_pool_width(workers: int, pending: int) -> int:
    """The process-pool width actually used for ``pending`` bands.

    Band count and ``workers`` set the ceiling; the host CPU count
    clamps it. Extra processes on an oversubscribed host buy no
    parallelism for CPU-bound bands — only fork and scheduling
    overhead. This clamp is *runtime-only*: the band plan (and hence
    results and checkpoint fingerprints) stays keyed to ``workers``, so
    resuming on a host with fewer cores than ``--workers`` still
    fingerprint-matches the original run.
    """
    return max(1, min(workers, pending, os.cpu_count() or 1))


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout/backoff knobs of the band executor.

    ``retries`` counts *re-dispatches*: a band gets ``retries + 1``
    dispatched attempts, then one in-process degraded attempt.
    ``timeout`` is the per-band deadline in seconds (``None`` = no
    limit); the degraded attempt always runs without a deadline.
    Backoff before re-dispatch ``n`` (1-based) is
    ``backoff * backoff_factor ** (n - 1)`` seconds; ``sleep`` is
    injectable so tests can run the schedule without waiting.
    """

    retries: int = 2
    timeout: float | None = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be non-negative, got {self.retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive or None, got {self.timeout}"
            )
        if self.backoff < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff must be >= 0 and backoff_factor >= 1, got "
                f"{self.backoff}/{self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before re-dispatching after failed 0-based ``attempt``."""
        return self.backoff * self.backoff_factor**attempt


# ----------------------------------------------------------------------
# band call wrapper (runs in workers — everything here must pickle)
# ----------------------------------------------------------------------


@contextmanager
def _deadline(band_index: int, timeout: float | None) -> Iterator[None]:
    """Raise :class:`BandTimeoutError` inside the call after ``timeout``.

    Two enforcement layers, armed together:

    * ``SIGALRM``/``setitimer`` — preemptive, but it only arms in the
      main thread of a process on platforms with the signal (pool
      workers run tasks in their main thread, so the pool path always
      has it);
    * a cooperative :class:`~repro.core.deadline.Deadline` scope — the
      engine's refinement loop checks it per candidate, so the timeout
      still fires when the band is driven from a non-main thread (a
      server worker, the in-process degradation path of a threaded
      host). Before this fallback existed the off-main-thread case
      silently became a no-op and only the parent-side backstop (pool
      path only) bounded the band.

    Either layer's expiry surfaces as the same
    :class:`BandTimeoutError`, so retry/degradation accounting cannot
    tell them apart.
    """
    if timeout is None:
        yield
        return
    signal_usable = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum: int, frame: object) -> None:
        raise BandTimeoutError(band_index, timeout)

    previous: Any = None
    if signal_usable:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with deadline_scope(Deadline(timeout)):
            yield
    except DeadlineExceededError as exc:
        raise BandTimeoutError(band_index, timeout) from exc
    finally:
        if signal_usable:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _band_call(
    task: BandTask,
    band_index: int,
    payload: Any,
    attempt: int,
    timeout: float | None,
    faults: FaultPlan | None,
) -> Any:
    """One attempt at one band: deadline + fault hook + the task itself."""
    fault = faults.fault_for(band_index, attempt) if faults else None
    with _deadline(band_index, timeout):
        if fault is not None:
            if fault.kind == "corrupt":
                return (_CORRUPT_SENTINEL, band_index, attempt)
            inject(fault, attempt)
        return task(payload)


def _validate_result(result: Any, band_index: int) -> BandResult:
    """Check a band call's return value; garbage raises CorruptResultError."""
    if (
        not isinstance(result, tuple)
        or len(result) != 3
        or result[0] != band_index
        or not isinstance(result[1], list)
        or not isinstance(result[2], JoinStatistics)
    ):
        raise CorruptResultError(
            band_index,
            f"band task returned a malformed result ({type(result).__name__})",
        )
    return result


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------


def _record_failure(
    exc: BaseException, stats: JoinStatistics, *, backstop: bool = False
) -> None:
    """Credit one failed attempt to the right ``fault.*`` counter."""
    if backstop or isinstance(exc, (BandTimeoutError, FuturesTimeoutError)):
        stats.record("fault", "timeout")
    elif isinstance(exc, CorruptResultError):
        stats.record("fault", "corrupt")
    else:
        stats.record("fault", "crashed")


def _degraded_run(
    task: BandTask,
    band_index: int,
    payload: Any,
    policy: RetryPolicy,
    faults: FaultPlan | None,
) -> BandResult:
    """The last-resort attempt: in-process, no deadline.

    A failure here is terminal — the band is deterministic, so if it
    cannot complete in the parent either, the join must abort.
    """
    attempt = policy.retries + 1
    try:
        result = _band_call(task, band_index, payload, attempt, None, faults)
        return _validate_result(result, band_index)
    except Exception as exc:
        raise WorkerCrashError(
            band_index,
            attempt + 1,
            f"in-process degraded execution also failed: {exc}",
        ) from exc


def _finish_in_process(
    task: BandTask,
    band_index: int,
    payload: Any,
    first_attempt: int,
    policy: RetryPolicy,
    stats: JoinStatistics,
    faults: FaultPlan | None,
) -> BandResult:
    """Run one band's remaining attempts (then degradation) in-process."""
    for attempt in range(first_attempt, policy.retries + 1):
        try:
            result = _band_call(
                task, band_index, payload, attempt, policy.timeout, faults
            )
            return _validate_result(result, band_index)
        except Exception as exc:
            _record_failure(exc, stats)
        if attempt < policy.retries:
            stats.record("fault", "retried")
            policy.sleep(policy.delay(attempt))
    stats.record("fault", "degraded")
    return _degraded_run(task, band_index, payload, policy, faults)


def _run_pool_rounds(
    task: BandTask,
    pending: list[tuple[int, Any]],
    workers: int,
    policy: RetryPolicy,
    stats: JoinStatistics,
    faults: FaultPlan | None,
    complete: Callable[[int, BandResult], None],
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
    mp_context: Any = None,
) -> None:
    """Dispatch bands to a process pool, one submission round per attempt.

    Failures within a round are collected and re-dispatched together in
    the next round (after one backoff sleep covering the longest
    scheduled delay); a broken pool is torn down and rebuilt between
    rounds. When the platform cannot spawn workers at all, the
    remaining bands finish in-process with identical semantics.
    """
    queue: list[tuple[int, Any, int]] = [
        (band_index, payload, 0) for band_index, payload in pending
    ]
    backstop = None if policy.timeout is None else policy.timeout * 2 + 15.0
    process_mode = True
    while queue:
        if process_mode:
            pool: ProcessPoolExecutor | None = None
            futures: list[tuple[Future[Any], int, Any, int]] = []
            try:
                # The band *plan* (and hence results and checkpoints) is
                # keyed to `workers`; only the pool width is clamped.
                pool = ProcessPoolExecutor(
                    max_workers=effective_pool_width(workers, len(queue)),
                    mp_context=mp_context,
                    initializer=initializer,
                    initargs=initargs,
                )
                for band_index, payload, attempt in queue:
                    futures.append(
                        (
                            pool.submit(
                                _band_call,
                                task,
                                band_index,
                                payload,
                                attempt,
                                policy.timeout,
                                faults,
                            ),
                            band_index,
                            payload,
                            attempt,
                        )
                    )
            except (BrokenProcessPool, OSError, RuntimeError):
                # The platform refuses to run worker processes (sandbox
                # without fork, pool broken at submit time): degrade the
                # whole run to in-process execution, once, loudly.
                stats.record("fault", "pool_unavailable")
                process_mode = False
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                continue
        if not process_mode:
            for band_index, payload, attempt in queue:
                complete(
                    band_index,
                    _finish_in_process(
                        task, band_index, payload, attempt, policy, stats, faults
                    ),
                )
            return

        next_queue: list[tuple[int, Any, int]] = []
        for future, band_index, payload, attempt in futures:
            try:
                result = future.result(timeout=backstop)
                complete(band_index, _validate_result(result, band_index))
                continue
            except FuturesTimeoutError as exc:
                # Parent-side backstop: the worker ignored its own
                # deadline — treat the pool as wedged.
                _record_failure(exc, stats, backstop=True)
            except Exception as exc:
                _record_failure(exc, stats)
            if attempt < policy.retries:
                stats.record("fault", "retried")
                next_queue.append((band_index, payload, attempt + 1))
            else:
                stats.record("fault", "degraded")
                complete(
                    band_index,
                    _degraded_run(task, band_index, payload, policy, faults),
                )
        # Abandon rather than join a possibly-wedged pool; workers of a
        # healthy pool exit on their own once their queues drain.
        assert pool is not None
        pool.shutdown(wait=False, cancel_futures=True)
        if next_queue:
            policy.sleep(
                max(policy.delay(attempt - 1) for _, _, attempt in next_queue)
            )
        queue = next_queue


def run_bands(
    task: BandTask,
    payloads: Sequence[tuple[int, Any]],
    *,
    workers: int,
    policy: RetryPolicy | None = None,
    stats: JoinStatistics | None = None,
    faults: FaultPlan | None = None,
    checkpoint: CheckpointStore | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
    mp_context: Any = None,
) -> list[BandResult]:
    """Execute band ``payloads`` fault-tolerantly; results sorted by band.

    Each payload is ``(band_index, payload)`` and ``task(payload)`` must
    return ``(band_index, pairs, stats)`` for that band. With a
    ``checkpoint`` store, already-persisted bands are loaded instead of
    executed (counted as ``fault.resumed``) and every freshly completed
    band is persisted before the next one is awaited, so a killed run
    loses at most the bands still in flight.

    A process pool runs the bands only when ``workers > 1`` and more
    than one band is pending; otherwise every band runs in-process with
    the same retry, fault and checkpoint semantics.

    ``initializer``/``initargs``/``mp_context`` are forwarded to every
    :class:`ProcessPoolExecutor` the pool path builds (including pools
    rebuilt between retry rounds) — the parallel driver uses them to
    publish the shared collection state to each worker exactly once.
    They do not apply to the in-process paths, which see the parent's
    module globals directly.

    Raises :class:`WorkerCrashError` when a band fails its dispatched
    attempts *and* the in-process degraded attempt;
    :class:`CheckpointCorruptError` when a checkpoint exists but cannot
    be read back.
    """
    if policy is None:
        policy = RetryPolicy()
    if stats is None:
        stats = JoinStatistics()
    results: dict[int, BandResult] = {}

    def complete(band_index: int, result: BandResult) -> None:
        results[band_index] = result
        if checkpoint is not None:
            checkpoint.save(band_index, result[1], result[2])

    pending: list[tuple[int, Any]] = []
    for band_index, payload in payloads:
        cached = (
            checkpoint.load_if_present(band_index)
            if checkpoint is not None
            else None
        )
        if cached is not None:
            stats.record("fault", "resumed")
            results[band_index] = cached
        else:
            pending.append((band_index, payload))

    if workers > 1 and len(pending) > 1:
        _run_pool_rounds(
            task,
            pending,
            workers,
            policy,
            stats,
            faults,
            complete,
            initializer=initializer,
            initargs=initargs,
            mp_context=mp_context,
        )
    else:
        for band_index, payload in pending:
            complete(
                band_index,
                _finish_in_process(
                    task, band_index, payload, 0, policy, stats, faults
                ),
            )
    return [results[band_index] for band_index in sorted(results)]
