"""Child process of the out-of-core store benchmark.

Runs ONE join leg — ``store`` (out-of-core, ``SqliteStore``) or
``memory`` (classic in-memory driver) — under a hard address-space
ceiling and reports a JSON document on stdout::

    python -m benchmarks.store_probe store  INPUT_PATH K Q TAU MARGIN
    python -m benchmarks.store_probe memory INPUT_PATH K Q TAU MARGIN

``INPUT_PATH`` is a store file for the ``store`` leg and a collection
file for the ``memory`` leg. ``MARGIN`` (bytes) is the memory budget
*above the interpreter's own baseline*: the child reads its current
address-space size, adds the margin, and installs the sum as
``RLIMIT_AS`` — so the same margin means the same usable budget on any
machine, regardless of how much address space the interpreter maps at
startup. An allocation beyond the ceiling raises ``MemoryError``
(or, see :func:`fold_error`, a ``SystemError``), which the child folds
into ``{"completed": false, ...}`` instead of a traceback; the parent
asserts that the store leg completes and the in-memory leg does not,
under the *same* budget.

The document always carries ``peak_rss_bytes`` (sampled live RSS — see
:class:`_RssSampler` for why ``ru_maxrss`` cannot be trusted here) so
the recorded ``BENCH_10.json`` ties the headline claim to a measured
number. On platforms without ``/proc/self/statm`` the ceiling cannot
be anchored to the baseline; the child then runs unlimited and reports
``"limited": false`` so the parent can skip the must-fail assertion
rather than mis-assert.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from typing import Any


def _address_space_bytes() -> "int | None":
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[0])
    except OSError:
        return None
    return pages * resource.getpagesize()


class _RssSampler:
    """Peak resident-set size by periodic ``/proc/self/statm`` samples.

    ``getrusage().ru_maxrss`` is useless here: Linux carries the
    high-water mark across ``exec``, so a child spawned by a parent
    that once held the whole collection would report the *parent's*
    peak. Sampling the live RSS from a daemon thread measures only
    this process; sub-interval transients are missed, which is fine
    for a benchmark bound that the RLIMIT enforces exactly anyway.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def _sample(self) -> None:
        try:
            with open("/proc/self/statm", encoding="ascii") as handle:
                resident = int(handle.read().split()[1])
        except OSError:
            return
        self.peak = max(self.peak, resident * resource.getpagesize())

    def start(self) -> "_RssSampler":
        def loop() -> None:
            while not self._stop.wait(self.interval):
                self._sample()

        self._sample()
        self._thread = threading.Thread(
            target=loop, name="rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._sample()
        return self.peak


def _run_store(path: str, k: int, q: int, tau: float) -> int:
    from repro.core.config import JoinConfig
    from repro.store.driver import store_similarity_join
    from repro.store.sqlite import SqliteStore

    config = JoinConfig.for_algorithm(
        "QFCT", k=k, tau=tau, q=q, report_probabilities=True
    )
    outcome = store_similarity_join(SqliteStore(path), config)
    return len(outcome.pairs)


def _run_memory(path: str, k: int, q: int, tau: float) -> int:
    from repro.core.config import JoinConfig
    from repro.core.join import similarity_join
    from repro.datasets.loader import load_collection

    config = JoinConfig.for_algorithm(
        "QFCT", k=k, tau=tau, q=q, report_probabilities=True
    )
    outcome = similarity_join(load_collection(path), config)
    return len(outcome.pairs)


#: What CPython reports when a C call returns NULL without raising.
_NO_EXCEPTION_SET = "error return without exception set"


def fold_error(exc: BaseException) -> dict[str, Any]:
    """The document fields of a leg that raised ``exc``.

    ``error_type`` is the class actually raised; ``error`` names the
    failure. Under the ceiling that is almost always ``MemoryError``,
    but CPython 3.11 cannot raise it when the allocation that fails is
    a new chunk of the interpreter's frame stack (the ``mmap`` behind a
    Python call that crosses a chunk boundary): the call returns NULL
    with no exception set, which surfaces as ``SystemError: error
    return without exception set``. That case is out of memory too, so
    it is recorded as ``error: "MemoryError"`` with ``error_type:
    "SystemError"``.
    """
    name = type(exc).__name__
    if isinstance(exc, MemoryError) or (
        isinstance(exc, SystemError) and str(exc) == _NO_EXCEPTION_SET
    ):
        error = "MemoryError"
    else:
        error = f"{name}: {exc}"[:300]
    return {"completed": False, "error": error, "error_type": name, "pairs": None}


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    mode, path = args[0], args[1]
    k, q, tau, margin = int(args[2]), int(args[3]), float(args[4]), int(args[5])

    sampler = _RssSampler().start()
    baseline = _address_space_bytes()
    limited = baseline is not None
    limit_bytes = None
    if limited:
        assert baseline is not None
        limit_bytes = baseline + margin
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    document: dict[str, Any] = {
        "mode": mode,
        "limited": limited,
        "baseline_bytes": baseline,
        "limit_bytes": limit_bytes,
        "margin_bytes": margin,
    }
    start = time.perf_counter()
    try:
        runner = _run_store if mode == "store" else _run_memory
        pairs = runner(path, k, q, tau)
    except Exception as exc:  # noqa: BLE001 - sqlite may wrap the OOM
        document.update(fold_error(exc))
    else:
        document.update(completed=True, error=None, error_type=None, pairs=pairs)
    document["seconds"] = time.perf_counter() - start
    document["peak_rss_bytes"] = sampler.stop()
    json.dump(document, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
