"""The program side of the join workloads, run in its own process.

``python3 perfbench/worker.py SPEC.json`` reads the workload spec that
run.py wrote, repeats the set-up (loading the collection file, or
building the SQLite store) for ``setup_seconds``, then runs passes over
the input — one pass is one join of the collection — until ``seconds``
have elapsed, and prints one JSON document on its last stdout line. It
does no checking and generates nothing: run.py makes the inputs and
judges the outputs, so this process's peak RSS is the program's.

In a traced run, untraced and traced passes alternate and only the
traced ones have the layer wrappers installed; end-to-end numbers are
never taken from a traced pass.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import peak_rss_mb  # noqa: E402
from perfbench.tracing import Patcher, Tracer, install, self_seconds_by_name  # noqa: E402
from repro.core import engine, join  # noqa: E402
from repro.core.backends import backend_availability  # noqa: E402
from repro.core.config import JoinConfig  # noqa: E402
from repro.datasets import loader  # noqa: E402
from repro.store import driver, sqlite  # noqa: E402

#: JoinStatistics counters shipped back per join.
COUNTERS = (
    "length_eligible_pairs",
    "qgram_survivors",
    "frequency_checked",
    "frequency_survivors",
    "cdf_checked",
    "cdf_accepted",
    "cdf_rejected",
    "verifications",
    "verification_hits",
)


class Workload:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.file = Path(spec["file"])
        self.config = JoinConfig.for_algorithm(
            spec["algorithm"], k=spec["k"], tau=spec["tau"], q=spec["q"]
        )
        self.store_path = Path(spec["store"]) if spec.get("store") else None
        self.collection: "list | None" = None

    def set_up(self) -> None:
        """One set-up: load the collection, or build the store."""
        if self.store_path is None:
            self.collection = loader.load_collection(self.file)
        else:
            sqlite.build_sqlite_store(
                loader.iter_collection(self.file),
                self.store_path,
                k=self.config.k,
                q=self.config.q,
            )

    def fresh_inputs(self) -> None:
        """Untimed reload before a pass: strings cache per-string tables,
        so a pass over already-joined strings would run warm."""
        if self.store_path is None:
            self.collection = None
            gc.collect()
            self.collection = loader.load_collection(self.file)

    def run_pass(self) -> tuple[float, float, object]:
        """Join the input once; returns (start, end, outcome)."""
        start = time.perf_counter()
        if self.store_path is None:
            outcome = join.similarity_join(self.collection, self.config)
        else:
            store = sqlite.SqliteStore(
                self.store_path, cache_size=self.spec["cache_size"]
            )
            outcome = driver.store_similarity_join(store, self.config)
        return start, time.perf_counter(), outcome


def probe_latencies(marks: list[float], end: float) -> list[float]:
    """Per-probe milliseconds from consecutive probe start marks: each
    probe runs until the next one starts (the last until the join ends)."""
    bounds = marks + [end]
    return [(b - a) * 1000.0 for a, b in zip(bounds, bounds[1:])]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload = Workload(spec)
    seconds = spec["seconds"]
    traced = spec["trace"]

    # Set up repeatedly for a fixed time budget (at least three times):
    # the median of many set-ups spread over seconds is steady where a
    # few set-ups of a fraction of a second each follow the host's phase.
    setup_times: list[float] = []
    setup_start = time.perf_counter()
    while len(setup_times) < 3 or time.perf_counter() - setup_start < spec["setup_seconds"]:
        start = time.perf_counter()
        workload.set_up()
        setup_times.append(time.perf_counter() - start)

    result: dict = {
        "setup_times": setup_times,
        "backends": backend_availability(),
    }
    if workload.store_path is not None:
        result["store_bytes"] = os.path.getsize(workload.store_path)
        result["input_bytes"] = os.path.getsize(workload.file)

    tracer = Tracer()
    if traced:
        with Patcher() as patcher:
            install(tracer, patcher)
            workload.set_up()
    if spec.get("build_only"):
        if traced:
            result["layer_seconds"] = self_seconds_by_name(tracer.spans)
        print(json.dumps(result))
        return 0

    # Probe start marks: the only hook in an untraced pass, one clock
    # read per probe, so probes can be timed like requests.
    marks: list[float] = []

    def clock(function):
        def probe(*args, **kwargs):
            marks.append(time.perf_counter())
            return function(*args, **kwargs)

        return probe

    untraced_times: list[float] = []
    traced_times: list[float] = []
    latencies: list[float] = []
    first: "list | None" = None
    counters: dict = {}
    consistent = True
    phase_start = time.perf_counter()
    while True:
        if first is not None:
            workload.fresh_inputs()
        is_traced = traced and len(traced_times) < len(untraced_times)
        marks.clear()
        with Patcher() as patcher:
            if is_traced:
                install(tracer, patcher)
            elif not traced:
                patcher.wrap(engine.JoinEngine, "probe", clock)
            start, end, outcome = workload.run_pass()
        pairs = [(p.left_id, p.right_id) for p in outcome.pairs]
        if first is None:
            first = pairs
            counters = {name: getattr(outcome.stats, name) for name in COUNTERS}
        elif pairs != first:
            consistent = False
        if is_traced:
            traced_times.append(end - start)
        else:
            untraced_times.append(end - start)
            if not traced:
                latencies.extend(probe_latencies(marks, end))
        if traced and len(traced_times) < len(untraced_times):
            continue
        # Stop at the pass count that ends closest to ``seconds``.
        elapsed_total = time.perf_counter() - phase_start
        passes = len(untraced_times) + len(traced_times)
        unit = elapsed_total / passes * (2 if traced else 1)
        if elapsed_total + unit / 2 >= seconds:
            break

    result.update(
        pass_times=untraced_times,
        counters=counters,
        pairs=first,
        consistent=consistent,
        probe_ms=latencies,
        peak_rss_mb=peak_rss_mb(),
    )
    if traced:
        spans_path = Path(spec["spans"])
        tracer.dump(spans_path)
        result.update(
            traced_times=traced_times,
            layer_seconds=self_seconds_by_name(tracer.spans),
            counts=dict(tracer.counts),
            looked_up=len(tracer.looked_up),
            traced_passes=len(traced_times),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
