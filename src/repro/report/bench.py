"""Benchmark runner: hot-kernel micro-benchmarks + end-to-end joins.

One registry of kernel cases (:data:`KERNELS`) is shared by

* ``benchmarks/test_micro_kernels.py`` — the pytest-benchmark suite,
* ``python -m benchmarks.run`` / ``repro-join bench`` — the JSON runner
  behind the committed ``BENCH_5.json`` trajectory file, and
* the CI regression gate (``--check``), which fails the build when a
  kernel regresses by more than :data:`DEFAULT_TOLERANCE` × against the
  committed baseline.

Timing is plain ``perf_counter`` batching: each kernel callable is run
in growing batches until :data:`MIN_MEASURE_SECONDS` of wall clock is
accumulated, and ns/op is elapsed over logical operations (one kernel
invocation = ``ops`` operations, so e.g. a 100-pair sweep counts 100).
The end-to-end join benchmark reports pairs/sec over the
length-eligible pair universe — the throughput number the ROADMAP's
"fast as the hardware allows" goal tracks.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

#: Wall-clock floor per kernel measurement (seconds).
MIN_MEASURE_SECONDS = 0.25
#: Allowed slowdown vs. the committed baseline before --check fails.
DEFAULT_TOLERANCE = 2.0
#: Collection size of the end-to-end join benchmark (quick mode halves it).
JOIN_SIZE = 300

#: Out-of-core headline (DESIGN.md §6i): collection sizes of the
#: store-vs-memory contrast. Both joins run under the SAME address-space
#: budget (:data:`STORE_MARGIN_BYTES` above the interpreter baseline);
#: the SqliteStore leg must complete, the in-memory leg must hit
#: MemoryError. The quick size keeps the CI leg under a minute while
#: still sitting ~1.5x beyond what the in-memory driver can fit in the
#: margin; the full size is the recorded 100k-string headline.
STORE_SIZE = 100_000
STORE_SIZE_QUICK = 30_000
STORE_MARGIN_BYTES = 256 * 1024 * 1024
#: Join knobs of the out-of-core contrast — deliberately cheap per
#: string (k=1 → two segments, q=4 → rare words, low theta upstream) so
#: a 100k-string pure-python join finishes in minutes; memory behaviour,
#: not verification throughput, is what this benchmark gates.
STORE_JOIN_K = 1
STORE_JOIN_Q = 4
STORE_JOIN_TAU = 0.3

BenchFn = Callable[[], Any]


@dataclass(frozen=True)
class KernelCase:
    """One micro-benchmark: ``setup()`` → (callable, logical ops per call).

    ``requires`` names an optional backend (``"native"``); when it is
    unavailable the runner records the case under ``skipped_kernels``
    instead of failing, and the regression
    gate tolerates its absence. The suite document's ``backends``
    section records *why* each optional backend is or is not usable, so
    a skip is attributable from the JSON alone.
    """

    name: str
    setup: Callable[[], tuple[BenchFn, int]]
    requires: str | None = None


def _requirement_available(requirement: str | None) -> bool:
    if requirement is None:
        return True
    if requirement == "native":
        from repro.filters._native import native_available

        return native_available()
    return False


def _dblp(size: int, theta: float = 0.2, cap: int = 8):
    from repro.datasets import dblp_like_collection

    return dblp_like_collection(
        size, theta=theta, rng=1234, max_uncertain_positions=cap
    )


def _length_compatible_pairs(collection, k: int, count: int):
    """Deterministic sample of length-eligible pairs from ``collection``."""
    eligible = [
        (left, right)
        for i, left in enumerate(collection)
        for right in collection[i + 1 :]
        if abs(len(left) - len(right)) <= k
    ]
    rng = random.Random(99)
    rng.shuffle(eligible)
    return eligible[:count]


def _setup_cdf_filter() -> tuple[BenchFn, int]:
    """CDF-bound filter over a mixed certain/uncertain pair sample."""
    from repro.filters.cdf import cdf_bounds

    pairs = _length_compatible_pairs(_dblp(60), k=2, count=40)

    def run():
        for left, right in pairs:
            cdf_bounds(left, right, 2)

    return run, len(pairs)


def _setup_cdf_dp_uncertain() -> tuple[BenchFn, int]:
    """CDF DP on uncertain×uncertain pairs (no certain fast path)."""
    from repro.filters.cdf import cdf_bounds

    uncertain = [s for s in _dblp(120) if not s.is_certain]
    pairs = _length_compatible_pairs(uncertain, k=2, count=20)

    def run():
        for left, right in pairs:
            cdf_bounds(left, right, 2)

    return run, len(pairs)


def _setup_banded_edit_k2() -> tuple[BenchFn, int]:
    from repro.distance.edit import edit_distance_banded

    rng = random.Random(0)
    words = [
        "".join(rng.choice("abcdefgh") for _ in range(40)) for _ in range(20)
    ]
    pairs = [(a, b) for a in words[:10] for b in words[10:]]

    def run():
        for a, b in pairs:
            edit_distance_banded(a, b, 2)

    return run, len(pairs)


def _setup_frequency_filter() -> tuple[BenchFn, int]:
    """Lemma 6 + Theorem 3 over prebuilt profiles (the per-pair cost)."""
    from repro.filters.frequency import FrequencyDistanceFilter, FrequencyProfile

    collection = _dblp(60)
    profiles = [FrequencyProfile(s) for s in collection]
    pairs = [
        (profiles[i], profiles[j])
        for i, left in enumerate(collection)
        for j in range(i + 1, len(collection))
        if abs(len(left) - len(collection[j])) <= 2
    ][:60]
    fltr = FrequencyDistanceFilter(2)

    def run():
        for left, right in pairs:
            fltr.decide(left, right, 0.1)

    return run, len(pairs)


def _setup_cdf_filter_native() -> tuple[BenchFn, int]:
    """Compiled CDF bounds over the ``cdf_filter`` pair sample.

    Features are prebuilt so the marshalled packs are cached, exactly
    as the engine holds them on :class:`StringFeatures` across probes.
    """
    from repro.core.context import StringFeatures
    from repro.filters._native import cdf_bounds_native

    pairs = _length_compatible_pairs(_dblp(60), k=2, count=40)
    features = {id(s): StringFeatures(s) for pair in pairs for s in pair}

    def run():
        for left, right in pairs:
            cdf_bounds_native(
                left, right, 2, features[id(left)], features[id(right)]
            )

    return run, len(pairs)


def _setup_cdf_dp_uncertain_native() -> tuple[BenchFn, int]:
    """Compiled CDF DP on the ``cdf_dp_uncertain`` pair sample."""
    from repro.core.context import StringFeatures
    from repro.filters._native import cdf_bounds_native

    uncertain = [s for s in _dblp(120) if not s.is_certain]
    pairs = _length_compatible_pairs(uncertain, k=2, count=20)
    features = {id(s): StringFeatures(s) for pair in pairs for s in pair}

    def run():
        for left, right in pairs:
            cdf_bounds_native(
                left, right, 2, features[id(left)], features[id(right)]
            )

    return run, len(pairs)


def _setup_frequency_filter_native() -> tuple[BenchFn, int]:
    """Compiled Lemma 6 + Theorem 3 over prebuilt profiles."""
    from repro.filters._native import frequency_bounds_native
    from repro.filters.frequency import FrequencyProfile

    collection = _dblp(60)
    profiles = [FrequencyProfile(s) for s in collection]
    pairs = [
        (profiles[i], profiles[j])
        for i, left in enumerate(collection)
        for j in range(i + 1, len(collection))
        if abs(len(left) - len(collection[j])) <= 2
    ][:60]

    def run():
        for left, right in pairs:
            frequency_bounds_native(left, right, 2)

    return run, len(pairs)


def _setup_banded_edit_k2_native() -> tuple[BenchFn, int]:
    """Compiled banded edit distance on the ``banded_edit_k2`` words."""
    from repro.filters._native import edit_banded_native

    rng = random.Random(0)
    words = [
        "".join(rng.choice("abcdefgh") for _ in range(40)) for _ in range(20)
    ]
    pairs = [(a, b) for a in words[:10] for b in words[10:]]

    def run():
        for a, b in pairs:
            edit_banded_native(a, b, 2)

    return run, len(pairs)


def _setup_profile_build() -> tuple[BenchFn, int]:
    from repro.filters.frequency import FrequencyProfile

    collection = _dblp(60)

    def run():
        for string in collection:
            FrequencyProfile(string)

    return run, len(collection)


def _setup_trie_verify_pair() -> tuple[BenchFn, int]:
    from repro.verify.trie import build_trie
    from repro.verify.trie_verify import trie_verify

    collection = [s for s in _dblp(80) if not s.is_certain]
    left = collection[0]
    trie = build_trie(left)
    right = min(collection[1:], key=lambda s: abs(len(s) - len(left)))

    def run():
        trie_verify(left, right, 2, left_trie=trie)

    return run, 1


KERNELS: tuple[KernelCase, ...] = (
    KernelCase("cdf_filter", _setup_cdf_filter),
    KernelCase("cdf_dp_uncertain", _setup_cdf_dp_uncertain),
    KernelCase("banded_edit_k2", _setup_banded_edit_k2),
    KernelCase("frequency_filter", _setup_frequency_filter),
    KernelCase("profile_build", _setup_profile_build),
    KernelCase("trie_verify_pair", _setup_trie_verify_pair),
    KernelCase(
        "cdf_filter_native", _setup_cdf_filter_native, requires="native"
    ),
    KernelCase(
        "cdf_dp_uncertain_native",
        _setup_cdf_dp_uncertain_native,
        requires="native",
    ),
    KernelCase(
        "frequency_filter_native",
        _setup_frequency_filter_native,
        requires="native",
    ),
    KernelCase(
        "banded_edit_k2_native",
        _setup_banded_edit_k2_native,
        requires="native",
    ),
)

#: reference/accelerated kernel pairs whose ns/op ratio becomes
#: ``backend_speedup["<workload>:<backend>"]``. The ``cdf*:native``
#: entries are also ordering invariants of the regression gate: a
#: built native backend that is *slower* than the python reference on
#: the CDF kernels fails ``--check`` outright (no baseline needed).
_BACKEND_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("cdf_filter:native", "cdf_filter", "cdf_filter_native"),
    ("cdf_dp_uncertain:native", "cdf_dp_uncertain", "cdf_dp_uncertain_native"),
    ("frequency_filter:native", "frequency_filter", "frequency_filter_native"),
    ("banded_edit_k2:native", "banded_edit_k2", "banded_edit_k2_native"),
)


def backend_speedups(kernels: dict) -> dict[str, float]:
    """Reference ns/op over accelerated ns/op per (workload, backend)
    pair (> 1 means the accelerated backend is faster)."""
    out: dict[str, float] = {}
    for target, reference_name, accel_name in _BACKEND_PAIRS:
        reference_row = kernels.get(reference_name)
        accel_row = kernels.get(accel_name)
        if reference_row and accel_row and accel_row["ns_per_op"] > 0:
            out[target] = reference_row["ns_per_op"] / accel_row["ns_per_op"]
    return out


def _cdf_cache_delta(before: dict[str, int]) -> dict[str, int]:
    """Per-case growth of the monotone CDF memo-table counters."""
    from repro.filters.cdf import cdf_cache_stats

    after = cdf_cache_stats()
    return {name: after[name] - before[name] for name in before}


def measure_kernel(case: KernelCase, min_seconds: float = MIN_MEASURE_SECONDS) -> dict:
    """ns/op for one kernel case, batched to at least ``min_seconds``.

    The CDF memo tables are cleared first so every case starts cold and
    cases cannot warm each other's caches (ordering of the registry
    must not change a measurement); the case's own hit/miss traffic is
    recorded as a counter delta under ``cdf_cache``.
    """
    from repro.filters.cdf import cdf_cache_stats, clear_cdf_caches

    clear_cdf_caches()
    cache_before = cdf_cache_stats()
    fn, ops = case.setup()
    fn()  # warm caches (boundary-cell memo, dataset construction)
    calls = 0
    elapsed = 0.0
    batch = 1
    while elapsed < min_seconds:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed += time.perf_counter() - start
        calls += batch
        batch = min(batch * 2, 64)
    ns_per_op = elapsed * 1e9 / (calls * ops)
    return {
        "ns_per_op": ns_per_op,
        "calls": calls,
        "ops_per_call": ops,
        "cdf_cache": _cdf_cache_delta(cache_before),
    }


def measure_join(
    workers: int,
    size: int = JOIN_SIZE,
    repeats: int = 3,
    backend: str = "python",
    algorithm: str = "QFCT",
) -> dict:
    """End-to-end join (k=2, τ=0.1): seconds and pairs/sec.

    The join runs ``repeats`` times and the **median** attempt (by
    throughput) is reported — single runs are far too noisy to gate on
    when worker processes contend for the host's cores. The CDF memo
    tables are cleared before each attempt (cold-cache joins, like the
    kernel cases) and the per-case counter delta is reported under
    ``cdf_cache``. Each attempt also records per-stage wall clock
    (``stage_seconds``): total end-to-end time on the QFCT cascade is
    dominated by trie verification, so a kernel backend's effect is
    *measurable* in the frequency/cdf stage timers even when the total
    sits inside run-to-run noise.
    """
    from repro.core.config import JoinConfig
    from repro.core.join import similarity_join
    from repro.filters.cdf import cdf_cache_stats, clear_cdf_caches

    collection = _dblp(size)
    config = JoinConfig.for_algorithm(
        algorithm, k=2, tau=0.1, q=3, workers=workers, backend=backend
    )
    cache_before = cdf_cache_stats()
    attempts = []
    for _ in range(max(1, repeats)):
        clear_cdf_caches()
        start = time.perf_counter()
        outcome = similarity_join(collection, config)
        seconds = time.perf_counter() - start
        eligible = outcome.stats.stage_count("length", "eligible")
        attempts.append(
            {
                "workers": workers,
                "backend": backend,
                "algorithm": algorithm,
                "size": size,
                "seconds": seconds,
                "stage_seconds": {
                    name: watch.elapsed
                    for name, watch in outcome.stats.timers.items()
                },
                "result_pairs": len(outcome.pairs),
                "eligible_pairs": eligible,
                "pairs_per_sec": eligible / seconds if seconds > 0 else 0.0,
            }
        )
    attempts.sort(key=lambda row: row["pairs_per_sec"])
    median = dict(attempts[len(attempts) // 2])
    median["attempts"] = [row["pairs_per_sec"] for row in attempts]
    median["cdf_cache"] = _cdf_cache_delta(cache_before)
    return median


def _run_store_probe(
    mode: str, input_path: str, margin: int
) -> dict:
    """One out-of-core leg in a fresh subprocess (see ``store_probe``).

    A subprocess is mandatory, not a convenience: ``RLIMIT_AS`` cannot
    be lowered for part of a process and raised back by an unprivileged
    one, and the in-memory leg is *expected* to die of ``MemoryError``
    — neither may happen inside the benchmark runner itself.
    """
    import subprocess

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.report.store_probe",
            mode,
            input_path,
            str(STORE_JOIN_K),
            str(STORE_JOIN_Q),
            str(STORE_JOIN_TAU),
            str(margin),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        return {
            "mode": mode,
            "limited": False,
            "completed": False,
            "error": f"probe exited {proc.returncode}: "
            + proc.stderr.strip()[-300:],
            "pairs": None,
            "seconds": None,
            "peak_rss_bytes": None,
        }
    return json.loads(proc.stdout)


def measure_store(quick: bool = False) -> dict:
    """The out-of-core headline: same join, same memory budget, two legs.

    Generates a DBLP-like collection of :data:`STORE_SIZE` strings
    (:data:`STORE_SIZE_QUICK` in quick mode), saves it, builds a
    ``SqliteStore`` **from the saved file** (so both legs parse the
    exact serialized bytes — the precision round-trip is part of the
    contract), then runs each leg in a subprocess capped at
    :data:`STORE_MARGIN_BYTES` of address space above its own
    interpreter baseline. The store leg must complete inside the
    budget; the in-memory leg must not.
    """
    import os
    import tempfile

    from repro.datasets import dblp_like_collection
    from repro.datasets.loader import iter_collection, save_collection
    from repro.store.sqlite import build_sqlite_store

    size = STORE_SIZE_QUICK if quick else STORE_SIZE
    # Low theta / duplicate_rate keeps verification cheap so the
    # benchmark's cost is dominated by scale, which is the point.
    collection = dblp_like_collection(
        size, theta=0.05, rng=1234, duplicate_rate=0.2
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        collection_path = os.path.join(tmp, "collection.txt")
        save_collection(collection, collection_path)
        del collection
        store_path = os.path.join(tmp, "collection.idx")
        start = time.perf_counter()
        meta = build_sqlite_store(
            iter_collection(collection_path),
            store_path,
            k=STORE_JOIN_K,
            q=STORE_JOIN_Q,
        )
        build_seconds = time.perf_counter() - start
        store_leg = _run_store_probe("store", store_path, STORE_MARGIN_BYTES)
        memory_leg = _run_store_probe(
            "memory", collection_path, STORE_MARGIN_BYTES
        )
        store_file_bytes = os.path.getsize(store_path)
    return {
        "strings": size,
        "k": STORE_JOIN_K,
        "q": STORE_JOIN_Q,
        "tau": STORE_JOIN_TAU,
        "margin_bytes": STORE_MARGIN_BYTES,
        "build_seconds": build_seconds,
        "postings": meta.entry_count,
        "store_file_bytes": store_file_bytes,
        "store": store_leg,
        "memory": memory_leg,
    }


def _backend_report() -> dict:
    """Per-backend availability for the suite document.

    ``available: false`` rows carry the human-readable ``reason`` from
    :func:`repro.core.backends.backend_availability`, so a reader of
    the JSON can attribute every ``skipped_kernels`` / ``skipped_joins``
    entry without rerunning anything.
    """
    from repro.core.backends import backend_availability

    return {
        name: {"available": reason is None, "reason": reason}
        for name, reason in backend_availability().items()
    }


def run_suite(
    quick: bool = False,
    join_workers: Sequence[int] = (1, 4),
    only: str | None = None,
) -> dict:
    """The full benchmark suite as a JSON-ready document.

    ``only`` restricts the run to kernel cases whose name matches the
    fnmatch pattern (e.g. ``--only 'cdf_*'``) and skips the end-to-end
    join/serve/store sections entirely — a subset document for local
    iteration, never for the regression gate.
    """
    from fnmatch import fnmatch

    min_seconds = 0.1 if quick else MIN_MEASURE_SECONDS
    join_size = JOIN_SIZE // 2 if quick else JOIN_SIZE
    backends = _backend_report()
    kernels = {}
    skipped: list[str] = []
    for case in KERNELS:
        if only is not None and not fnmatch(case.name, only):
            continue
        if not _requirement_available(case.requires):
            skipped.append(case.name)
            print(
                f"[bench] {case.name}: skipped (requires {case.requires})",
                file=sys.stderr,
            )
            continue
        kernels[case.name] = measure_kernel(case, min_seconds)
        print(
            f"[bench] {case.name}: {kernels[case.name]['ns_per_op']:.0f} ns/op",
            file=sys.stderr,
        )
    if only is not None:
        return {
            "schema": 1,
            "quick": quick,
            "only": only,
            "backends": backends,
            "kernels": kernels,
            "skipped_kernels": skipped,
            "backend_speedup": backend_speedups(kernels),
        }
    joins = {}
    skipped_joins: list[str] = []
    join_cases = [(f"workers{w}", w, "python", "QFCT") for w in join_workers]
    # Native end-to-end legs, sequential so kernel time (not pool
    # scheduling) dominates: workers1_native mirrors workers1 on the
    # full QFCT cascade, and the fct1/fct1_native pair contrasts the
    # backends on the filter-bound FCT variant, where the frequency and
    # CDF kernels see every length-eligible pair instead of only the
    # q-gram survivors — the workload where the compiled kernels move
    # the end-to-end number, not just the stage timers.
    join_cases.append(("workers1_native", 1, "native", "QFCT"))
    join_cases.append(("fct1", 1, "python", "FCT"))
    join_cases.append(("fct1_native", 1, "native", "FCT"))
    for join_name, workers, backend, algorithm in join_cases:
        if backends[backend]["available"] is False:
            skipped_joins.append(join_name)
            print(
                f"[bench] join {join_name}: skipped "
                f"(requires {backend} backend)",
                file=sys.stderr,
            )
            continue
        joins[join_name] = measure_join(
            workers,
            join_size,
            repeats=1 if quick else 3,
            backend=backend,
            algorithm=algorithm,
        )
        row = joins[join_name]
        print(
            f"[bench] join {join_name}: {row['seconds']:.2f}s "
            f"({row['pairs_per_sec']:.0f} pairs/sec)",
            file=sys.stderr,
        )
    from repro.serve.loadgen import measure_serve

    serve = {"mixed": measure_serve(quick)}
    row = serve["mixed"]
    print(
        f"[bench] serve mixed: p50 {row['p50_ms']:.1f}ms / "
        f"p95 {row['p95_ms']:.1f}ms / p99 {row['p99_ms']:.1f}ms "
        f"({row['completed']}/{row['requests']} completed, "
        f"{row['shed']} shed, {row['degraded']} degraded)",
        file=sys.stderr,
    )
    store = {"out_of_core": measure_store(quick)}
    row = store["out_of_core"]
    store_leg, memory_leg = row["store"], row["memory"]
    store_mb = (store_leg.get("peak_rss_bytes") or 0) / 1024 / 1024
    print(
        f"[bench] store out-of-core: {row['strings']} strings, "
        f"margin {row['margin_bytes'] // (1024 * 1024)}MiB — store leg "
        f"{'completed' if store_leg.get('completed') else 'FAILED'} "
        f"({store_leg.get('pairs')} pairs, "
        f"{store_leg.get('seconds') or 0:.1f}s, peak RSS {store_mb:.0f}MiB); "
        f"memory leg "
        f"{'completed' if memory_leg.get('completed') else memory_leg.get('error')}",
        file=sys.stderr,
    )
    return {
        "schema": 1,
        "quick": quick,
        "backends": backends,
        "kernels": kernels,
        "skipped_kernels": skipped,
        "backend_speedup": backend_speedups(kernels),
        "join": joins,
        "skipped_joins": skipped_joins,
        "serve": serve,
        "store": store,
    }


def compute_speedups(before: dict, after: dict) -> dict:
    """before/after ratios (>1 = faster now) for kernels and joins."""
    speedups: dict[str, float] = {}
    for name, row in after.get("kernels", {}).items():
        base = before.get("kernels", {}).get(name)
        if base and row["ns_per_op"] > 0:
            speedups[name] = base["ns_per_op"] / row["ns_per_op"]
    for name, row in after.get("join", {}).items():
        base = before.get("join", {}).get(name)
        if base and base.get("pairs_per_sec"):
            speedups[f"join_{name}"] = (
                row["pairs_per_sec"] / base["pairs_per_sec"]
            )
    return speedups


def unbaselined_entries(current: dict, baseline: dict) -> list[str]:
    """Entries measured in ``current`` that ``baseline`` never recorded.

    These are exactly the measurements the gate cannot gate: a kernel
    or join added without re-recording the baseline would ship with no
    regression protection at all.
    """
    missing = [
        f"kernel {name}"
        for name in current.get("kernels", {})
        if name not in baseline.get("kernels", {})
    ]
    missing.extend(
        f"join {name}"
        for name in current.get("join", {})
        if name not in baseline.get("join", {})
    )
    missing.extend(
        f"serve {name}"
        for name in current.get("serve", {})
        if name not in baseline.get("serve", {})
    )
    missing.extend(
        f"store {name}"
        for name in current.get("store", {})
        if name not in baseline.get("store", {})
    )
    return missing


def check_regressions(
    current: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    allow_new_kernels: bool = False,
) -> list[str]:
    """Regression messages vs. ``baseline`` (empty = gate passes).

    A kernel fails when it is more than ``tolerance`` × slower than the
    committed ns/op; a join fails when throughput drops below
    ``1 / tolerance`` of the committed pairs/sec. The generous default
    absorbs CI-machine noise while still catching real regressions.

    The gate walks *both* directions: baseline entries must appear in
    the current run (unless the run recorded them under
    ``skipped_kernels`` / ``skipped_joins`` — a missing optional
    backend), and current entries must have a baseline to gate against.
    The gate used to iterate only the baseline, so a newly added kernel
    silently ran ungated forever; now an unbaselined measurement fails
    the check unless ``allow_new_kernels`` is set (the escape hatch for
    the PR that re-records the baseline).

    One baseline-free ordering invariant rides along: when the compiled
    backend was measured, the native CDF kernels must not be *slower*
    than their python reference — a native build that loses to the
    interpreter is a broken build, whatever the baseline says.
    """
    failures: list[str] = []
    skipped = set(current.get("skipped_kernels", ()))
    skipped_joins = set(current.get("skipped_joins", ()))
    for target, reference_name, accel_name in _BACKEND_PAIRS:
        if not target.startswith("cdf") or not target.endswith(":native"):
            continue
        reference = current.get("kernels", {}).get(reference_name)
        accel = current.get("kernels", {}).get(accel_name)
        if (
            reference
            and accel
            and accel["ns_per_op"] > reference["ns_per_op"]
        ):
            failures.append(
                f"kernel {accel_name}: {accel['ns_per_op']:.0f} ns/op is "
                f"slower than the python reference {reference_name} "
                f"({reference['ns_per_op']:.0f} ns/op) — the native build "
                "is not pulling its weight"
            )
    if not allow_new_kernels:
        failures.extend(
            f"{entry}: no baseline entry (re-record the baseline or pass "
            "--allow-new-kernels)"
            for entry in unbaselined_entries(current, baseline)
        )
    for name, row in baseline.get("kernels", {}).items():
        measured = current.get("kernels", {}).get(name)
        if measured is None:
            if name in skipped:
                continue
            failures.append(f"kernel {name}: missing from current run")
            continue
        if measured["ns_per_op"] > row["ns_per_op"] * tolerance:
            failures.append(
                f"kernel {name}: {measured['ns_per_op']:.0f} ns/op vs "
                f"baseline {row['ns_per_op']:.0f} (> {tolerance:g}x)"
            )
    for name, row in baseline.get("join", {}).items():
        measured = current.get("join", {}).get(name)
        if measured is None:
            if name in skipped_joins:
                continue
            failures.append(f"join {name}: missing from current run")
            continue
        if measured["pairs_per_sec"] * tolerance < row["pairs_per_sec"]:
            failures.append(
                f"join {name}: {measured['pairs_per_sec']:.0f} pairs/sec vs "
                f"baseline {row['pairs_per_sec']:.0f} (> {tolerance:g}x slower)"
            )
    for name, row in baseline.get("serve", {}).items():
        measured = current.get("serve", {}).get(name)
        if measured is None:
            failures.append(f"serve {name}: missing from current run")
            continue
        if measured["p95_ms"] > row["p95_ms"] * tolerance:
            failures.append(
                f"serve {name}: p95 {measured['p95_ms']:.1f}ms vs baseline "
                f"{row['p95_ms']:.1f}ms (> {tolerance:g}x)"
            )
    # Robustness invariants of the serve workload hold regardless of
    # any baseline: the outcome tally must be exhaustive (nothing hung)
    # and the healthy-load workload must neither drop nor error.
    for name, measured in current.get("serve", {}).items():
        for field in ("unaccounted", "dropped", "errors"):
            if measured.get(field, 0):
                failures.append(
                    f"serve {name}: {measured[field]} request(s) {field} "
                    "(expected 0 on the healthy bench workload)"
                )
    # Out-of-core invariants are likewise baseline-free — the headline
    # claim IS the contrast, and it must hold on every run: the store
    # leg completes inside the ceiling it was limited to, while the
    # in-memory leg over the same collection and budget cannot. Only
    # the store leg's peak RSS is gated against the baseline (growth
    # beyond tolerance means hydration stopped being bounded).
    for name, row in current.get("store", {}).items():
        store_leg = row.get("store", {})
        memory_leg = row.get("memory", {})
        if not store_leg.get("completed"):
            failures.append(
                f"store {name}: store leg failed under the memory budget "
                f"({store_leg.get('error')})"
            )
        elif store_leg.get("limited") and store_leg.get("limit_bytes"):
            peak = store_leg.get("peak_rss_bytes") or 0
            if peak > store_leg["limit_bytes"]:
                failures.append(
                    f"store {name}: peak RSS {peak} exceeds the "
                    f"{store_leg['limit_bytes']}-byte address-space ceiling "
                    "(sampler and rlimit disagree)"
                )
        if memory_leg.get("limited") and memory_leg.get("completed"):
            failures.append(
                f"store {name}: in-memory leg completed inside the "
                f"{row.get('margin_bytes')}-byte margin — the out-of-core "
                "contrast no longer demonstrates anything; raise the "
                "collection size or lower the margin"
            )
        base_row = baseline.get("store", {}).get(name)
        base_leg = (base_row or {}).get("store", {})
        if base_leg.get("peak_rss_bytes") and store_leg.get("peak_rss_bytes"):
            if (
                store_leg["peak_rss_bytes"]
                > base_leg["peak_rss_bytes"] * tolerance
            ):
                failures.append(
                    f"store {name}: peak RSS {store_leg['peak_rss_bytes']} "
                    f"vs baseline {base_leg['peak_rss_bytes']} "
                    f"(> {tolerance:g}x)"
                )
    for name in baseline.get("store", {}):
        if name not in current.get("store", {}):
            failures.append(f"store {name}: missing from current run")
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="micro-kernel + end-to-end join benchmark runner",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="write the JSON document here"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter measurements and a half-size join (CI smoke)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="PATTERN",
        help="run only kernel cases matching this fnmatch pattern (e.g. "
        "'cdf_*') and skip the join/serve/store sections; incompatible "
        "with --check, which needs the full suite",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="embed speedups vs. this previously recorded run",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="JSON",
        help="fail (exit 1) on > tolerance regression vs. this baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"--check slowdown tolerance (default {DEFAULT_TOLERANCE:g}x)",
    )
    parser.add_argument(
        "--allow-new-kernels",
        action="store_true",
        help="let --check pass when the run measures kernels/joins the "
        "baseline has no entry for (use when re-recording the baseline)",
    )
    args = parser.parse_args(argv)
    if args.only and args.check:
        parser.error("--only runs a subset; the --check gate needs the full suite")

    document = run_suite(quick=args.quick, only=args.only)
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            before = json.load(handle)
        document["baseline"] = before
        document["speedup"] = compute_speedups(before, document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[bench] wrote {args.output}", file=sys.stderr)
    else:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        print()
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            committed = json.load(handle)
        if args.allow_new_kernels:
            for entry in unbaselined_entries(document, committed):
                print(f"[bench] NEW (unbaselined): {entry}", file=sys.stderr)
        failures = check_regressions(
            document,
            committed,
            args.tolerance,
            allow_new_kernels=args.allow_new_kernels,
        )
        for failure in failures:
            print(f"[bench] REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"[bench] regression gate passed (tolerance {args.tolerance:g}x)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
