#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload join_probe --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload with untraced and traced phases interleaved and prints every
per-layer metric plus ``trace.overhead``. Either way the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds diagnostics (machine-speed readings, sample counts,
backend availability). See perfbench/README.md for the workloads, the
metric definitions and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    print("perfbench: no src/repro next to perfbench/; run from a checkout "
          "of the repository", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gen  # noqa: E402
from perfbench.client import run_closed_loop  # noqa: E402
from perfbench.common import (  # noqa: E402
    WORK,
    percentile,
    process_peak_rss_mb,
    reference_loop_ms,
    samples_beyond,
)
from perfbench.tracing import load_dump, self_seconds_by_name  # noqa: E402
from repro.store.base import STORE_PRECISION  # noqa: E402
from repro.uncertain.parser import format_uncertain  # noqa: E402

K, TAU, Q, ALGORITHM = 2, 0.1, 3, "QFCT"
#: Seconds the set-up is repeated for; ``setup_s`` is the median (for
#: serve_store, the sum of the medians of its two steps, each repeated
#: for half of it). A handful of set-ups of a fraction of a second each
#: follow whichever speed phase the host is in; many spread over
#: seconds do not.
SETUP_SECONDS = 8.0
#: Hard cap on one worker or server process, under the 180 s run limit.
PROCESS_TIMEOUT = 150

PROBE_COUNT, PROBE_THETA = 2000, 0.05
# store_join: the collection is larger than the store's hydration cache.
STORE_COUNT, STORE_THETA, STORE_CACHE = 1600, 0.05, 1024
MAX_UNCERTAIN = 8
SERVE_COUNT, SERVE_THETA, SERVE_MAX_UNCERTAIN = 4500, 0.1, 3
#: Requests per ``--seconds`` of a serve run: a fixed count, about what
#: the closed loop answers per second at the parent commit on a fast
#: host (half that in its slow phases), so the work (distinct queries,
#: cache fills, peak RSS) does not depend on speed.
SERVE_REQUESTS_PER_S = 80
SERVE_WARMUP_REQUESTS = 80

#: Largest world-pair product the naive re-decision check enumerates.
NAIVE_WORLD_LIMIT = 5000
#: Pairs re-decided per group (planted, random, reported-not-planted).
NAIVE_PAIRS_PER_GROUP = 6

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
}
PER_LAYER = {
    "datasets.load_s": "s",
    "index.add_s": "s",
    "index.probe_s": "s",
    "index.candidates": "count",
    "index.prune_ratio": "ratio",
    "store.build_s": "s",
    "store.bytes_per_input_byte": "ratio",
    "store.probe_s": "s",
    "store.postings_s": "s",
    "store.queries": "count",
    "store.hydrate_s": "s",
    "store.strings_parsed": "count",
    "store.lookups": "count",
    "store.cache_hit_ratio": "ratio",
    "store.hydrate_useful_ratio": "ratio",
    "filters.frequency_s": "s",
    "filters.cdf_s": "s",
    "filters.profile_s": "s",
    "filters.checked": "count",
    "filters.decided_ratio": "ratio",
    "verify.s": "s",
    "verify.trie_build_s": "s",
    "verify.calls": "count",
    "verify.hit_ratio": "ratio",
    "core.self_s": "s",
    "serve.handler_s": "s",
    "serve.admission_wait_s": "s",
    "serve.encode_s": "s",
    "serve.wire_ms": "ms",
    "serve.shed": "count",
    "serve.deadline_exceeded": "count",
    "trace.overhead": "ratio",
    "machine.ref_before_ms": "ms",
    "machine.ref_after_ms": "ms",
}
#: Span name -> per-layer time metric fed by its self time.
SPAN_METRICS = {
    "datasets.load": "datasets.load_s",
    "index.add": "index.add_s",
    "index.probe": "index.probe_s",
    "store.build": "store.build_s",
    "store.probe": "store.probe_s",
    "store.postings": "store.postings_s",
    "store.hydrate": "store.hydrate_s",
    "filters.frequency": "filters.frequency_s",
    "filters.cdf": "filters.cdf_s",
    "filters.profile": "filters.profile_s",
    "verify.verify": "verify.s",
    "verify.trie_build": "verify.trie_build_s",
    "core.probe": "core.self_s",
    "core.driver": "core.self_s",
    "serve.handler": "serve.handler_s",
    "serve.admission": "serve.admission_wait_s",
    "serve.encode": "serve.encode_s",
}
#: Set-up spans are reported per set-up, not per pass or request.
SETUP_SPANS = ("datasets.load", "store.build")


class Run:
    """What a workload reports back to :func:`main`."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.diagnostics: dict = {}

    def fail(self, reason: str) -> None:
        self.correct = False
        self.diagnostics.setdefault("failures", []).append(reason)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    seconds_by_span: dict[str, float], per: float
) -> dict[str, float]:
    """Per-layer time metrics from span self times; run-phase spans are
    divided by ``per`` (passes or requests), set-up spans are not."""
    metrics: dict[str, float] = {}
    for span, seconds in seconds_by_span.items():
        metric = SPAN_METRICS.get(span)
        if metric is None:
            continue
        share = seconds if span in SETUP_SPANS else seconds / per
        metrics[metric] = metrics.get(metric, 0.0) + share
    return metrics


def counter_metrics(counters: dict[str, int], per: float = 1) -> dict[str, float]:
    """Per-layer work counts (divided by ``per``) and ratios from
    ``JoinStatistics`` fields."""
    checked = counters["frequency_checked"] + counters["cdf_checked"]
    decided = (
        counters["frequency_checked"] - counters["frequency_survivors"]
        + counters["cdf_accepted"] + counters["cdf_rejected"]
    )
    return {
        "index.candidates": counters["qgram_survivors"] / per,
        "index.prune_ratio": 1.0 - ratio(
            counters["qgram_survivors"], counters["length_eligible_pairs"]
        ),
        "filters.checked": checked / per,
        "filters.decided_ratio": ratio(decided, checked),
        "verify.calls": counters["verifications"] / per,
        "verify.hit_ratio": ratio(
            counters["verification_hits"], counters["verifications"]
        ),
    }


def store_counter_metrics(counts: dict[str, int], looked_up: int, per: float) -> dict:
    return {
        "store.queries": counts.get("store.queries", 0) / per,
        "store.strings_parsed": counts.get("store.strings_parsed", 0) / per,
        "store.lookups": counts.get("store.lookups", 0) / per,
        "store.cache_hit_ratio": ratio(
            counts.get("store.cache_hits", 0), counts.get("store.lookups", 0)
        ),
        "store.hydrate_useful_ratio": ratio(
            looked_up, counts.get("store.strings_parsed", 0)
        ),
    }


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(spec: dict, workdir: Path) -> dict:
    """Run perfbench/worker.py on ``spec``; returns its JSON result."""
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT,
        cwd=ROOT, env=subprocess_env(),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker exited with {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def base_spec(args: argparse.Namespace, workdir: Path) -> dict:
    return {
        "algorithm": ALGORITHM, "k": K, "tau": TAU, "q": Q,
        "seconds": args.seconds, "trace": bool(args.trace),
        # A traced run does not report setup_s: three set-ups suffice.
        "setup_seconds": 0.0 if args.trace else SETUP_SECONDS,
        "spans": str(workdir / "spans.jsonl"),
    }


# ----------------------------------------------------------------------
# correctness oracles (outside every timed phase)


def naive_check(run: Run, collection: gen.Collection, pairs: list, seed: int) -> None:
    """Re-decide seeded samples of pairs by brute-force world enumeration
    (where the world count allows) and compare with the join's pair list:
    planted near-duplicates (mostly hits), random length-eligible pairs
    (mostly misses), and reported pairs that were not planted (hits the
    generator did not plan, or false pairs)."""
    from repro.verify.naive import naive_verify

    strings = collection.strings
    reported = {tuple(pair) for pair in pairs}
    planted = set(collection.twins)
    if len(reported) != len(pairs) or any(
        left >= right or abs(len(strings[left]) - len(strings[right])) > K
        for left, right in reported
    ):
        run.fail("the join reported duplicate, unordered or length-ineligible pairs")
        return
    rng = random.Random(f"naive:{seed}")
    budget = 4 * NAIVE_PAIRS_PER_GROUP
    eligible = []
    while len(eligible) < budget:
        a, b = sorted(rng.sample(range(len(strings)), 2))
        if abs(len(strings[a]) - len(strings[b])) <= K and (a, b) not in planted:
            eligible.append((a, b))
    unplanned = sorted(reported - planted)
    groups = {
        "planted": rng.sample(collection.twins, min(budget, len(collection.twins))),
        "random": eligible,
        "reported": rng.sample(unplanned, min(budget, len(unplanned))),
    }
    for group, candidates in groups.items():
        checked = 0
        for left, right in candidates:
            if checked >= NAIVE_PAIRS_PER_GROUP:
                break
            product = strings[left].world_count() * strings[right].world_count()
            if product > NAIVE_WORLD_LIMIT:
                continue
            probability = naive_verify(strings[left], strings[right], K)
            if abs(probability - TAU) < 1e-12:
                continue
            checked += 1
            hit = (left, right) in reported
            if (probability > TAU) != hit:
                run.fail(f"{group} pair ({left}, {right}): naive probability "
                         f"{probability!r} vs join {'hit' if hit else 'miss'}")
        # Planted and random pairs always exist; a check that could not
        # re-decide its share of them would pass vacuously.
        if group != "reported" and checked < NAIVE_PAIRS_PER_GROUP:
            run.fail(f"naive check re-decided only {checked} {group} pairs")
        run.diagnostics[f"naive_{group}_checked"] = checked
    run.diagnostics["reported_unplanned_pairs"] = len(unplanned)


def memory_join_check(run: Run, path: Path, pairs: list) -> None:
    """The store join must equal the in-memory driver's pair set."""
    from repro.core.config import JoinConfig
    from repro.core.join import similarity_join
    from repro.datasets.loader import load_collection

    config = JoinConfig.for_algorithm(ALGORITHM, k=K, tau=TAU, q=Q)
    expected = [
        [p.left_id, p.right_id]
        for p in similarity_join(load_collection(path), config).pairs
    ]
    if [list(p) for p in pairs] != expected:
        run.fail(f"store join pairs differ from the in-memory join "
                 f"({len(pairs)} vs {len(expected)} pairs)")


# ----------------------------------------------------------------------
# join workloads


def join_workload(args: argparse.Namespace, workdir: Path, kind: str) -> Run:
    run = Run()
    spec = base_spec(args, workdir)
    path = workdir / "collection.txt"
    if kind == "join_probe":
        generated = gen.make_collection(args.seed, PROBE_COUNT, PROBE_THETA, MAX_UNCERTAIN)
    else:
        generated = gen.make_collection(args.seed, STORE_COUNT, STORE_THETA, MAX_UNCERTAIN)
        spec["store"] = str(workdir / "collection.store")
        spec["cache_size"] = STORE_CACHE
    collection = gen.write_collection(generated, path)
    spec["file"] = str(path)

    result = run_worker(spec, workdir)
    run.attempted = len(result["pass_times"]) + len(result.get("traced_times", ()))
    run.diagnostics["backends"] = result["backends"]
    run.diagnostics["passes"] = run.attempted
    run.diagnostics["setups"] = len(result["setup_times"])

    if not result["consistent"]:
        run.fail("passes over the same input returned different pairs")
    if kind == "store_join":
        memory_join_check(run, path, result["pairs"])
    else:
        naive_check(run, collection, result["pairs"], args.seed)

    if args.trace:
        traced = result["traced_passes"]
        metrics = layer_metrics(result["layer_seconds"], traced)
        metrics.update(counter_metrics(result["counters"]))
        if kind == "store_join":
            # Distinct ids repeat every pass; scale them like the per-pass totals.
            metrics.update(store_counter_metrics(
                result["counts"], result["looked_up"] * traced, traced))
            metrics["store.bytes_per_input_byte"] = result["store_bytes"] / result["input_bytes"]
        metrics["trace.overhead"] = (
            statistics.mean(result["traced_times"]) / statistics.mean(result["pass_times"])
        )
        run.metrics = metrics
    else:
        latencies = result["probe_ms"]
        p50, samples = percentile(latencies, 0.50)
        p95, _ = percentile(latencies, 0.95)
        # Median of per-pass rates: a slow phase of the host spoils the
        # passes it overlaps, not the whole figure.
        eligible = result["counters"]["length_eligible_pairs"]
        rates = [eligible / seconds for seconds in result["pass_times"]]
        run.metrics = {
            "setup_s": statistics.median(result["setup_times"]),
            "pairs_per_s": statistics.median(rates),
            "peak_rss_mb": result["peak_rss_mb"],
            "req_p50_ms": p50,
            "req_p95_ms": p95,
        }
        run.diagnostics["req_samples"] = samples
        run.diagnostics["req_p95_samples_beyond"] = samples_beyond(samples, 0.95)
    if not run.correct:
        run.failed = run.attempted
    return run


# ----------------------------------------------------------------------
# serve_store


class Server:
    """One ``repro-join serve --store`` process (or the traced launcher)."""

    def __init__(self, store: Path, spans: "Path | None") -> None:
        serve_args = ["serve", "--store", str(store), "-k", str(K),
                      "--tau", str(TAU), "-q", str(Q), "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                       str(spans), "--", *serve_args]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=subprocess_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            announce = self.process.stderr.readline()
            if " on " not in announce:
                raise RuntimeError(f"server did not start: {announce!r}")
            host, port = announce.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
            self.address = (host, int(port))
            deadline = time.monotonic() + 30
            while not self._ready():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _get(self, path: str) -> tuple[int, dict]:
        url = f"http://{self.address[0]}:{self.address[1]}{path}"
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, {}

    def _ready(self) -> bool:
        try:
            return self._get("/readyz")[0] == 200
        except OSError:
            return False

    def stats(self) -> dict:
        return self._get("/stats")[1]

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()


def stored_strings(path: Path) -> list:
    """The collection exactly as the store holds it."""
    from repro.store.sqlite import SqliteStore

    store = SqliteStore(path)
    held = store.strings_by_ids(range(len(store)))
    return [held[i] for i in range(len(store))]


def serve_oracle(strings: list, run: Run, outcomes: list, requests: list) -> list[int]:
    """Check every answered request against offline
    ``SimilaritySearcher`` answers over the strings the store holds;
    returns each request's length-eligible pair count."""
    from repro.core.config import JoinConfig
    from repro.core.search import SimilaritySearcher
    from repro.serve.protocol import match_document
    from repro.uncertain.parser import parse_uncertain

    config = JoinConfig.for_algorithm(ALGORITHM, k=K, tau=TAU, q=Q)
    plain = SimilaritySearcher(strings, config)
    exact = None
    answers: dict[str, tuple[list, int]] = {}
    eligible = []
    for outcome in outcomes:
        request = requests[outcome.index]
        text = request.body["query"]
        if text not in answers:
            found = plain.search(parse_uncertain(text))
            answers[text] = (
                [match_document(m) for m in found.matches],
                found.stats.length_eligible_pairs,
            )
        expected, pairs = answers[text]
        eligible.append(pairs)
        document = outcome.document
        if outcome.status != 200 or document is None:
            run.failed += 1
            run.fail(f"request {outcome.index}: status {outcome.status}")
            continue
        if request.path == "/search":
            good = document["matches"] == expected and not document["degraded"]
        else:
            if exact is None:
                exact = SimilaritySearcher(
                    strings,
                    JoinConfig.for_algorithm(ALGORITHM, k=K, tau=TAU, q=Q,
                                             report_probabilities=True),
                )
            count = request.body["count"]
            got = document["matches"]
            cut = got[-1]["probability"] if len(got) == count else 0.0
            found = exact.search(parse_uncertain(text), tau=max(0.0, cut * (1 - 1e-9)))
            best = sorted(
                ((m.probability, m.string_id) for m in found.matches), reverse=True
            )[:count]
            good = not document["degraded"] and got == [
                {"id": i, "probability": p} for p, i in best
            ]
        if not good:
            run.failed += 1
            run.fail(f"request {outcome.index} ({request.path}) differs from the offline answer")
    return eligible


def serve_workload(args: argparse.Namespace, workdir: Path) -> Run:
    run = Run()
    path = workdir / "collection.txt"
    collection = gen.write_collection(
        gen.make_collection(args.seed, SERVE_COUNT, SERVE_THETA, SERVE_MAX_UNCERTAIN), path
    )
    store = workdir / "collection.store"
    spec = base_spec(args, workdir)
    spec.update(file=str(path), store=str(store), build_only=True,
                setup_seconds=spec["setup_seconds"] / 2)
    built = run_worker(spec, workdir)
    run.diagnostics["backends"] = built["backends"]

    ready = []
    server = None
    requests = gen.make_requests(
        args.seed, collection, round(SERVE_REQUESTS_PER_S * args.seconds), "timed")
    try:
        start = time.perf_counter()
        while len(ready) < 3 or time.perf_counter() - start < spec["setup_seconds"]:
            if server is not None:
                server.stop()
            server = Server(store, None)
            ready.append(server.ready_s)
        setup_s = statistics.median(built["setup_times"]) + statistics.median(ready)
        if not args.trace:
            warmup = gen.make_requests(
                args.seed, collection, SERVE_WARMUP_REQUESTS, "warmup")
            run_closed_loop(server.address, warmup)
            outcomes = run_closed_loop(server.address, requests)
            rss = server.peak_rss_mb()
        else:
            # Two halves over the same requests, untraced then traced.
            requests = requests[: len(requests) // 2]
            plain = run_closed_loop(server.address, requests)
            server.stop()
            spans_path = workdir / "spans.jsonl"
            server = Server(store, spans_path)
            outcomes = run_closed_loop(server.address, requests, tag="r")
            counters = server.stats()["counters"]["serve"]
    finally:
        if server is not None:
            server.stop()
    run.diagnostics["setups"] = [len(built["setup_times"]), len(ready)]

    run.attempted = len(outcomes) + (len(plain) if args.trace else 0)
    checked = outcomes + (plain if args.trace else [])
    # Oracle over the store's own strings: a store built from a loaded
    # collection does not hold bit-identical floats (parsing renormalizes
    # each position again), which the diagnostics count separately.
    strings = stored_strings(store)
    run.diagnostics["store_float_drift_strings"] = sum(
        format_uncertain(a, precision=STORE_PRECISION)
        != format_uncertain(b, precision=STORE_PRECISION)
        for a, b in zip(collection.strings, strings)
    )
    eligible = serve_oracle(strings, run, checked, requests)
    latencies = [o.latency_ms for o in outcomes]
    run.diagnostics["requests"] = len(outcomes)
    if not args.trace:
        p50, samples = percentile(latencies, 0.50)
        p95, _ = percentile(latencies, 0.95)
        run.metrics = {
            "setup_s": setup_s,
            "pairs_per_s": sum(eligible[: len(outcomes)])
            / (outcomes[-1].done - outcomes[0].sent),
            "peak_rss_mb": rss,
            "req_p50_ms": p50,
            "req_p95_ms": p95,
        }
        run.diagnostics["req_samples"] = samples
        run.diagnostics["req_p95_samples_beyond"] = samples_beyond(samples, 0.95)
    else:
        header, spans = load_dump(spans_path)
        tagged = [span for span in spans if span.request is not None]
        metrics = layer_metrics(self_seconds_by_name(tagged), len(outcomes))
        metrics["store.build_s"] = built["layer_seconds"].get("store.build", 0.0)
        metrics["store.bytes_per_input_byte"] = built["store_bytes"] / built["input_bytes"]
        metrics.update(counter_metrics(header["extra"], len(outcomes)))
        metrics.update(store_counter_metrics(header["counts"], header["looked_up"], len(outcomes)))
        handler = {span.request: span.end - span.start
                   for span in tagged if span.name == "serve.handler"}
        wire = [
            o.latency_ms - handler[f"r{n}"] * 1000.0
            for n, o in enumerate(outcomes) if f"r{n}" in handler
        ]
        metrics["serve.wire_ms"] = statistics.median(wire)
        metrics["serve.shed"] = counters.get("serve.shed", 0)
        metrics["serve.deadline_exceeded"] = counters.get("serve.deadline_exceeded", 0)
        metrics["trace.overhead"] = (
            statistics.median(latencies) / statistics.median(o.latency_ms for o in plain)
        )
        run.metrics = metrics
    if not run.correct:
        run.failed = max(run.failed, 1)
    return run


WORKLOADS = ("join_probe", "store_join", "serve_store")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Temporary files (SQLite sorts and spills, anything using tempfile)
    # stay inside the checkout too, in this and every child process.
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(tmp)
    try:
        before = reference_loop_ms()
        if args.workload == "serve_store":
            run = serve_workload(args, workdir)
        else:
            run = join_workload(args, workdir, args.workload)
        after = reference_loop_ms()
        if args.trace:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(exist_ok=True)
            spans = workdir / "spans.jsonl"
            if spans.exists():
                shutil.move(spans, trace_dir / f"{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.diagnostics["machine_ref_ms"] = {"before": before, "after": after}
    units = PER_LAYER if args.trace else END_TO_END
    values = dict(run.metrics)
    if args.trace:
        values.setdefault("machine.ref_before_ms", before)
        values.setdefault("machine.ref_after_ms", after)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"diagnostics": run.diagnostics}))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
