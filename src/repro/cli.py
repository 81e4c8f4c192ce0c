"""Command-line interface.

Four subcommands covering the end-to-end workflow on collection files
(one uncertain string per line in the ``A{(C,0.5),(G,0.5)}T`` notation):

* ``repro-join gen`` — generate a synthetic dataset (dblp-like or
  protein-like, Section 7 parameters).
* ``repro-join index build`` / ``index info`` — build (and inspect) an
  out-of-core SQLite index store from a collection file; ``join``,
  ``search``, ``topk``, and ``serve`` accept ``--store PATH`` in place
  of the collection argument and then run with peak memory bounded by
  the hydration cache instead of the collection size (identical
  output; see DESIGN.md §6i).
* ``repro-join join`` — self-join a collection under (k, tau)-matching
  (``--stream`` prints pairs as the engine discovers them;
  ``--shard i/N --resume DIR`` runs one slice of the band plan as its
  own process, checkpointing into ``DIR``).
* ``repro-join merge`` — fold a sharded (or flat ``--resume``) run
  directory into the final pair list, identical to a serial join.
* ``repro-join search`` — search a collection for strings similar to a
  query.
* ``repro-join topk`` — the N most probably similar pairs (adaptive
  threshold; no tau needed).
* ``repro-join serve`` — persistent threaded HTTP service: index the
  collection once, answer ``/search``/``/topk``/``/mini-join`` JSON
  requests with per-request tau/k under admission control, request
  deadlines, and graceful degradation (see :mod:`repro.serve`).
* ``repro-join verify`` — exact ``Pr(ed <= k)`` for two strings.
* ``repro-join bench`` — hot-kernel/join benchmark suite (all flags
  pass through to ``python -m benchmarks.run``).

Examples::

    repro-join gen --kind dblp --count 500 --theta 0.2 -o names.txt
    repro-join index build names.txt -o names.store -k 2 -q 3
    repro-join index info names.store
    repro-join join --store names.store -k 2 --tau 0.1 -q 3
    repro-join join names.txt -k 2 --tau 0.1 --stats
    repro-join join names.txt -k 2 --tau 0.1 --stream
    repro-join join names.txt -k 2 --tau 0.1 --shard 0/3 --resume run/
    repro-join merge run/
    repro-join search names.txt "jon{(a,0.7),(o,0.3)}than smith" -k 2 --tau 0.1
    repro-join topk names.txt -k 2 --count 10
    repro-join serve names.txt -k 2 --tau 0.1 --port 8765
    repro-join verify "banana" "ban{(a,0.7),(e,0.3)}na" -k 1
    repro-join bench --quick -o bench.json --baseline BENCH_5.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from repro.core.backends import BACKEND_NAMES
from repro.core.config import ALGORITHMS, JoinConfig
from repro.core.engine import iter_join_pairs
from repro.core.join import similarity_join
from repro.core.search import similarity_search
from repro.core.stats import JoinStatistics
from repro.core.topk import top_k_join
from repro.datasets.loader import load_collection, save_collection
from repro.datasets.presets import dblp_like_collection, protein_like_collection
from repro.uncertain.parser import parse_uncertain
from repro.verify.trie_verify import trie_verify


def _add_join_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", type=int, required=True, help="edit-distance threshold")
    parser.add_argument(
        "--tau", type=float, required=True, help="probability threshold in [0, 1)"
    )
    parser.add_argument("-q", type=int, default=3, help="segment length (default 3)")
    parser.add_argument(
        "--algorithm",
        default="QFCT",
        choices=sorted(ALGORITHMS),
        help="filter stack variant (default QFCT)",
    )
    parser.add_argument(
        "--probabilities",
        action="store_true",
        help="verify every result pair and report its exact probability",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the length-banded parallel join "
        "driver (default 1 = serial; results are identical)",
    )
    parser.add_argument(
        "--backend",
        default="python",
        choices=BACKEND_NAMES,
        help="kernel backend: 'python' (default, pure-python "
        "reference) or 'native' (compiled C kernels; requires the "
        "optional extension to be built); results are identical in "
        "every case",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print pipeline statistics"
    )


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="run against a prebuilt SQLite index store (see `repro-join "
        "index build`) instead of a collection file: identical output, "
        "peak memory bounded by the hydration cache (DESIGN.md §6i)",
    )


def _add_resilience_options(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs of the banded parallel driver."""
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-dispatches a failed band gets before it is degraded to "
        "an in-process run (default 2)",
    )
    parser.add_argument(
        "--band-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-band execution deadline; a band exceeding it is "
        "retried, then degraded (default: no limit)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_DIR",
        help="checkpoint run directory: completed bands are persisted "
        "there (atomically) and re-running the same command resumes, "
        "skipping them; created on first use",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault plan for the band executor, e.g. "
        "'crash@2x3,hang@0/1.5' or shard-qualified 'crash@s1:2x3' "
        "(testing/benchmarks; never changes results)",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only shard I of an N-way decomposition of the band "
        "plan, checkpointing into the --resume directory; run all N "
        "shards (any order, any machines sharing the directory), then "
        "fold them with `repro-join merge RUN_DIR` (requires --resume)",
    )
    parser.add_argument(
        "--mp-start",
        default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for the worker pool "
        "(default: platform default)",
    )


def _config(args: argparse.Namespace) -> JoinConfig:
    return JoinConfig.for_algorithm(
        args.algorithm,
        k=args.k,
        tau=args.tau,
        q=args.q,
        report_probabilities=args.probabilities,
        workers=getattr(args, "workers", 1),
        retries=getattr(args, "retries", 2),
        band_timeout=getattr(args, "band_timeout", None),
        checkpoint_dir=getattr(args, "resume", None),
        fault_spec=getattr(args, "inject_faults", None),
        shard=getattr(args, "shard", None),
        mp_start=getattr(args, "mp_start", None),
        backend=getattr(args, "backend", "python"),
    )


def _require_one_input(args: argparse.Namespace, command: str) -> "int | None":
    """Enforce "exactly one of COLLECTION or --store"; returns exit code."""
    if (args.store is None) == (args.collection is None):
        print(
            f"{command}: pass exactly one of a collection file or "
            "--store PATH",
            file=sys.stderr,
        )
        return 2
    return None


def _open_store(path: str, command: str, config: "JoinConfig | None" = None):
    """Open (and header-check) a store file; ``(None, exit code)`` on failure.

    ``config`` additionally enforces the store/config q contract
    (:meth:`~repro.store.base.StoreMeta.check_compatible`), so an
    incompatible store fails with the typed rebuild hint instead
    of a traceback.
    """
    from repro.core.errors import ReproError
    from repro.store.sqlite import SqliteStore

    try:
        store = SqliteStore(path)
        if config is not None:
            store.meta.check_compatible(config)
        return store, 0
    except (ReproError, OSError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None, 2


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "dblp":
        collection = dblp_like_collection(
            args.count, theta=args.theta, gamma=args.gamma, rng=args.seed
        )
    else:
        collection = protein_like_collection(
            args.count, theta=args.theta, gamma=args.gamma, rng=args.seed
        )
    save_collection(collection, args.output)
    print(f"wrote {len(collection)} uncertain strings to {args.output}")
    return 0


def _print_pair(pair) -> None:
    if pair.probability is not None:
        print(f"{pair.left_id}\t{pair.right_id}\t{pair.probability:.6f}")
    else:
        print(f"{pair.left_id}\t{pair.right_id}")


def _cmd_join(args: argparse.Namespace) -> int:
    failure = _require_one_input(args, "join")
    if failure is not None:
        return failure
    config = _config(args)
    store = None
    if args.store is not None:
        store, code = _open_store(args.store, "join", config)
        if store is None:
            return code
        total = len(store)
        collection = None
    else:
        collection = load_collection(args.collection)
        total = len(collection)
    if config.shard is not None:
        if args.stream:
            print("--shard and --stream are incompatible", file=sys.stderr)
            return 2
        # The shard's outcome is partial (its slice of the band plan
        # only), so pairs are NOT printed — `repro-join merge RUN_DIR`
        # folds the shards and prints the full, serial-identical list.
        if store is not None:
            from repro.store.driver import store_similarity_join

            outcome = store_similarity_join(store, config)
        else:
            outcome = similarity_join(collection, config)
        shard_index, shard_count = config.shard_coordinates or (0, 1)
        print(
            f"shard {shard_index}/{shard_count} complete: "
            f"{len(outcome.pairs)} pair(s) checkpointed under "
            f"{config.checkpoint_dir}; fold with "
            f"`repro-join merge {config.checkpoint_dir}` once all "
            f"{shard_count} shards have run",
            file=sys.stderr,
        )
        if args.stats:
            print(outcome.stats.summary(), file=sys.stderr)
        return 0
    if args.stream:
        # Pairs appear as the engine discovers them (discovery order,
        # not sorted) — flushed line by line for downstream consumers.
        # Streaming is serial: banding and checkpointing don't apply.
        config = replace(config, workers=1, checkpoint_dir=None)
        stats = JoinStatistics(total_strings=total)
        if store is not None:
            from repro.store.driver import iter_store_join_pairs

            pair_iter = iter_store_join_pairs(store, config, stats=stats)
        else:
            pair_iter = iter_join_pairs(collection, config, stats=stats)
        for pair in pair_iter:
            _print_pair(pair)
            sys.stdout.flush()
        if args.stats:
            print(stats.summary(), file=sys.stderr)
        return 0
    if store is not None:
        from repro.store.driver import store_similarity_join

        outcome = store_similarity_join(store, config)
    else:
        outcome = similarity_join(collection, config)
    for pair in outcome.pairs:
        _print_pair(pair)
    if args.stats:
        print(outcome.stats.summary(), file=sys.stderr)
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    failure = _require_one_input(args, "topk")
    if failure is not None:
        return failure
    config = JoinConfig.for_algorithm(
        args.algorithm, k=args.k, tau=0.0, q=args.q
    )
    if args.store is not None:
        store, code = _open_store(args.store, "topk", config)
        if store is None:
            return code
        outcome = top_k_join(
            None, k=args.k, count=args.count, q=args.q, config=config,
            store=store,
        )
    else:
        collection = load_collection(args.collection)
        outcome = top_k_join(
            collection, k=args.k, count=args.count, q=args.q, config=config
        )
    for pair in outcome.pairs:
        _print_pair(pair)
    if args.stats:
        print(outcome.stats.summary(), file=sys.stderr)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    failure = _require_one_input(args, "search")
    if failure is not None:
        return failure
    query = parse_uncertain(args.query)
    config = _config(args)
    if args.store is not None:
        from repro.core.search import SimilaritySearcher

        store, code = _open_store(args.store, "search", config)
        if store is None:
            return code
        outcome = SimilaritySearcher.from_store(store, config).search(query)
    else:
        collection = load_collection(args.collection)
        outcome = similarity_search(collection, query, config)
    for match in outcome.matches:
        if match.probability is not None:
            print(f"{match.string_id}\t{match.probability:.6f}")
        else:
            print(f"{match.string_id}")
    if args.stats:
        print(outcome.stats.summary(), file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.errors import ReproError
    from repro.serve.http import serve_until_interrupted
    from repro.serve.service import JoinService, ServeOptions

    failure = _require_one_input(args, "serve")
    if failure is not None:
        return failure
    config = JoinConfig.for_algorithm(
        args.algorithm,
        k=args.k,
        tau=args.tau,
        q=args.q,
        report_probabilities=args.probabilities,
        backend=args.backend,
    )
    try:
        options = ServeOptions(
            max_in_flight=args.max_in_flight,
            queue_limit=args.queue_limit,
            queue_timeout=args.queue_timeout,
            retry_after=args.retry_after,
            request_timeout=args.request_timeout,
            degrade_margin=args.degrade_margin,
            drain_timeout=args.drain_timeout,
            fault_spec=args.inject_faults,
        )
        if args.store is not None:
            service = JoinService.from_store(args.store, config, options)
        else:
            service = JoinService.from_files(args.collection, config, options)
    except (ReproError, OSError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return serve_until_interrupted(
        service,
        args.host,
        args.port,
        announce=lambda message: print(message, file=sys.stderr),
    )


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.datasets.loader import iter_collection
    from repro.store.sqlite import build_sqlite_store

    # Streaming end to end: records are parsed one at a time and land
    # in batched inserts, so building an index store for a collection
    # far larger than RAM stays flat in memory.
    meta = build_sqlite_store(
        iter_collection(args.collection), args.output, k=args.k, q=args.q
    )
    print(
        f"wrote index store {args.output}: {meta.count} string(s), "
        f"{meta.entry_count} posting(s), k={meta.k}, q={meta.q}",
        file=sys.stderr,
    )
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    store, code = _open_store(args.store, "index info")
    if store is None:
        return code
    meta = store.meta
    print(f"path\t{store.path}")
    print(f"strings\t{meta.count}")
    print(f"postings\t{meta.entry_count}")
    print(f"k\t{meta.k}")
    print(f"q\t{meta.q}")
    print(f"digest\t{meta.digest}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.core.merge import merge_run

    outcome = merge_run(args.run_dir)
    for pair in outcome.pairs:
        _print_pair(pair)
    if args.stats:
        print(outcome.stats.summary(), file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.report.bench import main as bench_main

    return bench_main(list(args.bench_args))


def _cmd_verify(args: argparse.Namespace) -> int:
    left = parse_uncertain(args.left)
    right = parse_uncertain(args.right)
    probability = trie_verify(left, right, args.k)
    print(f"{probability:.9f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-join",
        description="similarity joins for uncertain strings ((k, tau)-matching)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a synthetic collection")
    gen.add_argument("--kind", choices=("dblp", "protein"), default="dblp")
    gen.add_argument("--count", type=int, default=1000)
    gen.add_argument("--theta", type=float, default=0.2)
    gen.add_argument("--gamma", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    index = commands.add_parser(
        "index",
        help="build / inspect out-of-core SQLite index stores "
        "(DESIGN.md §6i)",
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)
    index_build = index_commands.add_parser(
        "build",
        help="build a store file from a collection (streaming: the "
        "collection never has to fit in memory)",
    )
    index_build.add_argument(
        "collection", help="collection file (one string per line)"
    )
    index_build.add_argument(
        "-o",
        "--output",
        required=True,
        metavar="STORE",
        help="store file to write (replaced atomically if present)",
    )
    index_build.add_argument(
        "-k",
        type=int,
        required=True,
        help="edit-distance threshold the postings are partitioned for "
        "(runs at any other k reuse them)",
    )
    index_build.add_argument(
        "-q", type=int, default=3, help="segment length (default 3)"
    )
    index_build.set_defaults(func=_cmd_index_build)
    index_info = index_commands.add_parser(
        "info", help="print a store file's validated header"
    )
    index_info.add_argument("store", help="store file")
    index_info.set_defaults(func=_cmd_index_info)

    join = commands.add_parser("join", help="self-join a collection file")
    join.add_argument(
        "collection",
        nargs="?",
        default=None,
        help="collection file (one string per line); omit when joining "
        "an index store via --store",
    )
    _add_store_option(join)
    _add_join_options(join)
    _add_resilience_options(join)
    join.add_argument(
        "--stream",
        action="store_true",
        help="print pairs as they are discovered (discovery order, "
        "serial engine; ignores --workers)",
    )
    join.set_defaults(func=_cmd_join)

    merge = commands.add_parser(
        "merge",
        help="fold a sharded (or flat --resume) run directory into the "
        "final pair list, identical to a serial join",
    )
    merge.add_argument(
        "run_dir",
        help="directory every `join --shard i/N --resume RUN_DIR` "
        "invocation wrote to",
    )
    merge.add_argument(
        "--stats", action="store_true", help="print merged statistics"
    )
    merge.set_defaults(func=_cmd_merge)

    topk = commands.add_parser(
        "topk", help="the N most probably similar pairs (adaptive threshold)"
    )
    topk.add_argument("collection", nargs="?", default=None)
    _add_store_option(topk)
    topk.add_argument("-k", type=int, required=True, help="edit-distance threshold")
    topk.add_argument(
        "--count", type=int, required=True, help="number of pairs to report"
    )
    topk.add_argument("-q", type=int, default=3, help="segment length (default 3)")
    topk.add_argument(
        "--algorithm",
        default="QFCT",
        choices=sorted(ALGORITHMS),
        help="filter stack variant (default QFCT)",
    )
    topk.add_argument(
        "--stats", action="store_true", help="print pipeline statistics"
    )
    topk.set_defaults(func=_cmd_topk)

    search = commands.add_parser("search", help="search a collection file")
    search.add_argument("collection", nargs="?", default=None)
    search.add_argument("query", help="query in uncertain-string notation")
    _add_store_option(search)
    _add_join_options(search)
    search.set_defaults(func=_cmd_search)

    serve = commands.add_parser(
        "serve",
        help="persistent HTTP query service over one indexed collection "
        "(admission control, per-request deadlines, graceful degradation)",
    )
    serve.add_argument(
        "collection",
        nargs="?",
        default=None,
        help="collection file to index and serve; omit when serving an "
        "index store via --store",
    )
    _add_store_option(serve)
    _add_join_options(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=8,
        help="concurrent requests executed at once (default 8)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="requests allowed to wait for a slot; beyond this arrivals "
        "are shed immediately with 503 (default 16)",
    )
    serve.add_argument(
        "--queue-timeout",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="longest a queued request waits for a slot before 503 "
        "(default 0.25)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="Retry-After hint attached to shed responses (default 0.5)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request deadline cap; expiry returns a typed 504 with "
        "partial results (default 5)",
    )
    serve.add_argument(
        "--degrade-margin",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="fall back to the sampling verifier when less than this "
        "fraction of the request budget remains; 0 disables "
        "degradation (default 0.25)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="crash-only shutdown: wait this long for in-flight requests, "
        "then abandon them (default 5)",
    )
    serve.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="request-path fault plan, e.g. 'slow@3/0.5,drop@5,"
        "corrupt-resp@7' (testing; targets are request arrival indices)",
    )
    serve.set_defaults(func=_cmd_serve)

    bench = commands.add_parser(
        "bench",
        help="run the kernel/join benchmark suite (see benchmarks.run)",
    )
    bench.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the benchmark runner "
        "(-o/--output, --quick, --only, --baseline, --check, --tolerance)",
    )
    bench.set_defaults(func=_cmd_bench)

    verify = commands.add_parser("verify", help="exact Pr(ed(a, b) <= k)")
    verify.add_argument("left")
    verify.add_argument("right")
    verify.add_argument("-k", type=int, required=True)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["bench"]:
        # argparse.REMAINDER refuses option-like tokens right after a
        # subcommand, so forward everything past "bench" ourselves.
        from repro.report.bench import main as bench_main

        return bench_main(arguments[1:])
    args = build_parser().parse_args(arguments)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
