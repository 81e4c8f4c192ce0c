"""``python benchmarks/load_serve.py`` — serve-layer load harness.

Stands up an in-process ``repro-join serve`` service over a synthetic
dblp-like collection and drives it with concurrent HTTP clients via
:func:`benchmarks.loadgen.run_load`, printing (and optionally saving)
the latency percentiles and the exhaustive outcome tally. Usage::

    PYTHONPATH=src python benchmarks/load_serve.py
    PYTHONPATH=src python benchmarks/load_serve.py --size 200 \
        --clients 8 --requests 200 -o serve_load.json
    PYTHONPATH=src python benchmarks/load_serve.py \
        --inject-faults 'slow@3/0.5,drop@7' --request-timeout 2.0

Unlike the regression gate's entry
(:func:`benchmarks.gate.measure_serve`), this harness
exposes the robustness knobs — admission limits, request deadline,
degradation margin, fault injection — so saturation and fault
behaviour can be explored interactively.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Allow running from a source checkout without an installed package;
# the repository root makes the ``benchmarks`` package importable.
_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT, _ROOT / "src"):
    if _path.is_dir() and str(_path) not in sys.path:  # pragma: no cover
        sys.path.insert(0, str(_path))

from benchmarks.loadgen import run_load  # noqa: E402
from repro.core.config import JoinConfig  # noqa: E402
from repro.core.errors import ReproError  # noqa: E402
from repro.datasets import dblp_like_collection  # noqa: E402
from repro.serve.service import JoinService, ServeOptions  # noqa: E402
from repro.uncertain.parser import format_uncertain  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=120,
                        help="collection size (default 120)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--requests", type=int, default=60,
                        help="total requests across all clients (default 60)")
    parser.add_argument("--topk-every", type=int, default=5,
                        help="every Nth request is a top-k (0 disables)")
    parser.add_argument("--max-in-flight", type=int, default=8)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--queue-timeout", type=float, default=0.25)
    parser.add_argument("--request-timeout", type=float, default=30.0)
    parser.add_argument("--degrade-margin", type=float, default=0.0,
                        help="deadline fraction that triggers sampling "
                             "(0 disables degradation; default 0)")
    parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                        help="request-path fault spec, e.g. "
                             "'slow@3/0.5,drop@7,corrupt-resp@11'")
    parser.add_argument("-o", "--output", default=None,
                        help="write the measurement document as JSON")
    args = parser.parse_args(argv)

    try:
        options = ServeOptions(
            max_in_flight=args.max_in_flight,
            queue_limit=args.queue_limit,
            queue_timeout=args.queue_timeout,
            request_timeout=args.request_timeout,
            degrade_margin=args.degrade_margin,
            fault_spec=args.inject_faults,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    collection = dblp_like_collection(
        args.size, theta=0.2, rng=1234, max_uncertain_positions=4
    )
    config = JoinConfig.for_algorithm("QFCT", k=2, tau=0.1, q=3)
    service = JoinService(collection, config, options)
    # precision=12: the parser's probability-sum tolerance is 1e-6, so
    # the default 6-significant-digit rendering can fail to re-parse.
    queries = [
        format_uncertain(s, precision=12)
        for s in collection[: max(8, args.size // 8)]
    ]

    print(f"load: {args.size} strings, {args.clients} clients, "
          f"{args.requests} requests"
          + (f", faults={args.inject_faults}" if args.inject_faults else ""))
    document = run_load(
        service,
        queries,
        clients=args.clients,
        requests=args.requests,
        topk_every=args.topk_every,
        client_timeout=args.request_timeout * 2 + 5.0,
    )
    print(f"  p50 {document['p50_ms']:8.1f} ms   "
          f"p95 {document['p95_ms']:8.1f} ms   "
          f"p99 {document['p99_ms']:8.1f} ms")
    print(f"  completed {document['completed']}/{document['requests']}  "
          f"shed {document['shed']}  degraded {document['degraded']}  "
          f"504 {document['deadline_exceeded']}  "
          f"dropped {document['dropped']}  errors {document['errors']}  "
          f"unaccounted {document['unaccounted']}")
    print(f"  wall {document['wall_s']:.2f}s  {document['qps']:.1f} req/s  "
          f"drained={document['drained']}")
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"  wrote {args.output}")
    if document["unaccounted"]:
        print("error: requests unaccounted for (hang?)", file=sys.stderr)
        return 1
    if not document["drained"]:
        print("error: shutdown abandoned in-flight requests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
