"""Start ``repro-join serve`` with the layer wrappers installed.

``python3 perfbench/serve_launcher.py SPANS_PATH -- SERVE ARGS...`` runs
the CLI's ``serve`` command in this process with every wrapper of
:func:`perfbench.tracing.install` in place, and on shutdown (SIGTERM)
writes the spans, the wrapper counters and the service's
``JoinStatistics`` counters to ``SPANS_PATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Patcher, Tracer, install  # noqa: E402
from perfbench.worker import COUNTERS  # noqa: E402
from repro import cli  # noqa: E402
from repro.serve import http  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    serve_args = argv[2:] if argv[1:2] == ["--"] else argv[1:]
    tracer = Tracer()
    services = []

    def capture(function):
        def serve(service, *args, **kwargs):
            services.append(service)
            return function(service, *args, **kwargs)

        return serve

    with Patcher() as patcher:
        install(tracer, patcher)
        patcher.wrap(http, "serve_until_interrupted", capture)
        try:
            return cli.main(serve_args)
        finally:
            stats = services[0].stats if services else None
            tracer.dump(
                spans_path,
                {name: getattr(stats, name) for name in COUNTERS} if stats else {},
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
