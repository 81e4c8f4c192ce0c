"""Outside-in tracing: spans around the program's public entry points.

Nothing under ``src/`` knows about these spans. :func:`install` patches
each layer's entry points (class attributes and module globals) with
wrappers that open a span on entry and close it on exit; a
:class:`Patcher` remembers every original and puts it back. Spans record
name, start, end, parent span and request id, are kept in memory, and
are written out when a run ends. A layer's time is the *self* time of
its spans: duration minus the part of that interval its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int
    request: "str | None"


class Tracer:
    """In-memory span and counter sink; safe to use from many threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Distinct string ids looked up through the hydration cache.
        self.looked_up: set[int] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        stack = self._stack()
        frame = (
            next(self._ids),
            name,
            time.perf_counter(),
            stack[-1][0] if stack else 0,
            getattr(self._local, "request", None),
        )
        stack.append(frame)
        return frame

    def close(self, frame: tuple) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # an abandoned generator span closing late
            stack.remove(frame)
        self.spans.append(Span(frame[0], frame[1], frame[2], end, frame[3], frame[4]))

    def set_request(self, request: "str | None") -> None:
        """Tag spans opened by this thread with ``request`` from now on."""
        self._local.request = request

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def thread_count(self, name: str) -> int:
        """A per-thread counter (for "did this call hydrate?" checks)."""
        return getattr(self._local, name, 0)

    def bump_thread_count(self, name: str) -> None:
        setattr(self._local, name, getattr(self._local, name, 0) + 1)

    def note_lookup(self, string_id: int) -> None:
        with self._lock:
            self.counts["store.lookups"] += 1
            self.looked_up.add(string_id)

    def dump(self, path: Path, extra: "dict | None" = None) -> None:
        """Write a header line (counters plus ``extra``), then one JSON
        array per span."""
        header = {
            "counts": dict(self.counts),
            "looked_up": len(self.looked_up),
            "extra": extra or {},
        }
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


def load_dump(path: Path) -> tuple[dict, list[Span]]:
    """Read back what :meth:`Tracer.dump` wrote: (header, spans)."""
    with path.open(encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [Span(*json.loads(line)) for line in handle]
    return header, spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals
    (clipped to the span), so nested and overlapping children are each
    counted once."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        result[span.span_id] = (span.end - span.start) - _union_length(clipped)
    return result


def self_seconds_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


class Patcher:
    """Replaces attributes and restores every original afterwards."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.name`` to ``make(original function)``, keeping
        static/class method wrappers as they were."""
        original = inspect.getattr_static(owner, name)
        function = original
        kind = None
        if isinstance(original, (staticmethod, classmethod)):
            kind = type(original)
            function = original.__func__
        replacement = make(function)
        if kind is not None:
            replacement = kind(replacement)
        self._saved.append((owner, name, original, name in vars(owner)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, original, owned = self._saved.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def spanned(tracer: Tracer, name: str, after: "Callable | None" = None):
    """Wrapper factory: a span around each call; ``after(args, result)``
    records counts once the call returned."""

    def make(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return make


def spanned_generator(tracer: Tracer, name: str):
    """Wrapper factory for generator functions: the span runs from the
    first ``next`` until the generator is exhausted or closed."""

    def make(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(name)
            try:
                yield from function(*args, **kwargs)
            finally:
                tracer.close(frame)

        return wrapper

    return make


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer's entry points (see perfbench/README.md)."""
    from repro.core import engine, join, pipeline
    from repro.core.backends import PythonBackend
    from repro.datasets import loader
    from repro.index.inverted import SegmentInvertedIndex
    from repro.serve import http
    from repro.serve.admission import AdmissionController
    from repro.serve.service import JoinService
    from repro.store import driver, sqlite
    from repro.store.source import StoreIndexSource, StoreStringCache

    def wrap(owner: Any, name: str, span: str, after: "Callable | None" = None) -> None:
        patcher.wrap(owner, name, spanned(tracer, span, after))

    wrap(loader, "load_collection", "datasets.load")

    wrap(SegmentInvertedIndex, "add", "index.add")
    wrap(SegmentInvertedIndex, "probe", "index.probe")

    wrap(sqlite, "build_sqlite_store", "store.build")
    wrap(StoreIndexSource, "probe", "store.probe")

    def query(args: tuple, result: Any) -> None:
        tracer.count("store.queries")

    wrap(sqlite.SqliteStore, "posting_lists", "store.postings", query)
    wrap(sqlite.SqliteStore, "has_segment", "store.postings", query)

    def parsed(args: tuple, result: Any) -> None:
        tracer.count("store.strings_parsed", len(result))
        tracer.bump_thread_count("hydrations")

    wrap(sqlite.SqliteStore, "strings_at_ranks", "store.hydrate", parsed)
    wrap(sqlite.SqliteStore, "strings_by_ids", "store.hydrate", parsed)
    wrap(StoreStringCache, "prefetch", "store.hydrate")

    def make_lookup(function: Callable) -> Callable:
        timed = spanned(tracer, "store.hydrate")(function)

        @functools.wraps(function)
        def lookup(self: Any, string_id: int) -> Any:
            before = tracer.thread_count("hydrations")
            result = timed(self, string_id)
            tracer.note_lookup(string_id)
            if tracer.thread_count("hydrations") == before:
                tracer.count("store.cache_hits")
            return result

        return lookup

    patcher.wrap(StoreStringCache, "__getitem__", make_lookup)

    wrap(PythonBackend, "frequency_bounds", "filters.frequency")
    wrap(PythonBackend, "cdf_bounds", "filters.cdf")
    wrap(pipeline.ProfileStore, "profile", "filters.profile")

    # The pipeline imported these names directly: patch them there.
    wrap(pipeline, "trie_verify_threshold", "verify.verify")
    wrap(pipeline, "trie_verify", "verify.verify")
    wrap(pipeline, "build_trie", "verify.trie_build")

    patcher.wrap(engine.JoinEngine, "probe", spanned_generator(tracer, "core.probe"))
    wrap(join, "similarity_join", "core.driver")
    wrap(driver, "store_similarity_join", "core.driver")

    wrap(JoinService, "search", "serve.handler")
    wrap(JoinService, "topk", "serve.handler")
    wrap(AdmissionController, "_acquire", "serve.admission")
    wrap(http, "encode_document", "serve.encode")

    def make_post(function: Callable) -> Callable:
        timed = spanned(tracer, "serve.request")(function)

        @functools.wraps(function)
        def do_post(handler: Any) -> None:
            tracer.set_request(handler.headers.get(REQUEST_HEADER))
            try:
                timed(handler)
            finally:
                tracer.set_request(None)

        return do_post

    patcher.wrap(http._Handler, "do_POST", make_post)


#: HTTP header carrying the benchmark's request id to the traced server.
REQUEST_HEADER = "X-Perfbench-Request"
