"""HTTP transport for :class:`~repro.serve.service.JoinService`.

Stdlib-only (``http.server.ThreadingHTTPServer``): one daemon thread
per connection, every request passing admission control before any
work starts. Routes::

    POST /search        {"query": "...", "tau"?: t, "k"?: k, "timeout"?: s}
    POST /topk          {"query": "...", "count": n, "k"?, "timeout"?}
    POST /mini-join     {"strings": [...], "tau"?, "k"?, "timeout"?}
    POST /admin/reload  {"collection"?: path, "store"?: path} (empty = {})
    GET  /healthz       liveness (always 200 while the process serves)
    GET  /readyz        readiness (503 once draining)
    GET  /stats         counters + serving-state snapshot

Failure contract: every response is a typed JSON document with the
status from :data:`~repro.serve.protocol.ERROR_STATUS` — overload is
``503`` with ``Retry-After``, deadline expiry is ``504`` carrying
partial results, an in-handler crash is a typed ``500`` (the thread
dies, the server does not). The injected request-path faults
(``slow@``/``drop@``/``corrupt-resp@``/``crash@``) exercise exactly
those paths deterministically by request arrival index.

Shutdown is crash-only (:meth:`ServerRunner.shutdown`): stop
accepting, flip ``/readyz`` to draining, wait for in-flight requests
up to the drain deadline, then abandon stragglers and close — a
wedged request can delay shutdown by at most the drain budget, never
block it.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.core.deadline import Deadline
from repro.core.errors import ConfigurationError, ServiceOverloadedError
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    ERROR_STATUS,
    encode_document,
    error_document,
    parse_request,
)
from repro.serve.service import JoinService
from repro.util.faults import FaultPlan, FaultSpec

__all__ = ["ServeHTTPServer", "ServerRunner"]

#: Largest accepted request body; anything bigger is a typed 400, not
#: an attempt to buffer an unbounded payload.
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServeHTTPServer(ThreadingHTTPServer):
    """The threaded server binding a :class:`JoinService` to a port."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: JoinService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        options = service.options
        self.admission = AdmissionController(
            max_in_flight=options.max_in_flight,
            queue_limit=options.queue_limit,
            queue_timeout=options.queue_timeout,
            retry_after=options.retry_after,
        )
        self.fault_plan = FaultPlan.from_spec(options.fault_spec)
        self._request_counter = 0
        self._counter_lock = threading.Lock()

    def next_request_index(self) -> int:
        """0-based arrival order — the fault plan's request coordinate."""
        with self._counter_lock:
            index = self._request_counter
            self._request_counter += 1
            return index


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Socket read timeout: a client that stalls mid-body ties up its
    #: handler thread for at most this long, not forever.
    timeout = 30.0
    #: TCP_NODELAY on every connection. Headers and body go out in two
    #: sends; with Nagle's algorithm on, the body waits for the client's
    #: delayed ACK of the headers, ~40 ms per keep-alive request.
    disable_nagle_algorithm = True
    server: ServeHTTPServer  # narrowed for the route methods

    # Quiet by default: per-request access logging from dozens of
    # threads would interleave garbage into benchmark/CI output.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            self._send(200, {"status": "alive"})
        elif self.path == "/readyz":
            if service.draining:
                self._send(
                    503, error_document("draining", "server is shutting down")
                )
            else:
                self._send(
                    200,
                    {
                        "status": "ready",
                        "strings": len(service),
                        "generation": service.generation,
                    },
                )
        elif self.path == "/stats":
            document = service.status_document()
            document["admission"] = {
                "in_flight": self.server.admission.in_flight,
                "waiting": self.server.admission.waiting,
                "shed": self.server.admission.shed,
            }
            self._send(200, document)
        else:
            self._send(
                404, error_document("not_found", f"no route {self.path!r}")
            )

    def do_POST(self) -> None:
        service = self.server.service
        request_index = self.server.next_request_index()
        fault = self.server.fault_plan.request_fault(request_index)
        if fault is not None and fault.kind == "drop":
            # The injected connection drop: no status line, no body —
            # the client sees a clean RemoteDisconnected, which is an
            # *explicit* failure at its end, never a hang at ours.
            service.stats.record("serve", "fault_drop")
            self.close_connection = True
            return
        try:
            body = self._read_body()
        except ConfigurationError as exc:
            self._send(400, error_document("bad_request", str(exc)))
            return
        if self.path == "/admin/reload":
            self._handle_reload(body)
            return
        endpoint = self.path.lstrip("/")
        if endpoint not in ("search", "topk", "mini-join"):
            self._send(
                404, error_document("not_found", f"no route {self.path!r}")
            )
            return
        try:
            with self.server.admission.admit():
                self._run_request(endpoint, body, fault)
        except ServiceOverloadedError as exc:
            service.stats.record("serve", "shed")
            self._send(
                503,
                error_document(
                    "overloaded", exc.detail, retry_after=exc.retry_after
                ),
                extra_headers=(("Retry-After", f"{exc.retry_after:g}"),),
            )

    # -- request execution --------------------------------------------

    def _run_request(
        self, endpoint: str, body: bytes, fault: "FaultSpec | None"
    ) -> None:
        service = self.server.service
        corrupt_response = fault is not None and fault.kind == "corrupt-resp"
        try:
            if fault is not None and fault.kind == "slow":
                # Stall while admitted: the request's own deadline (and
                # the load around it) keeps running, which is the point.
                service.stats.record("serve", "fault_slow")
                time.sleep(fault.seconds)
            if fault is not None and fault.kind == "crash":
                service.stats.record("serve", "fault_crash")
                raise RuntimeError(
                    f"injected crash: request {fault.band}"
                )
            fields = parse_request(endpoint, body)
            document = self._dispatch(endpoint, fields)
        except ConfigurationError as exc:
            self._send(400, error_document("bad_request", str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - the typed-500 backstop
            service.stats.record("serve", "internal_error")
            self._send(
                500,
                error_document(
                    "internal_error", f"{type(exc).__name__}: {exc}"
                ),
            )
            return
        status = _status_of(document)
        if corrupt_response:
            service.stats.record("serve", "fault_corrupt_resp")
        self._send(status, document, corrupt=corrupt_response)

    def _dispatch(self, endpoint: str, fields: dict[str, Any]) -> dict[str, Any]:
        service = self.server.service
        if endpoint == "search":
            return service.search(
                fields["query"],
                tau=fields["tau"],
                k=fields["k"],
                timeout=fields["timeout"],
            )
        if endpoint == "topk":
            return service.topk(
                fields["query"],
                fields["count"],
                k=fields["k"],
                timeout=fields["timeout"],
            )
        return service.mini_join(
            fields["strings"],
            tau=fields["tau"],
            k=fields["k"],
            timeout=fields["timeout"],
        )

    def _handle_reload(self, body: bytes) -> None:
        try:
            fields = parse_request("admin/reload", body)
        except ConfigurationError as exc:
            self._send(400, error_document("bad_request", str(exc)))
            return
        document = self.server.service.reload(
            collection_path=fields["collection"],
            store_path=fields["store"],
        )
        self._send(_status_of(document), document)

    # -- plumbing ------------------------------------------------------

    def _read_body(self) -> bytes:
        length_text = self.headers.get("Content-Length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise ConfigurationError(
                f"bad Content-Length {length_text!r}"
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ConfigurationError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _send(
        self,
        status: int,
        document: dict[str, Any],
        extra_headers: tuple[tuple[str, str], ...] = (),
        corrupt: bool = False,
    ) -> None:
        body = encode_document(document)
        if corrupt:
            # Injected response corruption: the advertised length stays
            # honest, the payload is garbled — clients must fail their
            # JSON decode, not misread a truncated-but-valid prefix.
            body = b"\xff\xfe" + body[2:]
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in extra_headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response; its problem, not a
            # reason to unwind the handler thread noisily.
            self.close_connection = True


def _status_of(document: dict[str, Any]) -> int:
    """HTTP status for a service document (200 unless a typed error)."""
    error = document.get("error")
    if isinstance(error, dict):
        return ERROR_STATUS.get(error.get("type", ""), 500)
    return 200


class ServerRunner:
    """Lifecycle wrapper: background accept loop + crash-only shutdown.

    Used by the CLI, the load harness, and the tests::

        runner = ServerRunner(service, host="127.0.0.1", port=0)
        runner.start()
        ... requests against runner.address ...
        drained = runner.shutdown()
    """

    def __init__(
        self, service: JoinService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.httpd = ServeHTTPServer((host, port), service)
        self._thread: "threading.Thread | None" = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolved even for port 0)."""
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ServerRunner":
        """Start the accept loop on a daemon thread; returns self."""
        thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def shutdown(self, drain_timeout: "float | None" = None) -> bool:
        """Stop accepting, drain bounded, then close no matter what.

        Returns ``True`` when every in-flight request finished inside
        the drain budget, ``False`` when stragglers were abandoned
        (their daemon threads die with the process — crash-only by
        design). Idempotent.
        """
        budget = (
            drain_timeout
            if drain_timeout is not None
            else self.service.options.drain_timeout
        )
        self.service.draining = True
        self.httpd.shutdown()  # stops the accept loop, waits for it
        drained = self.httpd.admission.drained(Deadline(budget))
        if not drained:
            self.service.stats.record(
                "serve", "drain_abandoned", self.httpd.admission.in_flight
            )
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return drained


def serve_until_interrupted(
    service: JoinService,
    host: str,
    port: int,
    announce: "Callable[[str], None] | None" = None,
) -> int:
    """The CLI's blocking serve loop with POSIX signal wiring.

    ``SIGTERM``/``SIGINT`` trigger the crash-only shutdown (exit 0 when
    the drain completed, 75 when stragglers were abandoned); ``SIGHUP``
    triggers a warm reload on a helper thread (the signal handler only
    sets the wheels turning — reload failures keep the old generation
    and are reported through the ``serve.reload_failed`` counter).
    """
    import signal

    runner = ServerRunner(service, host=host, port=port).start()
    stop = threading.Event()

    def _request_stop(signum: int, frame: Any) -> None:
        stop.set()

    def _request_reload(signum: int, frame: Any) -> None:
        threading.Thread(
            target=service.reload, name="repro-serve-reload", daemon=True
        ).start()

    previous: dict[int, Any] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_stop)
    if hasattr(signal, "SIGHUP"):
        previous[signal.SIGHUP] = signal.signal(signal.SIGHUP, _request_reload)
    try:
        if announce is not None:
            bound_host, bound_port = runner.address
            announce(f"serving {len(service)} string(s) on {bound_host}:{bound_port}")
        stop.wait()
        drained = runner.shutdown()
        return 0 if drained else 75
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
