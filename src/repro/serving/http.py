"""HTTP/JSON network front over the :class:`AlignmentServer` (stdlib only).

The serving layer turns many concurrent requests into few large engine
calls; this module puts a wire protocol in front of it so the batching is
shared across *processes and machines*, not just coroutines in one program.
It is a deliberately small HTTP/1.1 server built on ``asyncio`` streams —
no third-party framework — because the request surface is a dozen JSON
endpoints and the hot path is the alignment engine, not the parser.

Endpoints
---------
The route table ``_ROUTES`` is the one router; its entries:

* ``POST /v1/scan``          — ``{"text", "pattern", "k", "first_match_only"?}``
  -> ``{"matches": [{"start", "distance"}, ...]}``
* ``POST /v1/edit_distance`` — ``{"text", "pattern", "k"}``
  -> ``{"distance": int | null}``
* ``POST /v1/align``         — ``{"text", "pattern"}``
  -> ``{"cigar", "edit_distance", "text_start", "text_consumed"}``
* ``POST /v1/map``           — ``{"name", "read"}`` (``name`` a SAM QNAME)
  -> ``{"sam", "mapped", "position", "reverse", "cigar"}``
* ``GET /healthz``           — liveness + load, never queued behind batches
* ``GET /v1/stats``          — serving counters + per-endpoint HTTP counters
* ``GET /metrics``           — the same counters as Prometheus text exposition
* ``GET /v1/trace/<id>``     — span breakdown of one retained request
  (``?debug=timing`` on any request inlines it in the response instead)
* ``POST /v1/jobs/<kind>``, ``GET /v1/jobs/<id>``, ``POST
  /v1/jobs/<id>/input``, ``GET /v1/jobs/<id>/output?offset=N&limit=N``,
  ``POST /v1/jobs/<id>/cancel`` — the streaming job fabric: create, poll,
  feed, read output by offset, cancel (:mod:`repro.serving.jobs`)

Every request takes the same path: head parse (:func:`parse_request_head`,
pure), route, body decode, context, handler, one exception -> status
ladder, stats. The request's
:class:`~repro.serving.server.RequestContext` (deadline, trace) is built
once, after the body is decoded; handlers pass it on as ``ctx=``.

Error mapping
-------------
Malformed JSON and invalid fields are 400; an oversize body is 413 before
the body is even read; a head longer than ``_MAX_HEAD_BYTES`` is 431,
answered with ``Connection: close`` as soon as it passes the bound; a
path that matches a route only under another method is 405 and any
other path 404; a saturated pending queue
(``max_pending``) or a stopping server sheds load with 503 (with a
``Retry-After`` estimated from the backend's observed service time)
instead of queueing — the client should retry against another replica.
Engine ``ValueError``s (bad symbols, negative ``k``) are client errors
(400); anything else is a 500 with the exception name, never a dropped
connection.

A request may bound its own wait with ``timeout_ms`` in the JSON body (or
an ``X-Request-Deadline`` header, also milliseconds); work still queued
when the budget runs out is dropped before the engine call and answered
504 Gateway Timeout. A client that disconnects while its request is queued
has the queued work cancelled (it counts toward ``stats.cancelled``, and
the engine never computes it). The hang-up is noticed when its EOF
arrives — the connection's stream reader cancels the request in flight
then — not by polling; a request already buffered when the EOF arrives
(pipelined, then half-closed) is still answered, a head the EOF cut off
is not.

Shutdown is graceful: :meth:`AlignmentHTTPServer.stop` stops accepting,
lets every in-flight request finish and be written back, closes idle
keep-alive connections, then drains the underlying alignment server.

Connections come from three places, all funneling into
:meth:`AlignmentHTTPServer.handle_connection`: a real listening socket
(:meth:`~AlignmentHTTPServer.start`), a ``socket.socketpair`` created by
:func:`open_memory_connection` (tests and benchmarks need no free port),
or anything else that supplies an ``asyncio`` stream pair. The first two
build the connection's reader that notices hang-ups; a plain
``asyncio.StreamReader`` from elsewhere is served the same way, but its
client's in-flight requests run to completion after a hang-up.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import re
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Sequence, Union
from urllib.parse import parse_qsl

from repro.serving.cluster import AlignmentCluster, ClusterSaturatedError
from repro.serving.jobs import JOB_KINDS, Job, JobManager, JobRejectedError
from repro.serving.observability import (
    EventRateLimiter,
    MetricFamily,
    StatsBlock,
    Trace,
    TraceBuffer,
    counted,
    finish_span,
    get_logger,
    log_event,
    render_metrics,
)
from repro.serving.server import (
    NO_CONTEXT,
    AlignmentServer,
    DeadlineExceededError,
    RequestContext,
    ServerClosedError,
)

_LOGGER = get_logger("http")

#: What the front can mount: one batching server or a replicated cluster.
#: Both expose the same surface (request methods, ``saturated``,
#: ``suggested_retry_after``, ``health_payload``, ``stats_payload``), so
#: nothing below cares which it got.
ServingBackend = Union[AlignmentServer, AlignmentCluster]

#: Largest accepted request body; JSON for even 100 kbp reads fits well
#: under this, and anything larger is a client bug or abuse.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request line + single header line.
_MAX_LINE_BYTES = 16 * 1024

#: Largest accepted request head: the request line and every header line,
#: line endings included, the blank line not. Past it the front stops
#: reading and answers 431, so a client that never ends its head cannot
#: make the front hold more than this.
_MAX_HEAD_BYTES = 64 * 1024

_JSON_CONTENT_TYPE = "application/json"

#: Prometheus text exposition format 0.0.4 — what ``GET /metrics`` serves.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A SAM QNAME (SAM spec 1.4): 1-254 printable characters other than '@'.
#: A ``/v1/map`` name becomes the first field of the SAM line it returns,
#: so a tab or newline in it would forge fields or lines.
_QNAME = re.compile(r"[!-?A-~]{1,254}")

#: Requests slower than this (seconds) emit a rate-limited
#: ``http.slow_request`` JSON log event carrying the trace id.
_SLOW_REQUEST_SECONDS = 0.5

#: Default/maximum bytes served per ``GET /v1/jobs/<id>/output`` read.
_JOB_OUTPUT_DEFAULT_LIMIT = 64 * 1024
_JOB_OUTPUT_MAX_LIMIT = 1024 * 1024


@dataclass(frozen=True)
class _RawResponse:
    """A non-JSON response body (the ``/metrics`` exposition)."""

    body: bytes
    content_type: str


class HttpError(Exception):
    """A request failure that maps to one HTTP status code.

    ``retry_after`` (seconds) rides along on 503s so the response can
    carry a ``Retry-After`` hint computed from observed load rather than
    a constant.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class EndpointStats(StatsBlock):
    """Counters for one route: attempts, successes, failures by status,
    and a latency histogram over the successful requests."""

    requests = counted("genasm_http_requests_total")
    ok = counted()
    errors = counted("genasm_http_errors_total", by="code")
    #: Wall time of successful requests, parse-to-handler-return. Error
    #: responses are excluded — a flood of instant 400s would otherwise
    #: make a melting endpoint look fast.
    latency = counted("genasm_http_request_duration_seconds")

    def record(self, status: int, seconds: float) -> None:
        self.requests += 1
        if status < 400:
            self.ok += 1
            self.latency.record(seconds)
        else:
            self.errors[status] += 1


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Statuses whose responses carry a ``Retry-After`` header: 503 (the
#: backend's load estimate).
_RETRYABLE_STATUSES = (503,)

#: A job id path segment; never a bare job kind, so ``GET /v1/jobs/map``
#: is a create under the wrong method.
_JOB_ID = rf"/+((?!(?:{'|'.join(JOB_KINDS)})/*$)[^/]+)"

#: The route table, the front's only router: (method, path pattern, stats
#: key, handler name). A pattern with a group is a regex over the whole
#: path, its groups the handler's path arguments; any other is an exact
#: path. A handler takes a POST's JSON body (a GET's query), the request's
#: context and the path arguments, and returns the response payload. By
#: name, resolved per request: bound methods stored on the front would
#: hold it in a reference cycle.
_ROUTES = (
    ("GET", "/healthz", "/healthz", "_handle_healthz"),
    ("GET", "/metrics", "/metrics", "_handle_metrics"),
    ("GET", "/v1/stats", "/v1/stats", "_handle_stats"),
    ("POST", "/v1/scan", "/v1/scan", "_handle_scan"),
    ("POST", "/v1/edit_distance", "/v1/edit_distance", "_handle_edit_distance"),
    ("POST", "/v1/align", "/v1/align", "_handle_align"),
    ("POST", "/v1/map", "/v1/map", "_handle_map"),
    ("GET", "/v1/trace/(.*)", "/v1/trace", "_handle_trace"),
    ("POST", "/v1/jobs/+([^/]+)/*", "/v1/jobs", "_handle_job_create"),
    ("GET", f"/v1/jobs{_JOB_ID}/*", "/v1/jobs", "_handle_job_status"),
    ("POST", f"/v1/jobs{_JOB_ID}/+input/*", "/v1/jobs", "_handle_job_input"),
    ("GET", f"/v1/jobs{_JOB_ID}/+output/*", "/v1/jobs", "_handle_job_output"),
    ("POST", f"/v1/jobs{_JOB_ID}/+cancel/*", "/v1/jobs", "_handle_job_cancel"),
)

#: Exact paths: one dict lookup to what :func:`_route` returns.
_EXACT_ROUTES = {
    pattern: (key, {method: (name, ())})
    for method, pattern, key, name in _ROUTES
    if "(" not in pattern
}
_PATTERN_ROUTES = [
    (method, re.compile(pattern), key, name)
    for method, pattern, key, name in _ROUTES
    if "(" in pattern
]


def _route(path: str) -> tuple[str | None, dict[str, tuple[str, tuple[str, ...]]]]:
    """``(stats key, {method: (handler name, path arguments)})`` for a path.

    A path under a patterned entry's key gets that key even when nothing
    matches it, so its 404 counts there.
    """
    exact = _EXACT_ROUTES.get(path)
    if exact is not None:
        return exact
    key = None
    methods: dict[str, tuple[str, tuple[str, ...]]] = {}
    for method, regex, entry_key, name in _PATTERN_ROUTES:
        if path == entry_key or path.startswith(entry_key + "/"):
            key = entry_key
        match = regex.fullmatch(path)
        if match is not None:
            methods.setdefault(method, (name, match.groups()))
    return key, methods


@dataclass(frozen=True)
class _ParsedRequest:
    """One decoded HTTP request: enough for routing and JSON handling."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    #: Decoded query parameters (``?debug=timing``); last value wins.
    query: dict[str, str] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


def parse_request_head(
    lines: Sequence[bytes],
) -> tuple[str, str, dict[str, str], dict[str, str], int]:
    """``(method, path, query, headers, body length)`` of a request head.

    ``lines`` are the request line and the header lines, each ending in
    ``\\r\\n`` or a bare ``\\n`` (or not at all), without the blank line.
    Every framing rule is here: a head the front will not serve raises
    :class:`HttpError` (400, 413 or 501). Pure, so it fuzzes without a socket.
    """
    request_line, *header_lines = lines or [b""]
    if len(request_line) > _MAX_LINE_BYTES:
        raise HttpError(400, "request line too long")
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        if len(line) > _MAX_LINE_BYTES:
            raise HttpError(400, "header line too long")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        key, value = name.strip().lower(), value.strip()
        if key == "content-length" and headers.get(key, value) != value:
            # Two different lengths leave the framing ambiguous (RFC
            # 9112 §6.3): a proxy that honoured the other one would
            # desync every later message on the connection.
            raise HttpError(400, "conflicting Content-Length headers")
        headers[key] = value
    if "transfer-encoding" in headers:
        # Not parsing a framing we don't implement is a correctness
        # matter: skipping a chunked body would desync every later
        # response on this keep-alive connection.
        raise HttpError(
            501, "Transfer-Encoding is not supported; send Content-Length"
        )
    length_text = headers.get("content-length", "0")
    # Digits only: int() would also take "+10" and "1_0".
    if not (length_text.isascii() and length_text.isdigit()):
        raise HttpError(400, f"bad Content-Length {length_text!r}")
    length = int(length_text)
    if length > DEFAULT_MAX_BODY_BYTES:
        raise HttpError(
            413,
            f"request body of {length} bytes exceeds the "
            f"{DEFAULT_MAX_BODY_BYTES}-byte limit",
        )
    path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string)) if query_string else {}
    return method, path, query, headers, length


class _HangupReader(asyncio.StreamReader):
    """A connection's reader that cancels its request when the peer leaves.

    :meth:`AlignmentHTTPServer.handle_connection` points ``request_task``
    at itself while it serves a request. The protocol feeds the peer's EOF
    in as soon as it arrives; if a request is then in flight and no
    pipelined bytes are buffered (``at_eof()``), that task is cancelled —
    for work still queued this cancels the request's future, so the
    engine never computes it and the backend counts it under
    ``stats.cancelled``. The reference is dropped when the request ends,
    so a closed connection is not held in a cycle.
    """

    request_task: "asyncio.Task[Any] | None" = None
    hung_up = False

    def feed_eof(self) -> None:
        super().feed_eof()
        task = self.request_task
        if task is not None and self.at_eof():
            self.request_task = None
            self.hung_up = True
            task.cancel()


def _own_cancellation(task: "asyncio.Task[Any]") -> bool:
    """Withdraw the hang-up's cancel of ``task``; False if another is pending.

    ``Task.uncancel`` exists from Python 3.11; before it a caught
    cancellation needs no bookkeeping, and a second cancel cannot be told
    apart from the first.
    """
    uncancel = getattr(task, "uncancel", None)
    return uncancel is None or uncancel() == 0


class AlignmentHTTPServer(StatsBlock):
    """JSON-over-HTTP front funneling requests into one serving backend.

    Parameters
    ----------
    server:
        The backend every request is submitted to — a single batching
        :class:`AlignmentServer` or a replicated
        :class:`~repro.serving.cluster.AlignmentCluster`; the two share
        one surface and the front does not care which it mounts. When
        ``own_server=True`` (default), :meth:`stop` also stops it.
    own_server:
        Whether :meth:`stop` drains and stops ``server`` too.
    job_manager:
        The :class:`~repro.serving.jobs.JobManager` behind ``/v1/jobs``
        (one over ``server`` with default capacity when omitted).

    Every request gets a :class:`~repro.serving.observability.Trace`
    (honoring/echoing ``X-Request-ID``, generating an id otherwise),
    handed to the backend in the request's context and retained in the
    ring buffer behind ``GET /v1/trace/<id>``; ``?debug=timing`` inlines
    it. The network front is the one place a trace is minted: the
    backend records spans iff a request carries one.
    """

    #: Requests abandoned by their client mid-flight (the queued work
    #: was cancelled; the backend counts it under cancelled).
    client_disconnects = counted("genasm_http_client_disconnects_total")

    def __init__(
        self,
        server: ServingBackend,
        *,
        own_server: bool = True,
        job_manager: JobManager | None = None,
    ) -> None:
        super().__init__()
        self.server = server
        self.own_server = own_server
        self.traces = TraceBuffer()
        self._events = EventRateLimiter()
        # The job fabric rides on the same backend: each read of a job
        # re-enters it as an ordinary request.
        self.job_manager = (
            job_manager if job_manager is not None else JobManager(server)
        )
        keys = dict.fromkeys(key for _, _, key, _ in _ROUTES)
        self.stats = {key: EndpointStats() for key in keys}
        self._tcp_server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._busy = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "AlignmentHTTPServer":
        """Listen on ``host:port`` (port 0 picks a free one; see :attr:`port`)."""
        if self._tcp_server is not None:
            raise RuntimeError("server is already listening")
        if self._closed:
            raise RuntimeError("server is stopped")
        self._tcp_server = await asyncio.get_running_loop().create_server(
            self._protocol, host=host, port=port
        )
        return self

    def _protocol(self) -> asyncio.StreamReaderProtocol:
        """One connection's protocol, reading through a :class:`_HangupReader`."""
        loop = asyncio.get_running_loop()
        return asyncio.StreamReaderProtocol(
            _HangupReader(loop=loop), self.handle_connection, loop=loop
        )

    @property
    def port(self) -> int | None:
        """The bound port, once :meth:`start` has been called."""
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        return self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: finish in-flight requests, then drain."""
        if self._closed:
            return
        self._closed = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            # The listener holds this front's protocol factory.
            self._tcp_server = None
        # In-flight requests run to completion and are written back; the
        # connection loops then see _closed and exit. Idle keep-alive
        # connections are woken by closing their transports, and every
        # handler task is awaited so none is left for loop teardown to
        # cancel mid-read.
        await self._idle.wait()
        for writer in list(self._connections):
            writer.close()
        if self._handler_tasks:
            await asyncio.gather(
                *list(self._handler_tasks), return_exceptions=True
            )
        await self.job_manager.stop()
        if self.own_server:
            await self.server.stop()

    async def __aenter__(self) -> "AlignmentHTTPServer":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve HTTP/1.1 requests on one stream pair until it closes.

        Each request is served inline on this connection's task, which
        yields a loop turn before each pipelined request it finds already
        buffered. With a reader built by :meth:`start` or
        :func:`open_memory_connection`, a hang-up while a request is in
        flight cancels that request and ends the connection (counted in
        ``client_disconnects``).
        """
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        watch = (
            reader
            if task is not None and isinstance(reader, _HangupReader)
            else None
        )
        self._connections.add(writer)
        try:
            while not self._closed:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    # The framing itself is broken (bad request line,
                    # oversize body): answer if possible, then hang up.
                    await self._write_response(
                        writer, exc.status, {"error": exc.message}, False
                    )
                    return
                if request is None:
                    return  # EOF before a complete head
                self._busy += 1
                self._idle.clear()
                try:
                    # A client-supplied X-Request-ID is honored (and
                    # echoed); otherwise the trace mints an id.
                    trace = Trace(
                        request.headers.get("x-request-id"),
                        path=request.path,
                        method=request.method,
                    )
                    # Inserted now, not at completion: an in-flight
                    # request is already queryable by its id.
                    self.traces.add(trace)
                    if watch is not None:
                        watch.request_task = task
                    try:
                        status, payload, retry_after = await self._dispatch(
                            request, trace
                        )
                    except asyncio.CancelledError:
                        if (
                            watch is None
                            or not watch.hung_up
                            or not _own_cancellation(task)
                        ):
                            raise
                        self.client_disconnects += 1
                        return  # nobody left to answer
                    finally:
                        if watch is not None:
                            watch.request_task = None
                    self._annotate_response(request, status, payload, trace)
                    keep_alive = request.keep_alive and not self._closed
                    serialize = trace.begin("serialize")
                    await self._write_response(
                        writer,
                        status,
                        payload,
                        keep_alive,
                        retry_after=retry_after,
                        request_id=trace.trace_id,
                    )
                    finish_span(serialize)
                    trace.finish()
                    self._log_slow_request(request, status, trace)
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
                if not request.keep_alive:
                    return
                if reader._buffer:
                    # A pipelined request is already buffered, and neither
                    # reading it nor an inline answer suspends: yield a
                    # turn first, so one connection's burst cannot hold
                    # the loop from every other connection.
                    await asyncio.sleep(0)
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # peer went away mid-request; nothing to answer
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _ParsedRequest | None:
        """Read one request's head lines and body; None on EOF before the
        head is complete (no answer, as for a body cut off by EOF). A head
        past :data:`_MAX_HEAD_BYTES` is a 431, raised before the next line
        is read."""
        lines: list[bytes] = []
        size = 0
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                kind = "header" if lines else "request"
                raise HttpError(400, f"{kind} line too long: {exc}") from exc
            if not line:
                return None
            if lines and line in (b"\r\n", b"\n"):
                break
            size += len(line)
            if size > _MAX_HEAD_BYTES:
                raise HttpError(
                    431, f"request head exceeds {_MAX_HEAD_BYTES} bytes"
                )
            lines.append(line)
        method, path, query, headers, length = parse_request_head(lines)
        body = await reader.readexactly(length) if length else b""
        return _ParsedRequest(method, path, headers, body, query)

    async def _dispatch(
        self, request: _ParsedRequest, trace: Trace
    ) -> tuple[int, Any, float | None]:
        """Serve one parsed request; always returns a JSON-able response
        plus the Retry-After hint for 503s (None elsewhere)."""
        key, methods = _route(request.path)
        retry_after: float | None = None
        started = time.monotonic()
        try:
            target = methods.get(request.method)
            if target is None:
                if methods:
                    raise HttpError(
                        405,
                        f"{request.path} requires {' or '.join(methods)}, "
                        f"got {request.method}",
                    )
                raise HttpError(404, f"unknown path {request.path!r}")
            handler, path_args = target
            payload: dict[str, Any] = request.query
            ctx = NO_CONTEXT
            if request.method == "POST":
                parse = trace.begin("parse", bytes=len(request.body))
                # A job POST (a cancel, a bare create) may have no body.
                payload = {}
                if request.body or key != "/v1/jobs":
                    payload = self._decode_body(request)
                finish_span(parse)
                # The request's one context, built here and nowhere else.
                ctx = RequestContext(
                    deadline=_request_deadline(request, payload), trace=trace
                )
            result = await getattr(self, handler)(payload, ctx, *path_args)
            status = 200
        except DeadlineExceededError as exc:
            status, result = 504, {"error": str(exc)}
        except HttpError as exc:
            status, result = exc.status, {"error": exc.message}
            retry_after = exc.retry_after
        except (ClusterSaturatedError, JobRejectedError) as exc:
            # Raced past the capacity pre-check into a saturating cluster,
            # or the job manager is at its active-job bound; same shedding
            # contract, same dynamic hint.
            status, result = 503, {"error": str(exc)}
            retry_after = exc.retry_after
        except ServerClosedError:
            status, result = 503, {"error": "server is shutting down"}
        except ValueError as exc:
            # Engine-side input rejections (bad symbols, negative k, ...)
            # and malformed job payloads are the client's fault, not an
            # internal failure.
            status, result = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - wire boundary
            status = 500
            result = {"error": f"{type(exc).__name__}: {exc}"}
        if status in _RETRYABLE_STATUSES and retry_after is not None:
            # Mirror the header in the body: the header is integer-rounded
            # per RFC 9110, the body keeps the precise estimate.
            result["retry_after"] = round(retry_after, 3)
        if key is not None:
            self.stats[key].record(status, time.monotonic() - started)
        return status, result, retry_after

    def _job(self, job_id: str) -> Job:
        """The retained job ``job_id``, or a 404 raised here — a
        ``KeyError`` left for the shared ladder would turn an engine
        ``KeyError`` on any other route into a 404 too."""
        job = self.job_manager.get(job_id)
        if job is None:
            raise HttpError(
                404,
                f"no job {job_id!r} (finished jobs are evicted eventually)",
            )
        return job

    async def _handle_job_create(
        self, payload: dict[str, Any], _ctx: RequestContext, kind: str
    ) -> dict[str, Any]:
        """Create a job, with an optional first ``fastq`` chunk. The job
        keeps nothing of this request's ``ctx``: each of its reads
        re-enters the backend as an ordinary request."""
        manager = self.job_manager
        job = manager.create(kind)
        response: dict[str, Any] = {"job_id": job.job_id, "kind": kind}
        fastq, final = _fastq_chunk(payload)
        if fastq or final:
            response.update(
                await manager.append_input(job.job_id, fastq, final=final)
            )
        response["state"] = job.state
        return response

    async def _handle_job_status(
        self, _payload: dict[str, Any], _ctx: RequestContext, job_id: str
    ) -> dict[str, Any]:
        return self._job(job_id).status_payload()

    async def _handle_job_input(
        self, payload: dict[str, Any], _ctx: RequestContext, job_id: str
    ) -> dict[str, Any]:
        self._job(job_id)
        fastq, final = _fastq_chunk(payload)
        return await self.job_manager.append_input(job_id, fastq, final=final)

    async def _handle_job_output(
        self, query: dict[str, str], _ctx: RequestContext, job_id: str
    ) -> dict[str, Any]:
        """Spooled output from any byte offset: the resumability contract."""
        job = self._job(job_id)
        offset = _query_int(query, "offset", 0, minimum=0)
        limit = min(
            _query_int(query, "limit", _JOB_OUTPUT_DEFAULT_LIMIT, minimum=1),
            _JOB_OUTPUT_MAX_LIMIT,
        )
        served_offset = min(offset, job.output.size)
        data = job.output.read(served_offset, limit)
        next_offset = served_offset + len(data)
        return {
            "job_id": job.job_id,
            "state": job.state,
            "offset": served_offset,
            "data": data,
            "next_offset": next_offset,
            "output_bytes": job.output.size,
            "eof": job.finished and next_offset >= job.output.size,
        }

    async def _handle_job_cancel(
        self, _payload: dict[str, Any], _ctx: RequestContext, job_id: str
    ) -> dict[str, Any]:
        job = self._job(job_id)
        await self.job_manager.cancel(job_id)
        return {"job_id": job_id, "state": job.state}

    async def _handle_trace(
        self, _payload: dict[str, Any], _ctx: RequestContext, trace_id: str
    ) -> dict[str, Any]:
        """``GET /v1/trace/<id>``: one retained trace's span breakdown."""
        found = self.traces.get(trace_id)
        if found is None:
            raise HttpError(
                404, f"no retained trace {trace_id!r} (evicted or never seen)"
            )
        return found.to_dict()

    def _annotate_response(
        self,
        request: _ParsedRequest,
        status: int,
        payload: Any,
        trace: Trace,
    ) -> None:
        """Fold the request id and optional timing into a JSON response.

        ``/healthz`` and 503 bodies always carry the id (so a shed
        request is attributable from the client side alone), and
        ``?debug=timing`` inlines the span breakdown recorded so far
        (everything but this response's own serialization — the full
        breakdown stays at ``/v1/trace/<id>``).
        """
        if not isinstance(payload, dict):
            return
        if request.path == "/healthz" or status == 503:
            payload.setdefault("request_id", trace.trace_id)
        if request.query.get("debug") == "timing":
            payload["timing"] = trace.to_dict()

    def _log_slow_request(
        self, request: _ParsedRequest, status: int, trace: Trace
    ) -> None:
        duration = trace.duration
        if duration is None or duration < _SLOW_REQUEST_SECONDS:
            return
        log_event(
            _LOGGER,
            "http.slow_request",
            level=logging.WARNING,
            trace_id=trace.trace_id,
            limiter=self._events,
            limit_key=f"slow:{request.path}",
            path=request.path,
            status=status,
            duration_ms=duration * 1e3,
        )

    def _decode_body(self, request: _ParsedRequest) -> dict[str, Any]:
        if not request.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(request.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
        *,
        retry_after: float | None = None,
        request_id: str | None = None,
    ) -> None:
        if isinstance(payload, _RawResponse):
            body, content_type = payload.body, payload.content_type
        else:
            body, content_type = json.dumps(payload).encode(), _JSON_CONTENT_TYPE
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if request_id is not None:
            headers.append(f"X-Request-ID: {request_id}")
        if status in _RETRYABLE_STATUSES:
            # Retry-After is delay-seconds (an integer) on the wire; the
            # precise float estimate travels in the JSON body.
            headers.append(
                f"Retry-After: {max(1, math.ceil(retry_after or 1.0))}"
            )
        head = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Endpoint handlers
    # ------------------------------------------------------------------
    def _check_capacity(self) -> None:
        """Shed load instead of queueing when the pending bound is hit.

        The Retry-After hint comes from the backend's observed flush and
        service-time EWMAs — how long until capacity actually frees — not
        a constant.
        """
        if self.server.saturated:
            raise HttpError(
                503,
                f"server at capacity ({self.server.max_pending} pending "
                "requests); retry shortly",
                retry_after=self.server.suggested_retry_after(),
            )
        if self._closed:
            raise HttpError(503, "server is shutting down")

    async def _handle_scan(
        self, payload: dict[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        text = _string_field(payload, "text")
        pattern = _string_field(payload, "pattern", non_empty=True)
        k = _int_field(payload, "k", minimum=0)
        first_match_only = _bool_field(payload, "first_match_only", False)
        self._check_capacity()
        matches = await self.server.scan(
            text, pattern, k, first_match_only=first_match_only, ctx=ctx
        )
        return {
            "matches": [
                {"start": match.start, "distance": match.distance}
                for match in matches
            ]
        }

    async def _handle_edit_distance(
        self, payload: dict[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        text = _string_field(payload, "text")
        pattern = _string_field(payload, "pattern", non_empty=True)
        k = _int_field(payload, "k", minimum=0)
        self._check_capacity()
        distance = await self.server.edit_distance(text, pattern, k, ctx=ctx)
        return {"distance": distance}

    async def _handle_align(
        self, payload: dict[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        text = _string_field(payload, "text")
        pattern = _string_field(payload, "pattern")
        self._check_capacity()
        alignment = await self.server.align(text, pattern, ctx=ctx)
        return {
            "cigar": alignment.cigar.to_sam(),
            "edit_distance": alignment.edit_distance,
            "text_start": alignment.text_start,
            "text_consumed": alignment.text_consumed,
        }

    async def _handle_map(
        self, payload: dict[str, Any], ctx: RequestContext
    ) -> dict[str, Any]:
        if self.server.mapper is None:
            raise HttpError(
                501, "mapping is not configured on this server (no mapper)"
            )
        name = _string_field(payload, "name", non_empty=True)
        if _QNAME.fullmatch(name) is None:
            raise HttpError(
                400,
                "field 'name' must be a SAM QNAME: 1-254 printable characters, "
                "no '@', space, tab or newline",
            )
        read = _string_field(payload, "read", non_empty=True)
        self._check_capacity()
        result = await self.server.map_read(name, read, ctx=ctx)
        record = result.record
        sam = record.to_line()
        return {
            "sam": sam,
            "mapped": record.is_mapped,
            "position": result.candidate_position,
            "reverse": result.reverse,
            # The SAM line's CIGAR column: rendered once, not twice.
            "cigar": None if record.cigar is None else sam.split("\t", 6)[5],
        }

    async def _handle_healthz(
        self, _payload: dict[str, Any], _ctx: RequestContext
    ) -> dict[str, Any]:
        # Served inline — never behind the batch queue — so load balancers
        # get an answer even when the engine is saturated with work. The
        # backend (server or cluster) contributes its own load fields.
        payload = self.server.health_payload()
        payload["status"] = "draining" if self._closed else "ok"
        return payload

    async def _handle_stats(
        self, _payload: dict[str, Any], _ctx: RequestContext
    ) -> dict[str, Any]:
        # The backend describes itself (a cluster adds per-replica blocks
        # and cluster counters); the front adds its per-endpoint HTTP
        # counters and latency percentiles on top.
        payload = self.server.stats_payload()
        payload["endpoints"] = {
            path: stats.to_dict() for path, stats in self.stats.items()
        }
        payload["jobs"] = self.job_manager.stats_payload()
        if self.client_disconnects:
            payload.update(self.to_dict())
        return payload

    async def _handle_metrics(
        self, _payload: dict[str, Any], _ctx: RequestContext
    ) -> _RawResponse:
        # Pull model: this front, the backend (with whatever it
        # aggregates — replicas) and the job manager are asked at scrape
        # time, so the page is always current.
        families = [
            *self.collect_metrics(),
            *self.server.collect_metrics(),
            *self.job_manager.collect_metrics(),
        ]
        return _RawResponse(
            render_metrics(families).encode(), _METRICS_CONTENT_TYPE
        )

    def collect_metrics(self) -> list[MetricFamily]:
        """The front's own metric families: its disconnect counter and the
        per-endpoint blocks of every route that has seen a request."""
        families = self.metric_families()
        for path, stats in sorted(self.stats.items()):
            if stats.requests:
                families.extend(stats.metric_families(endpoint=path))
        return families


# ----------------------------------------------------------------------
# Field validation helpers
# ----------------------------------------------------------------------
def _string_field(
    payload: dict[str, Any], name: str, *, non_empty: bool = False
) -> str:
    if name not in payload:
        raise HttpError(400, f"missing required field {name!r}")
    value = payload[name]
    if not isinstance(value, str):
        raise HttpError(400, f"field {name!r} must be a string")
    if non_empty and not value:
        raise HttpError(400, f"field {name!r} must be non-empty")
    return value


def _query_int(
    query: dict[str, str], name: str, default: int, *, minimum: int
) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name!r} must be an integer")
    if value < minimum:
        raise HttpError(400, f"query parameter {name!r} must be >= {minimum}")
    return value


def _int_field(payload: dict[str, Any], name: str, *, minimum: int) -> int:
    if name not in payload:
        raise HttpError(400, f"missing required field {name!r}")
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(400, f"field {name!r} must be an integer")
    if value < minimum:
        raise HttpError(400, f"field {name!r} must be >= {minimum}")
    return value


def _bool_field(payload: dict[str, Any], name: str, default: bool) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise HttpError(400, f"field {name!r} must be a boolean")
    return value


def _fastq_chunk(payload: dict[str, Any]) -> tuple[str, bool]:
    """One map-job input chunk: its FASTQ text and the ``final`` flag."""
    fastq = payload.get("fastq", "")
    if not isinstance(fastq, str):
        raise HttpError(400, "field 'fastq' must be a string")
    return fastq, _bool_field(payload, "final", False)


def _request_deadline(
    request: _ParsedRequest, payload: dict[str, Any]
) -> float | None:
    """Absolute monotonic deadline from the client's latency budget.

    ``timeout_ms`` in the JSON body wins over an ``X-Request-Deadline``
    header; both are milliseconds of *remaining* budget (a relative
    duration survives clock skew between client and server, an absolute
    wall-clock timestamp would not). None when the client set neither.
    """
    raw: Any = payload.get("timeout_ms")
    source = "timeout_ms"
    if raw is None:
        header = request.headers.get("x-request-deadline")
        if header is None:
            return None
        source = "X-Request-Deadline"
        try:
            raw = float(header)
        except ValueError:
            raise HttpError(
                400, f"bad X-Request-Deadline {header!r}: not a number"
            ) from None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise HttpError(400, f"{source} must be a number of milliseconds")
    if not math.isfinite(raw) or raw <= 0:
        raise HttpError(
            400, f"{source} must be a positive finite number of milliseconds"
        )
    return time.monotonic() + raw / 1e3


async def open_memory_connection(
    http_server: AlignmentHTTPServer,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect a client to ``http_server`` without a listening port.

    Builds a ``socket.socketpair``, serves one end through
    :meth:`AlignmentHTTPServer.handle_connection` on a background task
    (with the same protocol a listening socket gets, so hang-ups are
    noticed), and returns the client end as ordinary asyncio streams.
    Tests and benchmarks exercise the complete wire path — parsing,
    routing, batching, response framing — with no free TCP port required.
    """
    client_sock, server_sock = socket.socketpair()
    client_sock.setblocking(False)
    server_sock.setblocking(False)
    client_reader, client_writer = await asyncio.open_connection(
        sock=client_sock
    )
    await asyncio.get_running_loop().connect_accepted_socket(
        http_server._protocol, sock=server_sock
    )
    return client_reader, client_writer


async def serve_http(
    *,
    host: str = "127.0.0.1",
    port: int = 8777,
    server: ServingBackend | None = None,
    **server_kwargs: Any,
) -> AlignmentHTTPServer:
    """Start an HTTP front (building an :class:`AlignmentServer` if needed).

    ``server`` may also be an :class:`~repro.serving.cluster.AlignmentCluster`
    — the front mounts either. Extra keyword arguments construct a
    single alignment server (``engine=``, ``batch_size=``,
    ``flush_interval=``, ...). The returned front is already listening;
    stop it with :meth:`AlignmentHTTPServer.stop`.
    """
    own = server is None
    if server is None:
        server = AlignmentServer(**server_kwargs)
    elif server_kwargs:
        raise ValueError("pass server_kwargs only when server is None")
    front = AlignmentHTTPServer(server, own_server=own)
    await front.start(host=host, port=port)
    return front
