"""The asyncio alignment server: many small requests, few large engine calls.

The engine layer is batch-first because every backend — NumPy arrays, one
C call per batch, eventually a GPU — amortizes per-call overhead across the
batch. A service facing many concurrent clients sees the opposite shape:
thousands of *single-pair* requests arriving independently. This module
bridges the two: :class:`AlignmentServer` accumulates incoming requests in
an in-memory queue and flushes them as one engine call per request group
whenever either

* the queue reaches ``batch_size`` requests (a *size* flush), or
* ``flush_interval`` seconds elapse after the first queued request
  (a *deadline* flush — bounds worst-case latency under light traffic).

Each request resolves its own :class:`asyncio.Future`, so callers just
``await server.scan(...)`` and never see the batching. Flushes execute on a
single dedicated worker thread (the engine call is synchronous and
CPU-bound), which keeps the event loop free to keep accumulating the *next*
batch while the current one computes — the ``"native"`` kernels release the
GIL for a whole batch (and ``"sharded"`` fans it out to more threads), so
request accumulation and kernel execution genuinely overlap. The worker
posts each finished call back to the loop (``call_soon_threadsafe``), where
one callback resolves that group's futures and submits the next group: a
flush costs no asyncio Task and one loop turn per engine call.

One kind of group skips the worker: a ``map`` group whose mapper answers
in one GIL-free native call (:meth:`ReadMapper.maps_in_one_call
<repro.mapping.pipeline.ReadMapper.maps_in_one_call>`; a batch the call
refuses, as one holding a foreign character, maps stage by stage, whole)
and whose reads total at most :data:`INLINE_MAP_BASES` bases is mapped on
the event loop itself. At batch 1 the two thread handoffs around the call,
and the worker's wait for the GIL the loop holds, cost more than the mapping
(0.1-0.2 ms against ~0.02 ms for one 100 bp read); a call at the bound
costs no more than they do. Every other group — ``scan``,
``edit_distance`` and ``align``, a staged or wrapped mapper, a full batch,
a long read — keeps the worker, so a slow or hung engine call never
stalls the loop. ``stats.inline_calls`` counts the inline calls (they are
also in ``engine_calls``).

With a zero ``flush_interval`` a request that finds the server idle
(nothing queued, no group waiting, no engine call in flight) is flushed at
once rather than on the next loop turn; requests that arrive behind it in
the same loop turn are flushed together on the next one, as before. A
lone ``map`` that runs inline is then answered before its caller first
awaits, so it never leaves the caller's task.

Backpressure is a bounded pending limit: at most ``max_pending`` requests
may be queued or in flight; further submissions wait (``await``) for slots
rather than growing the queue without bound. Shutdown is graceful —
:meth:`stop` flushes whatever is queued, waits for in-flight batches, and
rejects later submissions with :class:`ServerClosedError`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.aligner import Alignment, GenAsmAligner
from repro.core.bitap import BitapMatch
from repro.engine.registry import get_engine
from repro.serving.observability import (
    MetricFamily,
    SpanRecord,
    StatsBlock,
    Trace,
    counted,
    derived,
    finish_span,
    metric_family,
)
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.registry import AlignmentEngine
    from repro.mapping.pipeline import MappingResult, ReadMapper


#: A ``map`` group whose reads total at most this many bases runs on the
#: event loop when its mapper answers in one native call
#: (:meth:`AlignmentServer._runs_inline`). Mapping cost grows faster than
#: read length, so the worst call at the bound is one read as long as the
#: bound. On a 2-vCPU x86-64 box (256 kb reference, k = 15, mapper
#: ``error_rate`` 0.15, reads at 15 % error) one 200 bp read took 0.10 ms
#: p50 / 0.12-0.19 ms p90 and two 100 bp reads 0.05 ms p50: no longer than
#: the two thread handoffs and the GIL wait an inline call saves
#: (0.1-0.2 ms). One 1 kb read took 0.7-6 ms, so it stays on the worker.
INLINE_MAP_BASES = 200

#: EWMA weight of the newest engine call's wall time in the service-time
#: estimate behind :meth:`AlignmentServer.suggested_retry_after`.
SERVICE_SMOOTHING = 0.25


class ServerClosedError(RuntimeError):
    """Raised when a request is submitted to a stopped server."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before its engine work started.

    Raised by the server when a queued request's deadline expires (the
    work is dropped before the engine call) or when a request arrives
    already expired. Maps to HTTP 504. The cluster treats it like an
    input rejection — the deadline is the request's property, so no
    replica failure is recorded and no retry is burned.
    """


@dataclass(frozen=True)
class RequestContext:
    """What travels with one request besides its payload.

    Built once — by the HTTP front per request, or by a direct caller —
    and handed down unchanged as the ``ctx=`` keyword of every serving
    entry point: front -> cluster -> replica server -> the queued
    request. A retry gets the same object.
    """

    #: Absolute ``time.monotonic()`` deadline; past it the request is
    #: dropped before its engine call (None: no budget set).
    deadline: float | None = None
    #: Where every stage records its spans; None records nothing.
    trace: Trace | None = None


#: The context of a request that sets no deadline and carries no trace.
NO_CONTEXT = RequestContext()


class ServingStats(StatsBlock):
    """Counters describing the batching the server actually achieved."""

    requests = counted("genasm_serving_requests_total", outcome="received")
    served = counted("genasm_serving_requests_total", outcome="served")
    failed = counted("genasm_serving_requests_total", outcome="failed")
    #: Requests cancelled while queued (a client went away): counted when
    #: the caller gives up, and dropped before the engine call instead of
    #: computed.
    cancelled = counted("genasm_serving_requests_total", outcome="cancelled")
    #: Requests whose deadline passed while queued: dropped through the
    #: same before-the-engine-call path, answered with
    #: :class:`DeadlineExceededError`.
    expired = counted("genasm_serving_requests_total", outcome="expired")
    flushes = counted()
    size_flushes = counted("genasm_serving_flushes_total", reason="size")
    deadline_flushes = counted("genasm_serving_flushes_total", reason="deadline")
    final_flushes = counted("genasm_serving_flushes_total", reason="final")
    #: Engine calls, the one-request reruns of a failed group included.
    engine_calls = counted("genasm_serving_engine_calls_total")
    #: Engine calls run on the event loop itself (small native ``map``
    #: groups, see :data:`INLINE_MAP_BASES`); also counted in
    #: ``engine_calls``.
    inline_calls = counted("genasm_serving_inline_calls_total")
    max_batch = counted(merge=max)
    #: Request latencies (submit -> result), a mergeable log-bucket
    #: histogram so percentiles survive aggregation across replicas.
    latency = counted("genasm_serving_request_latency_seconds")

    @derived
    def mean_batch(self) -> float:
        """Mean requests per flush — the amortization the queue bought."""
        if self.flushes == 0:
            return 0.0
        return self.served / self.flushes if self.served else 0.0


@dataclass(slots=True)
class _Request:
    """One queued request: its kind, batching key, payload, and future."""

    kind: str
    key: tuple
    payload: Any
    #: What the request was submitted with. Its deadline is checked at
    #: flush time (past it the request is dropped instead of burning an
    #: engine slot); its trace, if any, gets this request's spans.
    ctx: RequestContext = field(repr=False)
    future: "asyncio.Future[Any]" = field(repr=False)
    #: Open ``queue_wait`` span, closed when the flush takes the batch
    #: (or the request is dropped as cancelled).
    queue_span: SpanRecord | None = field(repr=False, default=None)
    #: Set when a flush takes the request off the queue still wanted; a
    #: cancellation before that is a queued drop (``stats.cancelled``).
    taken: bool = False


class AlignmentServer:
    """Batch-accumulating asyncio front-end over one alignment engine.

    Parameters
    ----------
    engine:
        Compute backend (instance, registered name, or None for the process
        default) used for ``scan`` / ``edit_distance`` / ``align`` requests.
    mapper:
        Optional :class:`~repro.mapping.pipeline.ReadMapper`; required for
        :meth:`map_read` requests, which flush through its cross-read
        batched :meth:`~repro.mapping.pipeline.ReadMapper.map_reads`.
    batch_size:
        Queue length that triggers an immediate flush (``B``).
    flush_interval:
        Seconds after the first queued request before a deadline flush
        (``N`` ms in the paper-style notation; bounds tail latency).
    max_pending:
        Backpressure bound: maximum requests queued or in flight at once.
    alphabet:
        Alphabet handed to every engine call.
    name:
        Label for this server in spans and metrics (the cluster sets it
        to the replica name; a bare server is just ``"server"``).

    Every request entry point takes one optional keyword, ``ctx``, the
    request's :class:`RequestContext`: ``deadline`` drops it before the
    engine call once passed, and ``trace``, when set, receives the
    per-stage spans (``queue_wait``, ``batch_assembly``, ``engine``).
    Without one a request never expires. Requests are flushed in arrival
    order.

    Use as an async context manager (``async with AlignmentServer(...)``)
    or call :meth:`stop` explicitly; both drain the queue before returning.
    """

    def __init__(
        self,
        *,
        engine: "AlignmentEngine | str | None" = None,
        mapper: "ReadMapper | None" = None,
        batch_size: int = 64,
        flush_interval: float = 0.005,
        max_pending: int = 1024,
        alphabet: Alphabet = DNA,
        name: str = "server",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if flush_interval < 0:
            raise ValueError("flush_interval must be non-negative")
        if max_pending < batch_size:
            raise ValueError("max_pending must be at least batch_size")
        self.mapper = mapper
        if mapper is not None and engine is None:
            self.engine = get_engine(mapper.engine)
        else:
            self.engine = get_engine(engine)
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_pending = max_pending
        self.alphabet = alphabet
        self.name = name
        self.stats = ServingStats()
        self._aligner = GenAsmAligner(engine=self.engine, alphabet=alphabet)
        self._queue: deque[_Request] = deque()
        self._pending_total = 0
        # EWMA of wall seconds per engine call: the basis for the dynamic
        # Retry-After hint a saturated server hands shed clients.
        self._service_ewma: float | None = None
        self._slots = asyncio.Semaphore(max_pending)
        self._timer: asyncio.Handle | None = None
        # Flushed groups waiting for the worker, with the time their
        # batch was assembled; one engine call runs at a time.
        self._groups: deque[tuple[list[_Request], float]] = deque()
        self._engine_busy = False
        # Set by stop() while calls are in flight; resolved once the last
        # group's futures are.
        self._drained: asyncio.Future[None] | None = None
        self._closed = False
        # One worker thread: flushes serialize behind each other while the
        # event loop keeps accepting and accumulating the next batch.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="alignment-server"
        )

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    async def scan(
        self,
        text: str,
        pattern: str,
        k: int,
        *,
        first_match_only: bool = False,
        ctx: RequestContext | None = None,
    ) -> list[BitapMatch]:
        """Bitap-scan one (text, pattern) pair within ``k`` edits."""
        return await self._submit(
            "scan", (k, first_match_only), (text, pattern), ctx
        )

    async def edit_distance(
        self,
        text: str,
        pattern: str,
        k: int,
        *,
        ctx: RequestContext | None = None,
    ) -> int | None:
        """Minimum semi-global edit distance (None above ``k``)."""
        return await self._submit("edit_distance", (k,), (text, pattern), ctx)

    async def align(
        self, text: str, pattern: str, *, ctx: RequestContext | None = None
    ) -> Alignment:
        """Full GenASM alignment of one pair (CIGAR + edit distance)."""
        return await self._submit("align", (), (text, pattern), ctx)

    async def map_read(
        self, name: str, read: str, *, ctx: RequestContext | None = None
    ) -> "MappingResult":
        """Map one read through the attached :class:`ReadMapper`."""
        if self.mapper is None:
            raise RuntimeError(
                "map_read requires a server constructed with mapper=..."
            )
        return await self._submit("map", (), (name, read), ctx)

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet flushed)."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Requests holding a pending slot (queued or being computed)."""
        return self._pending_total

    @property
    def saturated(self) -> bool:
        """True when every ``max_pending`` slot is taken.

        A new submission right now would have to wait for a slot; network
        fronts use this to shed load (HTTP 503) instead of queueing.
        """
        return self._pending_total >= self.max_pending

    @property
    def engine_name(self) -> str:
        """Name of the compute backend behind this server."""
        return self.engine.name

    def suggested_retry_after(self) -> float:
        """Seconds a shed client should wait before retrying, estimated
        from observed behavior rather than a constant.

        The backlog drains one flush at a time, so the wait is roughly
        the flushes ahead of a new arrival times the EWMA engine-call
        service time, plus the flush window still to elapse. Before any
        flush has completed the flush window itself is the only signal.
        Clamped to ``[0.05, 60]`` — a hint, not a lease.
        """
        service = self._service_ewma
        if service is None:
            service = max(self.flush_interval, 0.01)
        flushes_ahead = -(-self._pending_total // self.batch_size)  # ceil
        estimate = self.flush_interval + max(1, flushes_ahead) * service
        return min(60.0, max(0.05, estimate))

    # ------------------------------------------------------------------
    # Queueing and flush policy
    # ------------------------------------------------------------------
    async def _submit(
        self, kind: str, key: tuple, payload: Any, ctx: RequestContext | None
    ) -> Any:
        if self._closed:
            raise ServerClosedError("server is stopped")
        if ctx is None:
            ctx = NO_CONTEXT
        submitted = time.monotonic()
        if ctx.deadline is not None and submitted >= ctx.deadline:
            # Arrived already out of budget (a retry chain ate it): refuse
            # before taking a slot. It was still received — ``requests``
            # bounds every outcome.
            self.stats.requests += 1
            self.stats.expired += 1
            raise DeadlineExceededError(
                f"deadline passed before the {kind} request was accepted"
            )
        trace = ctx.trace
        queue_span = (
            trace.begin("queue_wait", replica=self.name, kind=kind)
            if trace is not None
            else None
        )
        try:
            await self._slots.acquire()
        except BaseException:
            if queue_span is not None:
                finish_span(queue_span, "cancelled")
            raise
        self._pending_total += 1
        try:
            if self._closed:
                raise ServerClosedError("server is stopped")
            loop = asyncio.get_running_loop()
            request = _Request(
                kind, key, payload, ctx, loop.create_future(), queue_span
            )
            self._queue.append(request)
            self.stats.requests += 1
            if len(self._queue) >= self.batch_size:
                self._flush("size")
            elif self._timer is None:
                if (
                    self.flush_interval == 0
                    and not self._groups
                    and not self._engine_busy
                ):
                    # A zero window has already passed for a request that
                    # finds the server idle: flush it now, not a turn
                    # later. Requests behind it in this loop turn wait for
                    # the flush armed here, so a burst still batches.
                    self._flush("deadline")
                    self._timer = loop.call_soon(self._flush, "deadline")
                else:
                    self._timer = loop.call_later(
                        self.flush_interval, self._flush, "deadline"
                    )
            try:
                result = await request.future
            except asyncio.CancelledError:
                if not request.taken:
                    self.stats.cancelled += 1
                raise
            # Queue wait plus service time: the latency the caller saw.
            self.stats.latency.record(time.monotonic() - submitted)
            return result
        finally:
            self._pending_total -= 1
            self._slots.release()
            if queue_span is not None:
                # Already closed on every served path (finish is first-
                # close-wins); this closes the cancellation/shutdown
                # exits, where the request never reached a flush.
                finish_span(queue_span, "cancelled")

    def _flush(self, reason: str) -> None:
        """Drain the queue into batches and hand them to the worker thread.

        Batches are taken ``batch_size`` at a time in arrival order.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        queue = self._queue
        while queue:
            batch = [
                queue.popleft() for _ in range(min(self.batch_size, len(queue)))
            ]
            self.stats.flushes += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            if reason == "size":
                self.stats.size_flushes += 1
            elif reason == "deadline":
                self.stats.deadline_flushes += 1
            else:
                self.stats.final_flushes += 1
            self._assemble(batch)
        if self._groups and not self._engine_busy:
            self._run_next_group()

    def _assemble(self, batch: list[_Request]) -> None:
        """Drop the batch's dead requests; queue one group per (kind, key)."""
        # A request cancelled while queued (its client went away; counted
        # as it was cancelled) is dropped *before* the engine call — the
        # batch shrinks instead of computing a discarded answer. One
        # cancelled after the flush still computes, but its done future
        # ignores the late result. A queued request whose deadline has
        # passed takes the same exit: answered with DeadlineExceededError
        # here, never burning an engine slot on a result nobody is
        # waiting for.
        now = time.monotonic()
        groups: dict[tuple, list[_Request]] = {}
        for request in batch:
            deadline = request.ctx.deadline
            if request.future.done():
                outcome = "cancelled"
            elif deadline is not None and now >= deadline:
                request.taken = True
                request.future.set_exception(
                    DeadlineExceededError(
                        f"deadline exceeded after queue wait "
                        f"({request.kind})"
                    )
                )
                self.stats.expired += 1
                outcome = "expired"
            else:
                request.taken = True
                groups.setdefault((request.kind, *request.key), []).append(
                    request
                )
                outcome = "ok"
            if request.queue_span is not None:
                finish_span(request.queue_span, outcome, batch=len(batch))
        assembled = time.monotonic()
        for group in groups.values():
            self._groups.append((group, assembled))

    def _run_next_group(self) -> None:
        """Start the waiting groups, in order, until one is on the worker.

        One engine call is in flight at a time. A group that
        :meth:`_runs_inline` is called and finished right here, on the
        loop; any other is submitted to the worker thread, whose
        completion callback (:meth:`_finish_group`) calls back in here for
        the groups behind it. So each group's ``engine`` span and
        service-time sample cover only its own call. With nothing left to
        run, a :meth:`stop` waiting for the in-flight work is released.
        """
        while self._groups:
            group, assembled = self._groups.popleft()
            kind = group[0].kind
            engine_spans: list[SpanRecord | None] = []  # None: no trace
            for request in group:
                trace = request.ctx.trace
                span = None
                if trace is not None:
                    # batch_assembly: batch taken -> this group's engine
                    # call started (grouping plus waiting out earlier
                    # groups).
                    trace.record("batch_assembly", assembled)
                    span = trace.begin(
                        "engine",
                        replica=self.name,
                        kind=kind,
                        batch=len(group),
                        engine=self.engine_name,
                    )
                engine_spans.append(span)
            self.stats.engine_calls += 1
            started = time.monotonic()
            if not self._runs_inline(group):
                self._engine_busy = True
                self._executor.submit(
                    self._work,
                    asyncio.get_running_loop(),
                    group,
                    engine_spans,
                    started,
                )
                return
            self.stats.inline_calls += 1
            self._finish_group(
                group, engine_spans, started, *self._call(group), worker=False
            )
        self._engine_busy = False
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)

    def _runs_inline(self, group: list[_Request]) -> bool:
        """True for a ``map`` group the mapper answers in one GIL-free
        native call whose reads total at most :data:`INLINE_MAP_BASES`.

        Such a call is shorter than the two thread handoffs it would
        cost on the worker; everything else — ``scan``, ``edit_distance``
        and ``align`` groups, staged or wrapped mappers, full batches,
        long reads — may take long enough that the loop must stay free.
        """
        return (
            group[0].kind == "map"
            and sum(len(r.payload[1]) for r in group) <= INLINE_MAP_BASES
            and self.mapper.maps_in_one_call()
        )

    def _call(
        self, group: list[_Request]
    ) -> tuple[
        list[Any], list[dict[str, Any]] | None, list[Exception | None], int
    ]:
        """One engine call for ``group``: results, shard timings, each
        request's exception (None beside an answer), engine calls made.

        After a ``ValueError`` (an input the engine rejects) each awaited
        request of a larger group reruns alone, so only its culprits fail;
        any other error fails the whole group, as a rerun would repeat it.
        """
        try:
            results, timings = self._run_group(
                group[0].kind, group[0].key, [r.payload for r in group]
            )
            return results, timings, [None] * len(group), 1
        except Exception as exc:  # noqa: BLE001 - forwarded to callers
            if len(group) == 1 or not isinstance(exc, ValueError):
                return [None] * len(group), None, [exc] * len(group), 1
            error = exc
        alone = [
            ([None], None, [error], 0)
            if request.future.done()
            else self._call([request])
            for request in group
        ]
        return (
            [results[0] for results, _, _, _ in alone],
            None,
            [failures[0] for _, _, failures, _ in alone],
            1 + sum(calls for _, _, _, calls in alone),
        )

    def _work(
        self,
        loop: asyncio.AbstractEventLoop,
        group: list[_Request],
        engine_spans: list[SpanRecord | None],
        started: float,
    ) -> None:
        """Worker thread: one engine call, its outcome posted to the loop."""
        loop.call_soon_threadsafe(
            self._finish_group, group, engine_spans, started, *self._call(group)
        )

    def _finish_group(
        self,
        group: list[_Request],
        engine_spans: list[SpanRecord | None],
        started: float,
        results: list[Any],
        timings: list[dict[str, Any]] | None,
        failures: list[Exception | None],
        calls: int,
        *,
        worker: bool = True,
    ) -> None:
        """Loop thread: close one finished call, start the next, resolve.

        A call that ran on the worker starts the groups behind it here;
        an inline one returns to the :meth:`_run_next_group` loop that
        called it, which starts them. Only a group answered in one call
        is a service-time sample.
        """
        if calls > 1:
            self.stats.engine_calls += calls - 1
        elif not any(failures):
            self._observe_service(time.monotonic() - started)
        for span, failure in zip(engine_spans, failures):
            if span is None:
                continue
            if failure is not None:
                finish_span(span, "error")
            elif timings is not None:
                finish_span(span, shards=timings)
            else:
                finish_span(span)
        if worker:
            # The worker starts on the next group while this one's
            # callers wake.
            self._run_next_group()
        for request, result, failure in zip(group, results, failures):
            if request.future.done():
                continue
            if failure is None:
                request.future.set_result(result)
            else:
                request.future.set_exception(failure)
        failed = len(group) - failures.count(None)
        self.stats.failed += failed
        self.stats.served += len(group) - failed

    def _observe_service(self, seconds: float) -> None:
        """Fold one engine call's wall time into the service-time EWMA."""
        if self._service_ewma is None:
            self._service_ewma = seconds
        else:
            self._service_ewma = (
                SERVICE_SMOOTHING * seconds
                + (1.0 - SERVICE_SMOOTHING) * self._service_ewma
            )

    # ------------------------------------------------------------------
    # Introspection payloads (shared surface with AlignmentCluster, so
    # the HTTP front mounts either without caring which it got)
    # ------------------------------------------------------------------
    def health_payload(self) -> dict[str, Any]:
        """Liveness/load fields for ``GET /healthz``."""
        return {
            "engine": self.engine_name,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "saturated": self.saturated,
        }

    def stats_payload(self) -> dict[str, Any]:
        """Serving counters and flush policy for ``GET /v1/stats``."""
        return {
            "engine": self.engine_name,
            "serving": self.stats.to_dict(),
            "flush": {
                "current_interval_ms": self.flush_interval * 1e3,
                "batch_size": self.batch_size,
            },
        }

    def collect_metrics(self) -> list[MetricFamily]:
        """Metric families for this server, read by ``GET /metrics``.

        The stored counters of :attr:`stats` plus queue occupancy, read at
        scrape time. Labeled with ``replica`` so cluster replicas land as
        distinct series in the same families.
        """
        families = self.stats.metric_families(replica=self.name)
        occupancy = metric_family("genasm_serving_pending_requests")
        occupancy.add(self.pending, state="queued", replica=self.name)
        occupancy.add(self.in_flight, state="in_flight", replica=self.name)
        families.append(occupancy)
        return families

    def _run_group(
        self, kind: str, key: tuple, payloads: list[Any]
    ) -> tuple[list[Any], list[dict[str, Any]] | None]:
        """Synchronous engine call for one homogeneous group (worker thread).

        Returns the results and the call's shard timings, popped on this
        thread so the next flush's call cannot replace them first.
        """
        if kind == "scan":
            k, first_match_only = key
            results = self.engine.scan_batch(
                payloads,
                k,
                alphabet=self.alphabet,
                first_match_only=first_match_only,
            )
        elif kind == "edit_distance":
            (k,) = key
            results = self.engine.edit_distance_batch(
                payloads, k, alphabet=self.alphabet
            )
        elif kind == "align":
            results = self._aligner.align_batch(payloads)
        elif kind == "map":
            results = self.mapper.map_reads(payloads)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        return results, self.engine.pop_shard_timings()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Drain the queue, wait for in-flight batches, reject new work."""
        if self._closed:
            return
        self._closed = True
        self._flush("final")
        if self._engine_busy:
            self._drained = asyncio.get_running_loop().create_future()
            await self._drained
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AlignmentServer":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

