"""Replicated serving: a health-aware router over N alignment servers.

GenASM gets its throughput from many independent ASM units working in
parallel; the serving-layer analogue is many :class:`AlignmentServer`
replicas — each with its *own* engine instance (its own thread pool,
eventually its own device) — behind one router.
:class:`AlignmentCluster` is that router. It exposes the same request
surface as a single server (``scan`` / ``edit_distance`` / ``align`` /
``map_read``), so the HTTP front and every other caller mounts a cluster
exactly like a server, and adds three things a single server cannot have:

**One dispatch rule.** Each request goes to the *eligible* replica with
the fewest requests in flight (join-the-shortest-queue); ties are broken
by a rotating cursor, so sequential requests to idle replicas alternate.

**Replica-aware load shedding.** A replica that is saturated (all
``max_pending`` slots taken), draining, stopped, or cooling down after
consecutive failures is simply *skipped* — the request goes elsewhere.
Only when **every** live replica is saturated does the cluster shed, and
the :class:`ClusterSaturatedError` it raises carries a ``retry_after``
computed from the replicas' observed flush windows and service-time EWMAs
(the soonest any replica expects to free capacity), not a constant.

**Failure containment.** A request whose replica raises is retried on a
different replica — engine calls are pure functions of their payload, so a
retry can never duplicate an effect, and every submitted request is
answered exactly once: with the first successful result, or with the last
error once no replica remains to try. A replica sits out a cooldown
(doubling per consecutive one) only when another replica then answers the
request it failed; an error every tried replica reproduces belongs to the
request and benches none. A replica can be drained mid-flight
(:meth:`AlignmentCluster.drain_replica`): it stops receiving new work
immediately, finishes what it holds, and its in-flight requests complete
normally.

Per-replica latency lands in mergeable log-bucket histograms
(:mod:`repro.serving.histogram`), so ``/v1/stats`` reports true
cluster-wide p50/p90/p99 as well as per-replica percentiles without any
sample buffers.

Membership is fixed at construction: replicas leave rotation only by
draining, and none are added later.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.engine.registry import create_engine
from repro.serving.observability import (
    EventRateLimiter,
    MetricFamily,
    StatsBlock,
    counted,
    finish_span,
    get_logger,
    log_event,
    metric_family,
)
from repro.serving.server import (
    NO_CONTEXT,
    AlignmentServer,
    DeadlineExceededError,
    RequestContext,
    ServerClosedError,
    ServingStats,
)

_LOGGER = get_logger("cluster")

#: Base seconds a replica sits out after failing a request another replica
#: then answered (doubled per consecutive cooldown, capped at 16x).
FAILURE_COOLDOWN = 0.25

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aligner import Alignment
    from repro.core.bitap import BitapMatch
    from repro.mapping.pipeline import MappingResult, ReadMapper


class ClusterSaturatedError(RuntimeError):
    """Every live replica is at capacity; retry after ``retry_after`` s.

    The HTTP front maps this to ``503`` with a ``Retry-After`` header
    carrying the hint.
    """

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class Replica(StatsBlock):
    """One :class:`AlignmentServer` behind the router, plus its telemetry.

    The router never looks inside the server; everything it needs for
    dispatch — queue depth, saturation, failure state — lives here or on
    the server's public surface.
    """

    dispatched = counted(
        "genasm_cluster_replica_requests_total", outcome="dispatched"
    )
    completed = counted(
        "genasm_cluster_replica_requests_total", outcome="completed"
    )
    failed = counted("genasm_cluster_replica_requests_total", outcome="failed")
    latency = counted("genasm_cluster_replica_latency_seconds")

    def __init__(self, name: str, server: AlignmentServer) -> None:
        super().__init__()
        self.name = name
        self.server = server
        if server.name == "server":
            # Spans and metric series from this server should carry the
            # replica name; an explicitly named server keeps its name.
            server.name = name
        self.consecutive_failures = 0
        self.cooldown_until = 0.0
        self.draining = False
        self.stopped = False

    @property
    def live(self) -> bool:
        """Whether this replica may still be offered new work at all."""
        return not self.draining and not self.stopped

    def eligible(self, now: float) -> bool:
        """Whether the router may dispatch to this replica right now."""
        return self.live and not self.server.saturated and now >= self.cooldown_until

    @property
    def state(self) -> str:
        """Human-readable state for health and stats payloads."""
        if self.stopped:
            return "stopped"
        if self.draining:
            return "draining"
        if time.monotonic() < self.cooldown_until:
            return "cooldown"
        if self.server.saturated:
            return "saturated"
        return "up"

    def record_success(self, seconds: float) -> None:
        self.completed += 1
        self.consecutive_failures = 0
        self.cooldown_until = 0.0
        self.latency.record(seconds)

    def cool_down(self, now: float) -> None:
        """Sit out after failing a request another replica then answered.

        The cooldown doubles per consecutive failure (capped at 16x), so a
        replica whose engine is throwing gets probed at a decaying rate
        instead of eating a retry from every request.
        """
        self.consecutive_failures += 1
        backoff = min(2 ** (self.consecutive_failures - 1), 16)
        self.cooldown_until = now + FAILURE_COOLDOWN * backoff

    def stats_payload(self) -> dict[str, Any]:
        """Per-replica block of the cluster's ``/v1/stats`` payload."""
        return {
            "name": self.name,
            "state": self.state,
            "engine": self.server.engine_name,
            "pending": self.server.pending,
            "in_flight": self.server.in_flight,
            "saturated": self.server.saturated,
            **self.to_dict(),
            "serving": self.server.stats.to_dict(),
        }


# ----------------------------------------------------------------------
# The cluster router
# ----------------------------------------------------------------------
def _build_server(
    engine: "str | None",
    mapper: "ReadMapper | None",
    server_kwargs: dict[str, Any],
) -> AlignmentServer:
    """One fresh replica server from the cluster's construction knobs."""
    if engine is None and mapper is not None:
        # Derive the engine from the mapper's spec, but still one fresh
        # instance per replica: a name (or None) must not collapse onto the
        # shared get_engine singleton across concurrently-flushing
        # replicas. An engine *instance* on the mapper passes through —
        # the caller already chose to share it, like the mapper itself.
        replica_engine: Any = create_engine(mapper.engine)
    else:
        replica_engine = create_engine(engine)
    # A private mapper per replica over the replica's private engine, so
    # map flushes from N worker threads never race on one mapper/engine;
    # the read-only genome and index are shared. A mapper with custom
    # callables comes back as itself and stays shared — build the servers
    # yourself for those.
    replica_mapper = (
        mapper.with_engine(replica_engine) if mapper is not None else None
    )
    return AlignmentServer(
        engine=replica_engine, mapper=replica_mapper, **server_kwargs
    )


class AlignmentCluster(StatsBlock):
    """Router fronting N :class:`AlignmentServer` replicas.

    Parameters
    ----------
    replicas:
        How many replicas to build (ignored when ``servers`` is given).
        Each gets a **fresh** engine instance via
        :func:`repro.engine.registry.create_engine`.
    servers:
        Pre-built servers to front instead — the one way to build unusual
        replicas (engine instances, heterogeneous backends, wrapped or
        test-double servers). The caller owns their configuration; every
        other construction knob is then rejected. Either every server has
        a mapper or none does.
    engine:
        Engine *name* (or None for the environment default) constructed
        fresh per replica. Pass instances only via ``servers`` — a shared
        instance defeats replication.
    mapper:
        A :class:`~repro.mapping.pipeline.ReadMapper` template for
        ``map_read`` requests, cloned per replica with
        :meth:`~repro.mapping.pipeline.ReadMapper.with_engine` over the
        replica's private engine (genome and index objects shared, engine
        state and stats not); mappers with custom callables cannot be
        cloned and stay shared across replicas.
    **server_kwargs:
        Forwarded to every built :class:`AlignmentServer`
        (``batch_size=``, ``flush_interval=``, ``max_pending=``, ...).

    A request may try every replica once; a replica that fails a request
    another one answers sits out :data:`FAILURE_COOLDOWN` seconds
    (doubled per consecutive cooldown, capped at 16x).

    The entry points take the server's optional ``ctx`` keyword (a
    :class:`~repro.serving.server.RequestContext`) and hand that one object
    to every replica call the request causes — first attempt or retry.
    When it carries a trace the router adds one ``attempt`` span per
    replica call.
    """

    shed = counted("genasm_cluster_events_total", kind="shed")
    retries = counted("genasm_cluster_events_total", kind="retry")

    def __init__(
        self,
        *,
        replicas: int = 2,
        servers: Sequence[AlignmentServer] | None = None,
        engine: "str | None" = None,
        mapper: "ReadMapper | None" = None,
        **server_kwargs: Any,
    ) -> None:
        super().__init__()
        if servers is not None:
            if engine is not None or mapper is not None:
                raise ValueError(
                    "pass either pre-built servers or construction knobs, "
                    "not both"
                )
            if server_kwargs:
                raise ValueError(
                    "server kwargs apply only when the cluster builds its "
                    "own replicas"
                )
            built = list(servers)
            if not built:
                raise ValueError("servers must be non-empty")
            if len({server.mapper is None for server in built}) > 1:
                # A mapper-less replica handed a map_read would fail it
                # for the request's routing, not for any fault of its own.
                raise ValueError("either every server has a mapper or none")
        else:
            if replicas < 1:
                raise ValueError("replicas must be at least 1")
            if engine is not None and not isinstance(engine, str):
                # One instance shared by N concurrently-flushing worker
                # threads is the exact hazard this class exists to
                # prevent; make it an immediate error, not a data race.
                raise ValueError(
                    "engine must be a backend name; pass servers built "
                    "over one instance each"
                )
            built = [
                _build_server(engine, mapper, server_kwargs)
                for _ in range(replicas)
            ]
        self._replicas = [
            Replica(f"replica-{index}", server)
            for index, server in enumerate(built)
        ]
        self._cursor = 0
        self._closed = False
        self._events = EventRateLimiter()

    # ------------------------------------------------------------------
    # Request entry points (mirror AlignmentServer)
    # ------------------------------------------------------------------
    async def scan(
        self,
        text: str,
        pattern: str,
        k: int,
        *,
        first_match_only: bool = False,
        ctx: RequestContext | None = None,
    ) -> "list[BitapMatch]":
        """Bitap-scan one (text, pattern) pair on some replica."""
        return await self._submit(
            "scan",
            (text, pattern, k),
            {"first_match_only": first_match_only},
            ctx,
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
        return await self._submit("edit_distance", (text, pattern, k), {}, ctx)

    async def align(
        self, text: str, pattern: str, *, ctx: RequestContext | None = None
    ) -> "Alignment":
        """Full GenASM alignment of one pair on some replica."""
        return await self._submit("align", (text, pattern), {}, ctx)

    async def map_read(
        self, name: str, read: str, *, ctx: RequestContext | None = None
    ) -> "MappingResult":
        """Map one read through some replica's attached mapper."""
        if self.mapper is None:
            raise RuntimeError(
                "map_read requires a cluster constructed with mapper=..."
            )
        return await self._submit("map_read", (name, read), {}, ctx)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _select(self, tried: set[int]) -> Replica | None:
        """Pick the next replica to try, or None when none can take work.

        Preference order: among fully eligible replicas, the one with the
        fewest requests in flight, ties broken by a rotating cursor;
        failing that, the cooling-down replica whose cooldown ends
        soonest (a half-open probe — shedding while unsaturated capacity
        exists, even suspect capacity, would be premature).
        """
        now = time.monotonic()
        untried = [r for r in self._replicas if id(r) not in tried]
        candidates = [r for r in untried if r.eligible(now)]
        if candidates:
            depth = min(r.server.in_flight for r in candidates)
            shortest = [r for r in candidates if r.server.in_flight == depth]
            choice = shortest[self._cursor % len(shortest)]
            self._cursor += 1
            return choice
        cooling = [r for r in untried if r.live and not r.server.saturated]
        if cooling:
            return min(cooling, key=lambda r: r.cooldown_until)
        return None

    async def _submit(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext | None,
    ) -> Any:
        if self._closed:
            raise ServerClosedError("cluster is stopped")
        if ctx is None:
            ctx = NO_CONTEXT
        # Every retry below is handed this one ``ctx``: same deadline,
        # same trace.
        return await self._attempt_chain(method, args, kwargs, ctx)

    async def _attempt(
        self,
        replica: Replica,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext,
    ) -> tuple[str, Any]:
        """One call of one replica: ``(outcome, result or exception)``.

        The only place a replica call is made, timed, classified and
        booked; what to *do* about the outcome is the caller's policy.
        It also closes the call's ``attempt`` span, so a retried request
        shows its full replica itinerary. Cancellation closes the span and
        propagates.
        """
        replica.dispatched += 1
        span = None
        if ctx.trace is not None:
            span = ctx.trace.begin(
                "attempt", replica=replica.name, method=method
            )
        started = time.monotonic()
        try:
            # Through the replica server's public method, by name: that
            # is the seam proxies handed in via ``servers=`` wrap.
            value = await getattr(replica.server, method)(
                *args, **kwargs, ctx=ctx
            )
        except asyncio.CancelledError:
            if span is not None:
                finish_span(span, "cancelled")
            raise
        except ServerClosedError as exc:
            # Raced a drain/stop of that server: it never accepted the
            # request, so trying elsewhere cannot duplicate anything.
            outcome, value = "rerouted", exc
            replica.stopped = True
        except ValueError as exc:
            # Input rejections (bad symbols, negative k, ...) are the
            # *request's* fault: every replica would refuse it the same
            # way, and cooling this one for a poison request is wrong.
            outcome, value = "rejected", exc
        except DeadlineExceededError as exc:
            # The request ran out of *its own* time budget while queued
            # — the replica did nothing wrong, and a retry would arrive
            # even later.
            outcome, value = "expired", exc
        except Exception as exc:  # noqa: BLE001 - judged by the chain
            outcome, value = "failed", exc
            replica.failed += 1
        else:
            outcome = "ok"
            replica.record_success(time.monotonic() - started)
        if span is not None:
            finish_span(span, outcome)
        return outcome, value

    async def _attempt_chain(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext,
    ) -> Any:
        """The retry loop: try replicas until one answers or none remain."""
        tried: set[int] = set()
        failed: list[Replica] = []
        error: Exception | None = None
        replica = self._select(tried)
        while replica is not None:
            outcome, value = await self._attempt(
                replica, method, args, kwargs, ctx
            )
            if outcome == "ok":
                # Another replica answered what these failed, so the
                # fault was theirs, not the request's: they cool down.
                now = time.monotonic()
                for culprit in failed:
                    culprit.cool_down(now)
                return value
            if outcome in ("rejected", "expired"):
                # The request's own doing: surface it untouched — no
                # retry burned.
                raise value
            # This replica could not answer (it was stopping, or its
            # engine threw); another may still. Engine calls are pure
            # functions of the payload, so a retry still answers the
            # request exactly once.
            tried.add(id(replica))
            if outcome == "failed":
                failed.append(replica)
                error = value
            replica = self._select(tried)
            if replica is not None:
                self.retries += 1
        if error is not None:
            # Every replica tried failed it: like a rejection, the error
            # belongs to the request and benches no replica.
            raise error
        live = [r for r in self._replicas if r.live]
        if not live:
            raise ServerClosedError("every replica is draining or stopped")
        self.shed += 1
        log_event(
            _LOGGER,
            "cluster.shed",
            level=logging.WARNING,
            trace_id=ctx.trace.trace_id if ctx.trace is not None else None,
            limiter=self._events,
            live_replicas=len(live),
            retry_after=self.suggested_retry_after(),
        )
        raise ClusterSaturatedError(
            f"all {len(live)} replicas are at capacity",
            retry_after=self.suggested_retry_after(),
        )

    # ------------------------------------------------------------------
    # Capacity and lifecycle
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> Sequence[Replica]:
        """The replicas behind the router (read-only view)."""
        return tuple(self._replicas)

    @property
    def pending(self) -> int:
        """Requests queued (not yet flushed) across all replicas."""
        return sum(r.server.pending for r in self._replicas)

    @property
    def in_flight(self) -> int:
        """Requests holding a slot on any replica."""
        return sum(r.server.in_flight for r in self._replicas)

    @property
    def max_pending(self) -> int:
        """Total pending slots across live replicas."""
        return sum(r.server.max_pending for r in self._replicas if r.live)

    @property
    def saturated(self) -> bool:
        """True when no live replica has a free slot — shed, don't queue."""
        live = [r for r in self._replicas if r.live]
        return all(r.server.saturated for r in live) if live else True

    @property
    def engine_name(self) -> str:
        """Composite backend name, e.g. ``cluster(2x pure)``."""
        names = [r.server.engine_name for r in self._replicas]
        if len(set(names)) == 1:
            return f"cluster({len(names)}x {names[0]})"
        return f"cluster({', '.join(names)})"

    @property
    def mapper(self) -> "ReadMapper | None":
        """A mapper capable of serving ``map_read`` right now.

        Every replica has a mapper or none does, but only *live* ones
        count: once every replica is drained, ``map_read`` is unservable
        and callers (the HTTP front's ``/v1/map`` pre-check) should see
        that as "no mapper", not queue behind capacity that cannot help.
        """
        for replica in self._replicas:
            if replica.live and replica.server.mapper is not None:
                return replica.server.mapper
        return None

    @property
    def stats(self) -> ServingStats:
        """Replica serving stats merged into one (histograms pooled)."""
        merged = ServingStats()
        for replica in self._replicas:
            merged.merge(replica.server.stats)
        return merged

    def suggested_retry_after(self) -> float:
        """Soonest any live replica expects to free capacity, seconds."""
        live = [r for r in self._replicas if r.live]
        if not live:
            return 1.0
        return min(r.server.suggested_retry_after() for r in live)

    def health_payload(self) -> dict[str, Any]:
        """Liveness/load fields for ``GET /healthz``."""
        return {
            "engine": self.engine_name,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "saturated": self.saturated,
            "replicas": [
                {
                    "name": r.name,
                    "state": r.state,
                    "in_flight": r.server.in_flight,
                    "saturated": r.server.saturated,
                }
                for r in self._replicas
            ],
        }

    def stats_payload(self) -> dict[str, Any]:
        """Cluster-wide and per-replica blocks for ``GET /v1/stats``."""
        return {
            "engine": self.engine_name,
            "cluster": {
                "replicas": len(self._replicas),
                "live": sum(1 for r in self._replicas if r.live),
                **self.to_dict(),
                # Always 0: the router never hedges; the benchmark reads it.
                "hedges": 0,
            },
            "serving": self.stats.to_dict(),
            "replicas": [r.stats_payload() for r in self._replicas],
        }

    def _resolve(self, which: int | str) -> Replica:
        """The replica at index ``which`` or named ``which`` (else KeyError)."""
        if isinstance(which, int):
            if 0 <= which < len(self._replicas):
                return self._replicas[which]
            raise KeyError(f"no replica at index {which!r}")
        for replica in self._replicas:
            if replica.name == which:
                return replica
        raise KeyError(f"no replica named {which!r}")

    async def drain_replica(self, which: int | str) -> None:
        """Take one replica out of rotation and drain it cleanly.

        New requests stop routing to it immediately; whatever it holds is
        flushed and answered; then its server (and private engine) shuts
        down. Idempotent.
        """
        replica = self._resolve(which)
        replica.draining = True
        await replica.server.stop()
        replica.stopped = True

    def collect_metrics(self) -> list[MetricFamily]:
        """Metric families for the cluster, read by ``GET /metrics``."""
        membership = metric_family("genasm_cluster_replicas")
        membership.add(len(self._replicas), state="total")
        membership.add(
            sum(1 for r in self._replicas if r.live), state="live"
        )
        families = [membership, *self.metric_families()]
        for replica in self._replicas:
            families.extend(replica.metric_families(replica=replica.name))
            families.extend(replica.server.collect_metrics())
        return families

    async def stop(self) -> None:
        """Drain every replica concurrently; reject later submissions."""
        if self._closed:
            return
        self._closed = True
        for replica in self._replicas:
            replica.draining = True
        await asyncio.gather(*(r.server.stop() for r in self._replicas))
        for replica in self._replicas:
            replica.stopped = True

    async def __aenter__(self) -> "AlignmentCluster":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()
