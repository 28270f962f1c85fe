"""Replicated serving: a health-aware router over N alignment servers.

GenASM gets its throughput from many independent ASM units working in
parallel; the serving-layer analogue is many :class:`AlignmentServer`
replicas — each with its *own* engine instance (its own thread pool,
eventually its own device) — behind one router.
:class:`AlignmentCluster` is that router. It exposes the same request
surface as a single server (``scan`` / ``edit_distance`` / ``align`` /
``map_read``), so the HTTP front and every other caller mounts a cluster
exactly like a server, and adds three things a single server cannot have:

**Pluggable dispatch.** A :class:`RoutingPolicy` picks the replica for
each request from the currently *eligible* ones: ``round_robin`` (fair,
oblivious), ``least_in_flight`` (join-the-shortest-queue), and
``latency_ewma`` (each replica scored by its smoothed observed latency,
scaled by its queue depth — a degraded replica prices itself out of
rotation within a few requests) — plus the cache-affine
``consistent_hash``. :func:`make_policy` resolves a policy by name.

**Replica-aware load shedding.** A replica that is saturated (all
``max_pending`` slots taken), draining, stopped, or cooling down after
consecutive failures is simply *skipped* — the request goes elsewhere.
Only when **every** live replica is saturated does the cluster shed, and
the :class:`ClusterSaturatedError` it raises carries a ``retry_after``
computed from the replicas' observed flush windows and service-time EWMAs
(the soonest any replica expects to free capacity), not a constant.

**Failure containment.** An engine exception marks the replica as failing
(exponential cooldown after consecutive failures) and the request is
retried on a different replica — engine calls are pure functions of their
payload, so a retry can never duplicate an effect, and every submitted
request is answered exactly once: with the first successful result, or
with the last error once no replica remains to try. A replica can be
drained mid-flight (:meth:`AlignmentCluster.drain_replica`): it stops
receiving new work immediately, finishes what it holds, and its in-flight
requests complete normally.

Per-replica latency lands in mergeable log-bucket histograms
(:mod:`repro.serving.histogram`), so ``/v1/stats`` reports true
cluster-wide p50/p90/p99 as well as per-replica percentiles without any
sample buffers.

Membership is fixed at construction: replicas leave rotation only by
draining, and none are added later. ``hedge=True`` duplicates a request
stuck past the p99-derived :meth:`hedge_delay` onto a second replica and
answers with whichever lands first (the loser's queued entry is
cancelled before its engine sees it — "tied requests" from the
tail-at-scale playbook). The ``consistent_hash`` policy routes by
request content digest so each replica's private result cache
(``cache=True``) holds a disjoint arc of the key space.
"""

from __future__ import annotations

import asyncio
import logging
import time
from abc import ABC, abstractmethod
from bisect import bisect_left
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Sequence

from repro.engine.registry import create_engine
from repro.serving.cache import CacheStats, request_digest
from repro.serving.observability import (
    EventRateLimiter,
    MetricFamily,
    StatsBlock,
    counted,
    get_logger,
    log_event,
    metric_family,
)
from repro.serving.qos import NO_CONTEXT, DeadlineExceededError, RequestContext
from repro.serving.server import AlignmentServer, ServerClosedError, ServingStats

_LOGGER = get_logger("cluster")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aligner import Alignment
    from repro.core.bitap import BitapMatch
    from repro.engine.registry import AlignmentEngine
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
    dispatch — queue depth, saturation, smoothed latency, failure state —
    lives here or on the server's public surface.
    """

    dispatched = counted(
        "genasm_cluster_replica_requests_total", outcome="dispatched"
    )
    completed = counted(
        "genasm_cluster_replica_requests_total", outcome="completed"
    )
    failed = counted("genasm_cluster_replica_requests_total", outcome="failed")
    latency = counted("genasm_cluster_replica_latency_seconds")

    def __init__(
        self,
        name: str,
        server: AlignmentServer,
        *,
        latency_smoothing: float = 0.25,
        failure_cooldown: float = 0.25,
    ) -> None:
        super().__init__()
        self.name = name
        self.server = server
        if server.name == "server":
            # Spans and metric series from this server should carry the
            # replica name; an explicitly named server keeps its name.
            server.name = name
        self.ewma_latency: float | None = None
        self.latency_smoothing = latency_smoothing
        self.failure_cooldown = failure_cooldown
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
        if self.ewma_latency is None:
            self.ewma_latency = seconds
        else:
            alpha = self.latency_smoothing
            self.ewma_latency = alpha * seconds + (1.0 - alpha) * self.ewma_latency

    def record_failure(self, now: float) -> None:
        """Count one engine failure and back off exponentially.

        The cooldown doubles per consecutive failure (capped at 16x), so a
        replica whose engine is throwing gets probed at a decaying rate
        instead of eating a retry from every request.
        """
        self.failed += 1
        self.consecutive_failures += 1
        backoff = min(2 ** (self.consecutive_failures - 1), 16)
        self.cooldown_until = now + self.failure_cooldown * backoff

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
# Routing policies
# ----------------------------------------------------------------------
class RoutingPolicy(ABC):
    """Picks one replica from the eligible candidates for each request."""

    #: The name :func:`make_policy` resolves; subclasses must override.
    name: ClassVar[str] = "abstract"

    #: Whether the router should compute a per-request content key and
    #: dispatch through :meth:`select_keyed`. Key computation hashes the
    #: full payload, so it is skipped for the policies that ignore it.
    needs_key: ClassVar[bool] = False

    @abstractmethod
    def select(self, candidates: Sequence[Replica]) -> Replica:
        """Choose from ``candidates`` (never empty, all eligible)."""

    def select_keyed(
        self, candidates: Sequence[Replica], key: str | None
    ) -> Replica:
        """Key-aware dispatch hook; the default ignores the key.

        Key-affine policies (``consistent_hash``) override this; every
        load-based policy inherits the key-oblivious :meth:`select`.
        """
        del key
        return self.select(candidates)


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the eligible replicas in order — fair and oblivious."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, candidates: Sequence[Replica]) -> Replica:
        choice = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return choice


class LeastInFlightPolicy(RoundRobinPolicy):
    """Join the shortest queue; ties broken round-robin."""

    name = "least_in_flight"

    def select(self, candidates: Sequence[Replica]) -> Replica:
        depth = min(c.server.in_flight for c in candidates)
        shortest = [c for c in candidates if c.server.in_flight == depth]
        return super().select(shortest)


class LatencyEwmaPolicy(RoundRobinPolicy):
    """Score replicas by smoothed latency scaled by queue depth.

    A replica's expected cost is roughly its per-request latency times the
    work already ahead of a new arrival, so the score is
    ``ewma_latency * (1 + in_flight)``. Replicas with no observations yet
    score zero — optimistically cheap — so every replica gets probed and
    earns a real EWMA; a degraded replica's score then keeps it out of
    rotation until the others grow queues long enough to make it the
    cheaper option again.
    """

    name = "latency_ewma"

    def select(self, candidates: Sequence[Replica]) -> Replica:
        def score(replica: Replica) -> float:
            if replica.ewma_latency is None:
                return 0.0
            return replica.ewma_latency * (1 + replica.server.in_flight)

        best = min(score(c) for c in candidates)
        cheapest = [c for c in candidates if score(c) == best]
        return super().select(cheapest)


class ConsistentHashPolicy(RoutingPolicy):
    """Route each request by its content digest on a consistent-hash ring.

    Every replica owns ``vnodes`` pseudo-random points on a 64-bit ring;
    a request's digest hashes to a ring position and is served by the
    replica owning the next point clockwise. Two properties make this
    the natural partner of the per-replica result cache:

    * **Affinity** — equal request content always lands on the same
      replica (while the eligible set is stable), so a cached key's
      entry lives on exactly one replica and the cluster's aggregate
      cache behaves like one cache of N times the budget instead of N
      copies of the same hot keys.
    * **Minimal rebalance** — when a replica drains (or saturates out of
      the candidate set), only the keys on *its* arcs remap; every other
      key keeps its replica and its warm cache entries. A modulo hash
      would reshuffle nearly everything on every membership change.

    Keyless selections (a policy user outside the router) fall back to
    round-robin.
    """

    name = "consistent_hash"
    needs_key = True

    #: Ring points per replica: enough that each replica's share of the
    #: key space concentrates near 1/N (vnode count evens out the arcs).
    DEFAULT_VNODES = 64

    def __init__(self, *, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.vnodes = vnodes
        self._cursor = 0
        # Ring cache, rebuilt only when the candidate name set changes.
        self._ring_names: frozenset[str] = frozenset()
        self._points: list[int] = []
        self._owners: list[str] = []

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(
            blake2b(data.encode(), digest_size=8).digest(), "big"
        )

    def _rebuild(self, names: frozenset[str]) -> None:
        ring = sorted(
            (self._hash(f"{name}#{vnode}"), name)
            for name in names
            for vnode in range(self.vnodes)
        )
        self._points = [point for point, _ in ring]
        self._owners = [name for _, name in ring]
        self._ring_names = names

    def select(self, candidates: Sequence[Replica]) -> Replica:
        choice = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return choice

    def select_keyed(
        self, candidates: Sequence[Replica], key: str | None
    ) -> Replica:
        if key is None:
            return self.select(candidates)
        by_name = {candidate.name: candidate for candidate in candidates}
        names = frozenset(by_name)
        if names != self._ring_names:
            self._rebuild(names)
        index = bisect_left(self._points, self._hash(key))
        if index == len(self._points):
            index = 0  # wrap: past the last point is the first point
        return by_name[self._owners[index]]


_POLICIES: dict[str, type[RoutingPolicy]] = {
    cls.name: cls
    for cls in (
        RoundRobinPolicy,
        LeastInFlightPolicy,
        LatencyEwmaPolicy,
        ConsistentHashPolicy,
    )
}


def make_policy(spec: RoutingPolicy | str) -> RoutingPolicy:
    """Resolve ``spec`` to a policy instance (name or ready instance)."""
    if isinstance(spec, RoutingPolicy):
        return spec
    policy_cls = _POLICIES.get(spec)
    if policy_cls is None:
        raise ValueError(
            f"unknown routing policy {spec!r}; "
            f"registered: {sorted(_POLICIES)}"
        )
    return policy_cls()


# ----------------------------------------------------------------------
# The cluster router
# ----------------------------------------------------------------------
def _build_server(
    index: int,
    *,
    engine: "str | None",
    engine_factory: "Callable[[int], AlignmentEngine] | None",
    mapper: "ReadMapper | None",
    mapper_factory: "Callable[[int], ReadMapper] | None",
    server_kwargs: dict[str, Any],
) -> AlignmentServer:
    """One fresh replica server from the cluster's construction knobs."""
    if engine_factory is not None:
        replica_engine: Any = engine_factory(index)
    elif engine is None and mapper is not None:
        # Derive the engine from the mapper's spec, but still one
        # fresh instance per replica: a name (or None) must not
        # collapse onto the shared get_engine singleton across
        # concurrently-flushing replicas. An engine *instance* on
        # the mapper passes through — the caller already chose to
        # share it, like the mapper itself.
        replica_engine = create_engine(mapper.engine)
    else:
        replica_engine = create_engine(engine)
    if mapper_factory is not None:
        replica_mapper = mapper_factory(index)
    elif mapper is not None:
        # A private mapper per replica over the replica's private
        # engine, so map flushes from N worker threads never race on
        # one mapper/engine; the read-only genome and index are
        # shared. A mapper with custom callables comes back as itself
        # and stays shared — prefer mapper_factory for those.
        replica_mapper = mapper.with_engine(replica_engine)
    else:
        replica_mapper = None
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
        Pre-built servers to front instead — the caller owns their
        configuration; every other construction knob is then rejected.
    engine:
        Engine *name* (or None for the environment default) constructed
        fresh per replica. Pass an instance only via ``engine_factory``
        or ``servers`` — a shared instance defeats replication.
    engine_factory:
        ``f(replica_index) -> engine`` for heterogeneous replicas (e.g.
        one sharded + one batched, or injected test doubles).
    mapper / mapper_factory:
        A :class:`~repro.mapping.pipeline.ReadMapper` template for
        ``map_read`` requests, or a per-replica factory. A template
        mapper is cloned per replica with
        :meth:`~repro.mapping.pipeline.ReadMapper.with_engine` over the
        replica's private engine (genome and index objects shared, engine
        state and stats not); mappers with custom callables cannot be
        cloned and stay shared across replicas — use ``mapper_factory``
        for those.
    policy:
        Routing policy name or instance (default ``least_in_flight``).
        ``consistent_hash`` routes by request content so each key's
        cache entry is replica-affine.
    failure_cooldown:
        Base seconds a replica sits out after an engine failure (doubled
        per consecutive failure, capped at 16x).
    max_attempts:
        Replicas tried per request before giving up (default: all).
    hedge:
        Duplicate a request that has been in flight longer than the
        p99-derived :meth:`hedge_delay` onto a second replica and answer
        with whichever result lands first (the loser is cancelled, its
        queued work dropped before the engine sees it). Tames the tail a
        slow replica inflicts at the cost of a small amount of duplicate
        work on the slowest ~1% of requests.
    hedge_quantile:
        Latency quantile deriving the hedge delay (default 0.99: only
        the slowest ~1% of requests hedge once histograms are warm).
    min_hedge_delay, max_hedge_delay:
        Clamp bounds (seconds) for :meth:`hedge_delay`; the max is also
        the delay used before any latency has been observed.
    **server_kwargs:
        Forwarded to every built :class:`AlignmentServer`
        (``batch_size=``, ``flush_interval=``, ``max_pending=``,
        ``cache=``, ``adaptive_flush=``, ...). ``cache=True`` gives each
        replica a *private* content-addressed result cache — pair it
        with ``policy="consistent_hash"`` so every key is cached on
        exactly one replica.

    The entry points take the server's optional ``ctx`` keyword (a
    :class:`~repro.serving.qos.RequestContext`) and hand that one object
    to every replica call the request causes — first attempt, retry or
    hedge duplicate. When it carries a trace the router adds its own
    spans: one ``attempt`` per replica call, and ``hedge_wait``.
    """

    shed = counted("genasm_cluster_events_total", kind="shed")
    retries = counted("genasm_cluster_events_total", kind="retry")
    hedges = counted("genasm_cluster_events_total", kind="hedge")
    hedge_wins = counted("genasm_cluster_events_total", kind="hedge_win")

    def __init__(
        self,
        *,
        replicas: int = 2,
        servers: Sequence[AlignmentServer] | None = None,
        engine: "str | None" = None,
        engine_factory: "Callable[[int], AlignmentEngine] | None" = None,
        mapper: "ReadMapper | None" = None,
        mapper_factory: "Callable[[int], ReadMapper] | None" = None,
        policy: RoutingPolicy | str = "least_in_flight",
        failure_cooldown: float = 0.25,
        max_attempts: int | None = None,
        hedge: bool = False,
        hedge_quantile: float = 0.99,
        min_hedge_delay: float = 0.001,
        max_hedge_delay: float = 1.0,
        **server_kwargs: Any,
    ) -> None:
        super().__init__()
        if not 0.0 < hedge_quantile <= 1.0:
            raise ValueError("hedge_quantile must be in (0, 1]")
        if min_hedge_delay < 0:
            raise ValueError("min_hedge_delay must be non-negative")
        if max_hedge_delay < min_hedge_delay:
            raise ValueError(
                "max_hedge_delay must be at least min_hedge_delay"
            )
        if servers is not None:
            if engine is not None or engine_factory or mapper or mapper_factory:
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
        else:
            if replicas < 1:
                raise ValueError("replicas must be at least 1")
            if engine is not None and engine_factory is not None:
                raise ValueError("pass engine or engine_factory, not both")
            if engine is not None and not isinstance(engine, str):
                # One instance shared by N concurrently-flushing worker
                # threads is the exact hazard this class exists to
                # prevent; make it an immediate error, not a data race.
                raise ValueError(
                    "engine must be a backend name; pass instances via "
                    "engine_factory (one per replica) or servers"
                )
            built = [
                _build_server(
                    index,
                    engine=engine,
                    engine_factory=engine_factory,
                    mapper=mapper,
                    mapper_factory=mapper_factory,
                    server_kwargs=server_kwargs,
                )
                for index in range(replicas)
            ]
        self._replicas = [
            Replica(
                f"replica-{index}",
                server,
                failure_cooldown=failure_cooldown,
            )
            for index, server in enumerate(built)
        ]
        self._policy = make_policy(policy)
        self.max_attempts = max_attempts
        self.hedge = hedge
        self.hedge_quantile = hedge_quantile
        self.min_hedge_delay = min_hedge_delay
        self.max_hedge_delay = max_hedge_delay
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
    def _select(
        self,
        tried: set[int],
        *,
        require_mapper: bool = False,
        key: str | None = None,
    ) -> Replica | None:
        """Pick the next replica to try, or None when none can take work.

        Preference order: policy choice among fully eligible replicas;
        failing that, the cooling-down replica whose cooldown ends
        soonest (a half-open probe — shedding while unsaturated capacity
        exists, even suspect capacity, would be premature).
        ``require_mapper`` restricts the pool to replicas that can serve
        ``map_read`` at all — a mapper-less replica answering one with a
        RuntimeError is a routing mistake, not a replica failure.
        ``key`` is the request's content digest for key-affine policies.
        """
        now = time.monotonic()

        def routable(replica: Replica) -> bool:
            if id(replica) in tried:
                return False
            return not require_mapper or replica.server.mapper is not None

        candidates = [
            r for r in self._replicas if routable(r) and r.eligible(now)
        ]
        if candidates:
            return self._policy.select_keyed(candidates, key)
        cooling = [
            r
            for r in self._replicas
            if routable(r) and r.live and not r.server.saturated
        ]
        if cooling:
            return min(cooling, key=lambda r: r.cooldown_until)
        return None

    def _routing_key(self, method: str, args: tuple, kwargs: dict) -> str | None:
        """Content digest for key-affine policies (None when unused)."""
        if not self._policy.needs_key:
            return None
        return request_digest(method, args, tuple(sorted(kwargs.items())))

    def hedge_delay(self) -> float:
        """Seconds an in-flight request waits before being hedged.

        Derived from the ``hedge_quantile`` (default p99) of per-replica
        latency — but the **minimum** across replicas, not the merged
        quantile: the merged histogram is poisoned by exactly the slow
        replica hedging exists to escape, while the fastest replica's
        p99 answers the question that matters — "could some replica have
        answered by now?". Clamped to the configured bounds; before any
        latency is observed the max bound applies (hedge rarely until
        the histograms know better).
        """
        per_replica = [
            quantile
            for replica in self._replicas
            if replica.live
            for quantile in (replica.latency.quantile(self.hedge_quantile),)
            if quantile is not None
        ]
        if not per_replica:
            return self.max_hedge_delay
        return min(
            self.max_hedge_delay, max(self.min_hedge_delay, min(per_replica))
        )

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
        # The routing key is computed from content only: tenancy and
        # deadline are request *metadata*, and folding them in would
        # scatter identical payloads across consistent-hash arcs (and
        # their replica-affine cache entries) per caller.
        key = self._routing_key(method, args, kwargs)
        # Every retry and hedge attempt below is handed this one ``ctx``.
        # Admission was already charged (once) at the network front, so
        # none of them can double-charge the tenant's bucket.
        used: set[int] = set()
        if not self.hedge or len(self._replicas) < 2:
            return await self._attempt_chain(method, args, kwargs, ctx, key, used)
        return await self._submit_hedged(method, args, kwargs, ctx, key, used)

    async def _attempt(
        self,
        replica: Replica,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext,
        *,
        hedge: bool,
    ) -> tuple[str, Any]:
        """One call of one replica: ``(outcome, result or exception)``.

        The only place a replica call is made, timed, classified and
        booked; what to *do* about the outcome is the caller's policy.
        It also closes the call's ``attempt`` span (``hedge=True`` on a
        duplicate), so a retried or hedged request shows its full replica
        itinerary. Cancellation closes the span and propagates.
        """
        replica.dispatched += 1
        span = None
        if ctx.trace is not None:
            attrs = {"hedge": True} if hedge else {}
            span = ctx.trace.begin(
                "attempt", replica=replica.name, method=method, **attrs
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
                span.finish("cancelled")
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
        except Exception as exc:  # noqa: BLE001 - judged per replica
            outcome, value = "failed", exc
            replica.record_failure(time.monotonic())
        else:
            outcome = "ok"
            replica.record_success(time.monotonic() - started)
        if span is not None:
            span.finish(outcome)
        return outcome, value

    async def _attempt_chain(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext,
        key: str | None,
        used: set[int],
    ) -> Any:
        """The retry loop: try replicas until one answers or none remain.

        Every replica actually dispatched to is recorded in ``used`` so
        a concurrent hedge can aim elsewhere.
        """
        tried: set[int] = set()
        budget = (
            self.max_attempts
            if self.max_attempts is not None
            else len(self._replicas)
        )
        last_error: Exception | None = None
        require_mapper = method == "map_read"
        while budget > 0:
            replica = self._select(
                tried, require_mapper=require_mapper, key=key
            )
            if replica is None:
                break
            budget -= 1
            used.add(id(replica))
            outcome, value = await self._attempt(
                replica, method, args, kwargs, ctx, hedge=False
            )
            if outcome == "ok":
                return value
            if outcome in ("rejected", "expired"):
                # The request's own doing: surface it untouched — no
                # retry burned.
                raise value
            # This replica could not answer (it was stopping, or its
            # engine threw); another still can.
            tried.add(id(replica))
            if outcome == "failed":
                # Engine calls are pure functions of the payload; the
                # failed replica produced no result, so a retry on a
                # different replica still answers the request exactly once.
                last_error = value
                if (
                    self._select(
                        tried, require_mapper=require_mapper, key=key
                    )
                    is None
                ):
                    raise value
            self.retries += 1
        if last_error is not None:
            raise last_error
        live = [r for r in self._replicas if r.live]
        if not live:
            raise ServerClosedError("every replica is draining or stopped")
        if require_mapper and not any(
            r.server.mapper is not None for r in live
        ):
            # Terminal, not retryable: no amount of waiting gives a
            # mapper-less replica a mapper. A 503 here would have
            # clients Retry-After forever.
            raise RuntimeError(
                "no live replica has a mapper to serve map_read"
            )
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

    async def _submit_hedged(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext,
        key: str | None,
        used: set[int],
    ) -> Any:
        """Primary attempt plus a delayed duplicate; first answer wins.

        The primary retry chain is authoritative: the hedge never
        surfaces an error and never burns the primary's retries. The
        losing side is cancelled — its queued entry is dropped before
        its server flushes it, and a result that raced past cancellation
        is discarded, so no request is ever answered twice.
        """
        trace = ctx.trace
        primary = asyncio.ensure_future(
            self._attempt_chain(method, args, kwargs, ctx, key, used)
        )
        try:
            done, _ = await asyncio.wait({primary}, timeout=self.hedge_delay())
            if done:
                return primary.result()
            # hedge_wait: the window between firing the duplicate and
            # the race being decided — the cost the tail paid for a
            # second chance.
            hedge_span = (
                trace.begin("hedge_wait", method=method)
                if trace is not None
                else None
            )
            log_event(
                _LOGGER,
                "cluster.hedge",
                trace_id=trace.trace_id if trace is not None else None,
                limiter=self._events,
                method=method,
                delay=self.hedge_delay(),
            )
            hedge = asyncio.ensure_future(
                self._hedge_once(method, args, kwargs, ctx, key, set(used))
            )
        except asyncio.CancelledError:
            await self._reap(primary)
            raise
        try:
            await asyncio.wait(
                {primary, hedge}, return_when=asyncio.FIRST_COMPLETED
            )
            if primary.done():
                # Primary is authoritative whenever it has finished —
                # even if the hedge finished in the same event-loop step.
                await self._reap(hedge)
                if hedge_span is not None:
                    hedge_span.finish("primary_won")
                return primary.result()
            hedge_won, result = await hedge
            if hedge_won:
                self.hedge_wins += 1
                await self._reap(primary)
                if hedge_span is not None:
                    hedge_span.finish("hedge_won")
                return result
            # The hedge could not help (no spare replica, or it failed);
            # the primary remains the request's one answer.
            if hedge_span is not None:
                hedge_span.finish("hedge_lost")
            return await primary
        except asyncio.CancelledError:
            await self._reap(primary)
            await self._reap(hedge)
            if hedge_span is not None:
                hedge_span.finish("cancelled")
            raise

    async def _hedge_once(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        ctx: RequestContext,
        key: str | None,
        avoid: set[int],
    ) -> tuple[bool, Any]:
        """One duplicate attempt on a replica the primary has not used.

        Returns ``(True, result)`` on success, ``(False, None)`` when no
        spare replica exists or the spare did not answer — never an
        exception (short of cancellation), so a doomed hedge cannot
        preempt the primary's real answer or error. When the primary
        wins, the reap cancels this task and the duplicate's span closes
        ``cancelled`` — the loser stays visible in the breakdown.
        """
        replica = self._select(
            avoid, require_mapper=method == "map_read", key=key
        )
        if replica is None:
            return False, None
        self.hedges += 1
        outcome, value = await self._attempt(
            replica, method, args, kwargs, ctx, hedge=True
        )
        return (True, value) if outcome == "ok" else (False, None)

    @staticmethod
    async def _reap(task: "asyncio.Task[Any]") -> None:
        """Cancel (if still running) and silence one raced sibling task.

        The loser of a hedge race must be awaited — an abandoned task
        would leak "exception was never retrieved" noise — but whatever
        it produced is discarded: exactly one answer surfaces.
        """
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        except Exception:  # noqa: BLE001 - loser's outcome is discarded
            pass

    # ------------------------------------------------------------------
    # Capacity and lifecycle
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> Sequence[Replica]:
        """The replicas behind the router (read-only view)."""
        return tuple(self._replicas)

    @property
    def policy(self) -> RoutingPolicy:
        """The routing policy instance in use."""
        return self._policy

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

        Only *live* replicas count: once every mapper-bearing replica is
        drained, ``map_read`` is unservable and callers (the HTTP front's
        ``/v1/map`` pre-check) should see that as "no mapper", not queue
        behind capacity that cannot help.
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

    @property
    def cache_stats(self) -> "CacheStats | None":
        """Replica cache counters summed cluster-wide (None if uncached)."""
        merged: CacheStats | None = None
        for replica in self._replicas:
            cache = replica.server.cache
            if cache is None:
                continue
            if merged is None:
                merged = CacheStats()
            merged.merge(cache.stats)
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
        payload: dict[str, Any] = {
            "engine": self.engine_name,
            "cluster": {
                "policy": self._policy.name,
                "replicas": len(self._replicas),
                "live": sum(1 for r in self._replicas if r.live),
                **self.to_dict(),
            },
            "serving": self.stats.to_dict(),
            "replicas": [r.stats_payload() for r in self._replicas],
        }
        if self.hedge:
            payload["hedging"] = {
                "enabled": True,
                "quantile": self.hedge_quantile,
                "delay_ms": self.hedge_delay() * 1000.0,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
            }
        cache_stats = self.cache_stats
        if cache_stats is not None:
            payload["cache"] = cache_stats.to_dict()
        return payload

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
        """Metric families for the cluster (registry collector surface)."""
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
