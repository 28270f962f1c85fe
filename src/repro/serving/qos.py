"""Multi-tenant quality of service: admission control, fair queueing,
and request deadlines.

A shared alignment service is only as good as its worst neighbor: one
greedy client hammering ``/v1/map`` can fill every pending slot and
starve the interactive scans of everyone else. This module gives the
serving stack three isolation mechanisms, each independently usable:

**Token-bucket admission control.** Every tenant (identified by the
``X-API-Key`` header; missing or unknown keys share one ``anonymous``
tenant, so rotating keys buys nothing) owns a :class:`TokenBucket` with
a sustained ``rate`` (tokens/second) and a ``burst`` capacity. A request
that finds the bucket empty is rejected *before* it takes a pending
slot — :class:`AdmissionError` maps to HTTP 429 and carries a
``retry_after`` computed from the bucket's actual refill time (when the
missing tokens will exist), not from server load estimates: an
over-quota client learns exactly how long its own quota makes it wait.

**Weighted-fair queueing.** :class:`FairQueue` replaces the FIFO order
of :class:`~repro.serving.server.AlignmentServer`'s pending queue with
deficit round-robin over per-tenant lanes: each flush takes a batch that
interleaves tenants in proportion to their configured weights, so a
tenant with a thousand queued requests delays a one-request tenant by at
most one round, never by the whole backlog. Within a tenant's lane,
*interactive* kinds (``scan``, ``edit_distance``) are served before
*bulk* kinds (``align``, ``map``) — the mixed-priority traffic GenASM
frames (interactive filtering next to bulk mapping) without letting one
tenant's priority class preempt another tenant's share.

**Deadline propagation.** A request may carry an absolute deadline
(``timeout_ms`` in the JSON body or an ``X-Request-Deadline`` header,
both milliseconds of budget from arrival). The deadline rides on the
queued request, in its :class:`RequestContext` next to the tenant and the
trace; work whose deadline has already passed when its batch is
taken is dropped through the same cancelled-before-engine-call path that
drops a request whose client went away — an expired request costs a
queue slot, never an engine call — and the caller sees
:class:`DeadlineExceededError` (HTTP 504).

:class:`QosPolicy` bundles the per-tenant configuration, buckets, and
stats: the HTTP front resolves/admits exactly once per request (so
cluster retries, which happen *behind* admission, can never
double-charge a bucket), the server's fair queue reads lane weights from
it, ``/v1/stats`` grows a per-tenant block from
:meth:`QosPolicy.stats_payload`, and :meth:`QosPolicy.collect_metrics`
contributes tenant-labeled families (``genasm_qos_*``) to the metrics
registry. Throttling emits rate-limited ``qos.tenant_throttled`` events
(one line per tenant per interval, with a ``suppressed`` count).
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.serving.observability import (
    EventRateLimiter,
    MetricFamily,
    StatsBlock,
    Trace,
    counted,
    get_logger,
    log_event,
    merge_families,
    metric_family,
)

_LOGGER = get_logger("qos")

#: Tenant every request without a (known) API key is accounted to.
DEFAULT_TENANT = "anonymous"

#: Request kinds served from a lane's interactive class ahead of its
#: bulk class (``align``/``map``). Priority is *within* a tenant's lane:
#: a tenant's scans jump its own maps, never another tenant's share.
INTERACTIVE_KINDS = frozenset({"scan", "edit_distance"})

#: Floor for lane weights: DRR adds ``quantum * weight`` credit per
#: visit, so a microscopic weight would mean unbounded bookkeeping
#: rounds before a lane earns one request's worth of credit.
_MIN_WEIGHT = 0.01


@dataclass(frozen=True)
class RequestContext:
    """What travels with one request besides its payload.

    Built once — by the HTTP front at admission, by a job at creation, or
    by a direct caller — and handed down unchanged as the ``ctx=`` keyword
    of every serving entry point: front -> cluster -> replica server ->
    the queued request. A retry gets the same object.
    """

    #: Tenant the request is accounted and fair-queued under (None rides
    #: the :data:`DEFAULT_TENANT` lane).
    tenant: str | None = None
    #: Absolute ``time.monotonic()`` deadline; past it the request is
    #: dropped before its engine call (None: no budget set).
    deadline: float | None = None
    #: Where every stage records its spans; None records nothing.
    trace: Trace | None = None


#: The context of a request that names no tenant, deadline or trace.
NO_CONTEXT = RequestContext()


class AdmissionError(RuntimeError):
    """A tenant's token bucket is empty; maps to HTTP 429.

    ``retry_after`` is the bucket's own refill time — seconds until the
    missing tokens exist at the tenant's configured rate.
    """

    def __init__(
        self, message: str, *, tenant: str, retry_after: float
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.retry_after = retry_after


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before its engine work started.

    Raised by the server when a queued request's deadline expires (the
    work is dropped before the engine call) or when a request arrives
    already expired. Maps to HTTP 504. The cluster treats it like an
    input rejection — the deadline is the request's property, so no
    replica failure is recorded and no retry is burned.
    """


# ----------------------------------------------------------------------
# Token-bucket admission control
# ----------------------------------------------------------------------
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``.

    The bucket starts full and refills continuously (computed lazily
    from the clock, no timer task). ``clock`` is injectable so tests
    and property suites drive time deterministically. Lock-guarded —
    admission runs on the event loop but metrics scrapes may read
    :attr:`tokens` from another thread.
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_updated", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not rate > 0:
            raise ValueError("rate must be positive tokens/second")
        if not burst >= 1:
            raise ValueError("burst must be at least 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; False leaves the bucket as is."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= cost:
                self._tokens -= cost
                return True
            return False

    def retry_after(self, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will exist at the refill rate."""
        with self._lock:
            self._refill(self._clock())
            missing = cost - self._tokens
            if missing <= 0 or math.isinf(self.rate):
                return 0.0
            return missing / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (refilled to now)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


# ----------------------------------------------------------------------
# Tenant configuration and accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantConfig:
    """One tenant's quota and scheduling share.

    ``rate``/``burst`` parameterize the admission bucket; ``weight`` is
    the tenant's deficit-round-robin share of every batch relative to
    the other backlogged tenants (2.0 drains twice as fast as 1.0).
    """

    name: str
    rate: float = 100.0
    burst: float = 200.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if not self.burst >= 1:
            raise ValueError("burst must be at least 1")
        if not self.weight > 0:
            raise ValueError("weight must be positive")


class TenantStats(StatsBlock):
    """Per-tenant request outcomes, recorded at the HTTP front."""

    requests = counted()
    ok = counted("genasm_qos_requests_total", outcome="ok")
    #: 429s — the tenant's own bucket said no.
    throttled = counted("genasm_qos_requests_total", outcome="throttled")
    #: 503s — admitted, but the server/cluster was saturated.
    shed = counted("genasm_qos_requests_total", outcome="shed")
    #: 504s — the request's deadline expired before engine work.
    expired = counted("genasm_qos_requests_total", outcome="expired")
    errors = counted("genasm_qos_requests_total", outcome="error")
    #: Wall time of this tenant's successful requests.
    latency = counted("genasm_qos_request_latency_seconds")

    def record(self, status: int, seconds: float | None = None) -> None:
        self.requests += 1
        if status < 400:
            self.ok += 1
            if seconds is not None:
                self.latency.record(seconds)
        elif status == 429:
            self.throttled += 1
        elif status == 503:
            self.shed += 1
        elif status == 504:
            self.expired += 1
        else:
            self.errors += 1


class TenantState:
    """One tenant's live state: config, admission bucket, and stats."""

    __slots__ = ("config", "bucket", "stats")

    def __init__(
        self, config: TenantConfig, clock: Callable[[], float]
    ) -> None:
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock=clock)
        self.stats = TenantStats()

    @property
    def name(self) -> str:
        return self.config.name


class QosPolicy:
    """Tenant registry + admission control, shared by front and server.

    Parameters
    ----------
    tenants:
        Iterable of :class:`TenantConfig` (or a mapping whose values are
        configs). A request's ``X-API-Key`` header names its tenant
        directly; a production deployment would map opaque keys to
        tenant names in front of this.
    default:
        Config for the shared fallback tenant serving requests with a
        missing or *unknown* API key (unknown keys share this one
        bucket, so key rotation cannot multiply quota). Defaults to
        ``anonymous`` at 100 req/s, burst 200, weight 1.
    clock:
        Injectable monotonic clock for every bucket (tests pin it).
    """

    def __init__(
        self,
        tenants: Iterable[TenantConfig] | Mapping[str, TenantConfig] = (),
        *,
        default: TenantConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._events = EventRateLimiter()
        if isinstance(tenants, Mapping):
            tenants = tenants.values()
        self._tenants: dict[str, TenantState] = {}
        for config in tenants:
            if config.name in self._tenants:
                raise ValueError(f"duplicate tenant {config.name!r}")
            self._tenants[config.name] = TenantState(config, clock)
        if default is None:
            default = TenantConfig(DEFAULT_TENANT)
        if default.name in self._tenants:
            raise ValueError(
                f"default tenant {default.name!r} collides with a "
                "configured tenant"
            )
        self._default = TenantState(default, clock)
        self._tenants[default.name] = self._default

    @property
    def tenants(self) -> Mapping[str, TenantState]:
        """Read-only view of every tenant's live state."""
        return dict(self._tenants)

    def resolve(self, api_key: str | None) -> TenantState:
        """The tenant a request with this ``X-API-Key`` is accounted to.

        A missing key *or an unknown one* resolves to the shared default
        tenant: unknown keys must not each get a fresh bucket, or an
        abuser would rotate keys to dodge the quota.
        """
        if not api_key:
            return self._default
        return self._tenants.get(api_key, self._default)

    def admit(
        self,
        tenant: TenantState,
        cost: float = 1.0,
        *,
        trace_id: str | None = None,
    ) -> None:
        """Charge one request against the tenant's bucket or raise.

        Called exactly once per request at the network front — cluster
        retries happen behind this point, so a retry can never
        double-charge the bucket. ``trace_id`` only
        labels the throttle log line.
        """
        if tenant.bucket.try_acquire(cost):
            return
        retry_after = tenant.bucket.retry_after(cost)
        log_event(
            _LOGGER,
            "qos.tenant_throttled",
            level=logging.WARNING,
            trace_id=trace_id,
            limiter=self._events,
            limit_key=f"throttle:{tenant.name}",
            tenant=tenant.name,
            rate=tenant.config.rate,
            retry_after=round(retry_after, 3),
        )
        raise AdmissionError(
            f"tenant {tenant.name!r} is over its admission rate "
            f"({tenant.config.rate:g} req/s, burst "
            f"{tenant.config.burst:g})",
            tenant=tenant.name,
            retry_after=retry_after,
        )

    def record(self, tenant: TenantState, status: int, seconds: float) -> None:
        """Fold one finished request's outcome into the tenant's stats."""
        tenant.stats.record(status, seconds)

    def weight_of(self, tenant_name: str) -> float:
        """DRR lane weight for ``tenant_name`` (default tenant's if unknown)."""
        state = self._tenants.get(tenant_name, self._default)
        return state.config.weight

    def stats_payload(self) -> dict[str, Any]:
        """Per-tenant block for ``GET /v1/stats``."""
        payload: dict[str, Any] = {}
        for name in sorted(self._tenants):
            state = self._tenants[name]
            config = state.config
            payload[name] = {
                "rate": config.rate if math.isfinite(config.rate) else None,
                "burst": config.burst if math.isfinite(config.burst) else None,
                "weight": config.weight,
                "tokens": round(state.bucket.tokens, 3),
                **state.stats.to_dict(),
            }
        return payload

    def collect_metrics(self) -> list[MetricFamily]:
        """Tenant-labeled metric families (registry collector surface)."""
        tokens = metric_family("genasm_qos_tokens_available")
        families = [tokens]
        for name in sorted(self._tenants):
            state = self._tenants[name]
            tokens.add(state.bucket.tokens, tenant=name)
            families.extend(state.stats.metric_families(tenant=name))
        return list(merge_families(families).values())


# ----------------------------------------------------------------------
# Pending-queue disciplines (server-side)
# ----------------------------------------------------------------------
class FifoQueue:
    """Single-lane arrival-order queue; the non-QoS default.

    Same surface as :class:`FairQueue` so the server's flush path does
    not care which discipline it drains.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: deque[Any] = deque()

    def push(
        self,
        item: Any,
        *,
        tenant: str = DEFAULT_TENANT,
        interactive: bool = False,
    ) -> None:
        del tenant, interactive
        self._items.append(item)

    def take(self, limit: int) -> list[Any]:
        """Pop up to ``limit`` items in arrival order."""
        take = min(limit, len(self._items))
        return [self._items.popleft() for _ in range(take)]

    def depths(self) -> dict[str, int]:
        return {DEFAULT_TENANT: len(self._items)} if self._items else {}

    def __len__(self) -> int:
        return len(self._items)


class _Lane:
    """One tenant's pending requests: two priority classes + DRR credit."""

    __slots__ = ("tenant", "weight", "interactive", "bulk", "deficit")

    def __init__(self, tenant: str, weight: float) -> None:
        self.tenant = tenant
        self.weight = max(weight, _MIN_WEIGHT)
        self.interactive: deque[Any] = deque()
        self.bulk: deque[Any] = deque()
        self.deficit = 0.0

    def __len__(self) -> int:
        return len(self.interactive) + len(self.bulk)

    def pop(self) -> Any:
        if self.interactive:
            return self.interactive.popleft()
        return self.bulk.popleft()


class FairQueue:
    """Deficit round-robin over per-tenant lanes with priority classes.

    Each :meth:`take` visits backlogged lanes in rotation; a visit adds
    ``quantum * weight`` credit to the lane and serves one queued
    request per unit of credit, interactive class first. The properties
    this buys (and the Hypothesis suite pins):

    * **Weighted shares** — over a sustained backlog, each tenant's
      share of taken requests converges to ``weight / sum(weights)``.
    * **No starvation** — with weights >= 1, every backlogged lane
      serves at least one request per full rotation: a tenant with one
      queued request waits at most one round behind any backlog.
    * **Work conservation** — :meth:`take` returns ``min(limit, len)``
      requests; fairness never idles capacity.

    An emptied lane forfeits leftover credit (standard DRR), so a lane
    cannot bank idle time into a later burst.
    """

    __slots__ = ("_quantum", "_weight_of", "_lanes", "_round", "_total")

    def __init__(
        self,
        *,
        quantum: float = 1.0,
        weight_of: Callable[[str], float] | None = None,
    ) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self._quantum = quantum
        self._weight_of = weight_of
        self._lanes: dict[str, _Lane] = {}
        self._round: deque[_Lane] = deque()
        self._total = 0

    def push(
        self,
        item: Any,
        *,
        tenant: str = DEFAULT_TENANT,
        interactive: bool = False,
    ) -> None:
        lane = self._lanes.get(tenant)
        if lane is None:
            weight = (
                self._weight_of(tenant) if self._weight_of is not None else 1.0
            )
            lane = self._lanes[tenant] = _Lane(tenant, weight)
        if not len(lane):
            self._round.append(lane)
        (lane.interactive if interactive else lane.bulk).append(item)
        self._total += 1

    def take(self, limit: int) -> list[Any]:
        """Drain up to ``limit`` requests in deficit-round-robin order."""
        batch: list[Any] = []
        while self._total and len(batch) < limit:
            lane = self._round[0]
            if lane.deficit < 1.0:
                lane.deficit += self._quantum * lane.weight
            while len(lane) and lane.deficit >= 1.0 and len(batch) < limit:
                batch.append(lane.pop())
                lane.deficit -= 1.0
                self._total -= 1
            if not len(lane):
                lane.deficit = 0.0
                self._round.popleft()
            elif lane.deficit < 1.0:
                self._round.rotate(-1)
            else:
                # limit hit mid-lane: keep the lane (and its credit) at
                # the head so the next take resumes exactly here.
                break
        return batch

    def depths(self) -> dict[str, int]:
        """Queued requests per backlogged tenant (stats surface)."""
        return {
            lane.tenant: len(lane) for lane in self._round if len(lane)
        }

    def __len__(self) -> int:
        return self._total
