"""Closed-loop replica autoscaling for :class:`AlignmentCluster`.

The cluster already *exposes* every signal a capacity controller needs —
shed counts, mergeable latency histograms, per-replica queue depths —
and, as of the elastic layer, both actuators: :meth:`AlignmentCluster.\
add_replica` (regrow from the stored construction recipe) and
:meth:`AlignmentCluster.drain_replica` (graceful scale-down).
:class:`ClusterAutoscaler` closes the loop.

Each control tick takes a *window* of observations (sheds since the last
tick; the p99 of latencies recorded since the last tick, via histogram
snapshot subtraction — a lifetime p99 would take minutes to reflect a
load spike; a smoothed utilization of the pending-slot budget) and
applies ordered rules:

1. **Scale up** when the window shed more requests than
   ``shed_tolerance``, or its p99 exceeded ``target_p99_ms``, or smoothed
   utilization exceeded ``scale_up_utilization`` — any one suffices
   (shedding is the loudest signal and is checked first).
2. **Scale down** when smoothed utilization fell below
   ``scale_down_utilization`` *and nothing argued for scaling up* —
   draining the least-loaded live replica, so the work it must finish
   before leaving is minimal.
3. Otherwise **hold**.

Actions respect ``min_replicas``/``max_replicas`` bounds and a
``cooldown`` between consecutive actions (capacity just added needs time
to show up in the signals; reacting to the pre-action window again would
oscillate). Every tick appends an :class:`AutoscalerDecision` to a
bounded decision log that :meth:`stats_payload` surfaces under the cluster's
``/v1/stats`` — the convergence trace, and the first thing to read when
capacity did something surprising.

The loop itself is a plain asyncio task (:meth:`start` / :meth:`stop`),
but every piece is callable synchronously — :meth:`evaluate` with an
injected clock in tests, :meth:`step` once from a bench — so control
behaviour is testable without sleeping through real cooldowns.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.serving.observability import (
    EventRateLimiter,
    MetricsRegistry,
    StatsBlock,
    counted,
    get_logger,
    log_event,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.cluster import AlignmentCluster
    from repro.serving.histogram import LatencyHistogram

_LOGGER = get_logger("autoscaler")


@dataclass
class AutoscalerDecision:
    """One control-tick verdict: what was done, on which evidence."""

    at: float
    action: str  # "scale_up" | "scale_down" | "hold"
    reason: str
    replicas: int
    live: int
    shed_delta: int = 0
    window_p99_ms: float | None = None
    utilization: float = 0.0
    #: Endpoint whose window p99 drove the latency signal (None when the
    #: signal came from the replica-wide histogram).
    p99_endpoint: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Wire form for the decision log in ``/v1/stats``."""
        return asdict(self)


@dataclass
class _Window:
    """Signals measured over one control interval."""

    shed_delta: int = 0
    p99_ms: float | None = None
    #: Endpoint the p99 came from (None for the replica-wide fallback).
    p99_endpoint: str | None = None
    utilization: float = 0.0
    smoothed_utilization: float = 0.0
    samples: int = 0
    live: int = 0


class ClusterAutoscaler(StatsBlock):
    """Threshold controller growing/shrinking an ``AlignmentCluster``.

    Parameters
    ----------
    cluster:
        The cluster to control. Must be able to :meth:`add_replica` from
        its own recipe (built from construction knobs, not pre-made
        ``servers=``) for scale-up to work.
    min_replicas, max_replicas:
        Inclusive bounds on *live* replicas. Scale-down never drains
        below the floor; scale-up never grows past the ceiling.
    interval:
        Seconds between control ticks when :meth:`run` drives the loop.
    cooldown:
        Minimum seconds between consecutive scale actions. Holds are
        free; actions taken while their predecessor's capacity change is
        still propagating through the signals cause oscillation.
    target_p99_ms:
        Window p99 (milliseconds) above which the cluster is considered
        too slow. None disables the latency rule.
    shed_tolerance:
        Sheds per window tolerated before scaling up (default 0: any
        shedding is an immediate capacity failure).
    scale_up_utilization, scale_down_utilization:
        Smoothed pending-slot utilization thresholds for growing and
        shrinking.
    utilization_smoothing:
        EWMA factor applied to the instantaneous utilization sample each
        tick (higher = reacts faster, oscillates easier).
    decision_log_size:
        Ticks kept in the decision log surfaced via :meth:`stats_payload`.
    registry:
        Optional :class:`~repro.serving.observability.MetricsRegistry`
        whose ``latency_family`` histograms drive the latency rule
        **per endpoint**: the window p99 becomes the worst endpoint's
        p99, so a burst of cheap ``/v1/scan`` traffic cannot dilute a
        degraded ``/v1/align`` tail into looking healthy. Without a
        registry (or before the family has series) the replica-wide
        histogram is the fallback signal.
    latency_family:
        Histogram family name read from ``registry`` (default: the HTTP
        front's per-endpoint request-duration family).
    """

    scale_ups = counted("genasm_autoscaler_actions_total", action="scale_up")
    scale_downs = counted(
        "genasm_autoscaler_actions_total", action="scale_down"
    )
    #: Every tick's verdict, counted when it is made: the ``decisions``
    #: log is bounded, so counting its entries would plateau and fall.
    decisions_total = counted(
        "genasm_autoscaler_decisions_total", by="action", json=False
    )
    #: Smoothed pending-slot utilization, folded once per tick.
    utilization = counted("genasm_autoscaler_utilization")

    def __init__(
        self,
        cluster: "AlignmentCluster",
        *,
        min_replicas: int = 1,
        max_replicas: int = 8,
        interval: float = 1.0,
        cooldown: float = 5.0,
        target_p99_ms: float | None = None,
        shed_tolerance: int = 0,
        scale_up_utilization: float = 0.75,
        scale_down_utilization: float = 0.25,
        utilization_smoothing: float = 0.3,
        decision_log_size: int = 64,
        registry: "MetricsRegistry | None" = None,
        latency_family: str = "genasm_http_request_duration_seconds",
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be at least min_replicas")
        if interval <= 0:
            raise ValueError("interval must be positive")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if not 0.0 < utilization_smoothing <= 1.0:
            raise ValueError("utilization_smoothing must be in (0, 1]")
        if not 0.0 <= scale_down_utilization < scale_up_utilization <= 1.0:
            raise ValueError(
                "need 0 <= scale_down_utilization < scale_up_utilization <= 1"
            )
        super().__init__()
        # Every action's series exists from the first scrape on.
        self.decisions_total.update(scale_up=0, scale_down=0, hold=0)
        self.cluster = cluster
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.interval = interval
        self.cooldown = cooldown
        self.target_p99_ms = target_p99_ms
        self.shed_tolerance = shed_tolerance
        self.scale_up_utilization = scale_up_utilization
        self.scale_down_utilization = scale_down_utilization
        self.utilization_smoothing = utilization_smoothing
        self.decisions: "deque[AutoscalerDecision]" = deque(
            maxlen=decision_log_size
        )
        self.registry = registry
        self.latency_family = latency_family
        self._last_shed = cluster.shed
        self._latency_mark: "LatencyHistogram" = (
            cluster.stats.latency.snapshot()
        )
        #: Per-endpoint snapshot marks for windowed registry histograms,
        #: keyed by the family sample's sorted label tuple.
        self._endpoint_marks: dict[tuple, "LatencyHistogram"] = {}
        self._events = EventRateLimiter()
        self._last_action_at: float | None = None
        self._pending_drain: Any = None
        self._task: "asyncio.Task[None] | None" = None
        cluster.attach_autoscaler(self)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def observe(self) -> _Window:
        """Measure one control window and advance the marks.

        Sheds and latency are *deltas* since the previous call (lifetime
        aggregates answer "how has it been", not "how is it now");
        utilization is an instantaneous sample folded into the EWMA.
        """
        window = _Window()
        shed = self.cluster.shed
        window.shed_delta = shed - self._last_shed
        self._last_shed = shed

        p99, endpoint, samples = self._windowed_p99()
        window.samples = samples
        window.p99_ms = None if p99 is None else p99 * 1000.0
        window.p99_endpoint = endpoint

        budget = self.cluster.max_pending
        load = self.cluster.pending + self.cluster.in_flight
        window.utilization = (load / budget) if budget else 1.0
        alpha = self.utilization_smoothing
        self.utilization = (
            alpha * window.utilization + (1.0 - alpha) * self.utilization
        )
        window.smoothed_utilization = self.utilization
        window.live = sum(1 for r in self.cluster.replicas if r.live)
        return window

    def _windowed_p99(self) -> tuple[float | None, str | None, int]:
        """``(p99_seconds, endpoint, window_samples)`` for this tick.

        With a registry: the window p99 of **each** series in the
        configured latency family, and the worst one wins — per-endpoint
        resolution means a flood of fast ``/v1/scan`` samples cannot
        pull a degraded ``/v1/align`` p99 back under target, which is
        exactly what happens when all endpoints share one histogram.
        Falls back to the cluster-wide histogram when no registry is
        attached or the family has no series yet.
        """
        if self.registry is not None:
            histograms = self.registry.histogram_objects(self.latency_family)
            if histograms:
                worst: float | None = None
                worst_endpoint: str | None = None
                samples = 0
                for labels, histogram in histograms.items():
                    mark = self._endpoint_marks.get(labels)
                    windowed = (
                        histogram.since(mark)
                        if mark is not None
                        else histogram
                    )
                    self._endpoint_marks[labels] = histogram.snapshot()
                    samples += windowed.count
                    p99 = windowed.quantile(0.99)
                    if p99 is not None and (worst is None or p99 > worst):
                        worst = p99
                        worst_endpoint = dict(labels).get(
                            "endpoint", "/".join(v for _, v in labels)
                        )
                # Keep the replica-wide mark advancing so a later
                # fallback window starts now, not at attach time.
                self._latency_mark = self.cluster.stats.latency.snapshot()
                return worst, worst_endpoint, samples
        latency = self.cluster.stats.latency
        windowed = latency.since(self._latency_mark)
        self._latency_mark = latency.snapshot()
        return windowed.quantile(0.99), None, windowed.count

    def _in_cooldown(self, now: float) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.cooldown
        )

    def _wants_up(self, window: _Window) -> str | None:
        """The first scale-up trigger the window crossed, or None."""
        if window.shed_delta > self.shed_tolerance:
            return (
                f"shed {window.shed_delta} requests in window "
                f"(tolerance {self.shed_tolerance})"
            )
        if (
            self.target_p99_ms is not None
            and window.p99_ms is not None
            and window.p99_ms > self.target_p99_ms
        ):
            where = (
                f" on {window.p99_endpoint}"
                if window.p99_endpoint is not None
                else ""
            )
            return (
                f"window p99 {window.p99_ms:.1f}ms{where} over target "
                f"{self.target_p99_ms:.1f}ms"
            )
        if window.smoothed_utilization > self.scale_up_utilization:
            return (
                f"utilization {window.smoothed_utilization:.2f} over "
                f"{self.scale_up_utilization:.2f}"
            )
        return None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def evaluate(self, now: float | None = None) -> AutoscalerDecision:
        """Run one control tick: observe, decide, act, log.

        Synchronous by design — scale-up (``add_replica``) is
        synchronous, and scale-down only *marks* the chosen replica as
        draining here, handing the actual (await-able) drain to
        :meth:`step`. Injectable ``now`` lets tests walk through
        cooldowns without sleeping.
        """
        if now is None:
            now = time.monotonic()
        window = self.observe()
        decision = self._decide(window, now)
        self.decisions.append(decision)
        self.decisions_total[decision.action] += 1
        return decision

    def _decide(self, window: _Window, now: float) -> AutoscalerDecision:
        def verdict(action: str, reason: str) -> AutoscalerDecision:
            decision = AutoscalerDecision(
                at=now,
                action=action,
                reason=reason,
                replicas=len(self.cluster.replicas),
                live=window.live,
                shed_delta=window.shed_delta,
                window_p99_ms=window.p99_ms,
                utilization=window.smoothed_utilization,
                p99_endpoint=window.p99_endpoint,
            )
            if action != "hold":
                log_event(
                    _LOGGER,
                    f"autoscaler.{action}",
                    limiter=self._events,
                    limit_key=action,
                    reason=reason,
                    replicas=decision.replicas,
                    live=decision.live,
                    shed_delta=decision.shed_delta,
                    window_p99_ms=decision.window_p99_ms,
                    utilization=decision.utilization,
                )
            return decision

        up_reason = self._wants_up(window)
        if self._in_cooldown(now):
            return verdict(
                "hold", "cooldown" + (f" (pending: {up_reason})" if up_reason else "")
            )
        if up_reason is not None:
            if window.live >= self.max_replicas:
                return verdict(
                    "hold", f"at max_replicas={self.max_replicas}: {up_reason}"
                )
            try:
                self.cluster.add_replica()
            except RuntimeError as exc:
                # A recipe-less (servers=) cluster cannot grow itself;
                # log the refusal instead of crashing the control loop.
                return verdict("hold", f"cannot scale up: {exc}")
            self.scale_ups += 1
            self._last_action_at = now
            return verdict("scale_up", up_reason)
        if (
            window.smoothed_utilization < self.scale_down_utilization
            and window.live > self.min_replicas
        ):
            victim = self._least_loaded()
            if victim is not None:
                victim.draining = True  # step()/the caller completes the drain
                self._pending_drain = victim
                self.scale_downs += 1
                self._last_action_at = now
                return verdict(
                    "scale_down",
                    f"utilization {window.smoothed_utilization:.2f} under "
                    f"{self.scale_down_utilization:.2f}; draining "
                    f"{victim.name}",
                )
        return verdict("hold", "signals within bounds")

    def _least_loaded(self) -> Any:
        live = [r for r in self.cluster.replicas if r.live]
        if len(live) <= self.min_replicas:
            return None
        return min(
            live, key=lambda r: (r.server.in_flight, r.server.pending)
        )

    async def step(self, now: float | None = None) -> AutoscalerDecision:
        """One async control tick: evaluate, then finish any drain."""
        self._pending_drain = None
        decision = self.evaluate(now)
        victim = self._pending_drain
        self._pending_drain = None
        if victim is not None:
            await self.cluster.drain_replica(victim.name)
        return decision

    async def run(self) -> None:
        """Tick every ``interval`` seconds until cancelled."""
        try:
            while True:
                await asyncio.sleep(self.interval)
                await self.step()
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            pass

    def start(self) -> None:
        """Spawn the control loop on the running event loop. Idempotent."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self.run())

    async def stop(self) -> None:
        """Cancel the control loop and wait for it to exit. Idempotent."""
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict[str, Any]:
        """The ``autoscaler`` block of the cluster's ``/v1/stats``."""
        return {
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "interval": self.interval,
            "cooldown": self.cooldown,
            "target_p99_ms": self.target_p99_ms,
            "shed_tolerance": self.shed_tolerance,
            "scale_up_utilization": self.scale_up_utilization,
            "scale_down_utilization": self.scale_down_utilization,
            **self.to_dict(),
            "running": self._task is not None and not self._task.done(),
            "decisions": [d.to_dict() for d in self.decisions],
        }
