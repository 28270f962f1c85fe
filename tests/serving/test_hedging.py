"""Fault-injection suite for hedged requests.

Hedging is a duplicate-and-race construct, so its correctness claims are
exactly the ones worth attacking: the hedge must *win* against a wedged
replica (the whole point), a request must still be answered exactly once
(never two surfaced answers, never a late loser corrupting a later
request), and the losing side's queued work must be cancelled rather
than computed. Every test injects the fault through the same scriptable
engine double the cluster fault suite uses.
"""

import asyncio
import threading
import time
from collections import deque

import pytest

from repro.engine import PurePythonEngine
from repro.serving import AlignmentCluster, AlignmentServer


def run(coro):
    return asyncio.run(coro)


class ScriptableEngine(PurePythonEngine):
    """Engine double with scriptable per-call latency, errors, and hangs."""

    def __init__(self, *, delay=0.0, fail_always=None):
        self.delay = delay
        self.fail_always = fail_always
        self.failures = deque()
        self.hang: threading.Event | None = None
        self.calls: list[tuple[str, list]] = []
        self._lock = threading.Lock()

    def _behave(self, kind, payloads):
        with self._lock:
            self.calls.append((kind, list(payloads)))
            scripted = self.failures.popleft() if self.failures else None
        if self.hang is not None:
            assert self.hang.wait(timeout=10.0), "test forgot to release hang"
        if self.delay:
            time.sleep(self.delay)
        if scripted is not None:
            raise scripted
        if self.fail_always is not None:
            raise self.fail_always

    def scan_batch(self, pairs, k, **kwargs):
        self._behave("scan", pairs)
        return super().scan_batch(pairs, k, **kwargs)

    def served_pairs(self):
        with self._lock:
            return [pair for _, payloads in self.calls for pair in payloads]


def make_cluster(engines, **kwargs):
    kwargs.setdefault("policy", "round_robin")
    kwargs.setdefault("batch_size", 1)
    kwargs.setdefault("flush_interval", 0.001)
    kwargs.setdefault("hedge", True)
    kwargs.setdefault("max_hedge_delay", 0.05)
    return AlignmentCluster(
        replicas=len(engines),
        engine_factory=lambda i: engines[i],
        **kwargs,
    )


class TestHedgeWins:
    def test_hedge_beats_a_hanging_replica(self):
        """A request stuck on a wedged replica is answered by its hedge
        within ~the hedge delay, not the wedge's duration."""

        async def main():
            hung = ScriptableEngine()
            hung.hang = threading.Event()
            healthy = ScriptableEngine()
            reference = PurePythonEngine().scan_batch([("ACGTACGT", "ACGT")], 1)[0]
            async with make_cluster([hung, healthy]) as cluster:
                started = time.monotonic()
                result = await cluster.scan("ACGTACGT", "ACGT", 1)
                elapsed = time.monotonic() - started
                hung.hang.set()  # release the wedge for clean teardown
                assert result == reference
                assert elapsed < 1.0  # hedge delay + slack, not the 10s wedge
                assert cluster.hedges == 1
                assert cluster.hedge_wins == 1
                assert healthy.served_pairs() == [("ACGTACGT", "ACGT")]

        run(main())

    def test_fast_primary_never_hedges(self):
        async def main():
            engines = [ScriptableEngine(), ScriptableEngine()]
            # The hedge delay never drops below min_hedge_delay; at 0.5 s
            # no instant scan can outlast it, so a hedge here is a bug,
            # not a slow tick of the wall clock.
            async with make_cluster(
                engines, min_hedge_delay=0.5, max_hedge_delay=5.0
            ) as cluster:
                for _ in range(10):
                    await cluster.scan("ACGTACGT", "ACGT", 1)
                assert cluster.hedges == 0
                assert cluster.hedge_wins == 0

        run(main())

    def test_hedge_failure_leaves_primary_authoritative(self):
        """A hedge landing on a *broken* replica must not poison the
        primary's (slow but correct) answer."""

        async def main():
            slow = ScriptableEngine(delay=0.15)
            broken = ScriptableEngine(fail_always=RuntimeError("boom"))
            reference = PurePythonEngine().scan_batch([("ACGTACGT", "ACGT")], 1)[0]
            async with make_cluster(
                [slow, broken], max_attempts=1, max_hedge_delay=0.02
            ) as cluster:
                result = await cluster.scan("ACGTACGT", "ACGT", 1)
                assert result == reference
                assert cluster.hedges == 1
                assert cluster.hedge_wins == 0
                assert broken.calls  # the hedge really was dispatched

        run(main())

    def test_single_replica_cluster_never_hedges(self):
        async def main():
            engine = ScriptableEngine(delay=0.05)
            async with make_cluster([engine], max_hedge_delay=0.001) as cluster:
                await cluster.scan("ACGTACGT", "ACGT", 1)
                assert cluster.hedges == 0

        run(main())


class TestExactlyOnce:
    def test_duplicate_answers_never_surface_twice(self):
        """Under a degraded replica with hedging on, every request gets
        exactly one answer and they are all correct."""

        async def main():
            slow = ScriptableEngine(delay=0.08)
            fast = ScriptableEngine()
            texts = [
                "".join("ACGT"[(i + j) % 4] for j in range(12)) + "ACGT"
                for i in range(12)
            ]
            reference = {
                text: PurePythonEngine().scan_batch([(text, "ACGT")], 1)[0]
                for text in texts
            }
            async with make_cluster(
                [slow, fast], max_hedge_delay=0.02
            ) as cluster:
                results = await asyncio.gather(
                    *(cluster.scan(text, "ACGT", 1) for text in texts)
                )
                assert len(results) == len(texts)
                for text, result in zip(texts, results):
                    assert result == reference[text]
                # Some requests were duplicated at the *engine* level —
                # that is the mechanism working, and the only place
                # duplication is allowed to exist.
                assert cluster.hedges > 0
                merged = cluster.stats
                assert merged.requests >= len(texts)

        run(main())

    def test_late_loser_result_is_discarded(self):
        """When the wedged primary finally answers (long after its hedge
        won), the late result is dropped: later distinct requests still
        get their own correct answers."""

        async def main():
            hung = ScriptableEngine()
            hung.hang = threading.Event()
            healthy = ScriptableEngine()
            async with make_cluster([hung, healthy]) as cluster:
                first = await cluster.scan("ACGTACGTACGT", "ACGT", 1)
                hung.hang.set()  # wedge releases *after* the hedge won
                hung.hang = None
                await asyncio.sleep(0.05)  # let the stale dispatch finish
                second = await cluster.scan("TTTTACGTTTTT", "ACGT", 1)
                assert first != second  # distinct payloads, distinct answers
                assert second == PurePythonEngine().scan_batch(
                    [("TTTTACGTTTTT", "ACGT")], 1
                )[0]

        run(main())


class TestCancellation:
    def test_losing_primary_queued_work_is_dropped(self):
        """A hedge win cancels the primary's queued entry before its
        replica flushes it — the wedged replica's backlog must not grow
        by one engine call per hedged request."""

        async def main():
            hung_engine = ScriptableEngine()
            hung_engine.hang = threading.Event()
            # Big batch + long flush: requests sit *queued* on the slow
            # server while the first (wedged) call blocks its worker.
            slow_server = AlignmentServer(
                engine=hung_engine, batch_size=64, flush_interval=10.0
            )
            fast_server = AlignmentServer(
                engine=ScriptableEngine(), batch_size=1, flush_interval=0.001
            )
            cluster = AlignmentCluster(
                servers=[slow_server, fast_server],
                policy="round_robin",
                hedge=True,
                max_hedge_delay=0.02,
            )
            async with cluster:
                texts = [
                    "".join("ACGT"[(i + j) % 4] for j in range(12)) + "ACGT"
                    for i in range(8)
                ]
                results = await asyncio.gather(
                    *(cluster.scan(text, "ACGT", 1) for text in texts)
                )
                assert len(results) == len(texts)
                hung_engine.hang.set()
                await slow_server.stop()  # final flush of whatever queued
                # Every queued entry whose hedge won was dropped at flush
                # time instead of computed.
                assert slow_server.stats.cancelled > 0
                served_there = hung_engine.served_pairs()
                assert len(served_there) < len(texts)

        run(main())

    def test_caller_cancellation_reaps_both_attempts(self):
        """Cancelling the caller's task mid-hedge cancels primary and
        hedge; the cluster keeps serving afterwards."""

        async def main():
            slow_a = ScriptableEngine(delay=0.2)
            slow_b = ScriptableEngine(delay=0.2)
            async with make_cluster(
                [slow_a, slow_b], max_hedge_delay=0.01
            ) as cluster:
                task = asyncio.ensure_future(
                    cluster.scan("ACGTACGTACGT", "ACGT", 1)
                )
                await asyncio.sleep(0.05)  # primary dispatched, hedge fired
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # Still healthy: a fresh request completes normally.
                result = await cluster.scan("ACGTACGTACGT", "ACGT", 1)
                assert result

        run(main())


class TestHedgingStats:
    def test_stats_payload_has_hedging_block(self):
        async def main():
            hung = ScriptableEngine()
            hung.hang = threading.Event()
            async with make_cluster([hung, ScriptableEngine()]) as cluster:
                await cluster.scan("ACGTACGT", "ACGT", 1)
                hung.hang.set()
                payload = cluster.stats_payload()
                block = payload["hedging"]
                assert block["enabled"] is True
                assert block["quantile"] == 0.99
                assert block["hedges"] == 1
                assert block["hedge_wins"] == 1
                assert block["delay_ms"] >= 0.0
                assert payload["cluster"]["hedges"] == 1

        run(main())

    def test_no_hedging_block_when_disabled(self):
        async def main():
            async with make_cluster(
                [ScriptableEngine(), ScriptableEngine()], hedge=False
            ) as cluster:
                await cluster.scan("ACGTACGT", "ACGT", 1)
                assert "hedging" not in cluster.stats_payload()

        run(main())

    def test_hedge_delay_tracks_fastest_replica_p99(self):
        async def main():
            async with make_cluster(
                [ScriptableEngine(), ScriptableEngine(delay=0.2)],
                min_hedge_delay=0.0001,
                max_hedge_delay=10.0,
            ) as cluster:
                assert cluster.hedge_delay() == 10.0  # no data yet: max
                for _ in range(8):
                    await cluster.scan("ACGTACGT", "ACGT", 1)
                delay = cluster.hedge_delay()
                # The *fast* replica's p99 governs, not the degraded one's.
                assert delay < 0.2

        run(main())

    def test_hedge_knob_validation(self):
        with pytest.raises(ValueError):
            AlignmentCluster(engine="pure", hedge_quantile=0.0)
        with pytest.raises(ValueError):
            AlignmentCluster(engine="pure", min_hedge_delay=-1.0)
        with pytest.raises(ValueError):
            AlignmentCluster(
                engine="pure", min_hedge_delay=0.5, max_hedge_delay=0.1
            )
