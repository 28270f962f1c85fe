"""Fault-injection suite for the replicated cluster router.

A cluster is only trustworthy if its behavior under *misbehaving*
replicas is proven, so every test here injects a fault through
:class:`ScriptableEngine` — a test double with scriptable per-call
latency, exceptions, and hangs (the hang blocks the replica's worker
thread exactly like a wedged engine would) — and asserts the router's
contract:

* load is shed (503 + *dynamic* ``Retry-After``) only when every live
  replica is saturated;
* a replica drains cleanly when stopped mid-flight;
* every submitted request is answered exactly once — no drops, no
  duplicates — across failures, retries, and drains.

``TestAttemptOutcomes`` is the exception: it scripts the *replica server*
(a recording fake behind ``servers=``) to pin, outcome by outcome, what
one replica call leaves behind in the trace and on the replica.
"""

import asyncio
import json
import threading
import time
from collections import deque

import pytest

from repro.engine import PurePythonEngine
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    ClusterSaturatedError,
    DeadlineExceededError,
    RequestContext,
    ServerClosedError,
    Trace,
)
from repro.serving.cluster import FAILURE_COOLDOWN
from repro.serving.http import open_memory_connection


def run(coro):
    return asyncio.run(coro)


class ScriptableEngine(PurePythonEngine):
    """Engine double with scriptable per-call latency, errors, and hangs.

    Behaviors compose in order: record the call, block on ``hang`` (if
    armed), sleep ``delay`` seconds, raise the next scripted exception
    (``failures`` first, then ``fail_always``), else compute for real.
    All mutable state is lock-guarded — calls arrive on server worker
    threads.
    """

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

    def run_dc_windows(self, jobs, **kwargs):
        self._behave("dc", jobs)
        return super().run_dc_windows(jobs, **kwargs)

    def served_pairs(self):
        """Every (text, pattern) payload this engine saw, flattened."""
        with self._lock:
            return [pair for _, payloads in self.calls for pair in payloads]


def make_cluster(engines, **kwargs):
    """One replica server per engine double, handed in as ``servers=``."""
    kwargs.setdefault("batch_size", 1)
    kwargs.setdefault("flush_interval", 0.001)
    return AlignmentCluster(
        servers=[AlignmentServer(engine=engine, **kwargs) for engine in engines]
    )


def unique_pairs(count, length=12):
    """Distinct (text, pattern) payloads so request identity is traceable."""
    bases = "ACGT"
    pairs = []
    for i in range(count):
        text = "".join(bases[(i + j) % 4] for j in range(length)) + "ACGT"
        pairs.append((text, text[2 : 2 + length // 2]))
    return pairs


async def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise AssertionError("condition not reached in time")


class TestLoadShedding:
    def test_sheds_only_at_full_saturation(self):
        async def main():
            engines = [ScriptableEngine(), ScriptableEngine()]
            release = threading.Event()
            for engine in engines:
                engine.hang = release
            cluster = make_cluster(engines, max_pending=1)
            try:
                pairs = unique_pairs(3)
                first = asyncio.create_task(
                    cluster.edit_distance(*pairs[0], 6)
                )
                await wait_for(
                    lambda: cluster.replicas[0].server.in_flight
                    + cluster.replicas[1].server.in_flight
                    == 1
                )
                # One replica busy is NOT saturation: the second request
                # routes to the free replica instead of shedding.
                assert not cluster.saturated
                second = asyncio.create_task(
                    cluster.edit_distance(*pairs[1], 6)
                )
                await wait_for(lambda: cluster.saturated)
                assert cluster.shed == 0
                # Now every live replica is at capacity: shed.
                with pytest.raises(ClusterSaturatedError) as shed_info:
                    await cluster.edit_distance(*pairs[2], 6)
                release.set()
                results = await asyncio.gather(first, second)
                return cluster, shed_info.value, results
            finally:
                release.set()
                await cluster.stop()

        cluster, shed_error, results = run(main())
        assert cluster.shed == 1
        assert shed_error.retry_after > 0
        # The two admitted requests were both answered (exactly once).
        assert all(r is not None for r in results)
        assert cluster.stats.served == 2

    def test_shed_retry_after_tracks_observed_service_time(self):
        """The Retry-After hint is computed from EWMAs, not a constant:
        priming one replica's service EWMA moves the hint."""

        async def main():
            engines = [ScriptableEngine(), ScriptableEngine()]
            release = threading.Event()
            for engine in engines:
                engine.hang = release
            cluster = make_cluster(engines, max_pending=1)
            try:
                tasks = [
                    asyncio.create_task(
                        cluster.edit_distance(*pair, 6)
                    )
                    for pair in unique_pairs(2)
                ]
                await wait_for(lambda: cluster.saturated)
                quick_hint = cluster.suggested_retry_after()
                # Both replicas now "remember" slow engine calls.
                for replica in cluster.replicas:
                    replica.server._observe_service(3.0)
                slow_hint = cluster.suggested_retry_after()
                with pytest.raises(ClusterSaturatedError) as shed_info:
                    await cluster.edit_distance(*unique_pairs(3)[2], 6)
                release.set()
                await asyncio.gather(*tasks)
                return quick_hint, slow_hint, shed_info.value.retry_after
            finally:
                release.set()
                await cluster.stop()

        quick_hint, slow_hint, shed_hint = run(main())
        assert slow_hint > quick_hint
        assert slow_hint >= 3.0
        assert shed_hint == pytest.approx(slow_hint, rel=0.5)

    def test_http_503_carries_dynamic_retry_after(self):
        async def main():
            engines = [ScriptableEngine(), ScriptableEngine()]
            release = threading.Event()
            for engine in engines:
                engine.hang = release
            cluster = make_cluster(engines, max_pending=1)
            front = AlignmentHTTPServer(cluster)
            writers = []
            try:
                busy = []
                for pair in unique_pairs(2):
                    reader, writer = await open_memory_connection(front)
                    writers.append(writer)
                    body = json.dumps(
                        {"text": pair[0], "pattern": pair[1], "k": 6}
                    ).encode()
                    writer.write(
                        (
                            "POST /v1/edit_distance HTTP/1.1\r\nHost: t\r\n"
                            f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode()
                        + body
                    )
                    await writer.drain()
                    busy.append((reader, writer))
                await wait_for(lambda: cluster.saturated)
                for replica in cluster.replicas:
                    replica.server._observe_service(2.5)
                reader, writer = await open_memory_connection(front)
                writers.append(writer)
                pair = unique_pairs(3)[2]
                body = json.dumps(
                    {"text": pair[0], "pattern": pair[1], "k": 6}
                ).encode()
                writer.write(
                    (
                        "POST /v1/edit_distance HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode()
                    + body
                )
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                raw = await reader.readexactly(
                    int(headers.get("content-length", "0"))
                )
                payload = json.loads(raw)
                release.set()
                for busy_reader, _ in busy:
                    await busy_reader.readline()  # let responses flow
                return status, headers, payload
            finally:
                release.set()
                for writer in writers:
                    writer.close()
                    await writer.wait_closed()
                await front.stop()

        status, headers, payload = run(main())
        assert status == 503
        # Header is the RFC delay-seconds (integer ceiling of the hint);
        # the body carries the precise estimate. Both reflect the primed
        # 2.5 s EWMA rather than the old constant 1.
        assert payload["retry_after"] >= 2.5
        assert int(headers["retry-after"]) >= 3
        assert int(headers["retry-after"]) == -(-payload["retry_after"] // 1)


class TestDraining:
    def test_drain_replica_mid_flight_finishes_its_work(self):
        async def main():
            hanging = ScriptableEngine()
            healthy = ScriptableEngine()
            release = threading.Event()
            hanging.hang = release
            async with make_cluster([hanging, healthy]) as cluster:
                pairs = unique_pairs(10)
                # Pin one request inside replica-0's engine: both replicas
                # are idle, and the tie-break starts at replica-0.
                stuck = asyncio.create_task(
                    cluster.edit_distance(*pairs[0], 6)
                )
                await wait_for(
                    lambda: cluster.replicas[0].server.in_flight == 1
                )
                drain = asyncio.create_task(cluster.drain_replica(0))
                await asyncio.sleep(0.02)
                assert not drain.done()  # drain waits for the in-flight work
                assert cluster.replicas[0].draining
                # New traffic keeps flowing, all of it to the live replica.
                mid_drain = await asyncio.gather(
                    *(cluster.edit_distance(t, p, 6) for t, p in pairs[1:])
                )
                release.set()
                await drain
                stuck_result = await stuck
                return cluster, stuck_result, mid_drain, healthy, hanging

        cluster, stuck_result, mid_drain, healthy, hanging = run(main())
        assert cluster.replicas[0].state == "stopped"
        # The mid-flight request was answered, not dropped, and exactly
        # once: replica-0's engine saw exactly one payload.
        assert stuck_result is not None
        assert len(hanging.served_pairs()) == 1
        assert all(r is not None for r in mid_drain)
        assert len(healthy.served_pairs()) == 9

    def test_raced_server_stop_marks_replica_and_reroutes(self):
        async def main():
            engines = [ScriptableEngine(), ScriptableEngine()]
            async with make_cluster(engines) as cluster:
                # Stop replica-0's server out from under the router.
                await cluster.replicas[0].server.stop()
                pairs = unique_pairs(4)
                results = [
                    await cluster.edit_distance(t, p, 6) for t, p in pairs
                ]
                return cluster, results, engines

        cluster, results, engines = run(main())
        assert all(r is not None for r in results)
        assert cluster.replicas[0].stopped
        assert cluster.retries >= 1
        assert len(engines[1].served_pairs()) == 4


class TestFailureContainment:
    def test_flaky_replica_every_request_answered_exactly_once(self):
        async def main():
            flaky = ScriptableEngine(fail_always=RuntimeError("engine died"))
            healthy = ScriptableEngine()
            async with make_cluster([flaky, healthy]) as cluster:
                pairs = unique_pairs(30)
                results = await asyncio.gather(
                    *(cluster.edit_distance(t, p, 8) for t, p in pairs)
                )
                return cluster, results, pairs, flaky, healthy

        cluster, results, pairs, flaky, healthy = run(main())
        # Every request answered, with a real result.
        assert len(results) == len(pairs)
        assert all(r is not None for r in results)
        # ...and exactly once: the healthy engine served each distinct
        # payload exactly one time — nothing dropped, nothing duplicated
        # by the retry path.
        served = healthy.served_pairs()
        assert sorted(served) == sorted(pairs)
        assert cluster.replicas[0].failed >= 1
        assert cluster.retries >= 1

    def test_all_replicas_failing_propagates_the_error(self):
        async def main():
            engines = [
                ScriptableEngine(fail_always=RuntimeError("replica 0 died")),
                ScriptableEngine(fail_always=RuntimeError("replica 1 died")),
            ]
            async with make_cluster(engines) as cluster:
                with pytest.raises(RuntimeError, match="died"):
                    await cluster.edit_distance("ACGTACGT", "ACGT", 4)
                # Neither is benched for an error the other reproduced.
                assert all(r.state == "up" for r in cluster.replicas)
                return cluster

        cluster = run(main())
        # Both replicas were tried before giving up.
        assert all(r.dispatched == 1 for r in cluster.replicas)
        assert all(r.failed == 1 for r in cluster.replicas)

    def test_failing_replica_recovers_after_cooldown(self):
        async def main():
            flaky = ScriptableEngine()
            flaky.failures.append(RuntimeError("transient hiccup"))
            healthy = ScriptableEngine()
            async with make_cluster([flaky, healthy]) as cluster:
                pairs = unique_pairs(8)
                # First request hits the flaky replica, fails over.
                assert await cluster.edit_distance(*pairs[0], 6) is not None
                assert cluster.replicas[0].state == "cooldown"
                await asyncio.sleep(FAILURE_COOLDOWN + 0.05)  # it expires
                for text, pattern in pairs[1:]:
                    await cluster.edit_distance(text, pattern, 6)
                return cluster.replicas[0].completed, cluster.replicas[0].state

        completed, state = run(main())
        # The replica re-entered rotation and served real traffic again.
        assert completed >= 1
        assert state == "up"

    def test_cooldown_backs_off_exponentially(self):
        from repro.serving import Replica

        server = AlignmentServer(engine=ScriptableEngine())
        replica = Replica("replica-test", server)
        gaps = []
        for _ in range(7):
            now = time.monotonic()
            replica.cool_down(now)
            gaps.append(replica.cooldown_until - now)
        # Each consecutive cooldown doubles the sit-out, capped at 16x.
        assert gaps[:5] == pytest.approx(
            [FAILURE_COOLDOWN * 2**i for i in range(5)]
        )
        assert gaps[5] == gaps[6] == pytest.approx(16 * FAILURE_COOLDOWN)
        # One success resets the penalty entirely.
        replica.record_success(0.01)
        assert replica.consecutive_failures == 0
        assert replica.cooldown_until == 0.0
        run(server.stop())


# ----------------------------------------------------------------------
# One replica call, six outcomes
# ----------------------------------------------------------------------
_SCRIPTED_ERRORS = {
    "rerouted": ServerClosedError("server is stopped"),
    "rejected": ValueError("bad symbol"),
    "expired": DeadlineExceededError("deadline exceeded after queue wait"),
    "failed": RuntimeError("engine died"),
}


class FakeServer:
    """Recording stand-in for an ``AlignmentServer`` behind ``servers=``.

    ``edit_distance`` answers ``script``: ``"ok"`` returns ``answer`` at
    once, ``"hold"`` returns it once ``release`` is set (so it can be
    cancelled while it waits), anything else raises the matching error.
    Every call's ``ctx`` is kept for the identity assertion.
    """

    mapper = None
    saturated = False
    in_flight = 0

    def __init__(self, script, answer):
        self.name = "server"
        self.script = script
        self.answer = answer
        self.contexts = []
        self.entered = asyncio.Event()
        self.release = asyncio.Event()

    async def edit_distance(self, text, pattern, k, *, ctx=None):
        self.contexts.append(ctx)
        self.entered.set()
        if self.script == "hold":
            await self.release.wait()
        elif self.script != "ok":
            raise _SCRIPTED_ERRORS[self.script]
        return self.answer


#: attempt outcome -> the replica's (completed, failed, stopped, cooling
#: down) afterwards.
_BOOKKEEPING = {
    "ok": (1, 0, False, False),
    "cancelled": (0, 0, False, False),
    "rerouted": (0, 0, True, False),
    "rejected": (0, 0, False, False),
    "expired": (0, 0, False, False),
    "failed": (0, 1, False, True),
}

#: attempt outcome -> (did the chain go round again, what the caller
#: sees: the answering server's name or the exception type).
_CONSEQUENCE = {
    "ok": (False, "scripted"),
    "cancelled": (False, asyncio.CancelledError),
    "rerouted": (True, "other"),
    "rejected": (False, ValueError),
    "expired": (False, DeadlineExceededError),
    "failed": (True, "other"),
}

class TestAttemptOutcomes:
    @pytest.mark.parametrize("outcome", list(_BOOKKEEPING))
    def test_one_replica_call_six_outcomes(self, outcome):
        """The span string, the replica bookkeeping and the caller-visible
        consequence of each way one replica call of the retry chain can
        end."""
        script = "hold" if outcome == "cancelled" else outcome

        async def main():
            ctx = RequestContext(deadline=time.monotonic() + 60.0, trace=Trace())
            scripted = FakeServer(script, "scripted")
            other = FakeServer("ok", "other")
            # Both idle: the tie-break sends the first call to ``scripted``.
            cluster = AlignmentCluster(servers=[scripted, other])
            call = asyncio.ensure_future(
                cluster.edit_distance("ACGT", "ACGT", 0, ctx=ctx)
            )
            await scripted.entered.wait()
            if outcome == "cancelled":
                call.cancel()
            try:
                seen = await call
            except (
                asyncio.CancelledError, ValueError, DeadlineExceededError
            ) as exc:
                seen = type(exc)
            return cluster, ctx, scripted, other, seen

        cluster, ctx, scripted, other, seen = run(main())
        replica = cluster.replicas[0]
        assert replica.server is scripted

        (attempt,) = [
            s for s in ctx.trace.spans
            if s.name == "attempt" and s.attrs["replica"] == replica.name
        ]
        assert attempt.end is not None
        assert attempt.outcome == outcome

        completed, failed, stopped, cooling = _BOOKKEEPING[outcome]
        assert replica.dispatched == 1
        assert (replica.completed, replica.failed) == (completed, failed)
        assert replica.stopped is stopped
        assert (replica.cooldown_until > 0.0) is cooling

        retried, expected = _CONSEQUENCE[outcome]
        assert seen == expected
        assert cluster.retries == (1 if retried else 0)
        assert len(other.contexts) == (1 if retried else 0)
        # A retry carries the request's own context, not a copy: same
        # deadline, same trace.
        assert all(
            seen_ctx is ctx for seen_ctx in scripted.contexts + other.contexts
        )
