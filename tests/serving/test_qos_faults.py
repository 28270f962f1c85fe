"""Fault-injection suite for multi-tenant QoS isolation.

PR 5 proved fault tolerance by injecting replica failures; this suite
proves *isolation* by injecting abusive tenants, expired deadlines, and
vanished clients, and asserts the QoS layer's contract:

* a tenant saturating the service at 10x its fair share moves an honest
  tenant's p99 by at most 2x its solo baseline and leaves it >= 0.8 of
  its solo goodput (the headline acceptance bound, proven on a
  deterministic virtual clock — and shown to *fail* under the old FIFO
  discipline, so the test has teeth);
* over-quota and unknown-key clients get 429 with an accurate
  bucket-derived ``Retry-After``, never a 503;
* a retry behind the front can never double-charge a bucket;
* expired deadlines drop queued work before the engine call;
* a client that disconnects mid-queue has its work cancelled, not
  computed for nobody.
"""

import asyncio
import json
import logging
import math
import threading
import time

import pytest

from repro.engine import PurePythonEngine
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    DeadlineExceededError,
    FairQueue,
    FifoQueue,
    QosPolicy,
    RequestContext,
    TenantConfig,
    TokenBucket,
    parse_prometheus_text,
)
from repro.serving.http import open_memory_connection


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class RecordingEngine(PurePythonEngine):
    """Engine double that records every payload it actually computed."""

    def __init__(self, *, delay=0.0):
        self.delay = delay
        self.hang: threading.Event | None = None
        self.calls = []
        self._lock = threading.Lock()

    def _behave(self, kind, payloads):
        with self._lock:
            self.calls.append((kind, list(payloads)))
        if self.hang is not None:
            assert self.hang.wait(timeout=10.0), "test forgot to release hang"
        if self.delay:
            time.sleep(self.delay)

    def scan_batch(self, pairs, k, **kwargs):
        self._behave("scan", pairs)
        return super().scan_batch(pairs, k, **kwargs)

    def served_pairs(self):
        with self._lock:
            return [pair for _, payloads in self.calls for pair in payloads]


class HttpClient:
    """Minimal HTTP/1.1 client over one in-memory stream pair."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, front):
        return cls(*await open_memory_connection(front))

    async def request(self, method, path, body=None, headers=None):
        payload = b"" if body is None else json.dumps(body).encode()
        lines = [f"{method} {path} HTTP/1.1", "Host: test"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if payload:
            lines.append(f"Content-Length: {len(payload)}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await self.writer.drain()
        return await self.read_response()

    async def read_response(self):
        status_line = await self.reader.readline()
        assert status_line, "connection closed before a response arrived"
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(body) if body else None), headers

    def close(self):
        self.writer.close()


# ----------------------------------------------------------------------
# The headline isolation bound, on a deterministic virtual clock
# ----------------------------------------------------------------------
#: Virtual service model: every tick, one batch of BATCH requests is
#: taken from the queue and completes TICK seconds later. Capacity is
#: therefore BATCH / TICK requests/second, shared by two tenants.
BATCH = 8
TICK = 0.01
HORIZON = 150  # ticks simulated
DEADLINE_TICKS = 5  # honest requests' latency budget


def simulate(queue, *, abusive: bool):
    """Drive honest (1 req/tick) and optional abusive (40 req/tick)
    traffic through ``queue`` on a virtual clock; return the honest
    tenant's per-request latencies (seconds), its goodput (fraction
    answered within deadline), and the abuser's throttled count.

    The abuser offers 10x the fair share (capacity 800 req/s, fair share
    400, offered 4000). Its bucket admits close to *capacity* — admission
    alone is deliberately not the isolation mechanism; the queue
    discipline under test is.
    """
    clock = FakeClock()
    abuser_bucket = TokenBucket(rate=700.0, burst=350.0, clock=clock)
    latencies = []
    met_deadline = 0
    honest_sent = 0
    throttled = 0
    for tick in range(HORIZON):
        queue.push(("honest", tick), tenant="honest", interactive=True)
        honest_sent += 1
        if abusive:
            for i in range(40):  # 10x fair share, every tick
                if abuser_bucket.try_acquire():
                    queue.push(("abuser", tick), tenant="abuser")
                else:
                    throttled += 1
        for tenant, arrival in queue.take(BATCH):
            if tenant != "honest":
                continue
            waited_ticks = tick - arrival + 1
            latencies.append(waited_ticks * TICK)
            if waited_ticks <= DEADLINE_TICKS:
                met_deadline += 1
        clock.advance(TICK)
    goodput = met_deadline / honest_sent
    return latencies, goodput, throttled


def p99(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


class TestIsolationUnderAbuse:
    def test_fair_queue_holds_the_acceptance_bound(self):
        """10x-saturating abuser: honest p99 <= 2x solo, goodput >= 0.8."""
        solo, solo_goodput, _ = simulate(FairQueue(), abusive=False)
        fair, fair_goodput, throttled = simulate(FairQueue(), abusive=True)
        assert solo_goodput == 1.0
        assert p99(fair) <= 2.0 * p99(solo)
        assert fair_goodput >= 0.8
        assert throttled > 0  # admission control really was exercised

    def test_fifo_violates_the_bound_so_the_test_has_teeth(self):
        """The same abuse through the old FIFO discipline blows both
        bounds — proving the assertion above is load-bearing, not slack."""
        solo, _, _ = simulate(FifoQueue(), abusive=False)
        fifo, fifo_goodput, _ = simulate(FifoQueue(), abusive=True)
        assert p99(fifo) > 2.0 * p99(solo)
        assert fifo_goodput < 0.8

    def test_weighted_share_is_respected_under_abuse(self):
        """A 3:1-weighted honest tenant drains 3x the abuser's rate out
        of a contended queue regardless of backlog sizes."""
        queue = FairQueue(weight_of={"honest": 3.0, "abuser": 1.0}.get)
        for i in range(120):
            queue.push(("abuser", i), tenant="abuser")
        for i in range(40):
            queue.push(("honest", i), tenant="honest")
        batch = queue.take(40)
        honest = sum(1 for tenant, _ in batch if tenant == "honest")
        assert honest == 30  # exactly 3/4 of the batch


# ----------------------------------------------------------------------
# 429 semantics: bucket-derived Retry-After, never a 503
# ----------------------------------------------------------------------
class TestAdmission429:
    def test_over_quota_gets_429_with_exact_retry_after_never_503(self):
        clock = FakeClock()
        qos = QosPolicy(
            default=TenantConfig("anonymous", rate=0.25, burst=3),
            clock=clock,
        )

        async def main():
            server = AlignmentServer(
                engine="pure",
                batch_size=4,
                flush_interval=0.001,
                max_pending=64,
                qos=qos,
            )
            async with AlignmentHTTPServer(server, qos=qos) as front:
                client = await HttpClient.connect(front)
                statuses = []
                retry_headers = []
                bodies = []
                for i in range(20):
                    # Unknown, rotating keys: all share the default bucket.
                    status, body, headers = await client.request(
                        "POST",
                        "/v1/scan",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 0},
                        headers={"X-API-Key": f"rotated-{i}"},
                    )
                    statuses.append(status)
                    retry_headers.append(headers.get("retry-after"))
                    bodies.append(body)
                client.close()
                return statuses, retry_headers, bodies

        statuses, retry_headers, bodies = run(main())
        assert statuses.count(200) == 3  # exactly the burst
        assert statuses.count(429) == 17
        assert 503 not in statuses
        for status, header, body in zip(statuses, retry_headers, bodies):
            if status != 429:
                continue
            # The bucket is empty and frozen (injected clock): 1 missing
            # token at 0.25/s -> 4.0 s, integer-ceiled on the wire and
            # precise in the body.
            assert header == "4"
            assert body["retry_after"] == pytest.approx(4.0)

    def test_waiting_out_retry_after_is_sufficient(self):
        clock = FakeClock()
        qos = QosPolicy(
            [TenantConfig("acme", rate=0.5, burst=1)], clock=clock
        )

        async def main():
            server = AlignmentServer(engine="pure", flush_interval=0.001, qos=qos)
            async with AlignmentHTTPServer(server, qos=qos) as front:
                client = await HttpClient.connect(front)
                payload = {"text": "ACGT", "pattern": "AC", "k": 0}
                key = {"X-API-Key": "acme"}
                first, _, _ = await client.request(
                    "POST", "/v1/scan", payload, headers=key
                )
                throttled, body, _ = await client.request(
                    "POST", "/v1/scan", payload, headers=key
                )
                clock.advance(body["retry_after"] + 1e-9)
                after_wait, _, _ = await client.request(
                    "POST", "/v1/scan", payload, headers=key
                )
                client.close()
                return first, throttled, after_wait

        first, throttled, after_wait = run(main())
        assert (first, throttled, after_wait) == (200, 429, 200)

    def test_throttle_events_are_rate_limited(self, caplog):
        qos = QosPolicy(
            [TenantConfig("noisy", rate=1.0, burst=1)], clock=FakeClock()
        )
        noisy = qos.resolve("noisy")
        qos.admit(noisy)
        with caplog.at_level(logging.WARNING, logger="repro.serving.qos"):
            for _ in range(50):
                with pytest.raises(Exception):
                    qos.admit(noisy)
        throttle_lines = [
            r for r in caplog.records
            if "qos.tenant_throttled" in r.getMessage()
        ]
        assert len(throttle_lines) == 1  # 49 suppressed by the limiter


# ----------------------------------------------------------------------
# Retries cannot double-charge a bucket
# ----------------------------------------------------------------------
class FailingEngine(RecordingEngine):
    """Engine double whose every call raises, so each request it is
    handed is retried on another replica."""

    def scan_batch(self, pairs, k, **kwargs):
        self._behave("scan", pairs)
        raise RuntimeError("engine died")


class TestRetrySingleCharge:
    def test_retried_requests_charge_admission_once(self):
        """Burst == request count: if a retry double-charged, the later
        requests would 429. All succeed, and retries really happened."""
        requests = 6
        qos = QosPolicy(
            [TenantConfig("acme", rate=0.001, burst=requests)],
            clock=FakeClock(),
        )
        engines = [FailingEngine(), RecordingEngine()]

        async def main():
            cluster = AlignmentCluster(
                servers=[
                    AlignmentServer(
                        engine=engine, batch_size=1, flush_interval=0.001, qos=qos
                    )
                    for engine in engines
                ]
            )
            async with AlignmentHTTPServer(cluster, qos=qos) as front:
                client = await HttpClient.connect(front)
                statuses = []
                for i in range(requests):
                    status, _, _ = await client.request(
                        "POST",
                        "/v1/scan",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 0},
                        headers={"X-API-Key": "acme"},
                    )
                    statuses.append(status)
                client.close()
                return statuses, cluster.retries

        statuses, retries = run(main())
        assert statuses == [200] * requests
        assert retries > 0  # attempts really were repeated behind admission


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_queued_work_is_dropped_before_the_engine(self):
        """A request whose deadline passes while queued costs a queue
        slot, never an engine call, and surfaces as stats.expired."""
        engine = RecordingEngine()

        async def main():
            async with AlignmentServer(
                engine=engine, batch_size=8, flush_interval=10.0
            ) as server:
                doomed = asyncio.ensure_future(
                    server.scan(
                        "ACGTACGT",
                        "TTTT",
                        0,
                        ctx=RequestContext(
                            tenant="acme", deadline=time.monotonic() + 0.01
                        ),
                    )
                )
                await asyncio.sleep(0.05)  # deadline passes while queued
                # Fill the batch so the size trigger flushes everything.
                others = [
                    server.scan("ACGTACGT", "ACGT", 0) for _ in range(7)
                ]
                results = await asyncio.gather(*others)
                with pytest.raises(DeadlineExceededError):
                    await doomed
                return results, server.stats.expired

        results, expired = run(main())
        assert expired == 1
        assert len(results) == 7
        assert ("ACGTACGT", "TTTT") not in engine.served_pairs()

    def test_already_expired_request_never_queues(self):
        engine = RecordingEngine()

        async def main():
            async with AlignmentServer(
                engine=engine, flush_interval=0.001
            ) as server:
                with pytest.raises(DeadlineExceededError):
                    await server.scan(
                        "ACGT",
                        "AC",
                        0,
                        ctx=RequestContext(deadline=time.monotonic() - 1.0),
                    )
                return server.stats

        stats = run(main())
        # Refused, but received: ``requests`` bounds the terminal outcomes.
        assert (stats.requests, stats.expired) == (1, 1)
        assert engine.calls == []

    def test_http_deadline_maps_to_504_and_counts_per_tenant(self):
        qos = QosPolicy(clock=FakeClock())

        async def main():
            server = AlignmentServer(
                engine="pure", flush_interval=0.001, qos=qos
            )
            async with AlignmentHTTPServer(server, qos=qos) as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST",
                    "/v1/edit_distance",
                    # A nanosecond-scale budget expires inside dispatch.
                    {"text": "ACGT", "pattern": "AC", "k": 1,
                     "timeout_ms": 1e-6},
                )
                stats_status, stats, _ = await client.request(
                    "GET", "/v1/stats"
                )
                client.close()
                return status, body, stats

        status, body, stats = run(main())
        assert status == 504
        assert "deadline" in body["error"]
        assert stats["tenants"]["anonymous"]["expired"] == 1

    def test_header_deadline_and_invalid_budgets(self):
        async def main():
            server = AlignmentServer(engine="pure", flush_interval=0.001)
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                payload = {"text": "ACGT", "pattern": "AC", "k": 0}
                ok, _, _ = await client.request(
                    "POST", "/v1/scan", payload,
                    headers={"X-Request-Deadline": "5000"},
                )
                expired, _, _ = await client.request(
                    "POST", "/v1/scan", payload,
                    headers={"X-Request-Deadline": "0.000001"},
                )
                bad_header, _, _ = await client.request(
                    "POST", "/v1/scan", payload,
                    headers={"X-Request-Deadline": "soon"},
                )
                bad_body, _, _ = await client.request(
                    "POST", "/v1/scan", dict(payload, timeout_ms=-3),
                )
                client.close()
                return ok, expired, bad_header, bad_body

        assert run(main()) == (200, 504, 400, 400)


# ----------------------------------------------------------------------
# Client disconnects
# ----------------------------------------------------------------------
class TestClientDisconnect:
    @staticmethod
    def raw_scan(pattern):
        body = json.dumps(
            {"text": "ACGTACGT", "pattern": pattern, "k": 0}
        ).encode()
        return (
            "POST /v1/scan HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body

    def test_disconnect_while_queued_cancels_the_work(self):
        """A client that hangs up mid-queue has its future cancelled at
        once — the EOF itself triggers it, long before the 0.2 s flush —
        stats.cancelled counts it and the engine never computes it."""
        engine = RecordingEngine()

        async def main():
            server = AlignmentServer(
                engine=engine, batch_size=8, flush_interval=0.2
            )
            front = AlignmentHTTPServer(server)
            reader, writer = await open_memory_connection(front)
            writer.write(self.raw_scan("TTTT"))
            await writer.drain()
            for _ in range(20):  # until the request is parsed and queued
                if server.pending:
                    break
                await asyncio.sleep(0)
            assert server.pending == 1
            writer.close()  # client vanishes before the flush fires
            await writer.wait_closed()
            turns = 0
            while not (front.client_disconnects and server.stats.cancelled):
                assert turns < 20, "hang-up not noticed within 20 loop turns"
                turns += 1
                await asyncio.sleep(0)
            counted = (
                front.client_disconnects,
                server.stats.cancelled,
                server.stats.flushes,
            )
            await front.stop()
            return counted

        assert run(main()) == (1, 1, 0)  # counted before any flush ran
        assert ("ACGTACGT", "TTTT") not in engine.served_pairs()

    def test_connected_clients_are_unaffected_by_the_hangup_watch(self):
        async def main():
            server = AlignmentServer(engine="pure", flush_interval=0.001)
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                results = []
                for _ in range(3):  # keep-alive: one watch per request
                    results.append(
                        await client.request(
                            "POST",
                            "/v1/scan",
                            {"text": "ACGTACGT", "pattern": "ACGT", "k": 0},
                        )
                    )
                client.close()
                return results, front.client_disconnects, server.stats.cancelled

        results, disconnects, cancelled = run(main())
        assert all(status == 200 and body["matches"] for status, body, _ in results)
        assert (disconnects, cancelled) == (0, 0)

    def test_request_buffered_when_the_eof_arrives_is_answered(self):
        """Two pipelined requests, then a half-close: the EOF arrives
        while the first is queued and the second is still buffered, so it
        cancels nothing — both are answered."""

        async def main():
            server = AlignmentServer(
                engine="pure", batch_size=8, flush_interval=0.05
            )
            async with AlignmentHTTPServer(server) as front:
                reader, writer = await open_memory_connection(front)
                writer.write(self.raw_scan("ACGT") + self.raw_scan("CGTA"))
                writer.write_eof()
                client = HttpClient(reader, writer)
                first = await client.read_response()
                second = await client.read_response()
                writer.close()
                await writer.wait_closed()
                return (
                    first[0],
                    second[0],
                    front.client_disconnects,
                    server.stats.cancelled,
                    server.stats.served,
                )

        assert run(main()) == (200, 200, 0, 0, 2)


# ----------------------------------------------------------------------
# Per-tenant observability
# ----------------------------------------------------------------------
class TestTenantObservability:
    def test_stats_and_metrics_grow_tenant_blocks(self):
        clock = FakeClock()
        qos = QosPolicy(
            [TenantConfig("acme", rate=5.0, burst=5, weight=2.0)],
            clock=clock,
        )

        async def main():
            server = AlignmentServer(
                engine="pure", flush_interval=0.001, qos=qos
            )
            async with AlignmentHTTPServer(server, qos=qos) as front:
                client = await HttpClient.connect(front)
                payload = {"text": "ACGTACGT", "pattern": "ACGT", "k": 0}
                for _ in range(3):
                    await client.request(
                        "POST", "/v1/scan", payload,
                        headers={"X-API-Key": "acme"},
                    )
                await client.request("POST", "/v1/scan", payload)
                for _ in range(3):  # drain acme's bucket -> 429s
                    await client.request(
                        "POST", "/v1/scan", payload,
                        headers={"X-API-Key": "acme"},
                    )
                _, stats, _ = await client.request("GET", "/v1/stats")
                health_status, _, _ = await client.request("GET", "/healthz")
                client.close()
                return stats, health_status

        stats, health_status = run(main())
        acme = stats["tenants"]["acme"]
        assert acme["requests"] == 6
        assert acme["ok"] == 5
        assert acme["throttled"] == 1
        assert acme["weight"] == 2.0
        assert acme["latency"]["count"] == 5
        anonymous = stats["tenants"]["anonymous"]
        assert anonymous["ok"] == 1
        assert stats["qos"] == {
            "fair_queueing": True,
            "queued_by_tenant": {},
        }
        assert health_status == 200

    def test_metrics_exposition_carries_tenant_labels(self):
        clock = FakeClock()
        qos = QosPolicy(
            [TenantConfig("acme", rate=5.0, burst=5)], clock=clock
        )

        async def main():
            server = AlignmentServer(
                engine="pure", flush_interval=0.001, qos=qos
            )
            async with AlignmentHTTPServer(server, qos=qos) as front:
                client = await HttpClient.connect(front)
                await client.request(
                    "POST",
                    "/v1/scan",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 0},
                    headers={"X-API-Key": "acme"},
                )
                text = front.metrics.render()
                client.close()
                return text

        text = run(main())
        parsed = parse_prometheus_text(text)
        outcome_samples = parsed["genasm_qos_requests_total"]["samples"]
        assert any(
            labels.get("tenant") == "acme" and labels.get("outcome") == "ok"
            and value == 1.0
            for _name, labels, value in outcome_samples
        )
        assert "genasm_qos_tokens_available" in parsed
        assert "genasm_qos_request_latency_seconds" in parsed
        assert "genasm_http_client_disconnects_total" in parsed
