"""Trace propagation through the full serving stack.

These tests assert the *propagation* claims — the part of tracing that
can silently rot: the id minted (or honored) at the HTTP front must be
the same trace every downstream stage appends to, across the cluster
router, retry chains, the batching queue, and the sharded engine's worker
threads.
Each scenario drives the real wire path via ``open_memory_connection``
and then inspects the retained trace by id.
"""

import asyncio
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from repro.engine import PurePythonEngine
from repro.engine.sharded import ShardedEngine
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.genome import synthesize_genome
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    open_memory_connection,
)
from repro.serving.observability import _TRACE_BUFFER_SIZE, new_trace_id

#: A minted trace id: 128 random bits as lowercase hex.
TRACE_ID = re.compile(r"[0-9a-f]{32}")


def run(coro):
    return asyncio.run(coro)


class HttpClient:
    """Minimal HTTP/1.1 client over one stream pair (keep-alive capable)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, front):
        return cls(*await open_memory_connection(front))

    async def request(self, method, path, body=None, *, headers=None):
        payload = b"" if body is None else json.dumps(body).encode()
        lines = [f"{method} {path} HTTP/1.1", "Host: test"]
        if payload:
            lines.append(f"Content-Length: {len(payload)}")
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        assert status_line, "connection closed before a response arrived"
        status = int(status_line.split()[1])
        response_headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(body) if body else None), response_headers

    def close(self):
        self.writer.close()


class ScriptableEngine(PurePythonEngine):
    """Engine double with scriptable per-call latency and errors."""

    def __init__(self, *, delay=0.0):
        self.delay = delay
        self.failures = deque()
        self.calls = 0
        self._lock = threading.Lock()

    def scan_batch(self, pairs, k, **kwargs):
        with self._lock:
            self.calls += 1
            scripted = self.failures.popleft() if self.failures else None
        if self.delay:
            time.sleep(self.delay)
        if scripted is not None:
            raise scripted
        return super().scan_batch(pairs, k, **kwargs)


def make_cluster_front(engines, **kwargs):
    kwargs.setdefault("batch_size", 1)
    kwargs.setdefault("flush_interval", 0.001)
    cluster = AlignmentCluster(
        servers=[AlignmentServer(engine=engine, **kwargs) for engine in engines]
    )
    return AlignmentHTTPServer(cluster)


SCAN = {"text": "ACGTACGT", "pattern": "ACGT", "k": 1}


def spans_named(trace_body, name):
    return [s for s in trace_body["spans"] if s["name"] == name]


class TestRequestIds:
    def test_every_response_carries_a_generated_id(self):
        async def main():
            front = AlignmentHTTPServer(
                AlignmentServer(engine="pure", batch_size=1, flush_interval=0.001)
            )
            async with front:
                client = await HttpClient.connect(front)
                _, _, first = await client.request("POST", "/v1/scan", SCAN)
                _, _, second = await client.request("POST", "/v1/scan", SCAN)
                client.close()
                return first, second

        first, second = run(main())
        assert len(first["x-request-id"]) == 32
        assert first["x-request-id"] != second["x-request-id"]

    def test_client_supplied_id_is_honored_and_queryable(self):
        async def main():
            front = AlignmentHTTPServer(
                AlignmentServer(engine="pure", batch_size=1, flush_interval=0.001)
            )
            async with front:
                client = await HttpClient.connect(front)
                _, _, headers = await client.request(
                    "POST", "/v1/scan", SCAN,
                    headers={"X-Request-ID": "req-from-client-7"},
                )
                status, trace, _ = await client.request(
                    "GET", "/v1/trace/req-from-client-7"
                )
                client.close()
                return headers, status, trace

        headers, status, trace = run(main())
        assert headers["x-request-id"] == "req-from-client-7"
        assert status == 200
        assert trace["trace_id"] == "req-from-client-7"
        assert trace["complete"] is True

    def test_unknown_trace_id_is_404(self):
        async def main():
            front = AlignmentHTTPServer(
                AlignmentServer(engine="pure", batch_size=1, flush_interval=0.001)
            )
            async with front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "GET", "/v1/trace/nope"
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 404
        assert "nope" in body["error"]

    def test_trace_ring_keeps_the_newest_requests(self):
        """The front retains a bounded ring of traces: past its capacity
        the oldest request's trace is gone and the newest is kept."""
        async def main():
            front = AlignmentHTTPServer(
                AlignmentServer(engine="pure", batch_size=1, flush_interval=0.001)
            )
            async with front:
                client = await HttpClient.connect(front)
                for i in range(_TRACE_BUFFER_SIZE + 1):
                    await client.request(
                        "GET", "/healthz", headers={"X-Request-ID": f"r{i}"}
                    )
                oldest, _, _ = await client.request("GET", "/v1/trace/r0")
                newest, _, _ = await client.request(
                    "GET", f"/v1/trace/r{_TRACE_BUFFER_SIZE}"
                )
                client.close()
                return oldest, newest

        assert run(main()) == (404, 200)

    def test_debug_timing_inlines_the_breakdown(self):
        async def main():
            front = AlignmentHTTPServer(
                AlignmentServer(engine="pure", batch_size=1, flush_interval=0.001)
            )
            async with front:
                client = await HttpClient.connect(front)
                _, body, _ = await client.request(
                    "POST", "/v1/scan?debug=timing", SCAN
                )
                client.close()
                return body

        body = run(main())
        assert body["matches"]
        names = [span["name"] for span in body["timing"]["spans"]]
        for expected in ("parse", "queue_wait", "batch_assembly", "engine"):
            assert expected in names

    def test_healthz_and_503_carry_the_request_id(self):
        async def main():
            server = AlignmentServer(
                engine=ScriptableEngine(delay=0.2),
                batch_size=1,
                flush_interval=0.001,
                max_pending=1,
            )
            async with AlignmentHTTPServer(server) as front:
                busy = await HttpClient.connect(front)
                probe = await HttpClient.connect(front)
                slow = asyncio.create_task(
                    busy.request("POST", "/v1/scan", SCAN)
                )
                for _ in range(200):
                    await asyncio.sleep(0.005)
                    if server.saturated:
                        break
                assert server.saturated
                _, health, health_headers = await probe.request(
                    "GET", "/healthz"
                )
                shed_status, shed_body, shed_headers = await probe.request(
                    "POST", "/v1/scan", SCAN
                )
                await slow
                busy.close()
                probe.close()
                return health, health_headers, shed_status, shed_body, shed_headers

        health, health_headers, shed_status, shed_body, shed_headers = run(main())
        assert health["request_id"] == health_headers["x-request-id"]
        assert shed_status == 503
        assert shed_body["request_id"] == shed_headers["x-request-id"]

    def test_retry_after_rounds_up_never_to_zero(self):
        """A 0.4s backend estimate must surface as Retry-After: 1 — an
        integer 0 would tell clients to hammer a saturated server."""

        async def main():
            server = AlignmentServer(
                engine=ScriptableEngine(delay=0.2),
                batch_size=1,
                flush_interval=0.001,
                max_pending=1,
            )
            server.suggested_retry_after = lambda: 0.4
            async with AlignmentHTTPServer(server) as front:
                busy = await HttpClient.connect(front)
                probe = await HttpClient.connect(front)
                slow = asyncio.create_task(
                    busy.request("POST", "/v1/scan", SCAN)
                )
                for _ in range(200):
                    await asyncio.sleep(0.005)
                    if server.saturated:
                        break
                status, body, headers = await probe.request(
                    "POST", "/v1/scan", SCAN
                )
                await slow
                busy.close()
                probe.close()
                return status, body, headers

        status, body, headers = run(main())
        assert status == 503
        assert headers["retry-after"] == "1"
        assert body["retry_after"] == pytest.approx(0.4)


class TestTraceIdsAndWireForm:
    def test_minted_ids_are_32_lowercase_hex_and_unique(self):
        ids = [new_trace_id() for _ in range(100_000)]
        assert all(TRACE_ID.fullmatch(trace_id) for trace_id in ids)
        assert len(set(ids)) == len(ids)

    def test_two_processes_mint_different_ids(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        script = (
            "from repro.serving.observability import new_trace_id; "
            "print(new_trace_id(), new_trace_id())"
        )
        minted = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout.split()
            for _ in range(2)
        ]
        ids = [*minted[0], *minted[1], new_trace_id()]
        assert all(TRACE_ID.fullmatch(trace_id) for trace_id in ids)
        assert len(set(ids)) == 5

    def test_a_map_requests_trace_keeps_its_wire_form(self):
        """The key sets (and their order) of ``GET /v1/trace/<id>`` for a
        ``POST /v1/map`` through a cluster: the trace's, and each span's."""
        genome = synthesize_genome(4_000, seed=3, name="wire")
        read = genome.sequence[1_000:1_080]
        cluster = AlignmentCluster(
            replicas=2,
            mapper=make_genasm_mapper(genome, engine="pure"),
            batch_size=64,
            flush_interval=0.0,
        )

        async def main():
            async with AlignmentHTTPServer(cluster) as front:
                client = await HttpClient.connect(front)
                status, _, headers = await client.request(
                    "POST", "/v1/map", {"name": "r1", "read": read},
                    headers={"X-Request-ID": "map-from-client"},
                )
                _, minted, minted_headers = await client.request(
                    "POST", "/v1/map?debug=timing", {"name": "r2", "read": read}
                )
                _, trace, _ = await client.request(
                    "GET", "/v1/trace/map-from-client"
                )
                client.close()
                await client.writer.wait_closed()
                return status, headers, minted, minted_headers, trace

        status, headers, minted, minted_headers, trace = run(main())
        assert status == 200
        assert headers["x-request-id"] == trace["trace_id"] == "map-from-client"
        assert TRACE_ID.fullmatch(minted_headers["x-request-id"])
        assert minted["timing"]["trace_id"] == minted_headers["x-request-id"]
        assert list(trace) == [
            "trace_id",
            "complete",
            "duration_ms",
            "accounted_fraction",
            "spans",
            "meta",
        ]
        assert trace["meta"] == {"path": "/v1/map", "method": "POST"}
        timed = ["name", "start_ms", "end_ms", "duration_ms", "outcome"]
        attrs = {
            "parse": ["bytes"],
            "attempt": ["replica", "method"],
            "queue_wait": ["replica", "kind", "batch"],
            "batch_assembly": None,
            "engine": ["replica", "kind", "batch", "engine"],
            "serialize": None,
        }
        assert [span["name"] for span in trace["spans"]] == list(attrs)
        for span in trace["spans"]:
            keys = attrs[span["name"]]
            assert list(span) == (timed if keys is None else [*timed, "attrs"])
            if keys is not None:
                assert list(span["attrs"]) == keys
        # ?debug=timing inlines the same form, less the open serialize span.
        assert list(minted["timing"]) == list(trace)
        assert [span["name"] for span in minted["timing"]["spans"]] == list(
            attrs
        )[:-1]


class TestSlowTraces:
    def test_slow_request_breakdown_accounts_for_the_latency(self):
        """Acceptance: the trace of a deliberately slow request through
        the cluster must explain >= 95% of its end-to-end wall time."""

        async def main():
            front = make_cluster_front(
                [ScriptableEngine(delay=0.25), ScriptableEngine(delay=0.25)]
            )
            async with front:
                client = await HttpClient.connect(front)
                started = time.monotonic()
                status, _, headers = await client.request(
                    "POST", "/v1/scan", SCAN
                )
                elapsed = time.monotonic() - started
                _, trace, _ = await client.request(
                    "GET", f"/v1/trace/{headers['x-request-id']}"
                )
                client.close()
                return status, elapsed, trace

        status, elapsed, trace = run(main())
        assert status == 200
        assert trace["complete"] is True
        assert trace["accounted_fraction"] >= 0.95
        # The trace's own clock must agree with the observed latency.
        assert trace["duration_ms"] == pytest.approx(
            elapsed * 1e3, rel=0.5
        )


class TestRetriedTraces:
    def test_one_attempt_span_per_retry_and_exactly_one_answer(self):
        async def main():
            flaky = ScriptableEngine()
            flaky.failures.append(RuntimeError("transient"))
            backup = ScriptableEngine()
            front = make_cluster_front([flaky, backup])
            async with front:
                client = await HttpClient.connect(front)
                status, body, headers = await client.request(
                    "POST", "/v1/scan", SCAN
                )
                _, trace, _ = await client.request(
                    "GET", f"/v1/trace/{headers['x-request-id']}"
                )
                client.close()
                return status, body, trace, flaky.calls + backup.calls

        status, body, trace, total_calls = run(main())
        assert status == 200
        assert body["matches"]
        attempts = spans_named(trace, "attempt")
        assert [span["outcome"] for span in attempts] == ["failed", "ok"]
        assert total_calls == 2  # retried exactly once, answered once


class TestShardedTraces:
    def test_per_shard_timings_ride_the_engine_span(self):
        async def main():
            # Two workers fan out from four jobs up. Eight clients against
            # batch_size=4 and a flush window that never elapses: both
            # flushes are size flushes of exactly four requests.
            engine = ShardedEngine(workers=2, inner="pure")
            server = AlignmentServer(
                engine=engine, batch_size=4, flush_interval=30.0
            )
            async with AlignmentHTTPServer(server) as front:
                clients = [await HttpClient.connect(front) for _ in range(8)]
                responses = await asyncio.gather(
                    *(
                        client.request(
                            "POST",
                            "/v1/scan",
                            {"text": "ACGTACGTACGT", "pattern": "ACGT", "k": 1},
                        )
                        for client in clients
                    )
                )
                traces = []
                for _, _, headers in responses:
                    _, trace, _ = await clients[0].request(
                        "GET", f"/v1/trace/{headers['x-request-id']}"
                    )
                    traces.append(trace)
                for client in clients:
                    client.close()
                return responses, traces

        responses, traces = run(main())
        assert all(status == 200 for status, _, _ in responses)
        sharded = [
            span for trace in traces for span in spans_named(trace, "engine")
        ]
        assert len(sharded) == len(responses)
        for span in sharded:
            timings = span["attrs"]["shards"]
            # Every shard reports its job count and compute seconds, and
            # the shards together cover the whole batch.
            assert [t["jobs"] for t in timings] == [2, 2]
            assert all(t["seconds"] >= 0.0 for t in timings)
            assert all(t["jobs"] >= 1 for t in timings)
            assert sum(t["jobs"] for t in timings) == span["attrs"]["batch"]
