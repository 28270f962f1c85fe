"""Request deadlines and client hang-ups: work nobody waits for any more
never reaches the engine.

* a request whose deadline passes while queued is dropped before the
  engine call and answered with ``DeadlineExceededError`` (HTTP 504);
* a request that arrives already expired never takes a queue slot;
* ``timeout_ms`` in the body or an ``X-Request-Deadline`` header sets the
  budget over HTTP (the body wins), and an invalid budget is a 400;
* every request kind, served directly or over HTTP, honours its deadline
  the same way, and a generous one changes no answer;
* a client that disconnects mid-queue has its work cancelled, not
  computed for nobody.
"""

import asyncio
import dataclasses
import json
import math
import threading
import time

import pytest

import repro.serving
from repro.engine import PurePythonEngine
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.genome import synthesize_genome
from repro.serving import (
    AlignmentHTTPServer,
    AlignmentServer,
    DeadlineExceededError,
    RequestContext,
    Trace,
)
from repro.serving import server as server_module
from repro.serving.http import _ParsedRequest, _request_deadline, open_memory_connection

from tests.serving.test_http import HttpClient


def run(coro):
    return asyncio.run(coro)


class RecordingEngine(PurePythonEngine):
    """Engine double that records every payload it actually computed."""

    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()

    def scan_batch(self, pairs, k, **kwargs):
        with self._lock:
            self.calls.append(("scan", list(pairs)))
        return super().scan_batch(pairs, k, **kwargs)

    def served_pairs(self):
        with self._lock:
            return [pair for _, payloads in self.calls for pair in payloads]


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
                        ctx=RequestContext(deadline=time.monotonic() + 0.01),
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

    def test_http_deadline_maps_to_504(self):
        async def main():
            server = AlignmentServer(engine="pure", flush_interval=0.001)
            async with AlignmentHTTPServer(server) as front:
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
        assert stats["serving"]["expired"] == 1

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
# The latency budget on the wire
# ----------------------------------------------------------------------
SCAN = {"text": "ACGT", "pattern": "AC", "k": 0}


async def post_scan(body, headers=None):
    """POST one scan to a fresh front: ``(status, body, server stats)``."""
    server = AlignmentServer(engine="pure", flush_interval=0.001)
    async with AlignmentHTTPServer(server) as front:
        client = await HttpClient.connect(front)
        status, response, _ = await client.request(
            "POST", "/v1/scan", body, headers=headers
        )
        client.close()
        return status, response, server.stats


class TestBudgetParsing:
    @pytest.mark.parametrize(
        "budget",
        [-3, 0, -0.5, "100", True, False, [100], {"ms": 1},
         math.nan, math.inf, -math.inf],
        ids=["negative", "zero", "negative-float", "string", "true", "false",
             "list", "object", "nan", "inf", "-inf"],
    )
    def test_invalid_body_budget_is_400(self, budget):
        status, body, stats = run(post_scan(dict(SCAN, timeout_ms=budget)))
        assert status == 400
        assert body["error"].startswith("timeout_ms must be a")
        assert stats.requests == 0  # rejected before the server saw it

    @pytest.mark.parametrize(
        "header",
        ["soon", "", "-5", "0", "-0", "nan", "inf", "-inf", "1e999", "0x10"],
    )
    def test_invalid_header_budget_is_400(self, header):
        status, body, stats = run(
            post_scan(SCAN, headers={"X-Request-Deadline": header})
        )
        assert status == 400
        assert "X-Request-Deadline" in body["error"]
        assert stats.requests == 0

    @pytest.mark.parametrize(
        "body_budget, header",
        [(5000, None), (2500.5, None), (1e9, None), (None, None),
         (None, "5000"), (None, "1e4")],
        ids=["int", "float", "huge", "null-is-unset", "header", "header-exp"],
    )
    def test_valid_budget_is_served(self, body_budget, header):
        headers = None if header is None else {"X-Request-Deadline": header}
        status, body, stats = run(
            post_scan(dict(SCAN, timeout_ms=body_budget), headers=headers)
        )
        assert status == 200
        assert body["matches"]
        assert (stats.served, stats.expired) == (1, 0)

    @pytest.mark.parametrize(
        "body_budget, header, expected",
        [(5000, "soon", 200), (1e-6, "5000", 504), ("soon", "5000", 400)],
        ids=["body-ok-header-bad", "body-expired-header-ok",
             "body-bad-header-ok"],
    )
    def test_body_budget_wins_over_the_header(self, body_budget, header, expected):
        status, _, _ = run(
            post_scan(
                dict(SCAN, timeout_ms=body_budget),
                headers={"X-Request-Deadline": header},
            )
        )
        assert status == expected

    def test_budget_is_relative_milliseconds(self):
        def parse(payload, headers=None):
            request = _ParsedRequest(
                method="POST", path="/v1/scan", headers=headers or {}, body=b""
            )
            before = time.monotonic()
            deadline = _request_deadline(request, payload)
            return before, deadline, time.monotonic()

        _, unset, _ = parse({})
        assert unset is None
        for payload, headers in (
            ({"timeout_ms": 1500}, None),
            ({}, {"x-request-deadline": "1500"}),
        ):
            before, deadline, after = parse(payload, headers)
            assert before + 1.5 <= deadline <= after + 1.5


# ----------------------------------------------------------------------
# Every request kind honours its deadline
# ----------------------------------------------------------------------
KINDS = {
    "scan": (("ACGTACGT", "ACGT", 0), "/v1/scan",
             {"text": "ACGTACGT", "pattern": "ACGT", "k": 0}),
    "edit_distance": (("ACGTACGT", "ACGAACGT", 2), "/v1/edit_distance",
                      {"text": "ACGTACGT", "pattern": "ACGAACGT", "k": 2}),
    "align": (("ACGTACGT", "ACGGT"), "/v1/align",
              {"text": "ACGTACGT", "pattern": "ACGGT"}),
    "map_read": None,  # filled from the genome below
}


@pytest.fixture(scope="module")
def genome():
    return synthesize_genome(3_000, seed=11, name="deadref")


@pytest.fixture(scope="module")
def kinds(genome):
    read = genome.sequence[700:780]
    return dict(
        KINDS,
        map_read=(("r1", read), "/v1/map", {"name": "r1", "read": read}),
    )


def mapping_server(genome, **kwargs):
    return AlignmentServer(
        mapper=make_genasm_mapper(genome, engine="pure"), **kwargs
    )


def comparable(result):
    """A served result reduced to what two equal answers share."""
    record = getattr(result, "record", None)
    return record.to_line() if record is not None else result


class TestEveryKind:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_already_expired_is_refused_without_queueing(
        self, genome, kinds, kind
    ):
        args = kinds[kind][0]

        async def main():
            async with mapping_server(genome, flush_interval=0.001) as server:
                with pytest.raises(DeadlineExceededError, match=kind.split("_")[0]):
                    await getattr(server, kind)(
                        *args, ctx=RequestContext(deadline=time.monotonic())
                    )
                return server.stats

        stats = run(main())
        assert (stats.requests, stats.expired, stats.flushes) == (1, 1, 0)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_generous_deadline_changes_no_answer(self, genome, kinds, kind):
        args = kinds[kind][0]

        async def main():
            async with mapping_server(genome, flush_interval=0.001) as server:
                method = getattr(server, kind)
                bare = await method(*args)
                bounded = await method(
                    *args,
                    ctx=RequestContext(deadline=time.monotonic() + 60.0),
                )
                return bare, bounded, server.stats

        bare, bounded, stats = run(main())
        assert comparable(bounded) == comparable(bare)
        assert (stats.served, stats.expired) == (2, 0)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_expired_budget_is_504_on_every_endpoint(self, genome, kinds, kind):
        _, path, body = kinds[kind]

        async def main():
            server = mapping_server(genome, flush_interval=0.001)
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                status, response, _ = await client.request(
                    "POST", path, dict(body, timeout_ms=1e-6)
                )
                client.close()
                return status, response, server.stats

        status, response, stats = run(main())
        assert status == 504
        assert "deadline" in response["error"]
        assert (stats.expired, stats.served) == (1, 0)


# ----------------------------------------------------------------------
# The trace of an expired request
# ----------------------------------------------------------------------
class TestExpiryTrace:
    def test_request_refused_at_submit_opens_no_queue_span(self):
        async def main():
            async with AlignmentServer(
                engine="pure", flush_interval=0.001
            ) as server:
                ctx = RequestContext(deadline=time.monotonic(), trace=Trace())
                with pytest.raises(DeadlineExceededError):
                    await server.scan("ACGT", "AC", 0, ctx=ctx)
                return ctx.trace

        assert run(main()).spans == []

    def test_expired_queued_request_closes_its_queue_span_as_expired(self):
        async def main():
            async with AlignmentServer(
                engine="pure", batch_size=8, flush_interval=0.25
            ) as server:
                ctx = RequestContext(
                    deadline=time.monotonic() + 0.025, trace=Trace()
                )
                with pytest.raises(DeadlineExceededError):
                    await server.scan("ACGT", "AC", 0, ctx=ctx)
                return ctx.trace

        spans = run(main()).spans
        assert [(span.name, span.outcome) for span in spans] == [
            ("queue_wait", "expired")
        ]
        assert spans[0].attrs["batch"] == 1


# ----------------------------------------------------------------------
# The context itself
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_no_context_sets_nothing(self):
        assert server_module.NO_CONTEXT == RequestContext()
        assert server_module.NO_CONTEXT.deadline is None
        assert server_module.NO_CONTEXT.trace is None

    def test_repro_serving_exports_the_server_definitions(self):
        assert repro.serving.RequestContext is server_module.RequestContext
        assert (
            repro.serving.DeadlineExceededError
            is server_module.DeadlineExceededError
        )

    def test_context_is_frozen(self):
        ctx = RequestContext(deadline=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.deadline = 2.0

    def test_context_carries_only_deadline_and_trace(self):
        fields = [field.name for field in dataclasses.fields(RequestContext)]
        assert fields == ["deadline", "trace"]
        with pytest.raises(TypeError):
            RequestContext(tenant="acme")

    def test_deadline_exceeded_is_not_an_input_rejection(self):
        # A cluster books ValueError as the request's own bad input; an
        # expiry must reach its own branch instead.
        assert issubclass(DeadlineExceededError, RuntimeError)
        assert not issubclass(DeadlineExceededError, ValueError)
