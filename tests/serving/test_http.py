"""Wire-level tests for the HTTP/JSON front.

Every test drives the complete path — HTTP parsing, routing, validation,
the batching alignment server, response framing — through an in-memory
``socket.socketpair`` connection (:func:`open_memory_connection`), so no
free TCP port is needed. The one exception binds an ephemeral localhost
port to prove the real-socket path works identically.
"""

import asyncio
import gc
import json
import random
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core import kernels
from repro.engine import PurePythonEngine, available_engines
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.genome import synthesize_genome
from repro.sequences.read_simulator import illumina_profile, simulate_reads
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    open_memory_connection,
    serve_http,
)
from repro.serving import http as http_module

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from check_metrics_endpoint import parse_prometheus_text  # noqa: E402

PURE = PurePythonEngine()


class HttpClient:
    """Minimal HTTP/1.1 client over one stream pair (keep-alive capable)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, front):
        return cls(*await open_memory_connection(front))

    async def request(
        self, method, path, body=None, *, close=False, raw=None, headers=None
    ):
        payload = raw if raw is not None else (
            b"" if body is None else json.dumps(body).encode()
        )
        lines = [f"{method} {path} HTTP/1.1", "Host: test"]
        lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        if payload:
            lines.append(f"Content-Length: {len(payload)}")
        if close:
            lines.append("Connection: close")
        self.writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode() + payload
        )
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


def run(coro):
    return asyncio.run(coro)


async def make_front(**server_kwargs):
    server_kwargs.setdefault("engine", "pure")
    server_kwargs.setdefault("batch_size", 8)
    server_kwargs.setdefault("flush_interval", 0.002)
    server = AlignmentServer(**server_kwargs)
    return AlignmentHTTPServer(server)


class SlowScanEngine(PurePythonEngine):
    """Pure backend whose scans block the worker thread measurably."""

    def __init__(self, delay=0.15):
        self.delay = delay

    def scan_batch(self, pairs, k, **kwargs):
        time.sleep(self.delay)
        return super().scan_batch(pairs, k, **kwargs)


class TestHappyPaths:
    def test_edit_distance_scan_align_match_direct(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                ed_status, ed, _ = await client.request(
                    "POST",
                    "/v1/edit_distance",
                    {"text": "ACGTACGT", "pattern": "ACGGT", "k": 3},
                )
                scan_status, scan, _ = await client.request(
                    "POST",
                    "/v1/scan",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                )
                al_status, al, _ = await client.request(
                    "POST",
                    "/v1/align",
                    {"text": "ACGTACGT", "pattern": "ACGGT"},
                )
                client.close()
                return (ed_status, ed), (scan_status, scan), (al_status, al)

        (ed_status, ed), (scan_status, scan), (al_status, al) = run(main())
        assert ed_status == scan_status == al_status == 200
        assert ed["distance"] == PURE.edit_distance_batch(
            [("ACGTACGT", "ACGGT")], 3
        )[0]
        expected_scan = PURE.scan_batch([("ACGTACGT", "ACGT")], 1)[0]
        assert scan["matches"] == [
            {"start": m.start, "distance": m.distance} for m in expected_scan
        ]
        from repro.core.aligner import GenAsmAligner

        expected = GenAsmAligner(engine=PURE).align("ACGTACGT", "ACGGT")
        assert al["cigar"] == expected.cigar.to_sam()
        assert al["edit_distance"] == expected.edit_distance

    @pytest.mark.parametrize(
        "engine",
        [name for name in ("pure", "native") if name in available_engines()],
    )
    def test_scan_threshold_beyond_the_pattern_is_served_like_k_equals_m(
        self, engine
    ):
        """``k`` is unbounded on the wire; the engine caps it at ``m``.

        Unclamped, ``2**60`` was a heap overflow in the C scan and a
        MemoryError (HTTP 500) on the pure backend.
        """
        text, pattern = "ACGTACGTTTACGAACGT", "ACGTACGT"

        async def main():
            async with await make_front(engine=engine) as front:
                client = await HttpClient.connect(front)
                response = await client.request(
                    "POST",
                    "/v1/scan",
                    {"text": text, "pattern": pattern, "k": 2**60},
                )
                client.close()
                return response

        status, body, _ = run(main())
        assert status == 200
        expected = PURE.scan_batch([(text, pattern)], len(pattern))[0]
        assert len(expected) > 1
        assert body["matches"] == [
            {"start": m.start, "distance": m.distance} for m in expected
        ]

    def test_distance_above_k_is_null(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST",
                    "/v1/edit_distance",
                    {"text": "AAAAAAAA", "pattern": "TTTTTTTT", "k": 2},
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 200
        assert body["distance"] is None

    def test_map_endpoint_matches_direct_mapper(self):
        genome = synthesize_genome(6_000, seed=9, name="httpref")
        read = simulate_reads(
            genome,
            count=1,
            read_length=80,
            profile=illumina_profile(0.03),
            seed=3,
        )[0]
        direct = make_genasm_mapper(genome, engine="pure")
        expected = direct.map_read(read.name, read.sequence)

        async def main():
            mapper = make_genasm_mapper(genome, engine="pure")
            server = AlignmentServer(
                mapper=mapper, batch_size=4, flush_interval=0.001
            )
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST",
                    "/v1/map",
                    {"name": read.name, "read": read.sequence},
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 200
        assert body["sam"] == expected.record.to_line()
        assert body["mapped"] is True
        assert body["position"] == expected.candidate_position

    def test_map_cigar_is_the_sam_lines_cigar_column(self):
        genome = synthesize_genome(6_000, seed=9, name="httpref")
        read = simulate_reads(
            genome,
            count=1,
            read_length=80,
            profile=illumina_profile(0.03),
            seed=3,
        )[0]
        rng = random.Random(11)
        stray = "".join(rng.choice("ACGT") for _ in range(80))

        async def main():
            server = AlignmentServer(
                mapper=make_genasm_mapper(genome, engine="pure"),
                batch_size=4,
                flush_interval=0.001,
            )
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                bodies = []
                for name, sequence in (("hit", read.sequence), ("miss", stray)):
                    status, body, _ = await client.request(
                        "POST", "/v1/map", {"name": name, "read": sequence}
                    )
                    assert status == 200
                    bodies.append(body)
                client.close()
                return bodies

        mapped, unmapped = run(main())
        assert mapped["mapped"] is True
        assert mapped["cigar"] == mapped["sam"].split("\t")[5] != "*"
        assert unmapped["mapped"] is False
        assert unmapped["cigar"] is None
        assert unmapped["sam"].split("\t")[5] == "*"

    def test_map_without_mapper_is_501(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST", "/v1/map", {"name": "r", "read": "ACGT"}
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 501
        assert "mapper" in body["error"]

    def test_real_tcp_port_serves_identically(self):
        async def main():
            front = await serve_http(
                port=0, engine="pure", batch_size=4, flush_interval=0.001
            )
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port
                )
                client = HttpClient(reader, writer)
                status, body, _ = await client.request(
                    "POST",
                    "/v1/edit_distance",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 2},
                    close=True,
                )
                client.close()
                return status, body
            finally:
                await front.stop()

        status, body = run(main())
        assert status == 200
        assert body["distance"] == 0

    def test_keep_alive_serves_many_requests_per_connection(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                distances = []
                for _ in range(5):
                    status, body, headers = await client.request(
                        "POST",
                        "/v1/edit_distance",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 2},
                    )
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    distances.append(body["distance"])
                client.close()
                return distances

        assert run(main()) == [0] * 5


class TestRequestStructure:
    """What one request costs the loop, and what a stopped front leaves."""

    @staticmethod
    def map_cluster(engine="pure", **kwargs):
        genome = synthesize_genome(6_000, seed=9, name="httpref")
        reads = simulate_reads(
            genome,
            count=4,
            read_length=80,
            profile=illumina_profile(0.03),
            seed=3,
        )
        cluster = AlignmentCluster(
            replicas=2,
            mapper=make_genasm_mapper(genome, engine=engine),
            **kwargs,
        )
        return cluster, [{"name": r.name, "read": r.sequence} for r in reads]

    def test_keep_alive_map_through_a_cluster_front_creates_no_tasks(self):
        """The connection's own task serves each request inline, and the
        replica finishes its engine call from the worker's callback:
        neither side creates an asyncio Task per request."""

        async def main():
            cluster, bodies = self.map_cluster(batch_size=64, flush_interval=0.0)
            async with AlignmentHTTPServer(cluster) as front:
                client = await HttpClient.connect(front)
                await client.request("POST", "/v1/map", bodies[0])  # warm-up
                loop = asyncio.get_running_loop()
                created = []

                def counting_factory(loop, coro, **kwargs):
                    created.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                loop.set_task_factory(counting_factory)
                try:
                    statuses = [
                        (await client.request("POST", "/v1/map", body))[0]
                        for body in bodies
                    ]
                finally:
                    loop.set_task_factory(None)
                client.close()
                await client.writer.wait_closed()
                return statuses, len(created)

        statuses, tasks = run(main())
        assert statuses == [200] * 4
        assert tasks == 0

    @pytest.mark.skipif(
        not kernels.native_available(), reason="repro.core._native is not built"
    )
    def test_keep_alive_native_map_makes_no_executor_submit(self, monkeypatch):
        """A one-read group over a native one-call mapper is mapped on the
        loop: no thread pool sees the request, and ``/v1/stats`` counts
        every engine call as inline."""

        async def main():
            cluster, bodies = self.map_cluster(
                engine="native", batch_size=64, flush_interval=0.0
            )
            async with AlignmentHTTPServer(cluster) as front:
                client = await HttpClient.connect(front)
                await client.request("POST", "/v1/map", bodies[0])  # warm-up
                before = (await client.request("GET", "/v1/stats"))[1]
                submitted = []
                submit = ThreadPoolExecutor.submit

                def counting_submit(executor, fn, /, *args, **kwargs):
                    submitted.append(fn)
                    return submit(executor, fn, *args, **kwargs)

                monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
                try:
                    statuses = [
                        (await client.request("POST", "/v1/map", body))[0]
                        for body in bodies
                    ]
                finally:
                    monkeypatch.undo()
                after = (await client.request("GET", "/v1/stats"))[1]
                client.close()
                await client.writer.wait_closed()
                return statuses, submitted, before["serving"], after["serving"]

        statuses, submitted, before, after = run(main())
        assert statuses == [200] * 4
        assert submitted == []
        assert after["engine_calls"] - before["engine_calls"] == 4
        assert after["inline_calls"] - before["inline_calls"] == 4

    @pytest.mark.skipif(
        not kernels.native_available(), reason="repro.core._native is not built"
    )
    def test_keep_alive_native_map_takes_at_most_four_loop_turns(
        self, monkeypatch
    ):
        """Client and server share the loop, so the count covers both
        sides: the server reads the request and answers it inline (a lone
        map at ``flush_interval`` 0 never leaves the connection's task),
        and the client reads the answer and sends the next request. Six
        turns while a lone request waited for a zero-second flush timer
        and its future's callback."""

        async def main():
            cluster, bodies = self.map_cluster(
                engine="native", batch_size=64, flush_interval=0.0
            )
            async with AlignmentHTTPServer(cluster) as front:
                client = await HttpClient.connect(front)
                await client.request("POST", "/v1/map", bodies[0])  # warm-up
                base = asyncio.base_events.BaseEventLoop
                run_once = base._run_once
                turns = []

                def counting_run_once(loop):
                    turns.append(None)
                    return run_once(loop)

                monkeypatch.setattr(base, "_run_once", counting_run_once)
                try:
                    statuses = [
                        (await client.request("POST", "/v1/map", body))[0]
                        for body in bodies * 4
                    ]
                finally:
                    monkeypatch.undo()
                client.close()
                await client.writer.wait_closed()
                return statuses, len(turns)

        statuses, turns = run(main())
        assert statuses == [200] * 16
        assert turns <= 4 * 16

    @pytest.mark.skipif(
        not kernels.native_available(), reason="repro.core._native is not built"
    )
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_a_pipelined_burst_does_not_hold_another_connection(
        self, batch_size
    ):
        """One client pipelines a burst of maps that are answered inline,
        so reading and serving them need not suspend; a ``/healthz`` sent
        on a second connection right after is still answered within a few
        of the burst's requests, not after all of them. At batch size 1
        every map is size-flushed and nothing else ever yields."""
        burst_size = 100

        async def main():
            cluster, bodies = self.map_cluster(
                engine="native", batch_size=batch_size, flush_interval=0.0
            )
            async with AlignmentHTTPServer(cluster) as front:
                burst = await HttpClient.connect(front)
                probe = await HttpClient.connect(front)
                await burst.request("POST", "/v1/map", bodies[0])  # warm-up
                await probe.request("GET", "/healthz")
                payload = json.dumps(bodies[1]).encode()
                one = (
                    b"POST /v1/map HTTP/1.1\r\nHost: test\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                mapped = front.stats["/v1/map"]
                before = mapped.requests
                burst.writer.write(one * burst_size)
                probe.writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                health = (await probe.read_response())[0]
                ahead = mapped.requests - before
                statuses = [
                    (await burst.read_response())[0] for _ in range(burst_size)
                ]
                for client in (burst, probe):
                    client.close()
                    await client.writer.wait_closed()
                return health, ahead, statuses

        health, ahead, statuses = run(main())
        assert health == 200
        assert statuses == [200] * burst_size
        assert ahead <= 4

    def test_stopped_front_and_backend_are_freed_by_reference_counting(self):
        """With the cyclic GC off, a stopped front, its cluster and a
        replica server die with their last reference — over a listening
        socket and an in-memory connection alike, after a ``/metrics``
        scrape on each (the front calls every collector directly, so a
        scrape leaves no cycle behind)."""

        async def main():
            cluster, bodies = self.map_cluster(flush_interval=0.001)
            front = AlignmentHTTPServer(cluster)
            await front.start(port=0)
            clients = [
                HttpClient(
                    *await asyncio.open_connection("127.0.0.1", front.port)
                ),
                await HttpClient.connect(front),
            ]
            for client in clients:
                assert (await client.request("POST", "/v1/map", bodies[0]))[0] == 200
                assert (await client.request("GET", "/v1/stats"))[0] == 200
                status, _, text = await TestMetricsEndpoint.scrape(client)
                assert status == 200
                assert "genasm_cluster_replicas" in parse_prometheus_text(text)
                client.close()
                await client.writer.wait_closed()
            await front.stop()
            refs = [
                weakref.ref(obj)
                for obj in (front, cluster, cluster.replicas[0].server)
            ]
            del front, cluster, clients, client
            for _ in range(3):
                await asyncio.sleep(0)
            return [ref() is not None for ref in refs]

        gc.collect()
        gc.disable()
        try:
            alive = run(main())
        finally:
            gc.enable()
        assert alive == [False, False, False]


class TestRejections:
    @pytest.mark.parametrize(
        "raw_body, expected_fragment",
        [
            (b"{not json", "invalid JSON"),
            (b"[1, 2, 3]", "JSON object"),
            (b"", "JSON object"),
        ],
    )
    def test_malformed_json_is_400(self, raw_body, expected_fragment):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST", "/v1/edit_distance", raw=raw_body
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 400
        assert expected_fragment in body["error"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"pattern": "ACGT", "k": 1}, "text"),
            ({"text": "ACGT", "k": 1}, "pattern"),
            ({"text": "ACGT", "pattern": "ACGT"}, "k"),
            ({"text": "ACGT", "pattern": "", "k": 1}, "non-empty"),
            ({"text": "ACGT", "pattern": "ACGT", "k": -1}, ">= 0"),
            ({"text": "ACGT", "pattern": "ACGT", "k": "3"}, "integer"),
            ({"text": "ACGT", "pattern": "ACGT", "k": True}, "integer"),
            ({"text": 7, "pattern": "ACGT", "k": 1}, "string"),
        ],
    )
    def test_field_validation_is_400(self, payload, fragment):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST", "/v1/edit_distance", payload
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 400
        assert fragment in body["error"]

    @staticmethod
    def map_names(names):
        """POST one 80 bp read per name to a mapping front; the responses."""
        genome = synthesize_genome(6_000, seed=9, name="httpref")
        read = genome.sequence[1_000:1_080]

        async def main():
            server = AlignmentServer(
                mapper=make_genasm_mapper(genome, engine="pure"),
                batch_size=4,
                flush_interval=0.001,
            )
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                responses = [
                    await client.request(
                        "POST", "/v1/map", {"name": name, "read": read}
                    )
                    for name in names
                ]
                client.close()
                return responses

        return run(main())

    @pytest.mark.parametrize(
        "name",
        ["r1\tXX:i:1\nbad", "r1\nr2", "read one", "r" * 255],
        ids=["tab", "newline", "space", "255_chars"],
    )
    def test_map_name_that_is_no_sam_qname_is_400(self, name):
        """The name is the SAM line's first field: a tab or a newline in it
        used to come back under a 200 as forged fields and lines."""
        ((status, body, _),) = self.map_names([name])
        assert status == 400
        assert "'name'" in body["error"]
        assert "QNAME" in body["error"]

    def test_map_names_that_are_sam_qnames_are_served(self):
        names = ["r0", "r16383", "!?A~", "r" * 254]
        for name, (status, body, _) in zip(names, self.map_names(names)):
            assert status == 200, body
            assert "\n" not in body["sam"]
            fields = body["sam"].split("\t")
            assert len(fields) == 11
            assert fields[0] == name

    def test_engine_symbol_rejection_maps_to_400(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST",
                    "/v1/edit_distance",
                    {"text": "ACGT", "pattern": "AZGT", "k": 1},
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 400

    def test_oversize_payload_is_413(self, monkeypatch):
        monkeypatch.setattr(http_module, "DEFAULT_MAX_BODY_BYTES", 256)

        async def main():
            server = AlignmentServer(engine="pure", batch_size=4)
            front = AlignmentHTTPServer(server)
            async with front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST",
                    "/v1/edit_distance",
                    {"text": "A" * 10_000, "pattern": "ACGT", "k": 1},
                )
                client.close()
                return status, body

        status, body = run(main())
        assert status == 413
        assert "256" in body["error"]

    def test_unknown_path_is_404_and_wrong_method_is_405(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                missing = await client.request("GET", "/v2/nothing")
                wrong = await client.request("GET", "/v1/align")
                client.close()
                return missing, wrong

        (s404, _, _), (s405, _, _) = run(main())
        assert s404 == 404
        assert s405 == 405

    @pytest.mark.parametrize(
        "length", [b"banana", b"+10", b"1_0", b"-0", b"1\xb2", b""], ids=repr
    )
    def test_bad_content_length_is_400(self, length):
        """Only ASCII digits are a length: int() would frame "+10" or "1_0"."""

        async def main():
            async with await make_front() as front:
                reader, writer = await open_memory_connection(front)
                writer.write(
                    b"POST /v1/edit_distance HTTP/1.1\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n0123456789"
                )
                await writer.drain()
                client = HttpClient(reader, writer)
                response = await client.read_response()
                client.close()
                return response

        status, body, _ = run(main())
        assert status == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize(
        "extra, expected", [(50, 400), (0, 200)], ids=["differs", "same"]
    )
    def test_repeated_content_length_must_agree(self, extra, expected):
        """A second, different length is ambiguous framing (RFC 9112 §6.3);
        repeating the same value is harmless."""
        body = json.dumps({"text": "ACGT", "pattern": "CG", "k": 0}).encode()

        async def main():
            async with await make_front() as front:
                reader, writer = await open_memory_connection(front)
                writer.write(
                    b"POST /v1/edit_distance HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + f"Content-Length: {len(body) + extra}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                client = HttpClient(reader, writer)
                # Bounded: a server framing by the larger length would
                # wait for bytes that never come.
                response = await asyncio.wait_for(client.read_response(), 5)
                client.close()
                return response

        status, _, _ = run(main())
        assert status == expected

    def test_malformed_request_line_is_400(self):
        async def main():
            async with await make_front() as front:
                reader, writer = await open_memory_connection(front)
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                client = HttpClient(reader, writer)
                response = await client.read_response()
                client.close()
                return response

        status, body, _ = run(main())
        assert status == 400

    def test_chunked_transfer_encoding_is_501(self):
        """Unparsed chunked framing would desync the keep-alive stream."""

        async def main():
            async with await make_front() as front:
                reader, writer = await open_memory_connection(front)
                writer.write(
                    b"POST /v1/align HTTP/1.1\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    b"4\r\n{\"a\"\r\n0\r\n\r\n"
                )
                await writer.drain()
                client = HttpClient(reader, writer)
                response = await client.read_response()
                client.close()
                return response

        status, body, _ = run(main())
        assert status == 501
        assert "Transfer-Encoding" in body["error"]

    def test_oversize_header_line_is_400_not_a_dropped_connection(self):
        """A header beyond the stream limit must still get a response."""

        async def main():
            async with await make_front() as front:
                reader, writer = await open_memory_connection(front)
                writer.write(
                    b"GET /healthz HTTP/1.1\r\n"
                    b"X-Big: " + b"a" * 80_000 + b"\r\n\r\n"
                )
                await writer.drain()
                client = HttpClient(reader, writer)
                response = await client.read_response()
                client.close()
                return response

        status, body, _ = run(main())
        assert status == 400
        assert "too long" in body["error"]


class TestBackpressureAndHealth:
    def test_saturated_server_sheds_with_503(self):
        async def main():
            engine = SlowScanEngine(delay=0.2)
            server = AlignmentServer(
                engine=engine,
                batch_size=1,
                flush_interval=0.001,
                max_pending=1,
            )
            async with AlignmentHTTPServer(server) as front:
                busy = await HttpClient.connect(front)
                shed = await HttpClient.connect(front)
                first = asyncio.create_task(
                    busy.request(
                        "POST",
                        "/v1/scan",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                    )
                )
                # Wait until the slow scan actually owns the only slot.
                for _ in range(200):
                    await asyncio.sleep(0.005)
                    if server.saturated:
                        break
                assert server.saturated
                status_shed, body_shed, headers = await shed.request(
                    "POST",
                    "/v1/scan",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                )
                status_first, body_first, _ = await first
                busy.close()
                shed.close()
                return (status_shed, body_shed, headers), (
                    status_first,
                    body_first,
                )

        (status_shed, body_shed, headers), (status_first, body_first) = run(
            main()
        )
        assert status_shed == 503
        assert "capacity" in body_shed["error"]
        # Dynamic hint: integer delay-seconds on the wire, the precise
        # load-derived estimate in the body.
        assert int(headers["retry-after"]) >= 1
        assert 0 < body_shed["retry_after"] <= 60
        # The request that held the slot still completes correctly.
        assert status_first == 200
        assert body_first["matches"]

    def test_healthz_answers_under_load(self):
        async def main():
            engine = SlowScanEngine(delay=0.25)
            server = AlignmentServer(
                engine=engine,
                batch_size=1,
                flush_interval=0.001,
                max_pending=1,
            )
            async with AlignmentHTTPServer(server) as front:
                busy = await HttpClient.connect(front)
                probe = await HttpClient.connect(front)
                slow = asyncio.create_task(
                    busy.request(
                        "POST",
                        "/v1/scan",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                    )
                )
                for _ in range(200):
                    await asyncio.sleep(0.005)
                    if server.saturated:
                        break
                start = time.perf_counter()
                status, body, _ = await probe.request("GET", "/healthz")
                elapsed = time.perf_counter() - start
                await slow
                busy.close()
                probe.close()
                return status, body, elapsed

        status, body, elapsed = run(main())
        assert status == 200
        assert body["status"] == "ok"
        assert body["saturated"] is True
        # Health must not queue behind the saturated engine.
        assert elapsed < 0.2

    def test_stats_endpoint_reports_per_endpoint_counters(self):
        async def main():
            async with await make_front() as front:
                client = await HttpClient.connect(front)
                await client.request(
                    "POST",
                    "/v1/edit_distance",
                    {"text": "ACGT", "pattern": "ACGT", "k": 1},
                )
                await client.request("POST", "/v1/edit_distance", raw=b"nope")
                status, body, _ = await client.request("GET", "/v1/stats")
                client.close()
                return status, body

        status, body = run(main())
        assert status == 200
        endpoint = body["endpoints"]["/v1/edit_distance"]
        assert endpoint["requests"] == 2
        assert endpoint["ok"] == 1
        assert endpoint["errors"] == {"400": 1}
        assert body["serving"]["served"] == 1
        assert body["flush"]["batch_size"] == 8


class TestNoAdmissionControl:
    """The front admits every well-formed request: no API key is read,
    no tenant is tracked, and only a 503 asks the client to retry."""

    SCAN = {"text": "ACGTACGT", "pattern": "ACGT", "k": 1}

    def test_api_key_header_changes_nothing(self):
        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                bare = await client.request("POST", "/v1/scan", self.SCAN)
                keyed = await client.request(
                    "POST", "/v1/scan", self.SCAN,
                    headers={"X-API-Key": "not-a-known-key"},
                )
                _, stats, _ = await client.request("GET", "/v1/stats")
                client.close()
                return bare, keyed, stats

        bare, keyed, stats = run(main())
        assert bare[:2] == keyed[:2]
        assert bare[0] == 200
        assert "tenants" not in stats
        assert stats["endpoints"]["/v1/scan"]["ok"] == 2

    def test_only_503_carries_retry_after(self):
        from repro.serving.http import _REASONS, _RETRYABLE_STATUSES

        assert _RETRYABLE_STATUSES == (503,)
        assert 429 not in _REASONS

        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                expired = await client.request(
                    "POST", "/v1/scan", dict(self.SCAN, timeout_ms=1e-6)
                )
                rejected = await client.request(
                    "POST", "/v1/scan", dict(self.SCAN, k=-1)
                )
                client.close()
                return expired, rejected

        expired, rejected = run(main())
        assert (expired[0], rejected[0]) == (504, 400)
        assert "retry-after" not in expired[2]
        assert "retry-after" not in rejected[2]
        assert "retry_after" not in expired[1]

    def test_exposition_has_no_tenant_series(self):
        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                await client.request(
                    "POST", "/v1/scan", self.SCAN,
                    headers={"X-API-Key": "not-a-known-key"},
                )
                status, _, text = await TestMetricsEndpoint.scrape(client)
                client.close()
                return status, text

        status, text = run(main())
        assert status == 200
        families = parse_prometheus_text(text)
        assert not [name for name in families if name.startswith("genasm_qos_")]
        for family in families.values():
            for _, labels, _ in family["samples"]:
                assert "tenant" not in labels


class TestShutdown:
    def test_stop_drains_in_flight_request(self):
        async def main():
            engine = SlowScanEngine(delay=0.2)
            server = AlignmentServer(
                engine=engine, batch_size=1, flush_interval=0.001
            )
            front = AlignmentHTTPServer(server)
            client = await HttpClient.connect(front)
            in_flight = asyncio.create_task(
                client.request(
                    "POST",
                    "/v1/scan",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                )
            )
            await asyncio.sleep(0.05)  # request reaches the engine
            await front.stop()
            status, body, headers = await in_flight
            client.close()
            return status, body, headers

        status, body, headers = run(main())
        # Graceful shutdown: the response was computed and delivered.
        assert status == 200
        assert body["matches"]
        assert headers["connection"] == "close"

    def test_new_requests_after_stop_are_refused(self):
        async def main():
            front = await make_front()
            client = await HttpClient.connect(front)
            status, _, _ = await client.request("GET", "/healthz")
            assert status == 200
            await front.stop()
            # The keep-alive connection was closed during shutdown.
            leftover = await client.reader.read()
            client.close()
            return leftover

        assert run(main()) == b""

    def test_stop_is_idempotent(self):
        async def main():
            front = await make_front()
            await front.stop()
            await front.stop()

        run(main())


class TestMetricsEndpoint:
    """``GET /metrics`` must serve *valid* Prometheus text exposition —
    asserted by parsing with the strict parser, never by grepping — and
    the family set must widen with the mounted backend (server-only vs
    cluster)."""

    @staticmethod
    async def scrape(client):
        # /metrics is not JSON, so read the body raw instead of going
        # through HttpClient.read_response.
        client.writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        await client.writer.drain()
        status_line = await client.reader.readline()
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await client.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await client.reader.readexactly(
            int(headers.get("content-length", "0"))
        )
        return status, headers, body.decode()

    def test_server_front_serves_parseable_exposition(self):
        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                for _ in range(3):
                    await client.request(
                        "POST",
                        "/v1/scan",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                    )
                status, headers, text = await self.scrape(client)
                client.close()
                return status, headers, text

        status, headers, text = run(main())
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus_text(text)  # raises on invalid output
        for name in (
            "genasm_http_requests_total",
            "genasm_http_request_duration_seconds",
            "genasm_serving_requests_total",
            "genasm_serving_flushes_total",
            "genasm_serving_request_latency_seconds",
            "genasm_serving_pending_requests",
        ):
            assert name in families, f"{name} missing from /metrics"
        scan_series = [
            labels
            for _, labels, _ in families["genasm_http_requests_total"]["samples"]
            if labels.get("endpoint") == "/v1/scan"
        ]
        assert scan_series, "per-endpoint labels missing"

    def test_cluster_front_adds_cluster_families(self):
        async def main():
            cluster = AlignmentCluster(
                replicas=2,
                engine="pure",
                batch_size=4,
                flush_interval=0.002,
            )
            async with AlignmentHTTPServer(cluster) as front:
                client = await HttpClient.connect(front)
                await client.request(
                    "POST",
                    "/v1/scan",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                )
                status, _, text = await self.scrape(client)
                client.close()
                return status, text

        status, text = run(main())
        assert status == 200
        families = parse_prometheus_text(text)
        for name in (
            "genasm_cluster_replicas",
            "genasm_cluster_events_total",
            "genasm_cluster_replica_requests_total",
            "genasm_cluster_replica_latency_seconds",
        ):
            assert name in families, f"{name} missing from /metrics"
        # Per-replica labels: both replicas report dispatch series.
        replicas = {
            labels["replica"]
            for _, labels, _ in families[
                "genasm_cluster_replica_requests_total"
            ]["samples"]
        }
        assert len(replicas) == 2

    def test_histograms_expose_log_spaced_cumulative_buckets(self):
        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                for _ in range(5):
                    await client.request(
                        "POST",
                        "/v1/scan",
                        {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                    )
                _, _, text = await self.scrape(client)
                client.close()
                return text

        families = parse_prometheus_text(run(main()))
        samples = families["genasm_http_request_duration_seconds"]["samples"]
        buckets = [
            (labels, value)
            for name, labels, value in samples
            if name.endswith("_bucket") and labels.get("endpoint") == "/v1/scan"
        ]
        # The parser already enforced cumulativity and +Inf == _count;
        # here: at least one finite boundary survived the empty-bucket
        # elision, so the series is a usable histogram, not a bare count.
        finite = [labels["le"] for labels, _ in buckets if labels["le"] != "+Inf"]
        assert finite

    def test_front_backend_and_job_manager_share_one_page(self):
        """The front calls its own, the backend's and the job manager's
        collectors at scrape time and renders them as one page."""

        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                await client.request("GET", "/healthz")
                _, _, text = await self.scrape(client)
                client.close()
                return text

        families = parse_prometheus_text(run(main()))
        for name in (
            "genasm_http_requests_total",  # the front
            "genasm_serving_requests_total",  # the backend
            "genasm_jobs",  # the job manager
            "genasm_job_reads_total",
        ):
            assert name in families, f"{name} missing from /metrics"

    def test_repeated_scrapes_report_current_values(self):
        """Families are built afresh per scrape: a second scrape with no
        work in between repeats the backend's samples, not doubles them."""

        async def main():
            front = await make_front()
            async with front:
                client = await HttpClient.connect(front)
                await client.request(
                    "POST",
                    "/v1/scan",
                    {"text": "ACGTACGT", "pattern": "ACGT", "k": 1},
                )
                pages = [(await self.scrape(client))[2] for _ in range(2)]
                client.close()
                return pages

        first, second = (parse_prometheus_text(page) for page in run(main()))
        for name in (
            "genasm_serving_requests_total",
            "genasm_serving_flushes_total",
        ):
            assert first[name]["samples"] == second[name]["samples"]
            assert first[name]["samples"]
