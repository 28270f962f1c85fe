"""A lone map request at ``flush_interval`` 0 is served in its caller's task.

When a ``map_read`` finds its server idle (nothing queued, no group
waiting, no engine call in flight) with a zero flush window, its flush runs
at once instead of on the next loop turn; with a mapper that answers in one
native call the group is then mapped inline and its future resolved before
the caller awaits it, so no loop turn passes. These tests pin how such a
request is booked — counters, deadline and input failures, spans — that it
never overtakes work already in flight, and that a mapper which cannot
answer in one call still goes to the worker.
"""

import asyncio
import json
import threading

import pytest

from repro.core import kernels
from repro.engine import PurePythonEngine
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.genome import synthesize_genome
from repro.sequences.read_simulator import illumina_profile, simulate_reads
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    open_memory_connection,
)

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="repro.core._native is not built"
)


@pytest.fixture(scope="module")
def genome():
    return synthesize_genome(6_000, seed=5, name="lone")


def some_reads(genome, count):
    return [
        (r.name, r.sequence)
        for r in simulate_reads(
            genome,
            count=count,
            read_length=80,
            profile=illumina_profile(0.03),
            seed=11,
        )
    ]


async def post_map(front, body):
    """One ``POST /v1/map`` on a fresh connection: ``(status, JSON body)``."""
    reader, writer = await open_memory_connection(front)
    try:
        payload = json.dumps(body).encode()
        writer.write(
            b"POST /v1/map HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class CountingTurns:
    """Counts event-loop turns while active (``with``)."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.turns = 0

    def __enter__(self):
        base = asyncio.base_events.BaseEventLoop
        run_once = base._run_once

        def counting_run_once(loop):
            self.turns += 1
            return run_once(loop)

        self.monkeypatch.setattr(base, "_run_once", counting_run_once)
        return self

    def __exit__(self, *exc):
        self.monkeypatch.undo()


@needs_native
class TestLoneMap:
    def test_sequential_lone_maps_are_one_read_flushes_in_the_callers_task(
        self, genome, monkeypatch
    ):
        reads = some_reads(genome, 6)
        mapper = make_genasm_mapper(genome, engine="native")
        expected = make_genasm_mapper(genome, engine="native").map_reads(reads)

        async def main():
            results, turns = [], 0
            async with AlignmentServer(
                mapper=mapper, batch_size=64, flush_interval=0.0
            ) as server:
                for name, read in reads:
                    await asyncio.sleep(0)  # each read alone in its turn
                    with CountingTurns(monkeypatch) as counter:
                        results.append(await server.map_read(name, read))
                    turns += counter.turns
            return results, turns, server.stats

        results, turns, stats = asyncio.run(main())
        n = len(reads)
        assert [r.record.to_line() for r in results] == [
            r.record.to_line() for r in expected
        ]
        assert turns == 0  # no await inside map_read suspended
        assert (
            stats.requests,
            stats.served,
            stats.flushes,
            stats.deadline_flushes,
            stats.inline_calls,
            stats.engine_calls,
        ) == (n,) * 6
        assert (stats.size_flushes, stats.failed, stats.expired) == (0, 0, 0)
        assert stats.max_batch == 1
        assert stats.latency.count == n

    def test_maps_behind_a_lone_one_in_its_loop_turn_still_batch(self, genome):
        """Maps that arrive in one loop turn: the first finds the server
        idle and is answered at once; the rest wait for the flush it arms
        and go to the engine together, one loop turn later."""
        reads = some_reads(genome, 3)  # two 80 bp reads stay inline
        mapper = make_genasm_mapper(genome, engine="native")
        expected = make_genasm_mapper(genome, engine="native").map_reads(reads)

        async def main():
            async with AlignmentServer(
                mapper=mapper, batch_size=64, flush_interval=0.0
            ) as server:
                results = await asyncio.gather(
                    *(server.map_read(name, read) for name, read in reads)
                )
            return results, server.stats

        results, stats = asyncio.run(main())
        assert [r.record.to_line() for r in results] == [
            r.record.to_line() for r in expected
        ]
        assert (stats.requests, stats.served) == (3, 3)
        assert (stats.flushes, stats.deadline_flushes, stats.max_batch) == (
            2,
            2,
            2,
        )
        assert stats.engine_calls == stats.inline_calls == 2

    def test_an_expired_deadline_is_504_without_an_engine_call(self, genome):
        mapper = make_genasm_mapper(genome, engine="native")
        (name, read), = some_reads(genome, 1)

        async def main():
            server = AlignmentServer(
                mapper=mapper, batch_size=64, flush_interval=0.0
            )
            async with AlignmentHTTPServer(server) as front:
                # A budget far below one clock tick: spent on arrival.
                answer = await post_map(
                    front, {"name": name, "read": read, "timeout_ms": 1e-9}
                )
            return answer, server.stats

        (status, body), stats = asyncio.run(main())
        assert status == 504 and "deadline" in body["error"]
        assert (stats.requests, stats.expired) == (1, 1)
        assert (stats.engine_calls, stats.served, stats.flushes) == (0, 0, 0)
        assert mapper.stats.reads == 0

    def test_a_foreign_character_is_400_and_counted_failed(self, genome):
        mapper = make_genasm_mapper(genome, seed_length=13, engine="native")
        fragment = genome.sequence[2_000:2_080]
        # Seeds still hit, so the staged filter meets the '#'.
        bad = fragment[:40] + "#" + fragment[41:]

        async def main():
            server = AlignmentServer(
                mapper=mapper, batch_size=64, flush_interval=0.0
            )
            async with AlignmentHTTPServer(server) as front:
                answer = await post_map(front, {"name": "bad", "read": bad})
            return answer, server.stats

        (status, body), stats = asyncio.run(main())
        assert status == 400 and "'#'" in body["error"]
        assert (stats.requests, stats.failed, stats.served) == (1, 1, 0)
        assert (stats.inline_calls, stats.engine_calls) == (1, 1)
        assert stats.latency.count == 0

    def test_a_map_behind_a_worker_call_waits_for_it(self, genome):
        """An align held on the worker: a map that arrives then is queued
        behind it (no lone call while the engine is busy) and runs once the
        align has finished, in arrival order."""
        order = []
        gate = threading.Event()
        started = threading.Event()

        class HeldAlignEngine(PurePythonEngine):
            def align_batch(self, pairs, **kwargs):
                started.set()
                assert gate.wait(timeout=10.0), "test forgot to open the gate"
                order.append("align")
                return super().align_batch(pairs, **kwargs)

        mapper = make_genasm_mapper(genome, engine="native")
        map_reads = mapper.map_reads

        def recording_map_reads(batch):
            order.append("map")
            return map_reads(batch)

        mapper.map_reads = recording_map_reads
        (name, read), = some_reads(genome, 1)

        async def main():
            server = AlignmentServer(
                engine=HeldAlignEngine(),
                mapper=mapper,
                batch_size=64,
                flush_interval=0.0,
            )
            async with server:
                held = asyncio.create_task(server.align("ACGTACGT", "ACGGT"))
                while not started.is_set():
                    await asyncio.sleep(0.001)
                mapped = asyncio.create_task(server.map_read(name, read))
                while not server._groups:
                    await asyncio.sleep(0)
                queued_behind = order == []
                # A call is counted as it starts: the held one shows.
                calls_while_held = server.stats.engine_calls
                gate.set()
                results = await asyncio.gather(held, mapped)
            return queued_behind, calls_while_held, results, server.stats

        queued_behind, calls_while_held, (alignment, result), stats = (
            asyncio.run(main())
        )
        assert queued_behind
        assert calls_while_held == 1
        assert order == ["align", "map"]
        assert alignment.edit_distance == 1 and result.record.is_mapped
        assert (stats.served, stats.engine_calls, stats.inline_calls) == (2, 2, 1)

    def test_a_lone_maps_trace_has_every_stage_with_its_attributes(
        self, genome
    ):
        (name, read), = some_reads(genome, 1)
        cluster = AlignmentCluster(
            replicas=2,
            mapper=make_genasm_mapper(genome, engine="native"),
            batch_size=64,
            flush_interval=0.0,
        )

        async def main():
            async with AlignmentHTTPServer(cluster) as front:
                status, body = await post_map(front, {"name": name, "read": read})
                (trace_id,) = front.traces.trace_ids()
                return status, front.traces.get(trace_id).to_dict()

        status, trace = asyncio.run(main())
        assert status == 200
        spans = {span["name"]: span for span in trace["spans"]}
        assert [span["name"] for span in trace["spans"]] == [
            "parse",
            "attempt",
            "queue_wait",
            "batch_assembly",
            "engine",
            "serialize",
        ]
        assert all(span["outcome"] == "ok" for span in trace["spans"])
        replica = spans["attempt"]["attrs"]["replica"]
        assert spans["parse"]["attrs"].keys() == {"bytes"}
        assert spans["attempt"]["attrs"] == {
            "replica": replica,
            "method": "map_read",
        }
        assert spans["queue_wait"]["attrs"] == {
            "replica": replica,
            "kind": "map",
            "batch": 1,
        }
        assert "attrs" not in spans["batch_assembly"]
        assert spans["engine"]["attrs"] == {
            "replica": replica,
            "kind": "map",
            "batch": 1,
            "engine": "native",
        }
        assert "attrs" not in spans["serialize"]


class TestMappersThatCannotAnswerInOneCall:
    """A pure or staged mapper keeps the worker even when the server is
    idle at a zero window; only its flush is immediate."""

    @pytest.mark.parametrize(
        "kind",
        ["pure", pytest.param("staged-native", marks=needs_native)],
    )
    def test_never_take_the_inline_path(self, genome, kind):
        mapper = make_genasm_mapper(
            genome, engine="pure" if kind == "pure" else "native"
        )
        if kind == "staged-native":
            mapper._genasm = None
        assert not mapper.maps_in_one_call()
        reads = some_reads(genome, 3)
        expected = make_genasm_mapper(genome, engine="pure").map_reads(reads)

        async def main():
            server = AlignmentServer(
                mapper=mapper, batch_size=64, flush_interval=0.0
            )
            submitted = []
            submit = server._executor.submit
            server._executor.submit = (
                lambda fn, *args: submitted.append(fn) or submit(fn, *args)
            )
            async with server:
                results = [
                    await server.map_read(name, read) for name, read in reads
                ]
            return submitted, results, server.stats

        submitted, results, stats = asyncio.run(main())
        assert len(submitted) == len(reads)
        assert [r.record.to_line() for r in results] == [
            r.record.to_line() for r in expected
        ]
        assert stats.inline_calls == 0
        assert stats.engine_calls == stats.deadline_flushes == len(reads)
