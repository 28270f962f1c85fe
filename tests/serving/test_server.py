"""Behavior tests for the asyncio alignment server.

The server must be a transparent batching layer: every request resolves to
exactly what a direct engine call would return, regardless of how requests
interleave, while the flush policy (size or deadline), the backpressure
bound, and shutdown all behave as documented. Tests drive real event loops
via ``asyncio.run`` — no extra pytest plugins needed.
"""

import asyncio
import random
import threading
import time

import pytest

from repro.core import kernels
from repro.core.aligner import GenAsmAligner
from repro.core.prefilter import GenAsmFilter
from repro.engine import PurePythonEngine, get_engine
from repro.engine.native import NativeEngine
from repro.mapping.pipeline import make_genasm_mapper
from repro.sequences.alphabet import DNA
from repro.sequences.genome import synthesize_genome
from repro.sequences.mutate import MutationProfile
from repro.sequences.read_simulator import illumina_profile, simulate_reads
from repro.serving import (
    AlignmentCluster,
    AlignmentServer,
    RequestContext,
    ServerClosedError,
    Trace,
)
from repro.serving.server import INLINE_MAP_BASES, NO_CONTEXT, _Request

PURE = PurePythonEngine()


def random_pairs(count, seed, text_len=(30, 90), pattern_len=(10, 80)):
    rng = random.Random(seed)
    return [
        (
            "".join(rng.choice("ACGT") for _ in range(rng.randint(*text_len))),
            "".join(
                rng.choice("ACGT") for _ in range(rng.randint(*pattern_len))
            ),
        )
        for _ in range(count)
    ]


class TestRequestCorrectness:
    def test_edit_distance_matches_engine(self):
        pairs = random_pairs(40, seed=0xE1)
        k = 8
        expected = PURE.edit_distance_batch(pairs, k)

        async def run():
            async with AlignmentServer(engine="pure", batch_size=16) as server:
                return list(
                    await asyncio.gather(
                        *(server.edit_distance(t, p, k) for t, p in pairs)
                    )
                )

        assert asyncio.run(run()) == expected

    def test_scan_and_align_match_direct_calls(self):
        pairs = random_pairs(12, seed=0xE2)
        k = 5
        aligner = GenAsmAligner(engine=PURE)
        expected_scans = PURE.scan_batch(pairs, k)
        expected_aligns = [aligner.align(t, p) for t, p in pairs]

        async def run():
            async with AlignmentServer(engine="pure", batch_size=8) as server:
                scans = await asyncio.gather(
                    *(server.scan(t, p, k) for t, p in pairs)
                )
                aligns = await asyncio.gather(
                    *(server.align(t, p) for t, p in pairs)
                )
                return scans, aligns

        scans, aligns = asyncio.run(run())
        assert list(scans) == expected_scans
        for exp, act in zip(expected_aligns, aligns):
            assert str(exp.cigar) == str(act.cigar)
            assert exp.edit_distance == act.edit_distance

    def test_mixed_kinds_and_keys_in_one_flush(self):
        """Different (kind, k) groups sharing a flush each get one call."""
        pairs = random_pairs(6, seed=0xE3)

        async def run():
            async with AlignmentServer(
                engine="pure", batch_size=64, flush_interval=0.01
            ) as server:
                results = await asyncio.gather(
                    server.edit_distance(*pairs[0], 2),
                    server.edit_distance(*pairs[1], 7),
                    server.scan(*pairs[2], 3),
                    server.scan(*pairs[3], 3, first_match_only=True),
                    server.align(*pairs[4]),
                )
                return results, server.stats

        results, stats = asyncio.run(run())
        assert results[0] == PURE.edit_distance_batch([pairs[0]], 2)[0]
        assert results[1] == PURE.edit_distance_batch([pairs[1]], 7)[0]
        assert results[2] == PURE.scan_batch([pairs[2]], 3)[0]
        assert stats.flushes == 1
        assert stats.engine_calls == 5  # five distinct (kind, key) groups

    def test_engine_error_propagates_to_caller(self):
        async def run():
            async with AlignmentServer(engine="pure", batch_size=4) as server:
                with pytest.raises(ValueError):
                    await server.scan("ACGT", "ACGT", -1)
                # Server stays usable after a failed batch.
                return await server.edit_distance("ACGTACGT", "ACGT", 2)

        assert asyncio.run(run()) == 0


class SlowScanEngine(PurePythonEngine):
    """Scans that take ``delay`` seconds; ``gate``, when set, holds them
    until released; ``fail`` makes them raise instead."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.gate: threading.Event | None = None
        self.started = threading.Event()
        self.fail = False

    def scan_batch(self, pairs, k, **kwargs):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test forgot to open the gate"
        time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("engine fault")
        return super().scan_batch(pairs, k, **kwargs)


class TestEngineCallCompletion:
    """Each group's engine call is finished by the worker's completion
    callback on the loop; the next group is submitted from there."""

    def test_each_group_of_a_flush_gets_its_own_span_and_service_sample(self):
        engine = SlowScanEngine(delay=0.03)

        async def run():
            server = AlignmentServer(
                engine=engine, batch_size=2, flush_interval=60.0
            )
            samples = []
            observe = server._observe_service
            server._observe_service = lambda s: (samples.append(s), observe(s))
            traces = [Trace(), Trace()]
            results = await asyncio.gather(
                *(
                    server.scan(
                        "ACGTACGT", "ACGT", k, ctx=RequestContext(trace=trace)
                    )
                    for k, trace in zip((0, 1), traces)
                )
            )
            await server.stop()
            return results, traces, samples, server.stats

        results, traces, samples, stats = asyncio.run(run())
        assert results == [
            PURE.scan_batch([("ACGTACGT", "ACGT")], k)[0] for k in (0, 1)
        ]
        assert (stats.flushes, stats.engine_calls) == (1, 2)
        engine_spans = [
            [span for span in trace.spans if span.name == "engine"]
            for trace in traces
        ]
        assert [len(spans) for spans in engine_spans] == [1, 1]
        first, second = (spans[0] for spans in engine_spans)
        assert first.attrs["batch"] == second.attrs["batch"] == 1
        # The second call is submitted when the first one's callback ran:
        # neither span (nor service sample) covers the other's call.
        assert first.end <= second.start
        assert len(samples) == 2
        for span, sample in zip((first, second), samples):
            assert span.duration < 2 * engine.delay + 0.05
            assert engine.delay <= sample < 2 * engine.delay + 0.05

    def test_stop_returns_after_in_flight_futures_are_resolved(self):
        engine = SlowScanEngine()
        engine.gate = threading.Event()

        async def run():
            server = AlignmentServer(engine=engine, batch_size=1)
            request = asyncio.create_task(server.scan("ACGTACGT", "ACGT", 0))
            while not engine.started.is_set():
                await asyncio.sleep(0.001)
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0.02)
            assert not stopping.done()  # the call is still computing
            engine.gate.set()
            await stopping
            served_at_stop = server.stats.served
            return served_at_stop, await request

        served_at_stop, result = asyncio.run(run())
        assert served_at_stop == 1
        assert result == PURE.scan_batch([("ACGTACGT", "ACGT")], 0)[0]

    def test_engine_exception_reaches_every_caller_in_its_group(self):
        engine = SlowScanEngine()
        engine.fail = True

        async def run():
            async with AlignmentServer(
                engine=engine, batch_size=3, flush_interval=0.01
            ) as server:
                outcomes = await asyncio.gather(
                    *(server.scan("ACGTACGT", "ACG" + c, 0) for c in "ACG"),
                    return_exceptions=True,
                )
                engine.fail = False
                after = await server.scan("ACGTACGT", "ACGT", 0)
                return outcomes, after, server.stats

        outcomes, after, stats = asyncio.run(run())
        assert [type(o) for o in outcomes] == [RuntimeError] * 3
        assert (stats.engine_calls, stats.failed, stats.served) == (2, 3, 1)
        assert after == PURE.scan_batch([("ACGTACGT", "ACGT")], 0)[0]


class TestFlushPolicy:
    def test_size_flush_fires_at_batch_size(self):
        pairs = random_pairs(32, seed=0xF1)

        async def run():
            # A flush interval long enough that only size flushes happen.
            async with AlignmentServer(
                engine="pure", batch_size=8, flush_interval=30.0
            ) as server:
                await asyncio.gather(
                    *(server.edit_distance(t, p, 4) for t, p in pairs)
                )
                return server.stats

        stats = asyncio.run(run())
        assert stats.requests == 32
        assert stats.size_flushes >= 1
        assert stats.max_batch >= 8

    def test_deadline_flush_fires_below_batch_size(self):
        pairs = random_pairs(3, seed=0xF2)

        async def run():
            async with AlignmentServer(
                engine="pure", batch_size=64, flush_interval=0.005
            ) as server:
                results = await asyncio.gather(
                    *(server.edit_distance(t, p, 4) for t, p in pairs)
                )
                return results, server.stats

        results, stats = asyncio.run(run())
        assert len(results) == 3
        assert stats.deadline_flushes >= 1
        assert stats.size_flushes == 0


class OrderRecordingEngine(PurePythonEngine):
    """Records the pairs of every edit-distance call, in call order."""

    def __init__(self):
        self.batches = []

    def edit_distance_batch(self, pairs, k, **kwargs):
        self.batches.append(list(pairs))
        return super().edit_distance_batch(pairs, k, **kwargs)


class TestFifoOrder:
    """The pending queue is first in, first out: batches are cut
    ``batch_size`` at a time in arrival order and reach the engine in
    that order."""

    REQUESTS = 11

    @staticmethod
    def serve(batch_size):
        pairs = random_pairs(TestFifoOrder.REQUESTS, seed=0xF1F0)
        engine = OrderRecordingEngine()

        async def run():
            async with AlignmentServer(
                engine=engine, batch_size=batch_size, flush_interval=0.02
            ) as server:
                results = await asyncio.gather(
                    *(server.edit_distance(t, p, 4) for t, p in pairs)
                )
                return results, server.stats

        results, stats = asyncio.run(run())
        assert results == PURE.edit_distance_batch(pairs, 4)
        return pairs, engine.batches, stats

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8])
    def test_batches_leave_in_arrival_order(self, batch_size):
        pairs, batches, _ = self.serve(batch_size)
        assert [pair for batch in batches for pair in batch] == pairs
        full, rest = divmod(len(pairs), batch_size)
        assert [len(batch) for batch in batches] == (
            [batch_size] * full + ([rest] if rest else [])
        )

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8])
    def test_flush_counts_follow_the_batch_size(self, batch_size):
        _, _, stats = self.serve(batch_size)
        full, rest = divmod(self.REQUESTS, batch_size)
        assert stats.size_flushes == full
        assert stats.deadline_flushes == (1 if rest else 0)
        assert stats.flushes == full + (1 if rest else 0)
        assert stats.max_batch == batch_size
        assert stats.served == self.REQUESTS


class TestConcurrencyAndBackpressure:
    def test_sustains_64_concurrent_clients(self):
        pairs = random_pairs(256, seed=0xF3)
        k = 6
        expected = PURE.edit_distance_batch(pairs, k)

        async def client(server, own):
            out = []
            for text, pattern in own:
                out.append(await server.edit_distance(text, pattern, k))
            return out

        async def run():
            async with AlignmentServer(
                engine="pure",
                batch_size=32,
                flush_interval=0.002,
                max_pending=128,
            ) as server:
                shards = [pairs[c::64] for c in range(64)]
                got = await asyncio.gather(
                    *(client(server, shard) for shard in shards)
                )
                return got, server.stats

        got, stats = asyncio.run(run())
        flat = {}
        for c, shard_results in enumerate(got):
            for i, value in enumerate(shard_results):
                flat[c + 64 * i] = value
        assert [flat[i] for i in range(len(pairs))] == expected
        assert stats.served == len(pairs)
        # Re-batching must actually happen under concurrency.
        assert stats.mean_batch > 1.0

    def test_pending_queue_is_bounded(self):
        """The queue never exceeds max_pending even with a flood of clients."""
        pairs = random_pairs(120, seed=0xF4)
        observed = []

        async def run():
            server = AlignmentServer(
                engine="pure",
                batch_size=8,
                flush_interval=0.001,
                max_pending=16,
            )

            async def spy_client(text, pattern):
                observed.append(server.pending)
                return await server.edit_distance(text, pattern, 4)

            async with server:
                await asyncio.gather(*(spy_client(t, p) for t, p in pairs))
            return server

        server = asyncio.run(run())
        assert max(observed) <= 16
        assert server.stats.served == len(pairs)

    def test_max_pending_must_cover_batch_size(self):
        with pytest.raises(ValueError):
            AlignmentServer(engine="pure", batch_size=64, max_pending=8)


class TestShutdown:
    def test_stop_drains_queued_requests(self):
        async def run(backend_cls):
            backend = backend_cls(
                engine="pure", batch_size=64, flush_interval=60.0
            )
            task = asyncio.create_task(
                backend.edit_distance("ACGTACGT", "ACGT", 2)
            )
            await asyncio.sleep(0)  # let the request enqueue
            assert backend.pending == 1
            await backend.stop()
            return await task, backend.stats_payload()["serving"]

        # ``/v1/stats`` accounts for every flush by what triggered it —
        # for a bare server and for a cluster's merged block alike.
        for backend_cls in (AlignmentServer, AlignmentCluster):
            result, serving = asyncio.run(run(backend_cls))
            assert result == 0
            assert serving["final_flushes"] == 1
            assert serving["flushes"] == (
                serving["size_flushes"]
                + serving["deadline_flushes"]
                + serving["final_flushes"]
            )

    def test_submit_after_stop_rejected(self):
        async def run():
            server = AlignmentServer(engine="pure")
            await server.stop()
            with pytest.raises(ServerClosedError):
                await server.edit_distance("ACGT", "ACGT", 1)

        asyncio.run(run())

    def test_stop_is_idempotent(self):
        async def run():
            async with AlignmentServer(engine="pure") as server:
                await server.edit_distance("ACGT", "ACGT", 1)
            await server.stop()  # second stop (after __aexit__) is a no-op

        asyncio.run(run())


class TestMapServing:
    @pytest.fixture(scope="class")
    def genome(self):
        return synthesize_genome(6_000, seed=5, name="servref")

    @pytest.fixture(scope="class")
    def reads(self, genome):
        return simulate_reads(
            genome,
            count=10,
            read_length=80,
            profile=illumina_profile(0.04),
            seed=17,
        )

    def test_map_read_requires_mapper(self):
        async def run():
            async with AlignmentServer(engine="pure") as server:
                with pytest.raises(RuntimeError):
                    await server.map_read("r", "ACGT")

        asyncio.run(run())

    def test_served_mapping_matches_direct(self, genome, reads):
        pairs = [(r.name, r.sequence) for r in reads]
        direct = make_genasm_mapper(genome)
        expected = [direct.map_read(n, s) for n, s in pairs]

        served_mapper = make_genasm_mapper(genome)

        async def serve():
            async with AlignmentServer(
                mapper=served_mapper, batch_size=4, flush_interval=0.001
            ) as server:
                return await asyncio.gather(
                    *(server.map_read(name, read) for name, read in pairs)
                )

        results = asyncio.run(serve())
        for exp, act in zip(expected, results):
            assert exp.record.to_line() == act.record.to_line()
            assert exp.candidate_position == act.candidate_position
            assert exp.reverse == act.reverse
        assert direct.stats == served_mapper.stats

    def test_server_uses_mapper_engine_by_default(self, genome):
        mapper = make_genasm_mapper(genome, engine="pure")
        server = AlignmentServer(mapper=mapper)
        assert type(server.engine) is PurePythonEngine


class TestServerConstruction:
    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            AlignmentServer(engine="pure", batch_size=0)

    def test_invalid_flush_interval(self):
        with pytest.raises(ValueError):
            AlignmentServer(engine="pure", flush_interval=-1.0)

    def test_engine_spec_resolution(self):
        server = AlignmentServer(engine=get_engine("pure"))
        assert type(server.engine) is PurePythonEngine

    @pytest.mark.parametrize("interval", [0.0, 0.007, 30.0])
    def test_stats_report_the_fixed_flush_window(self, interval):
        server = AlignmentServer(
            engine="pure", batch_size=8, flush_interval=interval
        )
        assert server.stats_payload()["flush"] == {
            "current_interval_ms": interval * 1e3,
            "batch_size": 8,
        }


class TestLoadVisibility:
    def test_in_flight_and_saturated_reflect_slots(self):
        async def run():
            server = AlignmentServer(
                engine="pure", batch_size=2, max_pending=2
            )
            assert server.in_flight == 0
            assert not server.saturated
            async with server:
                await asyncio.gather(
                    *(
                        server.edit_distance("ACGTACGT", "ACGT", 2)
                        for _ in range(6)
                    )
                )
            assert server.in_flight == 0
            return server

        server = asyncio.run(run())
        assert server.stats.served == 6


needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="repro.core._native is not built"
)


class ThreadRecorder:
    """Stands in for a callable and records the thread of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.threads = []

    def __call__(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return self.fn(*args, **kwargs)


class SubclassedFilter(GenAsmFilter):
    """A filter the mapper cannot hand to the one native call."""


@needs_native
class TestInlineMapGroups:
    """A ``map`` group the mapper answers in one native call, whose reads
    total at most ``INLINE_MAP_BASES``, is mapped on the event loop; every
    other group runs on the worker thread."""

    @pytest.fixture(scope="class")
    def genome(self):
        return synthesize_genome(8_000, seed=5, name="inlineref")

    @staticmethod
    def reads(genome, count, length=100):
        """Reads with substitutions only, so each is exactly ``length``
        bases and a group's size against the bound is known."""
        return [
            (r.name, r.sequence)
            for r in simulate_reads(
                genome,
                count=count,
                read_length=length,
                profile=MutationProfile(0.04, 1.0, 0.0, 0.0),
                seed=17,
            )
        ]

    @staticmethod
    def serve_map(mapper, reads, group_size):
        """Map ``reads`` in size-flushed groups of ``group_size``; return
        the results, where each mapper call ran, and the server stats."""
        recorder = ThreadRecorder(mapper.map_reads)
        mapper.map_reads = recorder

        async def run():
            loop_thread = threading.get_ident()
            async with AlignmentServer(
                mapper=mapper, batch_size=group_size, flush_interval=60.0
            ) as server:
                results = await asyncio.gather(
                    *(server.map_read(name, read) for name, read in reads)
                )
            where = [
                "loop" if thread == loop_thread else "worker"
                for thread in recorder.threads
            ]
            return results, where, server.stats

        return asyncio.run(run())

    def test_one_read_group_maps_on_the_loop(self, genome):
        mapper = make_genasm_mapper(genome, engine="native")
        assert mapper.maps_in_one_call()
        results, where, stats = self.serve_map(mapper, self.reads(genome, 4), 1)
        assert where == ["loop"] * 4
        assert stats.inline_calls == stats.engine_calls == 4
        assert stats.served == 4 and all(r.alignment for r in results)

    def test_group_at_the_bound_maps_on_the_loop(self, genome):
        size = INLINE_MAP_BASES // 100
        mapper = make_genasm_mapper(genome, engine="native")
        _, where, stats = self.serve_map(mapper, self.reads(genome, size), size)
        assert where == ["loop"]
        assert stats.inline_calls == 1

    def test_group_above_the_bound_maps_on_the_worker(self, genome):
        size = INLINE_MAP_BASES // 100 + 1
        mapper = make_genasm_mapper(genome, engine="native")
        _, where, stats = self.serve_map(mapper, self.reads(genome, size), size)
        assert where == ["worker"]
        assert (stats.inline_calls, stats.engine_calls) == (0, 1)

    def test_one_long_read_maps_on_the_worker(self, genome):
        mapper = make_genasm_mapper(genome, engine="native")
        _, where, stats = self.serve_map(
            mapper, self.reads(genome, 1, length=2_000), 1
        )
        assert where == ["worker"]
        assert stats.inline_calls == 0

    def test_pure_engine_mapper_maps_on_the_worker(self, genome):
        mapper = make_genasm_mapper(genome, engine="pure")
        assert not mapper.maps_in_one_call()
        _, where, stats = self.serve_map(mapper, self.reads(genome, 2), 1)
        assert where == ["worker"] * 2
        assert stats.inline_calls == 0

    def test_wrapped_filter_maps_on_the_worker(self, genome):
        mapper = make_genasm_mapper(genome, engine="native")
        mapper.prefilter = SubclassedFilter(
            mapper.prefilter.threshold, engine="native"
        )
        assert not mapper.maps_in_one_call()
        _, where, stats = self.serve_map(mapper, self.reads(genome, 2), 1)
        assert where == ["worker"] * 2
        assert stats.inline_calls == 0

    def test_align_scan_and_edit_distance_groups_run_on_the_worker(self, genome):
        engine = NativeEngine()
        calls = {}
        for method in ("scan_batch", "edit_distance_batch", "align_batch"):
            recorder = ThreadRecorder(getattr(engine, method))
            setattr(engine, method, recorder)
            calls[method] = recorder

        async def run():
            async with AlignmentServer(
                engine=engine,
                mapper=make_genasm_mapper(genome, engine="native"),
                batch_size=1,
            ) as server:
                await server.scan("ACGTACGT", "ACGT", 1)
                await server.edit_distance("ACGTACGT", "ACGGT", 2)
                await server.align("ACGTACGT", "ACGGT")
            return threading.get_ident(), server.stats

        loop_thread, stats = asyncio.run(run())
        for recorder in calls.values():
            assert len(recorder.threads) == 1
            assert recorder.threads[0] != loop_thread
        assert (stats.inline_calls, stats.engine_calls) == (0, 3)

    def test_inline_and_worker_give_identical_sam_lines(self, genome):
        reads = self.reads(genome, 12)
        inline_mapper = make_genasm_mapper(genome, engine="native")
        worker_mapper = make_genasm_mapper(genome, engine="native")
        inline, inline_where, _ = self.serve_map(inline_mapper, reads, 1)
        worker, worker_where, _ = self.serve_map(
            worker_mapper, reads, INLINE_MAP_BASES // 100 + 1
        )
        assert set(inline_where) == {"loop"}
        assert set(worker_where) == {"worker"}
        direct = make_genasm_mapper(genome, engine="native").map_reads(reads)
        lines = [r.record.to_line() for r in direct]
        assert [r.record.to_line() for r in inline] == lines
        assert [r.record.to_line() for r in worker] == lines
        assert inline_mapper.stats == worker_mapper.stats

    def test_inline_failure_reaches_every_caller_in_its_group(self, genome):
        mapper = make_genasm_mapper(genome, engine="native")
        reads = self.reads(genome, INLINE_MAP_BASES // 100)
        working = mapper.map_reads

        def failing(batch):
            raise RuntimeError("mapper fault")

        async def run():
            async with AlignmentServer(
                mapper=mapper, batch_size=len(reads), flush_interval=60.0
            ) as server:
                mapper.map_reads = failing
                outcomes = await asyncio.gather(
                    *(server.map_read(name, read) for name, read in reads),
                    return_exceptions=True,
                )
                mapper.map_reads = working
                after = await asyncio.gather(
                    *(server.map_read(name, read) for name, read in reads)
                )
            return outcomes, after, server.stats

        outcomes, after, stats = asyncio.run(run())
        assert [type(o) for o in outcomes] == [RuntimeError] * len(reads)
        assert (stats.inline_calls, stats.failed) == (2, len(reads))
        assert stats.served == len(reads) and all(r.alignment for r in after)

    def test_stop_with_an_inline_group_queued_resolves_every_future(self, genome):
        reads = self.reads(genome, 2)
        mapper = make_genasm_mapper(genome, engine="native")

        async def run():
            server = AlignmentServer(mapper=mapper, flush_interval=60.0)
            tasks = [
                asyncio.create_task(server.map_read(name, read))
                for name, read in reads
            ]
            while server.pending < len(reads):
                await asyncio.sleep(0)
            await server.stop()
            served_at_stop = server.stats.served
            return served_at_stop, await asyncio.gather(*tasks), server.stats

        served_at_stop, results, stats = asyncio.run(run())
        assert served_at_stop == 2
        assert (stats.final_flushes, stats.inline_calls) == (1, 1)
        expected = make_genasm_mapper(genome, engine="native").map_reads(reads)
        assert [r.record.to_line() for r in results] == [
            r.record.to_line() for r in expected
        ]

    def test_inline_groups_queued_behind_a_worker_call_all_run(self, genome):
        """A thousand one-read groups wait out a held worker call, then
        run inline one after another from its completion callback."""
        engine = SlowScanEngine()
        engine.gate = threading.Event()
        reads = self.reads(genome, 10)

        async def run():
            server = AlignmentServer(
                engine=engine,
                mapper=make_genasm_mapper(genome, engine="native"),
                batch_size=1,
            )
            held = asyncio.create_task(server.scan("ACGTACGT", "ACGT", 0))
            while not engine.started.is_set():
                await asyncio.sleep(0.001)
            mapped = [
                asyncio.create_task(server.map_read(*reads[i % 10]))
                for i in range(1000)
            ]
            while server.pending or len(server._groups) < 1000:
                await asyncio.sleep(0)
            engine.gate.set()
            # A chain that recursed per group would die part-way and
            # strand the rest: bound the wait instead of hanging on them.
            _, stranded = await asyncio.wait(mapped, timeout=60)
            assert not stranded
            await held
            await server.stop()
            return [task.result() for task in mapped], server.stats

        results, stats = asyncio.run(run())
        assert len(results) == 1000 and all(r.alignment for r in results)
        assert (stats.engine_calls, stats.inline_calls) == (1001, 1000)


class TestOneBadRequestFailsAlone:
    """A group's engine call that fails for one request is rerun request by
    request: a good request flushed beside a bad one gets its answer, and
    only the bad one gets the error."""

    ENGINES = ["pure"] + (["native"] if kernels.native_available() else [])

    @staticmethod
    def flush_in_pairs(server, calls):
        """Each two consecutive calls of ``calls`` share one size flush."""

        async def run():
            async with server:
                outcomes = await asyncio.gather(
                    *(call(server) for call in calls), return_exceptions=True
                )
            return outcomes, server.stats

        return asyncio.run(run())

    @staticmethod
    def assert_foreign(outcome):
        assert isinstance(outcome, ValueError)
        assert str(outcome) == "pattern symbol '#' not in alphabet"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_edit_distance_and_align(self, engine):
        server = AlignmentServer(engine=engine, batch_size=2, flush_interval=60.0)
        text, good, bad = "ACGTACGTAC", "ACGTAC", "AC#TAC"
        outcomes, stats = self.flush_in_pairs(server, [
            lambda s: s.edit_distance(text, good, 2),
            lambda s: s.edit_distance(text, bad, 2),
            lambda s: s.align(text, bad),
            lambda s: s.align(text, good),
        ])
        assert outcomes[0] == 0
        self.assert_foreign(outcomes[1])
        self.assert_foreign(outcomes[2])
        assert outcomes[3] == GenAsmAligner(engine="pure").align(text, good)
        # Each group: the failed call and one rerun per request.
        assert (stats.flushes, stats.engine_calls) == (2, 6)
        assert (stats.served, stats.failed) == (2, 2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_map(self, engine):
        genome = synthesize_genome(6_000, seed=5, name="isolated")
        fragment = genome.sequence[2_000:2_080]
        # The bad read has candidates, so the staged filter meets the '#'.
        bad = fragment[:40] + "#" + fragment[41:]
        mapper = make_genasm_mapper(genome, seed_length=13, engine=engine)
        server = AlignmentServer(mapper=mapper, batch_size=2, flush_interval=60.0)
        outcomes, stats = self.flush_in_pairs(server, [
            lambda s: s.map_read("bad", bad),
            lambda s: s.map_read("good", fragment),
        ])
        self.assert_foreign(outcomes[0])
        alone = make_genasm_mapper(genome, seed_length=13, engine="pure")
        expected = alone.map_read("good", fragment)
        assert outcomes[1] == expected and expected.record.is_mapped
        assert (stats.served, stats.failed) == (1, 1)
        # The failed group call and the bad read's rerun count no read.
        assert server.mapper.stats == alone.stats

    def test_a_failed_group_is_not_a_service_time_sample(self):
        server = AlignmentServer(engine="pure", batch_size=2, flush_interval=60.0)
        outcomes, stats = self.flush_in_pairs(server, [
            lambda s: s.edit_distance("ACGTACGTAC", "ACGTAC", 2),
            lambda s: s.edit_distance("ACGTACGTAC", "AC#TAC", 2),
        ])
        assert outcomes[0] == 0 and stats.engine_calls == 3
        assert server._service_ewma is None

    def test_a_request_already_done_is_not_rerun(self):
        calls = []

        class Recording(PurePythonEngine):
            def edit_distance_batch(self, pairs, k, *, alphabet=DNA):
                calls.append(list(pairs))
                return super().edit_distance_batch(pairs, k, alphabet=alphabet)

        server = AlignmentServer(engine=Recording())
        loop = asyncio.new_event_loop()
        try:
            group = [
                _Request(
                    "edit_distance", (2,), pair, NO_CONTEXT, loop.create_future()
                )
                for pair in [("ACGT", "AC#T"), ("ACGT", "ACGT"), ("ACGT", "ACGA")]
            ]
            group[2].future.cancel()
            results, _, failures, engine_calls = server._call(group)
        finally:
            loop.close()
        assert calls == [
            [r.payload for r in group], [("ACGT", "AC#T")], [("ACGT", "ACGT")]
        ]
        assert results[:2] == [None, 0] and engine_calls == 3
        # The done request keeps the group call's error; the bad one reran.
        assert failures[1] is None
        for failure in (failures[0], failures[2]):
            self.assert_foreign(failure)
