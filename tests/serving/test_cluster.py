"""Behavioral tests for the replicated cluster router: construction,
per-replica engine isolation, routing, stats aggregation,
draining, and lifecycle. Fault injection lives in
``test_cluster_faults.py``."""

import asyncio

import pytest

from repro.engine import PurePythonEngine, create_engine, get_engine
from repro.serving import (
    AlignmentCluster,
    AlignmentServer,
    ServerClosedError,
)

PAIRS = [
    ("ACGTACGTAC", "ACGTTCGTAC"),
    ("GGGGCCCCAA", "GGGGCCCAA"),
    ("TTTTTTTTTT", "TTTTATTTTT"),
    ("ACACACACAC", "CACACACACA"),
]


def run(coro):
    return asyncio.run(coro)


def expected(text, pattern, k):
    return PurePythonEngine().edit_distance_batch([(text, pattern)], k)[0]


class TestEngineConstructionHooks:
    def test_create_engine_returns_fresh_instances(self):
        first = create_engine("pure")
        second = create_engine("pure")
        assert type(first) is PurePythonEngine
        assert first is not second
        # get_engine still memoizes its singleton, untouched by create.
        assert get_engine("pure") is get_engine("pure")
        assert get_engine("pure") is not first

    def test_create_engine_passes_instance_through(self):
        engine = PurePythonEngine()
        assert create_engine(engine) is engine
        with pytest.raises(ValueError):
            create_engine(engine, bogus_kwarg=1)

    def test_cluster_builds_one_engine_per_replica(self):
        cluster = AlignmentCluster(replicas=3, engine="pure")
        engines = [r.server.engine for r in cluster.replicas]
        assert len({id(e) for e in engines}) == 3
        run(cluster.stop())

    def test_mapper_cluster_still_gets_private_engines(self):
        from repro.mapping.pipeline import make_genasm_mapper
        from repro.sequences.genome import synthesize_genome

        genome = synthesize_genome(length=600, seed=3)
        mapper = make_genasm_mapper(genome, engine="pure")
        assert not isinstance(mapper.engine, PurePythonEngine)  # spec, not instance
        cluster = AlignmentCluster(replicas=3, mapper=mapper)
        engines = [r.server.engine for r in cluster.replicas]
        # The mapper's *name* spec resolves to a fresh instance per
        # replica, never a singleton shared across worker threads.
        assert len({id(e) for e in engines}) == 3
        assert all(type(e) is PurePythonEngine for e in engines)
        # The mapper itself is rebuilt per replica over that private
        # engine (same genome/index, no shared compute state).
        mappers = [r.server.mapper for r in cluster.replicas]
        assert len({id(m) for m in mappers}) == 3
        assert all(m is not mapper for m in mappers)
        assert all(m.engine is e for m, e in zip(mappers, engines))
        assert all(m.genome is mapper.genome for m in mappers)
        run(cluster.stop())

    def test_replicas_over_a_genome_shard_share_its_index(self, tmp_path):
        """A mmap-backed template is cloned, not rebuilt: one k-mer index."""
        from repro.mapping.pipeline import make_genasm_mapper
        from repro.sequences import ShardedGenome
        from repro.sequences.genome import synthesize_genome
        from repro.sequences.read_simulator import illumina_profile, simulate_reads

        genome = synthesize_genome(length=20_000, seed=5)
        store = ShardedGenome.write([genome], tmp_path / "store")
        shard = store.shard(genome.name)
        template = make_genasm_mapper(
            shard, seed_length=13, error_rate=0.10, engine="pure"
        )
        reads = [
            (read.name, read.sequence)
            for read in simulate_reads(
                genome,
                count=6,
                read_length=100,
                profile=illumina_profile(0.05),
                seed=6,
            )
        ]
        expected_lines = [r.record.to_line() for r in template.map_reads(reads)]

        cluster = AlignmentCluster(replicas=3, mapper=template)
        mappers = [r.server.mapper for r in cluster.replicas]
        assert all(m.index is template.index for m in mappers)
        assert all(m.genome is template.genome for m in mappers)
        assert len({id(m.engine) for m in mappers}) == 3
        assert len({id(m.stats) for m in mappers} | {id(template.stats)}) == 4
        for mapper in mappers:
            lines = [r.record.to_line() for r in mapper.map_reads(reads)]
            assert lines == expected_lines
        run(cluster.stop())
        store.close()

    def test_prebuilt_servers_reject_construction_knobs(self):
        servers = [AlignmentServer(engine="pure")]
        with pytest.raises(ValueError):
            AlignmentCluster(servers=servers, engine="pure")
        with pytest.raises(ValueError):
            AlignmentCluster(servers=servers, batch_size=4)
        with pytest.raises(ValueError):
            AlignmentCluster(servers=[])
        run(servers[0].stop())

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            AlignmentCluster(replicas=0)
        # An engine *instance* would be shared by every replica's worker
        # thread — rejected outright, not silently raced.
        with pytest.raises(ValueError, match="servers"):
            AlignmentCluster(replicas=2, engine=PurePythonEngine())

    def test_bad_input_is_not_a_replica_failure(self):
        async def main():
            async with AlignmentCluster(
                replicas=2, engine="pure", batch_size=1, flush_interval=0.001
            ) as cluster:
                with pytest.raises(ValueError):
                    await cluster.scan("ACGT", "AXGT", 1)  # X not in DNA
                assert await cluster.edit_distance("ACGTACGT", "ACGGT", 3) == 1
                return cluster.retries, [
                    (r.failed, r.state) for r in cluster.replicas
                ]

        retries, replica_states = run(main())
        # The poison request surfaced as the client's error: no retry was
        # burned and no replica was cooled down over it.
        assert retries == 0
        assert all(failed == 0 for failed, _ in replica_states)
        assert all(state == "up" for _, state in replica_states)

    def test_map_read_unservable_without_live_mapper_replica(self):
        from repro.mapping.pipeline import make_genasm_mapper
        from repro.sequences.genome import synthesize_genome

        genome = synthesize_genome(length=600, seed=9)
        mapper = make_genasm_mapper(genome, engine="pure")

        async def main():
            servers = [AlignmentServer(mapper=mapper) for _ in range(2)]
            async with AlignmentCluster(servers=servers) as cluster:
                await cluster.drain_replica(1)
                # One mapper-bearing replica is still live and serves.
                assert cluster.mapper is servers[0].mapper
                await cluster.map_read("r0", genome.sequence[100:160])
                await cluster.drain_replica(0)
                # Every mapper-bearing replica is gone: terminal error,
                # not a 503 that clients would Retry-After forever.
                assert cluster.mapper is None
                with pytest.raises(RuntimeError, match="mapper"):
                    await cluster.map_read("r1", "ACGTACGT")

        run(main())


class TestRouting:
    def test_results_correct_when_concurrent(self):
        async def main():
            async with AlignmentCluster(
                replicas=3,
                engine="pure",
                batch_size=4,
                flush_interval=0.002,
            ) as cluster:
                jobs = [
                    cluster.edit_distance(text, pattern, 4)
                    for text, pattern in PAIRS * 6
                ]
                results = await asyncio.gather(*jobs)
                dispatched = [r.dispatched for r in cluster.replicas]
                return results, dispatched

        results, dispatched = run(main())
        assert results == [expected(t, p, 4) for t, p in PAIRS * 6]
        assert sum(dispatched) == len(PAIRS) * 6
        # Work actually spread: the router does not funnel everything to
        # one replica when requests run concurrently against equal replicas.
        assert sum(1 for d in dispatched if d > 0) >= 2

    def test_ties_alternate_when_sequential(self):
        """Idle replicas tie on in-flight depth; the tie-break takes them
        in turn, so sequential requests alternate."""

        async def main():
            async with AlignmentCluster(
                replicas=2,
                engine="pure",
                batch_size=1,
                flush_interval=0.001,
            ) as cluster:
                dispatched = []
                for text, pattern in PAIRS * 3:
                    await cluster.edit_distance(text, pattern, 4)
                    dispatched.append([r.dispatched for r in cluster.replicas])
                return dispatched

        # After request n: replica-0 has taken ceil(n/2), replica-1 floor(n/2).
        assert run(main()) == [[(n + 1) // 2, n // 2] for n in range(1, 13)]

    def test_scan_align_and_map_surface(self):
        async def main():
            async with AlignmentCluster(
                replicas=2, engine="pure", batch_size=2, flush_interval=0.002
            ) as cluster:
                matches = await cluster.scan("ACGTACGT", "ACGT", 1)
                alignment = await cluster.align("ACGTACGT", "ACGGT")
                with pytest.raises(RuntimeError, match="mapper"):
                    await cluster.map_read("r1", "ACGT")
                return matches, alignment

        matches, alignment = run(main())
        assert any(m.distance == 0 for m in matches)
        assert alignment.edit_distance == 1


class TestStatsAndLifecycle:
    def test_cluster_stats_merge_replica_counters(self):
        async def main():
            async with AlignmentCluster(
                replicas=2,
                engine="pure",
                batch_size=2,
                flush_interval=0.002,
            ) as cluster:
                await asyncio.gather(
                    *(
                        cluster.edit_distance(text, pattern, 4)
                        for text, pattern in PAIRS * 4
                    )
                )
                merged = cluster.stats
                per_replica = [r.server.stats for r in cluster.replicas]
                return merged, per_replica

        merged, per_replica = run(main())
        assert merged.served == sum(s.served for s in per_replica) == 16
        assert merged.flushes == sum(s.flushes for s in per_replica)
        assert merged.latency.count == 16
        assert merged.max_batch == max(s.max_batch for s in per_replica)

    def test_engine_name_formats(self):
        homogeneous = AlignmentCluster(replicas=2, engine="pure")
        assert homogeneous.engine_name == "cluster(2x pure)"
        run(homogeneous.stop())

    def test_stop_rejects_new_requests_and_is_idempotent(self):
        async def main():
            cluster = AlignmentCluster(replicas=2, engine="pure")
            await cluster.stop()
            await cluster.stop()
            with pytest.raises(ServerClosedError):
                await cluster.edit_distance("ACGT", "ACGT", 1)
            assert all(r.state == "stopped" for r in cluster.replicas)
            assert cluster.saturated  # no live capacity left

        run(main())

    def test_drain_replica_removes_it_from_rotation(self):
        async def main():
            async with AlignmentCluster(
                replicas=2,
                engine="pure",
                batch_size=1,
                flush_interval=0.001,
            ) as cluster:
                await cluster.drain_replica(0)
                await cluster.drain_replica("replica-0")  # idempotent by name
                assert cluster.replicas[0].state == "stopped"
                for text, pattern in PAIRS:
                    await cluster.edit_distance(text, pattern, 4)
                assert cluster.replicas[0].dispatched == 0
                assert cluster.replicas[1].dispatched == len(PAIRS)
                # Unknown indices are rejected like unknown names: no
                # negative indexing onto the last replica, no IndexError.
                for unknown in ("replica-9", -1, 2):
                    with pytest.raises(KeyError):
                        await cluster.drain_replica(unknown)
                assert cluster.replicas[1].state == "up"

        run(main())

    def test_suggested_retry_after_scales_with_observed_service_time(self):
        server = AlignmentServer(engine="pure", batch_size=4, max_pending=8)
        baseline = server.suggested_retry_after()
        server._observe_service(2.0)
        slow = server.suggested_retry_after()
        assert slow > baseline
        assert slow >= 2.0
        # Clamped to the ceiling however bad the backlog estimate gets.
        server._observe_service(500.0)
        assert server.suggested_retry_after() <= 60.0
