"""Parity and behavior tests for the process-pool sharded backend.

The sharded backend must be bit-identical to the pure reference across
every surface — scan matches, distances, stored DC bitvectors, CIGARs, and
filter decisions — regardless of how the batch is chunked across workers.
One module-scoped 2-worker engine is shared by all tests so the pool spawn
cost is paid once (this is also the configuration CI's serving job runs).
"""

import random

import pytest

from repro.core.aligner import GenAsmAligner
from repro.core.genasm_dc import WindowUnalignableError
from repro.core.prefilter import GenAsmFilter
from repro.engine import (
    PurePythonEngine,
    ShardedEngine,
    available_engines,
    get_engine,
)

PURE = PurePythonEngine()


@pytest.fixture(scope="module")
def sharded():
    # min_batch=1 forces the chunked path even for small batches, so the
    # IPC fan-out itself is what gets exercised.
    engine = ShardedEngine(workers=2, min_batch=1)
    yield engine
    engine.close()


def random_pairs(count, text_range, pattern_range, seed):
    rng = random.Random(seed)
    return [
        (
            "".join(
                rng.choice("ACGTN") for _ in range(rng.randint(*text_range))
            ),
            "".join(
                rng.choice("ACGT") for _ in range(rng.randint(*pattern_range))
            ),
        )
        for _ in range(count)
    ]


class TestShardedScanParity:
    def test_full_scan_matches_pure(self, sharded):
        pairs = random_pairs(37, (0, 80), (1, 90), seed=0xA1)
        for k in (0, 2, 5):
            assert sharded.scan_batch(pairs, k) == PURE.scan_batch(pairs, k)

    def test_first_match_only_matches_pure(self, sharded):
        pairs = random_pairs(23, (0, 60), (1, 50), seed=0xA2)
        assert sharded.scan_batch(
            pairs, 3, first_match_only=True
        ) == PURE.scan_batch(pairs, 3, first_match_only=True)

    def test_edit_distance_matches_pure(self, sharded):
        pairs = random_pairs(29, (10, 120), (5, 100), seed=0xA3)
        assert sharded.edit_distance_batch(pairs, 9) == (
            PURE.edit_distance_batch(pairs, 9)
        )

    def test_order_preserved_across_chunks(self, sharded):
        # Every pair unique, so any chunk-reassembly mix-up is visible.
        pairs = [("ACGT" * (i % 7 + 1), "ACGT" * (i % 5 + 1)) for i in range(41)]
        expected = PURE.scan_batch(pairs, 2)
        assert sharded.scan_batch(pairs, 2) == expected

    def test_empty_batch(self, sharded):
        assert sharded.scan_batch([], 3) == []

    def test_negative_k_rejected(self, sharded):
        with pytest.raises(ValueError):
            sharded.scan_batch([("ACGT", "ACGT")] * 4, -1)


class TestShardedDcParity:
    def test_windows_match_pure(self, sharded):
        # Windows cross the IPC boundary as compact SENE payloads (packed
        # uint64 words from batched workers); the unpickled windows must
        # reproduce the reference R history and derived edges exactly.
        jobs = random_pairs(21, (1, 64), (1, 64), seed=0xB1)
        for expected, actual in zip(
            PURE.run_dc_windows(jobs), sharded.run_dc_windows(jobs)
        ):
            assert expected.text == actual.text
            assert expected.pattern == actual.pattern
            assert expected.k == actual.k
            assert expected.edit_distance == actual.edit_distance
            assert expected.r_rows() == actual.r_rows()
            for d in range(expected.k + 1):
                assert expected.edge_vectors(0, d) == actual.edge_vectors(0, d)

    def test_worker_exception_propagates(self, sharded):
        jobs = [("ACGT", "ACGT")] * 10 + [("", "ACGT")]
        with pytest.raises(WindowUnalignableError):
            sharded.run_dc_windows(jobs)


class TestShardedAlignParity:
    def test_cigars_match_pure(self, sharded):
        pairs = random_pairs(15, (20, 200), (10, 180), seed=0xC1)
        pure_aligner = GenAsmAligner(engine=PURE)
        sharded_aligner = GenAsmAligner(engine=sharded)
        expected = [pure_aligner.align(t, p) for t, p in pairs]
        actual = sharded_aligner.align_batch(pairs)
        for exp, act in zip(expected, actual):
            assert str(exp.cigar) == str(act.cigar)
            assert exp.edit_distance == act.edit_distance
            assert exp.text_consumed == act.text_consumed

    def test_native_inner_runs_its_own_align_batch(self, monkeypatch):
        """Pool and local paths call the inner engine's ``align_batch``.

        With a native inner that is the C loop: no per-window dispatch, so
        a ``run_dc_windows`` that raises is never reached in this process.
        """
        if "native" not in available_engines():
            pytest.skip("repro.core._native is not built")
        pairs = random_pairs(13, (0, 150), (1, 130), seed=0xC3)
        expected = GenAsmAligner(engine=PURE).align_batch(pairs)

        def per_window_dispatch(*args, **kwargs):
            raise AssertionError("the C align loop was bypassed")

        with ShardedEngine(workers=2, inner="native") as engine:
            monkeypatch.setattr(
                engine._local, "run_dc_windows", per_window_dispatch
            )
            aligner = GenAsmAligner(engine=engine)
            assert aligner.align_batch(pairs) == expected  # pool
            assert engine.pop_shard_timings() is not None
            assert aligner.align_batch(pairs[:3]) == expected[:3]  # local
            assert engine.pop_shard_timings() is None

    def test_filter_decisions_match_pure(self, sharded):
        pairs = random_pairs(31, (0, 60), (1, 40), seed=0xC2)
        pure_filter = GenAsmFilter(4, engine=PURE)
        sharded_filter = GenAsmFilter(4, engine=sharded)
        assert sharded_filter.decide_batch(pairs) == (
            pure_filter.decide_batch(pairs)
        )
        assert sharded_filter.accepts_batch(pairs) == (
            pure_filter.accepts_batch(pairs)
        )


class TestShardedConstruction:
    def test_registered_and_available(self):
        from repro.engine import available_engines, registered_engines

        assert "sharded" in registered_engines()
        if ShardedEngine.is_available():
            assert "sharded" in available_engines()
            assert isinstance(get_engine("sharded"), ShardedEngine)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(workers=0)

    def test_invalid_chunks_per_worker_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(chunks_per_worker=0)

    def test_sharded_inner_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(inner="sharded")

    def test_small_batches_stay_in_process(self):
        engine = ShardedEngine(workers=2, min_batch=64)
        try:
            pairs = [("ACGTACGT", "ACGT")] * 8
            assert engine.scan_batch(pairs, 1) == PURE.scan_batch(pairs, 1)
            assert engine._pool is None, "small batch should not spawn a pool"
        finally:
            engine.close()

    def test_close_is_idempotent_and_pool_recreated(self, sharded):
        engine = ShardedEngine(workers=2, min_batch=1)
        pairs = random_pairs(9, (5, 30), (1, 20), seed=0xD1)
        assert engine.scan_batch(pairs, 2) == PURE.scan_batch(pairs, 2)
        engine.close()
        engine.close()
        assert engine.scan_batch(pairs, 2) == PURE.scan_batch(pairs, 2)
        engine.close()

    def test_context_manager_closes_pool(self):
        with ShardedEngine(workers=2, min_batch=1) as engine:
            pairs = random_pairs(9, (5, 30), (1, 20), seed=0xD2)
            engine.scan_batch(pairs, 2)
            assert engine._pool is not None
        assert engine._pool is None

    def test_capability_metadata(self):
        from repro.engine import engine_info

        info = {i.name: i for i in engine_info()}
        assert "sharded" in info
        if ShardedEngine.is_available():
            assert info["sharded"].available
            assert info["sharded"].reason is None
            assert info["sharded"].workers >= 1


class TestShardMap:
    """Mapper-level sharding: whole reads fanned across the pool."""

    @pytest.fixture(scope="class")
    def mapping_world(self):
        from repro.sequences.genome import synthesize_genome
        from repro.sequences.read_simulator import (
            illumina_profile,
            simulate_reads,
        )

        genome = synthesize_genome(20_000, seed=31, name="shardref")
        reads = simulate_reads(
            genome,
            count=18,
            read_length=90,
            profile=illumina_profile(0.05),
            seed=32,
        )
        return genome, [(read.name, read.sequence) for read in reads]

    def test_shard_map_matches_in_process_mapping(self, mapping_world):
        from repro.mapping.pipeline import make_genasm_mapper

        genome, reads = mapping_world
        direct = make_genasm_mapper(genome)
        expected = direct.map_reads(reads)

        with ShardedEngine(workers=2) as engine:
            mapper = make_genasm_mapper(genome, engine=engine)
            got = mapper.map_reads_batch(reads)
            assert mapper.stats == direct.stats
        assert len(got) == len(expected)
        for exp, act in zip(expected, got):
            assert exp.record.to_line() == act.record.to_line()
            assert exp.candidate_position == act.candidate_position
            assert exp.reverse == act.reverse

    def test_map_pool_reused_for_same_mapper(self, mapping_world):
        from repro.mapping.pipeline import make_genasm_mapper

        genome, reads = mapping_world
        with ShardedEngine(workers=2) as engine:
            mapper = make_genasm_mapper(genome, engine=engine)
            mapper.map_reads_batch(reads[:8])
            first_pool = engine._map_pool
            assert first_pool is not None
            mapper.map_reads_batch(reads[8:])
            assert engine._map_pool is first_pool

    def test_map_pool_swapped_for_new_mapper(self, mapping_world):
        from repro.mapping.pipeline import make_genasm_mapper

        genome, reads = mapping_world
        with ShardedEngine(workers=2) as engine:
            first = make_genasm_mapper(genome, engine=engine)
            first.map_reads_batch(reads)
            first_pool = engine._map_pool
            second = make_genasm_mapper(genome, engine=engine, error_rate=0.2)
            second.map_reads_batch(reads)
            assert engine._map_pool is not first_pool

    def test_shard_map_empty_reads(self, mapping_world):
        genome, _ = mapping_world
        from repro.mapping.pipeline import make_genasm_mapper

        with ShardedEngine(workers=2) as engine:
            mapper = make_genasm_mapper(genome, engine=engine)
            spec = mapper.shard_spec()
            results, stats = engine.shard_map(spec, "empty-test", [])
            assert results == []
            assert stats.reads == 0

    def test_single_worker_engine_maps_in_process(self, mapping_world):
        """One worker buys no parallelism: no map pool should be spun up."""
        from repro.mapping.pipeline import make_genasm_mapper

        genome, reads = mapping_world
        with ShardedEngine(workers=1) as engine:
            assert engine.min_map_batch == float("inf")
            mapper = make_genasm_mapper(genome, engine=engine)
            direct = make_genasm_mapper(genome)
            got = mapper.map_reads_batch(reads[:6])
            assert engine._map_pool is None
            expected = direct.map_reads(reads[:6])
            assert [r.record.to_line() for r in got] == [
                r.record.to_line() for r in expected
            ]

    def test_close_tears_down_map_pool(self, mapping_world):
        from repro.mapping.pipeline import make_genasm_mapper

        genome, reads = mapping_world
        engine = ShardedEngine(workers=2)
        mapper = make_genasm_mapper(genome, engine=engine)
        mapper.map_reads_batch(reads[:6])
        assert engine._map_pool is not None
        engine.close()
        assert engine._map_pool is None
