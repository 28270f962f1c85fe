"""Parity and behavior tests for the thread fan-out sharded backend.

The sharded backend must be bit-identical to the pure reference across
every surface — scan matches, distances, stored DC bitvectors, CIGARs, and
filter decisions — regardless of how the batch is chunked across workers.
One module-scoped 2-worker engine is shared by all tests (this is also the
configuration CI's serving job runs); every parity batch holds at least
``2 * workers`` jobs, so it fans out instead of running inline.
"""

import random
import threading

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
    engine = ShardedEngine(workers=2)
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
        assert [t["jobs"] for t in sharded.pop_shard_timings()] == [15, 14]

    def test_order_preserved_across_chunks(self, sharded):
        # Every pair unique, so any chunk-reassembly mix-up is visible.
        pairs = [("ACGT" * (i % 7 + 1), "ACGT" * (i % 5 + 1)) for i in range(41)]
        expected = PURE.scan_batch(pairs, 2)
        assert sharded.scan_batch(pairs, 2) == expected
        assert [t["jobs"] for t in sharded.pop_shard_timings()] == [21, 20]

    def test_empty_batch(self, sharded):
        assert sharded.scan_batch([], 3) == []

    def test_negative_k_rejected(self, sharded):
        with pytest.raises(ValueError):
            sharded.scan_batch([("ACGT", "ACGT")] * 4, -1)


class TestShardedDcParity:
    def test_windows_match_pure(self, sharded):
        jobs = random_pairs(21, (1, 64), (1, 64), seed=0xB1)
        for expected, actual in zip(
            PURE.run_dc_windows(jobs), sharded.run_dc_windows(jobs)
        ):
            assert expected.text == actual.text
            assert expected.pattern == actual.pattern
            assert expected.k == actual.k == actual.edit_distance
            assert expected.edit_distance == actual.edit_distance
            assert expected.r_rows() == actual.r_rows()
            assert len(actual.r_rows()[0]) == actual.k + 1
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
        """Fan-out and inline paths call the inner engine's ``align_batch``.

        With a native inner that is the C loop: no per-window dispatch, so
        a ``run_dc_windows`` that raises is never reached.
        """
        if "native" not in available_engines():
            pytest.skip("repro.core._native is not built")
        pairs = random_pairs(13, (0, 150), (1, 130), seed=0xC3)
        expected = GenAsmAligner(engine=PURE).align_batch(pairs)

        def per_window_dispatch(*args, **kwargs):
            raise AssertionError("the C align loop was bypassed")

        with ShardedEngine(workers=2, inner="native") as engine:
            monkeypatch.setattr(
                engine.inner, "run_dc_windows", per_window_dispatch
            )
            aligner = GenAsmAligner(engine=engine)
            assert aligner.align_batch(pairs) == expected  # fan-out
            assert engine.pop_shard_timings() is not None
            assert aligner.align_batch(pairs[:3]) == expected[:3]  # inline
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

    def test_sharded_inner_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(inner="sharded")

    def test_default_inner_is_the_default_engine(self, monkeypatch):
        from repro.engine import ENGINE_ENV_VAR, default_engine_name

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert ShardedEngine(workers=1).inner is get_engine(default_engine_name())

    @pytest.mark.parametrize("workers, count", [(2, 3), (1, 8)])
    def test_small_batches_and_single_workers_run_inline(self, workers, count):
        threads = threading.active_count()
        with ShardedEngine(workers=workers) as engine:
            pairs = [("ACGTACGT", "ACGT")] * count
            assert engine.scan_batch(pairs, 1) == PURE.scan_batch(pairs, 1)
            assert engine.pop_shard_timings() is None
            assert threading.active_count() == threads

    def test_close_is_idempotent_and_engine_reusable(self):
        engine = ShardedEngine(workers=2)
        pairs = random_pairs(9, (5, 30), (1, 20), seed=0xD1)
        assert engine.scan_batch(pairs, 2) == PURE.scan_batch(pairs, 2)
        engine.close()
        engine.close()
        assert engine.scan_batch(pairs, 2) == PURE.scan_batch(pairs, 2)
        assert engine.pop_shard_timings() is not None
        engine.close()

    def test_context_manager_joins_the_worker_threads(self):
        threads = threading.active_count()
        with ShardedEngine(workers=2) as engine:
            pairs = random_pairs(9, (5, 30), (1, 20), seed=0xD2)
            engine.scan_batch(pairs, 2)
            assert threading.active_count() > threads
        assert threading.active_count() == threads

    def test_capability_metadata(self):
        from repro.engine import engine_info

        info = {i.name: i for i in engine_info()}
        assert "sharded" in info
        if ShardedEngine.is_available():
            assert info["sharded"].available
            assert info["sharded"].reason is None
            assert info["sharded"].workers >= 1
