"""Batch entry points: aligner, filter, and the read-mapping pipeline.

The batch APIs must be drop-in equivalents of their scalar counterparts —
same records, same stats, same decisions — regardless of backend.
"""

import pytest

from repro.core.aligner import GenAsmAligner
from repro.core.prefilter import GenAsmFilter
from repro.engine import PurePythonEngine, available_engines
from repro.mapping.pipeline import ReadMapper, make_genasm_mapper
from repro.sequences.genome import synthesize_genome
from repro.sequences.read_simulator import illumina_profile, simulate_reads

ENGINES = available_engines()


@pytest.fixture(scope="module")
def genome():
    return synthesize_genome(8_000, seed=11, name="batchref")


@pytest.fixture(scope="module")
def reads(genome):
    return simulate_reads(
        genome,
        count=12,
        read_length=80,
        profile=illumina_profile(0.04),
        seed=23,
    )


class TestAlignerBatchApi:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_align_batch_equals_scalar_align(self, engine, rng):
        from tests.conftest import random_dna

        aligner = GenAsmAligner(engine=engine)
        pairs = [
            (random_dna(rng.randint(20, 120), rng), random_dna(rng.randint(10, 100), rng))
            for _ in range(9)
        ]
        batched = aligner.align_batch(pairs)
        for (text, pattern), alignment in zip(pairs, batched):
            solo = aligner.align(text, pattern)
            assert str(solo.cigar) == str(alignment.cigar)
            assert solo.edit_distance == alignment.edit_distance
            assert solo.text_consumed == alignment.text_consumed
            assert alignment.cigar.is_valid_for(text, pattern)

    def test_align_batch_preserves_input_order(self):
        aligner = GenAsmAligner()
        pairs = [("ACGTACGT", "ACGT"), ("TTTT", "TTTT"), ("ACGT", "AGT")]
        results = aligner.align_batch(pairs)
        assert len(results) == len(pairs)
        for (text, pattern), alignment in zip(pairs, results):
            assert alignment.cigar.query_length == len(pattern)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_align_batch_empty(self, engine):
        assert GenAsmAligner(engine=engine).align_batch([]) == []


class TestFilterBatchApi:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_accepts_batch_equals_scalar(self, engine, rng):
        from tests.conftest import random_dna

        filt = GenAsmFilter(4, engine=engine)
        pairs = [
            (random_dna(rng.randint(0, 60), rng), random_dna(rng.randint(0, 40), rng))
            for _ in range(16)
        ]
        scalar = [
            GenAsmFilter(4, engine=PurePythonEngine()).accepts(ref, read)
            for ref, read in pairs
        ]
        assert filt.accepts_batch(pairs) == scalar


class TestPipelineBatching:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mapper_results_identical_across_backends(
        self, genome, reads, engine
    ):
        reference = make_genasm_mapper(genome, engine="pure")
        candidate = make_genasm_mapper(genome, engine=engine)
        for read in reads:
            expected = reference.map_read(read.name, read.sequence)
            actual = candidate.map_read(read.name, read.sequence)
            assert expected.record.to_line() == actual.record.to_line()
            assert expected.candidate_position == actual.candidate_position
            assert expected.reverse == actual.reverse
        assert reference.stats == candidate.stats

    def test_stats_track_batched_stages(self, genome, reads):
        mapper = make_genasm_mapper(genome)
        for read in reads:
            mapper.map_read(read.name, read.sequence)
        stats = mapper.stats
        assert stats.reads == len(reads)
        assert stats.candidates >= stats.alignments_run + stats.filtered_out
        assert stats.mapped > 0

    def test_custom_scalar_filter_still_supported(self, genome, reads):
        class ScalarOnlyFilter:
            """A PairFilter without accepts_batch (legacy duck type)."""

            def __init__(self):
                self.inner = GenAsmFilter(30, engine="pure")

            def accepts(self, reference, read):
                return self.inner.accepts(reference, read)

        batched = make_genasm_mapper(genome)
        scalar = make_genasm_mapper(genome)
        scalar.prefilter = ScalarOnlyFilter()
        read = reads[0]
        expected = batched.map_read(read.name, read.sequence)
        actual = scalar.map_read(read.name, read.sequence)
        assert expected.record.to_line() == actual.record.to_line()

    def test_custom_scalar_aligner_still_supported(self, genome, reads):
        calls = []

        def spy_aligner(region, read):
            calls.append((region, read))
            return GenAsmAligner().align(region, read)

        mapper = ReadMapper(
            genome=genome,
            index=make_genasm_mapper(genome).index,
            aligner=spy_aligner,
        )
        result = mapper.map_read(reads[0].name, reads[0].sequence)
        assert calls, "custom scalar aligner was never invoked"
        assert result.record is not None
