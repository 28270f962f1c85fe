"""Cross-module integration tests: the three use cases end to end."""

from repro.baselines.gotoh import gotoh_score
from repro.core.aligner import GenAsmAligner
from repro.core.prefilter import GenAsmFilter
from repro.core.scoring import ScoringScheme, TracebackConfig
from repro.core.edit_distance import genasm_edit_distance
from repro.hardware.memory import StackedMemorySystem
from repro.mapping.pipeline import make_genasm_mapper
from repro.mapping.sam import write_sam
from repro.sequences.genome import synthesize_genome
from repro.sequences.read_simulator import (
    illumina_profile,
    pacbio_clr_profile,
    simulate_pair,
    simulate_reads,
)

import io
import re
from pathlib import Path

import repro


class TestUseCase1ReadAlignment:
    """Section 10.2: read alignment for short and long reads."""

    def test_short_read_mapping_end_to_end(self):
        genome = synthesize_genome(40_000, seed=100)
        mapper = make_genasm_mapper(genome, seed_length=13, error_rate=0.10)
        reads = simulate_reads(
            genome, count=25, read_length=150, profile=illumina_profile(0.05), seed=101
        )
        results = mapper.map_reads([(r.name, r.sequence) for r in reads])
        correct = sum(
            1
            for read, result in zip(reads, results)
            if result.record.is_mapped
            and abs((result.record.position - 1) - read.true_start) <= 20
        )
        assert correct >= 22

        out = io.StringIO()
        write_sam(
            [r.record for r in results],
            out,
            reference_sequences=mapper.reference_sequences(),
        )
        assert out.getvalue().count("\n") == 25 + 3

    def test_long_read_alignment_quality(self):
        genome = synthesize_genome(30_000, seed=102)
        reads = simulate_reads(
            genome,
            count=3,
            read_length=3_000,
            profile=pacbio_clr_profile(0.10),
            seed=103,
            both_strands=False,
        )
        scheme = ScoringScheme.minimap2()
        aligner = GenAsmAligner(config=TracebackConfig.from_scoring(scheme))
        for read in reads:
            region = genome.region(read.true_start, read.true_length + 600)
            alignment = aligner.align(region, read.sequence)
            assert alignment.cigar.is_valid_for(region, read.sequence)
            # Edit count close to injected error count.
            assert alignment.edit_distance <= read.edit_count * 1.2 + 5

    def test_genasm_score_matches_gotoh_on_clean_reads(self):
        genome = synthesize_genome(10_000, seed=104)
        reads = simulate_reads(
            genome,
            count=8,
            read_length=120,
            profile=illumina_profile(0.03),
            seed=105,
            both_strands=False,
        )
        scheme = ScoringScheme.bwa_mem()
        aligner = GenAsmAligner(config=TracebackConfig.from_scoring(scheme))
        exact = 0
        for read in reads:
            region = genome.region(read.true_start, read.true_length + 20)
            alignment = aligner.align(region, read.sequence)
            optimal = gotoh_score(
                region[: alignment.text_consumed], read.sequence, scheme
            )
            if alignment.score(scheme) == optimal:
                exact += 1
        assert exact >= 6  # paper: 96.6% exact


class TestUseCase2PreAlignmentFiltering:
    """Section 10.3: filtering candidate pairs before alignment."""

    def test_filter_keeps_similar_rejects_dissimilar(self):
        threshold = 5
        filt = GenAsmFilter(threshold)
        similar_kept = 0
        dissimilar_rejected = 0
        for seed in range(10):
            ref, query, edits = simulate_pair(100, 0.98, seed=seed)
            if edits <= threshold and filt.accepts(ref, query):
                similar_kept += 1
            ref2, _, _ = simulate_pair(100, 0.98, seed=seed + 1000)
            _, query2, _ = simulate_pair(100, 0.98, seed=seed + 2000)
            if not filt.accepts(ref2, query2):
                dissimilar_rejected += 1
        assert similar_kept >= 8
        assert dissimilar_rejected >= 9


class TestUseCase3EditDistance:
    """Section 10.4: edit distance between arbitrary-length sequences."""

    def test_multi_kilobase_edit_distance(self):
        ref, query, injected = simulate_pair(5_000, 0.90, seed=77)
        result = genasm_edit_distance(ref, query)
        # Windowed distance tracks the injected divergence closely.
        assert injected * 0.8 <= result.distance <= injected * 1.2

    def test_arbitrary_lengths_same_result_regardless_of_windows(self):
        ref, query, _ = simulate_pair(800, 0.92, seed=78)
        d64 = genasm_edit_distance(ref, query).distance
        d48 = genasm_edit_distance(ref, query, window_size=48, overlap=16).distance
        assert abs(d64 - d48) <= max(2, d64 // 10)


class TestHardwareIntegration:
    def test_batch_alignment_through_vaults(self):
        genome = synthesize_genome(20_000, seed=106)
        reads = simulate_reads(
            genome,
            count=16,
            read_length=200,
            profile=illumina_profile(0.05),
            seed=107,
            both_strands=False,
        )
        tasks = [
            (genome.region(r.true_start, r.true_length + 30), r.sequence)
            for r in reads
        ]
        batch = StackedMemorySystem().run_batch(tasks)
        assert len(batch.results) == 16
        assert batch.within_stack_bandwidth
        for (region, read), result in zip(tasks, batch.results):
            assert result.alignment.cigar.is_valid_for(region, read)


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "(.+)"$', pyproject, re.MULTILINE).group(1)
    assert repro.__version__ == declared
