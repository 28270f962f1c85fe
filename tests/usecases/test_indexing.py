"""Unit tests for GenASM-driven index construction (Section 11)."""

import pytest

from repro.mapping.index import KmerIndex
from repro.sequences.genome import Genome, synthesize_genome
from repro.usecases.indexing import build_index_with_genasm


class TestGenAsmIndexing:
    def test_matches_direct_builder_exactly(self):
        genome = synthesize_genome(3_000, seed=210)
        direct = KmerIndex.build(genome, k=11)
        via_genasm = build_index_with_genasm(genome, k=11)
        assert len(direct) == len(via_genasm)
        for pos in range(0, len(genome) - 11, 97):
            seed = genome.sequence[pos : pos + 11]
            assert direct.lookup(seed) == via_genasm.lookup(seed)

    def test_repeat_masking_consistent(self):
        genome = Genome("g", "A" * 200 + "CGTACGTACG")
        direct = KmerIndex.build(genome, k=5, max_occurrences=8)
        via_genasm = build_index_with_genasm(genome, k=5, max_occurrences=8)
        assert via_genasm.lookup("AAAAA") == []
        assert direct.masked_seeds == via_genasm.masked_seeds

    def test_builders_agree_on_a_genome_with_wildcard_runs(self):
        """Neither builder indexes a seed holding ``N``; all else is equal."""
        clean = synthesize_genome(1_200, seed=213, repeat_fraction=0.3).sequence
        sequence = clean[:300] + "N" * 7 + clean[300:800] + "N" + clean[800:]
        genome = Genome("g", sequence)
        direct = KmerIndex.build(genome, k=9, max_occurrences=4)
        via_genasm = build_index_with_genasm(genome, k=9, max_occurrences=4)
        assert len(direct) == len(via_genasm)
        assert direct.masked_seeds == via_genasm.masked_seeds
        wildcard_seeds = 0
        for pos in range(len(sequence) - 8):
            seed = sequence[pos : pos + 9]
            assert direct.lookup(seed) == via_genasm.lookup(seed)
            if "N" in seed:
                wildcard_seeds += 1
                assert direct.lookup(seed) == [] and seed not in via_genasm
        assert wildcard_seeds == (7 + 8) + (1 + 8)
        assert direct == via_genasm

    def test_usable_by_seeding(self):
        from repro.mapping.seeding import candidate_locations

        genome = synthesize_genome(4_000, seed=211, repeat_fraction=0.0)
        index = build_index_with_genasm(genome, k=11)
        read = genome.region(1_000, 120)
        candidates = candidate_locations(read, index)
        assert candidates and candidates[0].position == 1_000

    def test_validation(self):
        genome = synthesize_genome(100, seed=212)
        with pytest.raises(ValueError):
            build_index_with_genasm(genome, k=0)
        with pytest.raises(ValueError):
            build_index_with_genasm(Genome("g", "ACG"), k=5)
