"""Unit tests for the functional accelerator model."""

from repro.core.aligner import genasm_align
from repro.hardware.accelerator import GenAsmAccelerator
from repro.hardware.performance_model import alignment_cycles
from repro.sequences.mutate import MutationProfile, mutate
from tests.conftest import random_dna


class TestFunctionalEquivalence:
    def test_matches_core_aligner(self, rng):
        accelerator = GenAsmAccelerator()
        for _ in range(10):
            text = random_dna(rng.randint(50, 400), rng)
            pattern = mutate(text, MutationProfile(0.1), rng=rng).sequence
            region = text + random_dna(40, rng)
            hw = accelerator.align(region, pattern)
            sw = genasm_align(region, pattern)
            assert str(hw.alignment.cigar) == str(sw.cigar)
            assert hw.alignment.edit_distance == sw.edit_distance

    def test_sene_mode_same_alignment_less_tb_sram_traffic(self, rng):
        """SENE storage changes only the TB-SRAM accounting, ~3x down."""
        paper = GenAsmAccelerator()
        sene = GenAsmAccelerator(sene_traceback=True)
        text = random_dna(300, rng)
        pattern = mutate(text, MutationProfile(0.1), rng=rng).sequence
        region = text + random_dna(40, rng)
        hw_paper = paper.align(region, pattern)
        hw_sene = sene.align(region, pattern)
        assert str(hw_sene.alignment.cigar) == str(hw_paper.alignment.cigar)
        assert hw_sene.total_cycles == hw_paper.total_cycles
        assert (
            hw_sene.tb_sram_bytes_written
            < hw_paper.tb_sram_bytes_written / 2
        )


class TestCycleAccounting:
    def test_cycles_close_to_analytical_model(self, rng):
        """Measured cycles use each window's actual edit distance, so they
        fall at or below the worst-case analytical projection."""
        accelerator = GenAsmAccelerator()
        text = random_dna(2_000, rng)
        pattern = mutate(text, MutationProfile(0.15), rng=rng).sequence
        region = text + random_dna(400, rng)
        result = accelerator.align(region, pattern)
        projected = alignment_cycles(len(pattern), int(len(pattern) * 0.15))
        assert 0 < result.total_cycles <= projected * 1.5
        assert result.windows > 0

    def test_time_seconds(self, rng):
        accelerator = GenAsmAccelerator()
        result = accelerator.align("ACGTACGTACGT", "ACGTACGTACGT")
        assert result.time_seconds(1e9) == result.total_cycles / 1e9

    def test_tb_sram_traffic_positive(self, rng):
        accelerator = GenAsmAccelerator()
        text = random_dna(300, rng)
        pattern = mutate(text, MutationProfile(0.1), rng=rng).sequence
        result = accelerator.align(text, pattern)
        assert result.tb_sram_bytes_written > 0
        assert result.tb_sram_bytes_read > 0
        # The paper layout keeps three vectors per *error* row, and early
        # termination stops an exact window at row 0.
        exact = accelerator.align(text, text)
        assert exact.tb_sram_bytes_written == 0
        assert exact.tb_sram_bytes_read > 0

    def test_sene_traffic_is_the_dent_footprint(self, rng):
        """What is kept: rows 0..d of the W-O+1 iterations TB can reach."""
        accelerator = GenAsmAccelerator(sene_traceback=True)
        text = "ACGT" * 16
        result = accelerator.align(text, text)
        assert result.windows == 2  # 40 characters retired, then 24
        assert result.tb_sram_bytes_written == (
            (40 + 1) * 1 * 64 + (24 + 1) * 1 * 24
        ) // 8

    def test_perfect_match_cycles_scale_with_length(self):
        accelerator = GenAsmAccelerator()
        short = accelerator.align("ACGT" * 30, "ACGT" * 30)
        long = accelerator.align("ACGT" * 120, "ACGT" * 120)
        assert long.total_cycles > short.total_cycles
