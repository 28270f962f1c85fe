"""Unit tests for the functional accelerator model."""

from repro.core.aligner import GenAsmAligner, genasm_align
from repro.engine.pure import PurePythonEngine
from repro.hardware.accelerator import GenAsmAccelerator
from repro.hardware.performance_model import alignment_cycles
from repro.sequences.mutate import MutationProfile, mutate
from tests.conftest import random_dna


class RecordingEngine(PurePythonEngine):
    """The pure backend, keeping every DC window the window loop asks for."""

    def __init__(self):
        self.windows = []

    def run_dc_windows(self, jobs, **kwargs):
        windows = super().run_dc_windows(jobs, **kwargs)
        self.windows.extend(windows)
        return windows


def windows_of(text, pattern):
    """The windows the reference window loop solves for one pair."""
    engine = RecordingEngine()
    GenAsmAligner(engine=engine).align(text, pattern)
    return engine.windows


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

    def test_sene_dent_figure_is_below_half_the_paper_figure(self, rng):
        """One run reports both TB-SRAM figures; SENE + DENT is ~4x less."""
        text = random_dna(300, rng)
        pattern = mutate(text, MutationProfile(0.1), rng=rng).sequence
        region = text + random_dna(40, rng)
        result = GenAsmAccelerator().align(region, pattern)
        windows = windows_of(region, pattern)
        assert result.windows == len(windows) > 1
        # Section 6's layout: three edge vectors per (iteration, error row).
        assert result.tb_sram_bytes_written == sum(
            w.text_length * 3 * w.edit_distance * w.pattern_length // 8
            for w in windows
        )
        assert 0 < result.tb_sram_bytes_written_sene_dent < (
            result.tb_sram_bytes_written / 2
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
        accelerator = GenAsmAccelerator()
        text = "ACGT" * 16
        result = accelerator.align(text, text)
        assert result.windows == 2  # 40 characters retired, then 24
        assert result.tb_sram_bytes_written_sene_dent == (
            (40 + 1) * 1 * 64 + (24 + 1) * 1 * 24
        ) // 8
        assert result.tb_sram_bytes_written == 0  # no error rows at d = 0

    def test_perfect_match_cycles_scale_with_length(self):
        accelerator = GenAsmAccelerator()
        short = accelerator.align("ACGT" * 30, "ACGT" * 30)
        long = accelerator.align("ACGT" * 120, "ACGT" * 120)
        assert long.total_cycles > short.total_cycles
