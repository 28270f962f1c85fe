"""Unit tests for the analytical performance model (Sections 9 and 10.5)."""

import pytest

from repro.hardware.performance_model import (
    DEFAULT_CONFIG,
    GenAsmConfig,
    alignment_cycles,
    dc_cycles_with_windowing,
    dc_cycles_without_windowing,
    dc_window_cycles,
    dram_bandwidth_bytes_per_second,
    memory_footprint_bits_with_windowing,
    memory_footprint_bits_without_windowing,
    system_throughput,
    tb_window_cycles,
    throughput_per_accelerator,
    wavefront_cycles,
    window_count,
)


class TestConfig:
    def test_paper_defaults(self):
        assert DEFAULT_CONFIG.processing_elements == 64
        assert DEFAULT_CONFIG.pe_width_bits == 64
        assert DEFAULT_CONFIG.window_size == 64
        assert DEFAULT_CONFIG.overlap == 24
        assert DEFAULT_CONFIG.consumed_per_window == 40
        assert DEFAULT_CONFIG.vaults == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            GenAsmConfig(processing_elements=0)
        with pytest.raises(ValueError):
            GenAsmConfig(overlap=64)


class TestWavefront:
    def test_figure5_example(self):
        # 4 PEs, 8 distance rows, 4 text characters -> 11 cycles.
        assert wavefront_cycles(4, 8, 4) == 11

    def test_single_pass(self):
        assert wavefront_cycles(64, 64, 64) == 127

    def test_rows_fewer_than_pes(self):
        assert wavefront_cycles(64, 5, 64) == 68

    def test_two_passes(self):
        assert wavefront_cycles(64, 128, 64) == 191

    def test_one_pe_serializes(self):
        assert wavefront_cycles(10, 3, 1) == 30


class TestPerAlignment:
    def test_dc_window_cycles_default_worst_case(self):
        assert dc_window_cycles(DEFAULT_CONFIG) == 127

    def test_tb_window_cycles(self):
        assert tb_window_cycles(DEFAULT_CONFIG) == 40

    def test_window_count_long_read(self):
        # m=10000, k=1500 -> ceil(11500/40) = 288 windows.
        assert window_count(10_000, 1_500, DEFAULT_CONFIG) == 288

    def test_alignment_cycles_long_read(self):
        cycles = alignment_cycles(10_000, 1_500)
        assert cycles == 288 * (127 + 40)

    def test_throughput_scales_with_vaults(self):
        single = throughput_per_accelerator(10_000, 1_500)
        total = system_throughput(10_000, 1_500)
        assert total == pytest.approx(single * 32)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            window_count(0, 10, DEFAULT_CONFIG)
        with pytest.raises(ValueError):
            window_count(10, -1, DEFAULT_CONFIG)


class TestPaperAnchors:
    """Numbers the paper states outright."""

    def test_footprint_without_windowing_is_80gb(self):
        # Section 6: ~80 GB when m=10,000 and k=1,500.
        bits = memory_footprint_bits_without_windowing(10_000, 1_500)
        assert 79 < bits / 8 / 2**30 < 82

    def test_footprint_with_windowing_is_96kb(self):
        # W*3*W*W bits = 96 KB for W=64 (the total TB-SRAM capacity).
        assert memory_footprint_bits_with_windowing() / 8 / 1024 == 96

    def test_sene_footprint_is_about_a_third(self):
        # SENE (Scrooge): (W+1)*(W+1)*W bits ~= 33 KB for W=64, ~2.9x less.
        from repro.hardware.performance_model import (
            memory_footprint_bits_with_windowing_sene,
        )

        sene_bits = memory_footprint_bits_with_windowing_sene()
        assert 32 < sene_bits / 8 / 1024 < 34
        ratio = memory_footprint_bits_with_windowing() / sene_bits
        assert 2.8 < ratio < 3.0

    def test_sene_dent_footprint_is_about_21kb(self):
        # + DENT: only the W-O+1 iterations the traceback can reach.
        from repro.hardware import (
            memory_footprint_bits_with_windowing_sene,
            memory_footprint_bits_with_windowing_sene_dent,
        )

        dent_bits = memory_footprint_bits_with_windowing_sene_dent()
        assert dent_bits == 41 * 65 * 64
        assert 20 < dent_bits / 8 / 1024 < 22
        assert dent_bits < memory_footprint_bits_with_windowing_sene()

    def test_dram_bandwidth_in_paper_band(self):
        # Section 7: 105-142 MB/s per accelerator for long reads.
        bw = dram_bandwidth_bytes_per_second(10_000, 1_500)
        assert 100e6 < bw < 145e6

    def test_sillax_comparison_ratio(self):
        # Section 10.2: GenASM ~1.9x SillaX's 50M aln/s for ~101bp reads.
        ratio = system_throughput(101, 5) / 50e6
        assert 1.7 < ratio < 2.2

    def test_gact_comparison_single_accelerator(self):
        # Section 10.2: 1 Kbp ~236K aln/s, 10 Kbp ~23.7K aln/s (we land
        # within ~15% below, having serialized DC and TB per window).
        t1k = throughput_per_accelerator(1_000, 150)
        t10k = throughput_per_accelerator(10_000, 1_500)
        assert 180_000 < t1k < 260_000
        assert 18_000 < t10k < 26_000

    def test_dc_windowing_speedup_long_reads(self):
        # Section 10.5 reports 3662x; the closed forms give the same order.
        ratio = dc_cycles_without_windowing(10_000, 1_500) / dc_cycles_with_windowing(
            10_000, 1_500
        )
        assert ratio > 1_000
