"""Analytical performance model of the GenASM accelerator (Section 9).

The paper's performance results come from "a spreadsheet-based analytical
model for GenASM-DC and GenASM-TB, which considers reference genome (i.e.,
text) length, query read (i.e., pattern) length, maximum edit distance,
window size, hardware design parameters (number of PEs, bit width of each
PE) and number of vaults as input parameters and projects compute cycles,
DRAM read/write bandwidth, SRAM read/write bandwidth, and memory footprint",
verified against RTL simulation. This module is that model.

Cycle counts follow the systolic wavefront of Figure 5: with ``R`` distance
rows mapped cyclically onto ``P`` PEs, a window of ``n`` text characters
completes in ``ceil(R / P) * n + min(P, R) - 1`` cycles (steady-state
streaming plus pipeline fill). The closed forms of Section 10.5 are exposed
directly so the ablation benchmark can reproduce the paper's
divide-and-conquer arithmetic, and the cycle-level simulator in
:mod:`repro.hardware.systolic` cross-checks these counts the same way the
paper checked its spreadsheet against RTL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: TB-SRAM write width per PE per cycle: match+insertion+deletion, 64 b each.
TB_WRITE_BITS_PER_CYCLE = 192


@dataclass(frozen=True)
class GenAsmConfig:
    """Hardware configuration of one GenASM accelerator (one vault).

    Defaults are the paper's synthesized design point: 64 PEs x 64 bits at
    1 GHz, window size 64 with overlap 24, one accelerator in each of the
    32 vaults of an HMC-like stack.
    """

    processing_elements: int = 64
    pe_width_bits: int = 64
    window_size: int = 64
    overlap: int = 24
    frequency_hz: float = 1.0e9
    vaults: int = 32

    def __post_init__(self) -> None:
        if self.processing_elements <= 0 or self.pe_width_bits <= 0:
            raise ValueError("PE count and width must be positive")
        if self.window_size <= 0:
            raise ValueError("window size must be positive")
        if not 0 <= self.overlap < self.window_size:
            raise ValueError("overlap must satisfy 0 <= O < W")
        if self.frequency_hz <= 0 or self.vaults <= 0:
            raise ValueError("frequency and vault count must be positive")

    @property
    def consumed_per_window(self) -> int:
        """Characters retired per window: ``W - O``."""
        return self.window_size - self.overlap


DEFAULT_CONFIG = GenAsmConfig()


# ----------------------------------------------------------------------
# Per-window and per-alignment cycle counts
# ----------------------------------------------------------------------
def wavefront_cycles(text_length: int, rows: int, processing_elements: int) -> int:
    """Exact cycle count of the Figure 5 wavefront schedule.

    Row ``r`` can start one cycle after row ``r-1`` (its R[d-1] dependency)
    and only after its PE retired row ``r-P`` (cyclic reuse), giving the
    recurrence ``start[r] = max(start[r-1] + 1, start[r-P] + n)``. The last
    cell finishes at ``start[rows-1] + n - 1``. Figure 5's example (4 PEs,
    8 rows, 4 text characters) lands on 11 cycles, matching the paper.
    """
    if text_length <= 0 or rows <= 0 or processing_elements <= 0:
        raise ValueError("text_length, rows, processing_elements must be positive")
    starts = [1] * rows
    for r in range(1, rows):
        start = starts[r - 1] + 1
        if r >= processing_elements:
            start = max(start, starts[r - processing_elements] + text_length)
        starts[r] = start
    return starts[-1] + text_length - 1


def dc_window_cycles(config: GenAsmConfig, window_edit_distance: int | None = None) -> int:
    """GenASM-DC cycles for one window on the systolic array.

    ``window_edit_distance`` bounds the number of distance rows that must be
    computed (``min(W, k)`` of Section 10.5); None means the worst case of
    ``W`` rows. With 64 rows on 64 PEs over 64 text characters this is
    64 + 63 = 127 cycles per window.
    """
    w = config.window_size
    rows = w if window_edit_distance is None else max(1, min(w, window_edit_distance))
    return wavefront_cycles(w, rows, config.processing_elements)


def tb_window_cycles(config: GenAsmConfig) -> int:
    """GenASM-TB cycles for one window: one CIGAR character per cycle."""
    return config.consumed_per_window


def window_count(pattern_length: int, edit_distance: int, config: GenAsmConfig) -> int:
    """Windows needed to traverse an ``m + k``-character matched region."""
    if pattern_length <= 0:
        raise ValueError("pattern length must be positive")
    if edit_distance < 0:
        raise ValueError("edit distance must be non-negative")
    region = pattern_length + edit_distance
    return math.ceil(region / config.consumed_per_window)


def alignment_cycles(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> int:
    """Total cycles for one read: windows x (DC + TB), DC and TB serialized.

    GenASM-TB for a window begins only after GenASM-DC finishes writing that
    window's bitvectors to the TB-SRAMs (Figure 4 steps 4-6).
    """
    windows = window_count(pattern_length, edit_distance, config)
    per_window_k = min(config.window_size, max(1, edit_distance))
    return windows * (dc_window_cycles(config, per_window_k) + tb_window_cycles(config))


def alignment_time_seconds(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> float:
    """Latency of one alignment on one accelerator."""
    return alignment_cycles(pattern_length, edit_distance, config) / config.frequency_hz


def throughput_per_accelerator(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> float:
    """Alignments per second for a single accelerator (one vault)."""
    return 1.0 / alignment_time_seconds(pattern_length, edit_distance, config)


def system_throughput(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> float:
    """Aggregate alignments/second across all vaults.

    Performance "scales linearly as we increase the number of compute units
    working in parallel" because vaults share nothing but DRAM, whose
    bandwidth demand (Section 7) stays far below the stack's 256 GB/s.
    """
    return throughput_per_accelerator(pattern_length, edit_distance, config) * config.vaults


# ----------------------------------------------------------------------
# Section 10.5 closed forms (used by the ablation benchmark)
# ----------------------------------------------------------------------
def dc_cycles_without_windowing(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> float:
    """DC cycles with no divide-and-conquer: ``m*(m+k)*k / (P*w)``."""
    m, k = pattern_length, edit_distance
    return m * (m + k) * k / (config.processing_elements * config.pe_width_bits)


def dc_cycles_with_windowing(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> float:
    """DC cycles with windowing: ``(W*W*min(W,k)/(P*w)) * (m+k)/(W-O)``."""
    m, k = pattern_length, edit_distance
    w = config.window_size
    per_window = w * w * min(w, k) / (config.processing_elements * config.pe_width_bits)
    return per_window * (m + k) / config.consumed_per_window


def memory_footprint_bits_without_windowing(
    pattern_length: int, edit_distance: int
) -> int:
    """Bitvector storage with no windowing: ``(m+k) * 4 * k * m`` bits.

    Section 6's motivating example: ~80 GB for m = 10,000 and k = 1,500.
    """
    m, k = pattern_length, edit_distance
    return (m + k) * 4 * k * m


def memory_footprint_bits_with_windowing(config: GenAsmConfig = DEFAULT_CONFIG) -> int:
    """Bitvector storage with windowing: ``W * 3 * W * W`` bits.

    Three stored vectors (match, insertion, deletion) — substitution is
    derived — for W iterations of W-row, W-bit state. This is the MICRO
    2020 TB-SRAM sizing (96 KB at W = 64); the SENE storage discipline
    (:func:`memory_footprint_bits_with_windowing_sene`) cuts it a further
    ~3x by storing only the ``R`` history.
    """
    w = config.window_size
    return w * 3 * w * w


def memory_footprint_bits_with_windowing_sene(
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> int:
    """SENE bitvector storage with windowing: ``(W+1) * (W+1) * W`` bits.

    Store-entries-not-edges (Scrooge, Lindegger et al.): only the ``R[d]``
    status rows are kept — ``W + 1`` iterations (including the initial
    state) of ``W + 1`` distance rows, ``W`` bits each — and the traceback
    re-derives the match/substitution/insertion/deletion edges from
    adjacent entries. At W = 64 this is ~33 KB against the paper layout's
    96 KB, a ~2.9x TB-SRAM reduction, and it removes two of the three
    per-cycle TB-SRAM stores from the DC pipeline. It is the only window
    layout the software kernels keep.
    """
    w = config.window_size
    return (w + 1) * (w + 1) * w


def memory_footprint_bits_with_windowing_sene_dent(
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> int:
    """SENE + DENT storage with windowing: ``(W-O+1) * (W+1) * W`` bits.

    DENT (Scrooge): the traceback retires at most ``W - O`` text characters
    per window, so it never reads an ``R`` entry past text iteration
    ``W - O`` and the entries of the remaining ``O`` iterations need not be
    stored. At W = 64, O = 24 this is ~21 KB against SENE's ~33 KB and the
    paper layout's 96 KB. (Early termination shrinks the ``W + 1`` factor to
    ``d + 1`` per window, but an SRAM is sized for the worst window.)
    """
    w = config.window_size
    return (config.consumed_per_window + 1) * (w + 1) * w


# ----------------------------------------------------------------------
# Bandwidth projections
# ----------------------------------------------------------------------
def dram_bandwidth_bytes_per_second(
    pattern_length: int,
    edit_distance: int,
    config: GenAsmConfig = DEFAULT_CONFIG,
    bits_per_symbol: int = 2,
    include_cigar_writeback: bool = False,
) -> float:
    """Main-memory traffic of one accelerator.

    Section 7: GenASM "accesses the memory and utilizes the memory bandwidth
    only to read the reference and the query sequences" — everything else
    lives in the SRAMs. With that accounting the model lands at ~112 MB/s
    for 10 Kbp reads at 15% error, inside the paper's 105-142 MB/s band.
    ``include_cigar_writeback`` adds the traceback output stream for
    completeness.
    """
    m, k = pattern_length, edit_distance
    bits = (m + k) * bits_per_symbol + m * bits_per_symbol
    if include_cigar_writeback:
        bits += (m + k) * 2  # ~2 bits per traceback operation
    return (bits / 8) * throughput_per_accelerator(m, k, config)


def tb_sram_write_bandwidth_bytes_per_second(
    config: GenAsmConfig = DEFAULT_CONFIG,
) -> float:
    """Aggregate TB-SRAM write traffic while DC streams (24 B/cycle/PE)."""
    per_pe_bytes = TB_WRITE_BITS_PER_CYCLE / 8
    return per_pe_bytes * config.processing_elements * config.frequency_hz
