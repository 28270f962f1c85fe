"""Functional model of one GenASM accelerator (Figure 4).

One accelerator — the contents of one vault's logic layer — couples a
GenASM-DC systolic array, a GenASM-TB unit, the 8 KB DC-SRAM, and 64 per-PE
1.5 KB TB-SRAMs. :meth:`GenAsmAccelerator.align` executes the host-visible
flow: load the reference region and query into DC-SRAM, process windows
(DC writes each window's bitvectors to the TB-SRAMs; TB reads them back and
emits CIGAR characters), and report the alignment together with the cycles
and SRAM traffic the hardware would have spent.

Both TB-SRAM figures come from one run. ``tb_sram_bytes_written`` is the
paper's layout: three explicit edge bitvectors per (iteration, error row)
cell, ``n·3·d·m`` bits per window — the ``W·3·W·W``-bit sizing the 1.5
KB-per-PE design point comes from, and what :meth:`_spill_window` checks
against it. ``tb_sram_bytes_written_sene_dent`` is what the SENE discipline
(store entries, not edges, after Scrooge / Lindegger et al.) with DENT
keeps of the same window: only the ``R[d]`` history, and of it only the
``W-O+1`` text iterations the traceback can reach —
``(W-O+1)·(W+1)·W`` bits in the worst window — with the TB unit
re-deriving edges from adjacent entries. The two are the same window read
two ways, so the alignment does not depend on which one is counted.

The *functional result* comes from :mod:`repro.core` (the same algorithms
the hardware implements); the *timing* comes from the wavefront schedule, so
this model is the meeting point the paper's co-design story revolves around.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aligner import Alignment
from repro.core.genasm_dc import run_dc_window
from repro.core.genasm_tb import traceback_window
from repro.core.scoring import TracebackConfig
from repro.hardware.performance_model import (
    GenAsmConfig,
    DEFAULT_CONFIG,
    TB_WRITE_BITS_PER_CYCLE,
    wavefront_cycles,
)
from repro.hardware.sram import (
    Sram,
    dc_sram_demand_bytes,
    make_dc_sram,
    make_tb_sram,
)
from repro.sequences.alphabet import DNA, Alphabet


@dataclass(frozen=True)
class AcceleratorResult:
    """Alignment output plus the hardware cost of producing it."""

    alignment: Alignment
    windows: int
    dc_cycles: int
    tb_cycles: int
    tb_sram_bytes_written: int
    tb_sram_bytes_written_sene_dent: int
    tb_sram_bytes_read: int

    @property
    def total_cycles(self) -> int:
        """DC and TB serialized per window (Figure 4 steps 4-6)."""
        return self.dc_cycles + self.tb_cycles

    def time_seconds(self, frequency_hz: float = 1.0e9) -> float:
        return self.total_cycles / frequency_hz


class GenAsmAccelerator:
    """One vault's GenASM-DC + GenASM-TB pair with SRAM bookkeeping."""

    def __init__(
        self,
        config: GenAsmConfig = DEFAULT_CONFIG,
        *,
        tb_config: TracebackConfig | None = None,
        alphabet: Alphabet = DNA,
    ) -> None:
        self.config = config
        self.alphabet = alphabet
        self.tb_config = tb_config if tb_config is not None else TracebackConfig()
        self.dc_sram: Sram = make_dc_sram()
        self.tb_srams: list[Sram] = [
            make_tb_sram(i) for i in range(config.processing_elements)
        ]

    def align(self, text: str, pattern: str) -> AcceleratorResult:
        """Run the full DC/TB window loop with cycle and SRAM accounting.

        Functionally identical to :class:`~repro.core.aligner.GenAsmAligner`
        (asserted by tests); additionally checks that the working set fits
        the SRAM design point and accumulates traffic statistics.
        """
        self.dc_sram.reset()
        demand = dc_sram_demand_bytes(
            min(len(pattern), self.config.window_size * 4),
            min(len(text), self.config.window_size * 4),
            pe_count=self.config.processing_elements,
            pe_width_bits=self.config.pe_width_bits,
        )
        self.dc_sram.allocate(demand)

        w = self.config.window_size
        consume_limit = self.config.consumed_per_window
        cur_text = 0
        cur_pattern = 0
        dc_cycles = 0
        tb_cycles = 0
        windows = 0
        tb_written = 0
        tb_written_sene_dent = 0
        tb_read = 0
        parts: list[str] = []

        m = len(pattern)
        while cur_pattern < m:
            sub_pattern = pattern[cur_pattern : cur_pattern + w]
            sub_text = text[cur_text : cur_text + w]
            if not sub_text:
                parts.append("I" * (m - cur_pattern))
                break
            window = run_dc_window(
                sub_text, sub_pattern, alphabet=self.alphabet
            )
            rows = max(1, min(w, window.edit_distance))
            dc_cycles += wavefront_cycles(
                len(sub_text), rows, self.config.processing_elements
            )
            # Section 6's TB-SRAM layout: match, insertion and deletion
            # stored per (iteration, error row) cell; substitution is derived.
            window_bits = (
                len(sub_text) * 3 * window.edit_distance * len(sub_pattern)
            )
            self._spill_window(window_bits)
            tb_written += window_bits // 8
            # SENE + DENT: the R rows of the iterations the traceback reaches.
            tb_written_sene_dent += window.stored_bits(consume_limit) // 8

            tb = traceback_window(
                window, consume_limit=consume_limit, config=self.tb_config
            )
            steps = max(1, len(tb.ops))
            tb_cycles += steps
            tb_read += steps * (TB_WRITE_BITS_PER_CYCLE // 8)

            parts.append(tb.ops)
            cur_pattern += tb.pattern_consumed
            cur_text += tb.text_consumed
            windows += 1

        from repro.core.cigar import Cigar

        cigar = Cigar("".join(parts))
        alignment = Alignment(
            cigar=cigar,
            edit_distance=cigar.edit_distance,
            text_start=0,
            text_consumed=cur_text,
        )
        self.dc_sram.release(demand)
        return AcceleratorResult(
            alignment=alignment,
            windows=windows,
            dc_cycles=dc_cycles,
            tb_cycles=tb_cycles,
            tb_sram_bytes_written=tb_written,
            tb_sram_bytes_written_sene_dent=tb_written_sene_dent,
            tb_sram_bytes_read=tb_read,
        )

    def _spill_window(self, window_bits: int) -> None:
        """Distribute one window's bitvectors across the per-PE TB-SRAMs.

        Each PE's share must fit its 1.5 KB buffer — the sizing claim of
        Section 7 ("1.5KB TB-SRAM ... fits our 24B/cycle x 64 cycles/window
        output storage requirement").
        """
        share = window_bits // 8 // len(self.tb_srams)
        for sram in self.tb_srams:
            sram.reset()
            sram.allocate(share)
            sram.release(share)
