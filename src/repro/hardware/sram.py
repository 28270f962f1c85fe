"""SRAM buffer models: DC-SRAM and the per-PE TB-SRAMs (Section 7).

GenASM-DC uses an 8 KB DC-SRAM holding "the reference text, the pattern
bitmasks for the query read, and the intermediate data generated from PEs";
each PE writes its match/insertion/deletion bitvectors (192 bits = 24 B per
cycle) to a dedicated 1.5 KB TB-SRAM with a single R/W port, sized for the
24 B/cycle x 64 cycles/window output of one window.

These models enforce the capacity and port constraints and count traffic, so
the accelerator model can verify the design point actually fits — the
"balance the compute resources with available memory capacity and bandwidth"
claim of the introduction.

Under the SENE storage discipline (store entries, not edges; see
:mod:`repro.core.genasm_dc` and
:func:`repro.hardware.performance_model.memory_footprint_bits_with_windowing_sene`)
each PE writes only its ``R[d]`` row — 64 bits instead of 192 per cycle —
cutting the per-window TB-SRAM footprint from 96 KB to ~33 KB; with DENT
(entries of text iterations past ``W - O`` are never read back, so they are
not kept;
:func:`~repro.hardware.performance_model.memory_footprint_bits_with_windowing_sene_dent`)
it is ~21 KB at W = 64 / O = 24, i.e. ~0.33 KB of each PE's 1.5 KB. The
accelerator model reports that figure next to the paper layout's
(``AcceleratorResult.tb_sram_bytes_written_sene_dent``) and checks every
window's paper-layout share against :func:`make_tb_sram`'s capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SramCapacityError(RuntimeError):
    """Raised when a write would exceed the buffer's capacity."""


class SramPortError(RuntimeError):
    """Raised when per-cycle accesses exceed the configured port count."""


@dataclass
class Sram:
    """A banked on-chip buffer with capacity and port bookkeeping.

    Parameters
    ----------
    name:
        For error messages and reports ("DC-SRAM", "TB-SRAM[3]", ...).
    capacity_bytes:
        Total storage.
    read_ports / write_ports:
        Accesses allowed per cycle; the paper's TB-SRAMs have "a single R/W
        port", modelled as one read and one write port that cannot be used
        in the same cycle (checked by :meth:`end_cycle`).
    shared_rw_port:
        True when reads and writes contend for the same port.
    """

    name: str
    capacity_bytes: int
    read_ports: int = 1
    write_ports: int = 1
    shared_rw_port: bool = False

    occupied_bytes: int = field(default=0, init=False)
    total_reads: int = field(default=0, init=False)
    total_writes: int = field(default=0, init=False)
    total_bytes_read: int = field(default=0, init=False)
    total_bytes_written: int = field(default=0, init=False)
    _cycle_reads: int = field(default=0, init=False)
    _cycle_writes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.read_ports < 0 or self.write_ports < 0:
            raise ValueError("port counts must be non-negative")

    # ------------------------------------------------------------------
    # Data placement
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> None:
        """Claim buffer space (e.g. the window's bitvector region)."""
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if self.occupied_bytes + nbytes > self.capacity_bytes:
            raise SramCapacityError(
                f"{self.name}: allocating {nbytes} B exceeds capacity "
                f"({self.occupied_bytes}/{self.capacity_bytes} B in use)"
            )
        self.occupied_bytes += nbytes

    def release(self, nbytes: int) -> None:
        """Free previously allocated space (window retirement)."""
        if nbytes < 0 or nbytes > self.occupied_bytes:
            raise ValueError(f"{self.name}: cannot release {nbytes} B")
        self.occupied_bytes -= nbytes

    def reset(self) -> None:
        """Clear occupancy between alignments; traffic counters persist."""
        self.occupied_bytes = 0
        self._cycle_reads = 0
        self._cycle_writes = 0

    # ------------------------------------------------------------------
    # Per-cycle traffic
    # ------------------------------------------------------------------
    def read(self, nbytes: int) -> None:
        self._cycle_reads += 1
        self.total_reads += 1
        self.total_bytes_read += nbytes
        if self._cycle_reads > self.read_ports:
            raise SramPortError(
                f"{self.name}: {self._cycle_reads} reads in one cycle "
                f"(only {self.read_ports} port(s))"
            )

    def write(self, nbytes: int) -> None:
        self._cycle_writes += 1
        self.total_writes += 1
        self.total_bytes_written += nbytes
        if self._cycle_writes > self.write_ports:
            raise SramPortError(
                f"{self.name}: {self._cycle_writes} writes in one cycle "
                f"(only {self.write_ports} port(s))"
            )

    def end_cycle(self) -> None:
        """Close the accounting window for one cycle."""
        if self.shared_rw_port and self._cycle_reads and self._cycle_writes:
            raise SramPortError(
                f"{self.name}: simultaneous read and write on a shared R/W port"
            )
        self._cycle_reads = 0
        self._cycle_writes = 0


def make_dc_sram() -> Sram:
    """The paper's 8 KB DC-SRAM (one read + one write per cycle, Section 7)."""
    return Sram(name="DC-SRAM", capacity_bytes=8 * 1024)


def make_tb_sram(index: int) -> Sram:
    """One of the 64 per-PE 1.5 KB TB-SRAMs with a single R/W port."""
    return Sram(
        name=f"TB-SRAM[{index}]",
        capacity_bytes=1536,
        shared_rw_port=True,
    )


def dc_sram_demand_bytes(
    pattern_length: int,
    region_length: int,
    bits_per_symbol: int = 2,
    pe_count: int = 64,
    pe_width_bits: int = 64,
) -> int:
    """DC-SRAM footprint of one alignment task.

    Holds the packed reference region and the four pattern bitmasks. The
    per-PE oldR state lives in the PEs' own "flip-flop-based storage logic"
    (Section 7), so it does not occupy DC-SRAM. The paper's example —
    10 Kbp read at 15% error, 11.5 Kbp region — lands at 7,875 bytes,
    inside the 8 KB budget.
    """
    region_bytes = (region_length * bits_per_symbol + 7) // 8
    bitmask_bytes = 4 * ((pattern_length + 7) // 8)
    return region_bytes + bitmask_bytes
