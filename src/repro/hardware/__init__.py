"""Hardware models: the GenASM accelerator and every baseline device.

* :mod:`repro.hardware.performance_model` — the paper's analytical model
  (cycles, throughput, footprints, bandwidth).
* :mod:`repro.hardware.systolic` — cycle-level wavefront simulator that
  validates the analytical model (Figure 5).
* :mod:`repro.hardware.sram` — DC-SRAM / TB-SRAM capacity and port models.
* :mod:`repro.hardware.accelerator` / :mod:`repro.hardware.memory` — a
  functional accelerator and the 32-vault 3D-stacked system.
* :mod:`repro.hardware.area_power` — Table 1.
* :mod:`repro.hardware.baseline_devices` — calibrated models of BWA-MEM,
  Minimap2, GASAL2, GACT, SillaX, Shouji, Edlib, and ASAP.
"""

from repro.hardware.accelerator import AcceleratorResult, GenAsmAccelerator
from repro.hardware.area_power import (
    AreaPowerBreakdown,
    ComponentCost,
    genasm_area_power,
    xeon_core_comparison,
)
from repro.hardware.memory import BatchResult, StackedMemorySystem
from repro.hardware.performance_model import (
    DEFAULT_CONFIG,
    GenAsmConfig,
    alignment_cycles,
    alignment_time_seconds,
    dc_cycles_with_windowing,
    dc_cycles_without_windowing,
    dram_bandwidth_bytes_per_second,
    memory_footprint_bits_with_windowing,
    memory_footprint_bits_with_windowing_sene,
    memory_footprint_bits_with_windowing_sene_dent,
    memory_footprint_bits_without_windowing,
    system_throughput,
    throughput_per_accelerator,
    wavefront_cycles,
    window_count,
)
from repro.hardware.sram import Sram, SramCapacityError, SramPortError
from repro.hardware.systolic import SystolicSchedule, schedule_window

__all__ = [
    "AcceleratorResult",
    "AreaPowerBreakdown",
    "BatchResult",
    "ComponentCost",
    "DEFAULT_CONFIG",
    "GenAsmAccelerator",
    "GenAsmConfig",
    "Sram",
    "SramCapacityError",
    "SramPortError",
    "StackedMemorySystem",
    "SystolicSchedule",
    "alignment_cycles",
    "alignment_time_seconds",
    "dc_cycles_with_windowing",
    "dc_cycles_without_windowing",
    "dram_bandwidth_bytes_per_second",
    "genasm_area_power",
    "memory_footprint_bits_with_windowing",
    "memory_footprint_bits_with_windowing_sene",
    "memory_footprint_bits_with_windowing_sene_dent",
    "memory_footprint_bits_without_windowing",
    "schedule_window",
    "system_throughput",
    "throughput_per_accelerator",
    "wavefront_cycles",
    "window_count",
    "xeon_core_comparison",
]
