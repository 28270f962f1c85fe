"""Experiment drivers — one per table/figure of the paper's evaluation.

Each driver returns ``(headers, rows)`` ready for
:func:`repro.eval.reporting.format_table`. A driver combines up to three
ingredients, always labelled in its output:

* **model** — the analytical performance model (the paper's own evaluation
  vehicle) plus the calibrated baseline device models;
* **measured** — functional runs of our Python implementations (algorithmic
  shape: accuracy, filter rates, scaling exponents);
* **paper** — the number the paper reports, for side-by-side comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.baselines.gotoh import gotoh_score
from repro.baselines.myers import myers_global
from repro.baselines.shouji import ShoujiFilter
from repro.core.aligner import GenAsmAligner
from repro.core.edit_distance import genasm_edit_distance
from repro.core.genasm_dc import run_dc_window
from repro.core.prefilter import GenAsmFilter
from repro.core.scoring import ScoringScheme, TracebackConfig
from repro.eval.datasets import (
    PairDataset,
    ReadDataset,
    edlib_pair_dataset,
    filter_pair_dataset,
    long_read_datasets,
    short_read_datasets,
)
from repro.eval.metrics import filter_accuracy, score_accuracy
from repro.hardware.area_power import genasm_area_power, xeon_core_comparison
from repro.hardware.baseline_devices import (
    GENASM_SYSTEM_POWER_W,
    GACT_POWER_W,
    SILLAX_THROUGHPUT,
    asap_time_s,
    bwa_mem_model,
    edlib_time_s,
    gact_throughput,
    gasal2_throughput,
    genasm_edit_distance_time_s,
    genasm_filter_time_s,
    minimap2_model,
    shouji_time_s,
)
from repro.hardware.performance_model import (
    DEFAULT_CONFIG,
    GenAsmConfig,
    dc_cycles_with_windowing,
    dc_cycles_without_windowing,
    memory_footprint_bits_with_windowing,
    memory_footprint_bits_with_windowing_sene,
    memory_footprint_bits_with_windowing_sene_dent,
    memory_footprint_bits_without_windowing,
    system_throughput,
    throughput_per_accelerator,
)
from repro.sequences.read_simulator import simulate_pair

Rows = tuple[Sequence[str], list[list[object]]]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def experiment_table1(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """Area and power breakdown of GenASM."""
    breakdown = genasm_area_power(config)
    rows: list[list[object]] = [
        [component.name, round(component.area_mm2, 3), round(component.power_w, 3)]
        for component in breakdown.components
    ]
    rows.append(
        [
            "Total - 1 vault",
            round(breakdown.accelerator_area_mm2, 3),
            round(breakdown.accelerator_power_w, 3),
        ]
    )
    rows.append(
        [
            f"Total - {config.vaults} vaults",
            round(breakdown.total_area_mm2, 2),
            round(breakdown.total_power_w, 2),
        ]
    )
    area_ratio, power_ratio = xeon_core_comparison(breakdown)
    rows.append(
        ["(one Xeon core / one accelerator)", round(area_ratio, 1), round(power_ratio, 1)]
    )
    # What the TB-SRAMs shrink to when entries, not edges, are stored
    # (SENE) and only for the iterations the traceback can reach (DENT).
    for label, bits in (
        ("SENE", memory_footprint_bits_with_windowing_sene(config)),
        ("SENE + DENT", memory_footprint_bits_with_windowing_sene_dent(config)),
    ):
        kilobytes = bits / 8 / 1024
        resized = genasm_area_power(
            config, tb_sram_kb_per_pe=kilobytes / config.processing_elements
        )
        tb_srams = next(
            component
            for component in resized.components
            if component.name.startswith("TB-SRAMs")
        )
        rows.append(
            [
                f"(TB-SRAMs under {label}: {kilobytes:.0f} KB)",
                round(tb_srams.area_mm2, 3),
                round(tb_srams.power_w, 3),
            ]
        )
    return ("Component", "Area (mm^2)", "Power (W)"), rows


# ----------------------------------------------------------------------
# Figures 9 and 10: alignment throughput vs BWA-MEM / Minimap2
# ----------------------------------------------------------------------
def _throughput_rows(
    datasets: list[ReadDataset], config: GenAsmConfig
) -> list[list[object]]:
    bwa = bwa_mem_model(config)
    mm2 = minimap2_model(config)
    rows: list[list[object]] = []
    for dataset in datasets:
        m = dataset.read_length
        k = max(1, int(m * dataset.error_rate))
        genasm = system_throughput(m, k, config)
        rows.append(
            [
                dataset.name,
                round(bwa.throughput(m, dataset.error_rate, threads=1), 1),
                round(bwa.throughput(m, dataset.error_rate, threads=12), 1),
                round(mm2.throughput(m, dataset.error_rate, threads=1), 1),
                round(mm2.throughput(m, dataset.error_rate, threads=12), 1),
                round(genasm, 1),
                round(genasm / bwa.throughput(m, dataset.error_rate, threads=12), 1),
                round(genasm / mm2.throughput(m, dataset.error_rate, threads=12), 1),
            ]
        )
    return rows


_THROUGHPUT_HEADERS = (
    "Dataset",
    "BWA-MEM t=1 (reads/s)",
    "BWA-MEM t=12",
    "Minimap2 t=1",
    "Minimap2 t=12",
    "GenASM",
    "Speedup vs BWA-MEM(12)",
    "Speedup vs Minimap2(12)",
)


def experiment_fig9(
    config: GenAsmConfig = DEFAULT_CONFIG, *, reads_per_set: int = 2
) -> Rows:
    """Long-read alignment throughput (model) — Figure 9."""
    datasets = long_read_datasets(reads_per_set=reads_per_set)
    return _THROUGHPUT_HEADERS, _throughput_rows(datasets, config)


def experiment_fig10(
    config: GenAsmConfig = DEFAULT_CONFIG, *, reads_per_set: int = 10
) -> Rows:
    """Short-read alignment throughput (model) — Figure 10."""
    datasets = short_read_datasets(reads_per_set=reads_per_set)
    return _THROUGHPUT_HEADERS, _throughput_rows(datasets, config)


# ----------------------------------------------------------------------
# Figure 11: end-to-end pipeline time with and without GenASM
# ----------------------------------------------------------------------
def experiment_fig11(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """Whole-pipeline speedup when GenASM replaces the alignment step.

    Uses Amdahl's law with the alignment-step fraction implied by the
    paper's tool runtimes: replacing a step that is fraction ``f`` of the
    pipeline with a (much faster) accelerator bounds the speedup at
    ``1 / (1 - f)``. The fractions below are derived from the paper's
    reported whole-pipeline speedups, then re-applied through our model's
    (finite) alignment speedups — so the reproduced number is a genuine
    model output, not an echo.
    """
    # (dataset, read len, error, BWA-MEM alignment fraction, Minimap2 fraction)
    cases = [
        ("Illumina-250bp", 250, 0.05, 1 - 1 / 2.4, 1 - 1 / 1.9),
        ("PacBio - 15%", 10_000, 0.15, 1 - 1 / 6.5, 1 - 1 / 3.4),
        ("ONT - 15%", 10_000, 0.15, 1 - 1 / 4.9, 1 - 1 / 2.1),
    ]
    bwa = bwa_mem_model(config)
    mm2 = minimap2_model(config)
    rows: list[list[object]] = []
    for name, m, rate, f_bwa, f_mm2 in cases:
        k = max(1, int(m * rate))
        genasm = system_throughput(m, k, config)
        s_align_bwa = genasm / bwa.throughput(m, rate, threads=12)
        s_align_mm2 = genasm / mm2.throughput(m, rate, threads=12)
        total_bwa = 1.0 / ((1 - f_bwa) + f_bwa / s_align_bwa)
        total_mm2 = 1.0 / ((1 - f_mm2) + f_mm2 / s_align_mm2)
        rows.append(
            [
                name,
                f"{f_bwa:.1%}",
                round(total_bwa, 2),
                f"{f_mm2:.1%}",
                round(total_mm2, 2),
            ]
        )
    return (
        "Dataset",
        "BWA-MEM align fraction",
        "Pipeline speedup (BWA-MEM)",
        "Minimap2 align fraction",
        "Pipeline speedup (Minimap2)",
    ), rows


# ----------------------------------------------------------------------
# Figures 12 and 13: GenASM vs GACT (Darwin)
# ----------------------------------------------------------------------
def experiment_fig12(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """Single-accelerator throughput vs a single GACT array, long reads."""
    rows: list[list[object]] = []
    for kbp in range(1, 11):
        length = kbp * 1000
        k = max(1, int(length * 0.15))
        genasm = throughput_per_accelerator(length, k, config)
        gact = gact_throughput(length, 0.15)
        rows.append([f"{kbp}Kbp", round(gact), round(genasm), round(genasm / gact, 2)])
    mean = sum(row[3] for row in rows) / len(rows)
    rows.append(["Average", "", "", round(mean, 2)])
    rows.append(
        [
            "Power (W)",
            GACT_POWER_W,
            0.101,
            round(GACT_POWER_W / 0.101, 1),
        ]
    )
    return ("Length", "GACT (aln/s)", "GenASM (aln/s)", "GenASM/GACT"), rows


def experiment_fig13(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """Single-accelerator throughput vs a single GACT array, short reads."""
    rows: list[list[object]] = []
    for length in (100, 150, 200, 250, 300):
        k = max(1, int(length * 0.05))
        genasm = throughput_per_accelerator(length, k, config)
        gact = gact_throughput(length, 0.05)
        rows.append([f"{length}bp", round(gact), round(genasm), round(genasm / gact, 2)])
    mean = sum(row[3] for row in rows) / len(rows)
    rows.append(["Average", "", "", round(mean, 2)])
    return ("Length", "GACT (aln/s)", "GenASM (aln/s)", "GenASM/GACT"), rows


# ----------------------------------------------------------------------
# GPU (GASAL2) and SillaX comparisons (Section 10.2)
# ----------------------------------------------------------------------
def experiment_gasal2(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """GenASM vs the GASAL2 GPU aligner for short reads."""
    rows: list[list[object]] = []
    for length in (100, 150, 250):
        k = max(1, int(length * 0.05))
        genasm = system_throughput(length, k, config)
        for pairs in (100_000, 1_000_000, 10_000_000):
            gasal = gasal2_throughput(length, pairs, config)
            rows.append(
                [
                    f"{length}bp / {pairs:,} pairs",
                    round(gasal),
                    round(genasm),
                    round(genasm / gasal, 1),
                ]
            )
    return ("Workload", "GASAL2 (aln/s)", "GenASM (aln/s)", "Speedup"), rows


def experiment_sillax(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """GenASM vs SillaX (GenAx) for 101 bp short reads."""
    genasm = system_throughput(101, 5, config)
    rows = [
        ["SillaX @ 2GHz", round(SILLAX_THROUGHPUT), "", ""],
        ["GenASM @ 1GHz", round(genasm), round(genasm / SILLAX_THROUGHPUT, 2), "1.9x (paper)"],
    ]
    return ("System", "Throughput (aln/s)", "GenASM/SillaX", "Paper"), rows


# ----------------------------------------------------------------------
# Accuracy analysis (Section 10.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccuracyCase:
    """One accuracy-analysis configuration."""

    name: str
    datasets: list[ReadDataset]
    scheme: ScoringScheme
    tolerance: float


def experiment_accuracy(
    *,
    short_reads: int = 30,
    long_reads: int = 2,
    long_read_length: int = 2_000,
) -> Rows:
    """GenASM traceback score vs the optimal affine-gap (Gotoh) score.

    Short reads use BWA-MEM's scoring, long reads Minimap2's, as in the
    paper. Long-read length is scaled (Gotoh is quadratic in Python); the
    comparison is per-base and unaffected by absolute length.
    """
    cases = [
        AccuracyCase(
            name="short (BWA-MEM scoring)",
            datasets=short_read_datasets(reads_per_set=short_reads // 3 + 1),
            scheme=ScoringScheme.bwa_mem(),
            tolerance=0.045,
        ),
        AccuracyCase(
            name="long (Minimap2 scoring)",
            datasets=long_read_datasets(
                reads_per_set=long_reads, read_length=long_read_length
            ),
            scheme=ScoringScheme.minimap2(),
            tolerance=0.05,
        ),
    ]
    rows: list[list[object]] = []
    for case in cases:
        genasm_scores: list[int] = []
        optimal_scores: list[int] = []
        aligner = GenAsmAligner(config=TracebackConfig.from_scoring(case.scheme))
        for dataset in case.datasets:
            for read in dataset.reads:
                k = max(8, int(read.true_length * dataset.error_rate * 2))
                region = dataset.genome.region(read.true_start, read.true_length + k)
                alignment = aligner.align(region, read.sequence)
                region_used = region[: alignment.text_consumed]
                genasm_scores.append(alignment.score(case.scheme))
                optimal_scores.append(
                    gotoh_score(region_used, read.sequence, case.scheme)
                )
        accuracy = score_accuracy(
            genasm_scores, optimal_scores, tolerance=case.tolerance
        )
        rows.append(
            [
                case.name,
                accuracy.total,
                f"{accuracy.exact_fraction:.1%}",
                f"{accuracy.within_fraction:.1%}",
                f"+/-{case.tolerance:.1%}",
            ]
        )
    return ("Case", "Reads", "Exact score", "Within tolerance", "Tolerance"), rows


# ----------------------------------------------------------------------
# Pre-alignment filtering (Section 10.3)
# ----------------------------------------------------------------------
def experiment_prefilter(
    *, pairs: int = 150, seed: int = 3
) -> Rows:
    """GenASM filter vs Shouji: accuracy (measured) and time (model)."""
    rows: list[list[object]] = []
    for read_length, threshold in ((100, 5), (250, 15)):
        dataset = filter_pair_dataset(
            read_length=read_length, threshold=threshold, pairs=pairs, seed=seed
        )
        truth = [myers_global(ref, qry) for ref, qry in dataset.pairs]

        genasm = GenAsmFilter(threshold)
        genasm_decisions = [genasm.accepts(ref, qry) for ref, qry in dataset.pairs]
        genasm_acc = filter_accuracy(genasm_decisions, truth, threshold)

        shouji = ShoujiFilter(threshold)
        shouji_decisions = [shouji.accepts(ref, qry) for ref, qry in dataset.pairs]
        shouji_acc = filter_accuracy(shouji_decisions, truth, threshold)

        model_speedup = shouji_time_s(read_length, threshold) / genasm_filter_time_s(
            read_length, threshold
        )
        rows.append(
            [
                dataset.name,
                f"{genasm_acc.false_accept_rate:.2%}",
                f"{genasm_acc.false_reject_rate:.2%}",
                f"{shouji_acc.false_accept_rate:.2%}",
                f"{shouji_acc.false_reject_rate:.2%}",
                round(model_speedup, 2),
            ]
        )
    return (
        "Dataset",
        "GenASM false accept",
        "GenASM false reject",
        "Shouji false accept",
        "Shouji false reject",
        "Model speedup vs Shouji",
    ), rows


# ----------------------------------------------------------------------
# Figure 14 + ASAP: edit distance calculation (Section 10.4)
# ----------------------------------------------------------------------
def experiment_fig14(
    config: GenAsmConfig = DEFAULT_CONFIG,
    *,
    measured_length: int = 2_000,
    similarities: tuple[float, ...] = (0.60, 0.80, 0.90, 0.99),
) -> Rows:
    """Edit distance: GenASM vs Edlib, model at paper scale + measured shape.

    The model rows reproduce the paper's 100 Kbp and 1 Mbp speedup ranges;
    the measured rows run our Python GenASM and Myers implementations on
    ``measured_length`` sequences to confirm the crossover is algorithmic
    (linear windowed scan vs quadratic band) rather than a modelling artifact.
    """
    rows: list[list[object]] = []
    for length in (100_000, 1_000_000):
        for similarity in similarities:
            edlib = edlib_time_s(length, similarity)
            edlib_tb = edlib_time_s(length, similarity, traceback=True)
            genasm = genasm_edit_distance_time_s(length, similarity, config)
            rows.append(
                [
                    f"model {length // 1000}Kbp",
                    f"{similarity:.0%}",
                    f"{edlib * 1e3:.2f} ms",
                    f"{genasm * 1e3:.3f} ms",
                    round(edlib / genasm),
                    round(edlib_tb / genasm),
                ]
            )

    # Measured scaling check: the crossover in Figure 14 exists because
    # Edlib/Myers grows quadratically with length while windowed GenASM
    # grows linearly. Measure both at L and 2L and report growth factors
    # (expected ~4x for Myers, ~2x for GenASM).
    def _measure(length: int, similarity: float) -> tuple[float, float]:
        dataset = edlib_pair_dataset(length=length, similarities=(similarity,))
        original, mutated = dataset.pairs[0]
        start = time.perf_counter()
        myers_global(original, mutated)
        myers_time = time.perf_counter() - start
        start = time.perf_counter()
        genasm_edit_distance(original, mutated)
        genasm_time = time.perf_counter() - start
        return myers_time, genasm_time

    similarity = 0.90
    myers_short, genasm_short = _measure(measured_length, similarity)
    myers_long, genasm_long = _measure(2 * measured_length, similarity)
    rows.append(
        [
            f"measured growth {measured_length}->{2 * measured_length}bp",
            f"{similarity:.0%}",
            f"Myers x{myers_long / myers_short:.1f} (quadratic ~x4)",
            f"GenASM x{genasm_long / genasm_short:.1f} (linear ~x2)",
            "-",
            "-",
        ]
    )
    return (
        "Scale",
        "Similarity",
        "Edlib time",
        "GenASM time",
        "Speedup",
        "Speedup (w/ TB)",
    ), rows


def experiment_asap(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """GenASM vs the ASAP FPGA edit-distance accelerator (64-320 bp)."""
    rows: list[list[object]] = []
    for length in (64, 128, 192, 256, 320):
        asap = asap_time_s(length)
        genasm = genasm_edit_distance_time_s(length, 0.95, config)
        rows.append(
            [
                f"{length}bp",
                f"{asap * 1e6:.1f} us",
                f"{genasm * 1e6:.3f} us",
                round(asap / genasm, 1),
            ]
        )
    return ("Length", "ASAP time", "GenASM time", "Speedup"), rows


# ----------------------------------------------------------------------
# Section 10.5: sources of improvement (ablation)
# ----------------------------------------------------------------------
def experiment_ablation(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """Divide-and-conquer, PE parallelism, and vault parallelism ablations."""
    rows: list[list[object]] = []

    # Divide and conquer: DC cycles and memory footprint with/without.
    for name, m, rate in (
        ("long 10Kbp @15%", 10_000, 0.15),
        ("short 100bp @5%", 100, 0.05),
        ("short 250bp @5%", 250, 0.05),
    ):
        k = max(1, int(m * rate))
        without = dc_cycles_without_windowing(m, k, config)
        with_dc = dc_cycles_with_windowing(m, k, config)
        rows.append(
            [
                f"D&C: {name}",
                f"{without:,.0f} cyc",
                f"{with_dc:,.0f} cyc",
                round(without / with_dc, 2),
            ]
        )
    footprint_without = memory_footprint_bits_without_windowing(10_000, 1_500)
    footprint_with = memory_footprint_bits_with_windowing(config)
    rows.append(
        [
            "D&C: bitvector storage (10Kbp @15%)",
            f"{footprint_without / 8 / 2**30:,.1f} GB",
            f"{footprint_with / 8 / 1024:,.0f} KB",
            round(footprint_without / footprint_with),
        ]
    )

    # PE parallelism: 1 PE vs 64 PEs at the window level.
    base = throughput_per_accelerator(10_000, 1_500, config)
    one_pe = throughput_per_accelerator(
        10_000,
        1_500,
        GenAsmConfig(
            processing_elements=1,
            pe_width_bits=config.pe_width_bits,
            window_size=config.window_size,
            overlap=config.overlap,
            frequency_hz=config.frequency_hz,
            vaults=config.vaults,
        ),
    )
    rows.append(["PEs: 1 -> 64 (per-accelerator)", f"{one_pe:,.0f}/s", f"{base:,.0f}/s", round(base / one_pe, 1)])

    # Vault parallelism: 1 vault vs 32 vaults.
    rows.append(
        [
            "Vaults: 1 -> 32 (system)",
            f"{base:,.0f}/s",
            f"{base * config.vaults:,.0f}/s",
            config.vaults,
        ]
    )
    return ("Ablation", "Baseline", "GenASM", "Factor"), rows


# The ablation's window set: fixed so its two count columns repeat.
DC_ABLATION_WINDOWS = 200
DC_ABLATION_ERROR_RATES = (0.05, 0.15)
DC_ABLATION_SEED = 2024


def experiment_dc_ablation(config: GenAsmConfig = DEFAULT_CONFIG) -> Rows:
    """SENE / + DENT / + ET on the window kernel, per improvement.

    The three-row ablation "Algorithmic Improvement and GPU Acceleration of
    the GenASM Algorithm" reports, over a fixed-seed set of ``W x W``
    windows per error rate. Per window of distance ``d``:

    * **rows computed** — without early termination the kernel guessed a
      budget of 8 and doubled on a miss, computing every row each time
      (``9`` if ``d <= 8`` else ``9 + 17`` ...); with ET, ``d + 1``;
    * **bits stored** — ``(n + 1)(k + 1)m`` under SENE, with ``k`` the budget
      that hit; DENT keeps ``W - O + 1`` of the ``n + 1`` iterations; ET
      makes ``k = d``;
    * **us / window** — the pure kernel's measured time, for the ET row only:
      the doubling schedule of the other two rows no longer exists to time.

    The two count columns are exact and repeatable; the time column is not.
    """
    w = config.window_size
    reach = config.consumed_per_window
    windows = DC_ABLATION_WINDOWS
    rows: list[list[object]] = []
    for rate in DC_ABLATION_ERROR_RATES:
        pairs = [
            simulate_pair(w + w // 4, 1.0 - rate, seed=DC_ABLATION_SEED + index)
            for index in range(windows)
        ]
        started = time.perf_counter()
        solved = [run_dc_window(text[:w], read[:w]) for text, read, _ in pairs]
        elapsed_us = (time.perf_counter() - started) * 1e6

        doubling_rows = et_rows = 0
        sene_bits = dent_bits = et_bits = 0
        for window in solved:
            n, m, d = window.text_length, window.pattern_length, window.k
            budget = min(8, m)
            doubling_rows += budget + 1
            while budget < d:
                budget = min(2 * budget, m)
                doubling_rows += budget + 1
            et_rows += d + 1
            sene_bits += (n + 1) * (budget + 1) * m
            dent_bits += (min(n, reach) + 1) * (budget + 1) * m
            et_bits += window.stored_bits(reach)
        for variant, computed, bits, us in (
            ("SENE", doubling_rows, sene_bits, None),
            ("+ DENT", doubling_rows, dent_bits, None),
            ("+ ET", et_rows, et_bits, elapsed_us),
        ):
            rows.append(
                [
                    f"{rate:.0%} error",
                    variant,
                    round(computed / windows, 2),
                    round(bits / windows),
                    "-" if us is None else round(us / windows, 1),
                ]
            )
    return (
        "Windows",
        "Variant",
        "Rows computed / window",
        "Bits stored / window",
        "us / window (pure, measured)",
    ), rows
