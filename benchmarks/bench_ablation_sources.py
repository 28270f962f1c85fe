"""Section 10.5: sources of improvement (ablation).

Regenerates the paper's attribution arithmetic: the divide-and-conquer
cycle/footprint reductions (paper: thousands-fold DC reduction for long
reads, 80 GB -> 96 KB storage), PE-level parallelism, and the 32x vault
parallelism. The benchmark measures the window-DC kernel — the unit all of
these multiply — and prints the kernel's own per-improvement ablation (SENE /
+ DENT / + ET: rows computed, bits stored, time per window), after the
GPU-GenASM paper.
"""

from _common import emit_table

from repro.core.genasm_dc import run_dc_window
from repro.eval.experiments import experiment_ablation, experiment_dc_ablation
from repro.sequences.read_simulator import simulate_pair


def test_ablation_sources_of_improvement(benchmark):
    headers, rows = experiment_ablation()
    emit_table(
        "ablation_sources",
        headers,
        rows,
        title=(
            "Sources of improvement (paper: D&C thousands-fold for long "
            "reads, 80GB->96KB, 32x vaults)"
        ),
    )
    long_row = [r for r in rows if "long 10Kbp" in str(r[0])][0]
    assert long_row[3] > 1_000

    reference, query, _ = simulate_pair(64, 0.9, seed=97)
    window = benchmark(run_dc_window, reference, query)
    assert window.edit_distance >= 0


def test_ablation_window_kernel_improvements():
    headers, rows = experiment_dc_ablation()
    emit_table(
        "ablation_dc_kernel",
        headers,
        rows,
        title=(
            "Window kernel, per improvement (64x64 windows; the count "
            "columns are exact, the time column is this machine's)"
        ),
    )
    for sene, dent, et in zip(rows[0::3], rows[1::3], rows[2::3]):
        assert sene[2] == dent[2] > et[2]  # only ET computes fewer rows
        assert sene[3] > dent[3] > et[3]  # each step stores less
