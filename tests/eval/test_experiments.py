"""Smoke + invariant tests for the per-figure experiment drivers."""

from repro.eval.experiments import (
    experiment_ablation,
    experiment_accuracy,
    experiment_asap,
    experiment_dc_ablation,
    experiment_fig9,
    experiment_fig10,
    experiment_fig11,
    experiment_fig12,
    experiment_fig13,
    experiment_fig14,
    experiment_gasal2,
    experiment_prefilter,
    experiment_sillax,
    experiment_table1,
)


class TestTable1:
    def test_totals_row_present(self):
        headers, rows = experiment_table1()
        assert len(headers) == 3
        totals = [r for r in rows if str(r[0]).startswith("Total - 1 vault")]
        assert totals and totals[0][1] == 0.334

    def test_tb_sram_shrinks_under_sene_then_dent(self):
        _, rows = experiment_table1()
        by_name = {str(row[0]): row for row in rows}
        paper = by_name["TB-SRAMs (64 x 1.5 KB)"]
        sene = by_name["(TB-SRAMs under SENE: 33 KB)"]
        dent = by_name["(TB-SRAMs under SENE + DENT: 21 KB)"]
        assert paper[1] > sene[1] > dent[1] > 0
        assert paper[2] > sene[2] > dent[2] > 0


class TestThroughputFigures:
    def test_fig9_reproduces_anchor_speedups(self):
        _, rows = experiment_fig9()
        by_name = {row[0]: row for row in rows}
        assert by_name["PacBio - 15%"][6] == 648  # vs BWA-MEM 12t
        assert by_name["PacBio - 15%"][7] == 116  # vs Minimap2 12t

    def test_fig10_reproduces_anchor_speedups(self):
        _, rows = experiment_fig10()
        by_name = {row[0]: row for row in rows}
        assert by_name["Illumina-150bp"][6] == 111
        assert by_name["Illumina-150bp"][7] == 158

    def test_fig11_speedups_in_paper_band(self):
        _, rows = experiment_fig11()
        by_name = {row[0]: row for row in rows}
        # Paper: 6.5x/3.4x for PacBio-15%; Amdahl reproduction within 10%.
        assert abs(by_name["PacBio - 15%"][2] - 6.5) < 0.7
        assert abs(by_name["PacBio - 15%"][4] - 3.4) < 0.4

    def test_fig12_average_ratio(self):
        _, rows = experiment_fig12()
        avg = [r for r in rows if r[0] == "Average"][0]
        assert 3.0 < avg[3] < 4.5  # paper: 3.9x

    def test_fig13_average_ratio(self):
        _, rows = experiment_fig13()
        avg = [r for r in rows if r[0] == "Average"][0]
        assert 3.0 < avg[3] < 10.0  # paper: 7.4x

    def test_gasal2_table_shape(self):
        _, rows = experiment_gasal2()
        assert len(rows) == 9
        assert all(row[3] > 5 for row in rows)  # all speedups substantial

    def test_sillax_ratio(self):
        _, rows = experiment_sillax()
        assert 1.7 < rows[1][2] < 2.2


class TestAccuracyAndFiltering:
    def test_accuracy_reproduces_high_match(self):
        _, rows = experiment_accuracy(short_reads=6, long_reads=1, long_read_length=400)
        for row in rows:
            within = float(str(row[3]).rstrip("%"))
            assert within >= 90.0  # paper: 99.6-99.7%

    def test_prefilter_genasm_beats_shouji(self):
        _, rows = experiment_prefilter(pairs=40)
        for row in rows:
            genasm_fa = float(str(row[1]).rstrip("%"))
            shouji_fa = float(str(row[3]).rstrip("%"))
            genasm_fr = float(str(row[2]).rstrip("%"))
            assert genasm_fa <= shouji_fa
            assert genasm_fr == 0.0


class TestEditDistance:
    def test_fig14_model_rows_match_paper_ranges(self):
        _, rows = experiment_fig14(measured_length=400)
        model_100k = [r for r in rows if r[0] == "model 100Kbp"]
        speedups = [r[4] for r in model_100k]
        assert max(speedups) > 300
        assert min(speedups) > 10

    def test_fig14_measured_growth_factors_present(self):
        _, rows = experiment_fig14(measured_length=1_500, similarities=(0.9,))
        measured = [r for r in rows if str(r[0]).startswith("measured growth")]
        assert measured
        assert "Myers" in str(measured[0][2])
        assert "GenASM" in str(measured[0][3])

    def test_asap_speedups_positive(self):
        _, rows = experiment_asap()
        assert all(row[3] > 1 for row in rows)


class TestAblation:
    def test_dc_long_read_speedup_large(self):
        _, rows = experiment_ablation()
        long_row = [r for r in rows if "long 10Kbp" in str(r[0])][0]
        assert long_row[3] > 1_000

    def test_dc_kernel_ablation_counts_are_exact(self):
        """SENE / + DENT / + ET: the two count columns repeat bit for bit."""
        headers, rows = experiment_dc_ablation()
        assert len(headers) == 5
        assert [row[:4] for row in rows] == [
            ["5% error", "SENE", 9.43, 38272],
            ["5% error", "+ DENT", 9.43, 24141],
            ["5% error", "+ ET", 5.14, 13500],
            ["15% error", "SENE", 20.96, 60902],
            ["15% error", "+ DENT", 20.96, 38415],
            ["15% error", "+ ET", 10.85, 28470],
        ]
        # Only the schedule that still exists is timed.
        assert [row[4] for row in rows[0:2] + rows[3:5]] == ["-"] * 4
        assert rows[2][4] > 0 and rows[5][4] > 0

    def test_dc_kernel_ablation_et_rows_are_the_distances_plus_one(self):
        from repro.core.genasm_dc import run_dc_window
        from repro.eval.experiments import (
            DC_ABLATION_ERROR_RATES,
            DC_ABLATION_SEED,
            DC_ABLATION_WINDOWS,
        )
        from repro.sequences.read_simulator import simulate_pair

        _, rows = experiment_dc_ablation()
        et_rows = [row for row in rows if row[1] == "+ ET"]
        assert len(et_rows) == len(DC_ABLATION_ERROR_RATES)
        for rate, et in zip(DC_ABLATION_ERROR_RATES, et_rows):
            distances = []
            for index in range(DC_ABLATION_WINDOWS):
                text, read, _ = simulate_pair(80, 1.0 - rate, seed=DC_ABLATION_SEED + index)
                window = run_dc_window(text[:64], read[:64])
                assert window.k == window.edit_distance
                distances.append(window.edit_distance)
            assert et[2] == round(sum(d + 1 for d in distances) / DC_ABLATION_WINDOWS, 2)

    def test_vault_scaling_factor(self):
        _, rows = experiment_ablation()
        vault_row = [r for r in rows if str(r[0]).startswith("Vaults")][0]
        assert vault_row[3] == 32
