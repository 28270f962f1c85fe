"""Unit tests for GenASM-DC window processing."""

import pytest

from repro.core.genasm_dc import (
    SeneWindowBitvectors,
    WindowData,
    WindowUnalignableError,
    run_dc_window,
)
from tests.conftest import random_dna


class TestWindowEditDistance:
    def test_exact_window(self):
        window = run_dc_window("ACGTACGT", "ACGTACGT")
        assert window.edit_distance == 0

    def test_single_substitution(self):
        window = run_dc_window("ACGTACGT", "ACCTACGT")
        assert window.edit_distance == 1

    def test_single_insertion_in_pattern(self):
        window = run_dc_window("ACGTACGT", "ACGGTACGT")
        assert window.edit_distance == 1

    def test_single_deletion_from_pattern(self):
        window = run_dc_window("ACGTACGT", "ACTACGT")
        assert window.edit_distance == 1

    def test_completely_dissimilar_costs_pattern_length(self):
        window = run_dc_window("AAAA", "TTTT")
        assert window.edit_distance == 4

    def test_early_termination_reaches_the_highest_distance(self):
        # d == m: every row up to the pattern length is needed, none above.
        window = run_dc_window("AAAA", "TTTT")
        assert window.edit_distance == window.k == 4
        assert len(window.r[0]) == 5

    def test_k_is_the_edit_distance_and_the_first_row_that_hits(self, rng):
        for _ in range(40):
            text = random_dna(rng.randint(1, 40), rng)
            pattern = random_dna(rng.randint(1, 40), rng)
            window = run_dc_window(text, pattern)
            assert window.k == window.edit_distance
            msb = 1 << (len(pattern) - 1)
            assert not window.r[0][window.k] & msb
            assert all(window.r[0][d] & msb for d in range(window.k))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            run_dc_window("ACGT", "")

    def test_empty_text_rejected(self):
        with pytest.raises(WindowUnalignableError):
            run_dc_window("", "ACGT")


class TestStoredBitvectors:
    def test_match_bitvector_for_d0_is_r0(self):
        window = run_dc_window("ACGT", "ACGT")
        # Perfect match: R[0] at iteration 0 has MSB 0, and so does the
        # match edge of that cell.
        msb = 1 << (len(window.pattern) - 1)
        match = window.edge_vectors(0, 0)[0]
        assert not match & msb
        assert match == window.r[0][0]

    def test_substitution_derived_from_deletion(self):
        window = run_dc_window("ACGT", "AGGT")  # one substitution
        d = window.edit_distance
        assert d == 1
        all_ones = (1 << window.pattern_length) - 1
        # substitution bit p equals deletion bit p - 1: S = D << 1.
        for i in range(window.text_length):
            _, substitution, _, deletion = window.edge_vectors(i, d)
            assert substitution == (deletion << 1) & all_ones

    def test_substitution_lsb_always_zero(self):
        window = run_dc_window("ACGT", "AGGT")
        assert not window.edge_vectors(0, window.edit_distance)[1] & 1

    def test_d0_has_no_error_bitvectors(self):
        window = run_dc_window("ACGT", "ACGT")
        all_ones = (1 << window.pattern_length) - 1
        for i in range(window.text_length):
            assert window.edge_vectors(i, 0)[1:] == (all_ones,) * 3

    def test_stored_bits_accounting_sene(self):
        # SENE keeps one R vector per (iteration, distance) cell, plus the
        # initial state row.
        window = run_dc_window("ACGTACGT", "ACGTACGT")
        expected = (
            (window.text_length + 1)
            * (window.k + 1)
            * window.pattern_length
        )
        assert window.stored_bits() == expected

    def test_sene_footprint_is_about_a_third(self):
        # The paper's layout is n * 3 * k * m bits (Section 6).
        window = run_dc_window("A" * 64, "T" * 64)
        paper_bits = 64 * 3 * window.k * 64
        assert window.stored_bits() < paper_bits / 2.5

    def test_exact_window_stores_row_zero_only(self):
        """ET makes an exact-match window ``k == 0``; the traceback's
        queries must still be answered there."""
        text = pattern = "ACGTACGT"
        window = run_dc_window(text, pattern)
        assert window.k == 0
        assert window.stored_bits() == (len(text) + 1) * len(pattern)
        from repro.core.genasm_tb import traceback_window

        assert traceback_window(window, consume_limit=8).ops == "M" * 8


class TestRepresentations:
    def test_default_is_sene(self):
        window = run_dc_window("ACGT", "ACGT")
        assert isinstance(window, SeneWindowBitvectors)
        assert isinstance(window, WindowData)

    def test_sene_history_shape(self):
        window = run_dc_window("ACGTAC", "ACGTAC")
        assert len(window.r) == window.text_length + 1
        assert all(len(row) == window.k + 1 for row in window.r)
        # The final history row is the initial all-ones state.
        all_ones = (1 << window.pattern_length) - 1
        assert window.r[window.text_length] == [all_ones] * (window.k + 1)

    def test_k_is_read_only(self):
        window = run_dc_window("ACGT", "AGGT")
        with pytest.raises(AttributeError):
            window.k = 3


class TestAgainstGroundTruth:
    def test_window_distance_not_below_global(self, rng):
        """The pinned-start window distance is at least the global optimum
        of the consumed region (it is an anchored alignment)."""
        from repro.baselines.needleman_wunsch import semiglobal_distance_dp

        for _ in range(25):
            text = random_dna(rng.randint(4, 20), rng)
            pattern = random_dna(rng.randint(2, len(text)), rng)
            window = run_dc_window(text, pattern)
            assert window.edit_distance >= semiglobal_distance_dp(text, pattern) - 1
            assert 0 <= window.edit_distance <= len(pattern)
