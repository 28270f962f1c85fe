"""Unit tests for baseline Bitap (Algorithm 1), including Figure 3."""

import random

import pytest

from repro.baselines.needleman_wunsch import semiglobal_distance_dp
from repro.core.bitap import (
    bitap_edit_distance,
    bitap_scan,
    pattern_bitmasks,
)
from repro.sequences.alphabet import AMINO_ACIDS, DNA


class TestPatternBitmasks:
    def test_figure3_masks(self):
        # Paper Figure 3: pattern CTGA -> PM(A)=1110, PM(C)=0111,
        # PM(G)=1101, PM(T)=1011.
        masks = pattern_bitmasks("CTGA")
        assert masks["A"] == 0b1110
        assert masks["C"] == 0b0111
        assert masks["G"] == 0b1101
        assert masks["T"] == 0b1011

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            pattern_bitmasks("")

    def test_wildcard_in_pattern_matches_nothing(self):
        masks = pattern_bitmasks("AN", DNA)
        # Position of N stays 1 in every mask.
        for symbol in "ACGT":
            assert masks[symbol] & 0b01

    def test_protein_alphabet(self):
        masks = pattern_bitmasks("ARN", AMINO_ACIDS)
        assert masks["A"] == 0b011
        assert masks["R"] == 0b101
        assert masks["N"] == 0b110

    def test_foreign_symbol_rejected(self):
        with pytest.raises(ValueError):
            pattern_bitmasks("AXGT", DNA)


class TestBitapScan:
    def test_figure3_example(self):
        # CGTGA vs CTGA with k=1: alignments found at locations 2, 1, 0.
        matches = bitap_scan("CGTGA", "CTGA", 1)
        assert [(m.start, m.distance) for m in matches] == [(2, 1), (1, 1), (0, 1)]

    def test_exact_match_k0(self):
        matches = bitap_scan("AAACGTAAA", "ACGT", 0)
        assert [(m.start, m.distance) for m in matches] == [(2, 0)]

    def test_no_match_within_threshold(self):
        assert bitap_scan("AAAA", "TTTT", 1) == []

    def test_reports_smallest_distance_per_location(self):
        matches = bitap_scan("ACGT", "ACGT", 2)
        at_zero = [m for m in matches if m.start == 0]
        assert at_zero and at_zero[0].distance == 0

    def test_first_match_only_stops_early(self):
        matches = bitap_scan("ACGTACGT", "ACGT", 0, first_match_only=True)
        assert len(matches) == 1
        assert matches[0].start == 4  # right-most (scan goes backwards)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            bitap_scan("ACGT", "ACGT", -1)


class TestBitapEditDistance:
    def test_identical(self):
        assert bitap_edit_distance("ACGTACGT", "ACGTACGT", 0) == 0

    def test_single_substitution(self):
        assert bitap_edit_distance("ACGTACGT", "ACGTTCGT", 8) == 1

    def test_below_threshold_returns_none(self):
        assert bitap_edit_distance("AAAAAAA", "TTTTTTT", 2) is None

    def test_free_leading_text(self):
        # Pattern matches a suffix region; leading text is free.
        assert bitap_edit_distance("TTTTTACGT", "ACGT", 0) == 0

    def test_paper_quirk_leading_query_deletion_is_free(self):
        # Footnote 4: a deletion at the first query position is absorbed
        # by the free text prefix, making the distance one lower than the
        # global edit distance.
        reference = "GACGTACGTA"
        read = "ACGTACGTA"  # reference with its first character deleted
        assert bitap_edit_distance(reference, read, 3) == 0


def random_dna(length, rng):
    return "".join(rng.choice("ACGT") for _ in range(length))


class TestLongPatterns:
    """Patterns wider than a machine word: the pure scan keeps the whole
    bitvector in one Python integer, so nothing may change at 64 bits."""

    @pytest.mark.parametrize("length", [65, 128, 200])
    def test_exact_copy_found_at_its_offset(self, length):
        rng = random.Random(length)
        pattern = random_dna(length, rng)
        text = random_dna(30, rng) + pattern + random_dna(30, rng)
        matches = bitap_scan(text, pattern, 0)
        assert [(m.start, m.distance) for m in matches] == [(30, 0)]

    @pytest.mark.parametrize("length", [64, 65, 129, 200])
    def test_distance_sandwiched_by_infix_dp(self, length):
        rng = random.Random(1000 + length)
        pattern = random_dna(length, rng)
        edited = list(pattern)
        edited[length // 4] = "A" if edited[length // 4] != "A" else "C"
        del edited[length // 2]
        edited.insert(3 * length // 4, "G")
        text = random_dna(25, rng) + "".join(edited) + random_dna(25, rng)
        infix = semiglobal_distance_dp(text, pattern)
        distance = bitap_edit_distance(text, pattern, length)
        assert infix <= 3
        assert infix <= distance <= infix + 1

    def test_first_match_only_stops_at_the_right_most_copy(self):
        rng = random.Random(7)
        pattern = random_dna(100, rng)
        text = pattern + random_dna(20, rng) + pattern
        matches = bitap_scan(text, pattern, 0, first_match_only=True)
        assert [(m.start, m.distance) for m in matches] == [(120, 0)]
        assert [m.start for m in bitap_scan(text, pattern, 0)] == [120, 0]
