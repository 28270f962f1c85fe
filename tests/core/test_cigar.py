"""Unit tests for CIGAR handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cigar import Cigar, concat_all
from repro.core.scoring import ScoringScheme


class TestConstruction:
    def test_invalid_ops_rejected(self):
        with pytest.raises(ValueError):
            Cigar("MXZ")

    def test_from_string_round_trip(self):
        cigar = Cigar.from_string("3M1S2M1I1D")
        assert cigar.ops == "MMMSMMID"
        assert str(cigar) == "3M1S2M1I1D"

    def test_from_sam_extended(self):
        cigar = Cigar.from_string("3=1X2=")
        assert cigar.ops == "MMMSMM"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Cigar.from_string("3M1Q")
        with pytest.raises(ValueError):
            Cigar.from_string("M3")

    def test_empty(self):
        assert str(Cigar("")) == ""
        assert Cigar.from_string("").ops == ""


class TestMeasures:
    def test_edit_distance_counts_non_matches(self):
        assert Cigar("MMSMIDM").edit_distance == 3

    def test_lengths(self):
        cigar = Cigar("MMSID")
        assert cigar.reference_length == 4  # M M S D
        assert cigar.query_length == 4  # M M S I

    def test_to_sam(self):
        assert Cigar("MMSID").to_sam() == "2=1X1I1D"


class TestScoring:
    def test_affine_gap_scoring(self):
        scheme = ScoringScheme(match=1, substitution=-4, gap_open=-6, gap_extend=-1)
        # 3 matches + gap of length 2: 3*1 + (-6 + 2*-1) = -5
        assert Cigar("MMMII").score(scheme) == -5

    def test_two_gaps_pay_two_opens(self):
        scheme = ScoringScheme(match=0, substitution=-1, gap_open=-5, gap_extend=-1)
        assert Cigar("IMI").score(scheme) == -12

    def test_unit_scheme_is_negative_edit_distance(self):
        scheme = ScoringScheme.unit()
        cigar = Cigar("MMSMID")
        assert cigar.score(scheme) == -cigar.edit_distance


    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.one_of(
            st.text(alphabet="MSID", max_size=120),
            st.text(alphabet="MMMMMMMSID", max_size=200),  # read-like
        ),
        scheme=st.sampled_from(
            [ScoringScheme.bwa_mem(), ScoringScheme.unit(), ScoringScheme.minimap2()]
        ),
    )
    def test_score_from_op_counts_equals_the_run_by_run_definition(
        self, ops, scheme
    ):
        cigar = Cigar(ops)
        run_by_run = 0
        for op, count in cigar.runs():
            if op == "M":
                run_by_run += scheme.match * count
            elif op == "S":
                run_by_run += scheme.substitution * count
            else:
                run_by_run += scheme.gap_cost(count)
        assert cigar.score(scheme) == run_by_run


class TestValidation:
    def test_valid_transcript(self):
        assert Cigar("MMMM").is_valid_for("ACGT", "ACGT")

    def test_substitution_requires_mismatch(self):
        assert not Cigar("SMMM").is_valid_for("ACGT", "ACGT")
        assert Cigar("SMMM").is_valid_for("TCGT", "ACGT")

    def test_match_requires_equality(self):
        assert not Cigar("MMMM").is_valid_for("ACGT", "ACGA")

    def test_insertion_deletion_consumption(self):
        # text AC-GT vs query ACXGT (X inserted)
        assert Cigar("MMIMM").is_valid_for("ACGT", "ACAGT")
        # text ACGT vs query ACT (G deleted)
        assert Cigar("MMDM").is_valid_for("ACGT", "ACT")

    def test_query_must_be_fully_consumed(self):
        assert not Cigar("MM").is_valid_for("ACGT", "ACGT")

    def test_trailing_reference_is_free(self):
        assert Cigar("MM").is_valid_for("ACGT", "AC")


class TestRunsAndConcat:
    def test_runs(self):
        assert list(Cigar("MMSSMI").runs()) == [("M", 2), ("S", 2), ("M", 1), ("I", 1)]

    def test_concat_all(self):
        merged = concat_all([Cigar("MM"), Cigar("S"), Cigar("MI")])
        assert merged.ops == "MMSMI"
