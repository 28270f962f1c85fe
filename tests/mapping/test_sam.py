"""Unit tests for SAM output."""

import io

import pytest

from repro.core.cigar import Cigar
from repro.mapping.sam import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    SamRecord,
    sam_header,
    unmapped_record,
    write_sam,
)


class TestRecords:
    def test_mapped_record_line(self):
        record = SamRecord(
            query_name="r1",
            flag=0,
            reference_name="chr1",
            position=42,
            mapping_quality=60,
            cigar=Cigar("MMSM"),
            sequence="ACGT",
        )
        fields = record.to_line().split("\t")
        assert fields[0] == "r1"
        assert fields[2] == "chr1"
        assert fields[3] == "42"
        assert fields[5] == "2=1X1="
        assert record.is_mapped

    def test_unmapped_record(self):
        record = unmapped_record("r2", "ACGT")
        assert not record.is_mapped
        assert record.flag & FLAG_UNMAPPED
        fields = record.to_line().split("\t")
        assert fields[2] == "*"
        assert fields[5] == "*"

    def test_reverse_flag(self):
        record = SamRecord("r", FLAG_REVERSE, "c", 1, 0, Cigar("M"), "A")
        assert record.flag & FLAG_REVERSE
        assert record.is_mapped

    def test_empty_sequence_renders_star(self):
        # An empty SEQ column must render "*", not an empty field that
        # shifts every later column over by one.
        record = SamRecord("r", FLAG_UNMAPPED, "*", 0, 0, None, "")
        fields = record.to_line().split("\t")
        assert len(fields) == 11
        assert fields[9] == "*"


class TestWriter:
    def test_header_and_records(self):
        out = io.StringIO()
        records = [
            SamRecord("r1", 0, "chr1", 1, 60, Cigar("MM"), "AC"),
            unmapped_record("r2", "GG"),
        ]
        write_sam(records, out, reference_sequences=[("chr1", 1000)])
        lines = out.getvalue().strip().split("\n")
        assert lines[0].startswith("@HD")
        assert "SN:chr1" in lines[1]
        assert "LN:1000" in lines[1]
        assert len(lines) == 5  # 3 header + 2 records

    def test_file_output(self, tmp_path):
        path = tmp_path / "out.sam"
        write_sam(
            [unmapped_record("r", "A")], path, reference_sequences=[("x", 10)]
        )
        assert path.read_text().count("\n") == 4

    def test_multi_contig_header(self):
        out = io.StringIO()
        contigs = [("chr1", 1000), ("chr2", 500), ("chrM", 16)]
        write_sam([], out, reference_sequences=contigs)
        lines = out.getvalue().strip().split("\n")
        sq = [line for line in lines if line.startswith("@SQ")]
        assert sq == [
            "@SQ\tSN:chr1\tLN:1000",
            "@SQ\tSN:chr2\tLN:500",
            "@SQ\tSN:chrM\tLN:16",
        ]

    def test_reference_sequences_is_required(self):
        with pytest.raises(TypeError, match="reference_sequences"):
            write_sam([], io.StringIO())

    def test_bad_contig_rejected_before_any_record(self, tmp_path):
        path = tmp_path / "out.sam"
        with pytest.raises(ValueError, match="length must be positive"):
            write_sam(
                [unmapped_record("r", "A")], path, reference_sequences=[("c", 0)]
            )
        assert path.read_text() == ""


class TestHeader:
    def test_shape(self):
        header = sam_header([("chr1", 100), ("chr2", 50)])
        lines = header.strip().split("\n")
        assert lines[0].startswith("@HD")
        assert lines[1] == "@SQ\tSN:chr1\tLN:100"
        assert lines[2] == "@SQ\tSN:chr2\tLN:50"
        assert lines[3].startswith("@PG")
        assert header.endswith("\n")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sam_header([("", 10)])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sam_header([("chr1", 0)])
