"""Unit tests for FASTA/FASTQ I/O."""

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sequences.io import (
    FastaRecord,
    FastqRecord,
    FastqStreamParser,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)


class TestFasta:
    def test_round_trip(self, tmp_path):
        records = [
            FastaRecord("chr1", "ACGT" * 30, "synthetic"),
            FastaRecord("chr2", "TTTT"),
        ]
        path = tmp_path / "ref.fa"
        write_fasta(records, path)
        back = read_fasta(path)
        assert back == records

    def test_multiline_sequences(self):
        handle = io.StringIO(">a desc here\nACGT\nACGT\n>b\nTT\n")
        records = read_fasta(handle)
        assert records[0] == FastaRecord("a", "ACGTACGT", "desc here")
        assert records[1] == FastaRecord("b", "TT")

    def test_line_wrapping(self):
        out = io.StringIO()
        write_fasta([FastaRecord("x", "A" * 150)], out, line_width=70)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == ">x"
        assert [len(line) for line in lines[1:]] == [70, 70, 10]

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError):
            read_fasta(io.StringIO("ACGT\n>late\nAC\n"))

    def test_nameless_header_rejected(self):
        with pytest.raises(ValueError, match="no name"):
            read_fasta(io.StringIO(">\nACGT\n"))

    def test_invalid_line_width(self):
        with pytest.raises(ValueError):
            write_fasta([], io.StringIO(), line_width=0)


class TestFastq:
    def test_round_trip(self, tmp_path):
        records = [FastqRecord("r1", "ACGT", "IIII"), FastqRecord("r2", "GG", "##")]
        path = tmp_path / "reads.fq"
        write_fastq(records, path)
        assert read_fastq(path) == records

    def test_quality_length_checked(self):
        with pytest.raises(ValueError):
            FastqRecord("r", "ACGT", "II")

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            read_fastq(io.StringIO("r1\nACGT\n+\nIIII\n"))

    def test_malformed_separator_rejected(self):
        with pytest.raises(ValueError):
            read_fastq(io.StringIO("@r1\nACGT\nIIII\nIIII\n"))

    def test_nameless_at_header_names_record_index(self):
        # A bare "@" header used to leak an IndexError from fields[0].
        with pytest.raises(ValueError, match=r"record 1.*no read name"):
            read_fastq(io.StringIO("@\nACGT\n+\nIIII\n"))

    def test_nameless_header_in_later_record(self):
        data = "@ok\nAC\n+\n##\n@   \nACGT\n+\nIIII\n"
        with pytest.raises(ValueError, match=r"record 2.*no read name"):
            read_fastq(io.StringIO(data))

    @pytest.mark.parametrize(
        ("have", "expected_role"),
        [(1, "sequence"), (2, r"'\+' separator"), (3, "quality")],
    )
    def test_truncation_names_missing_line(self, have, expected_role):
        # A record cut off by EOF used to surface as a misleading
        # separator mismatch (or a quality-length error); it must name
        # the record index and which of the 4 lines is missing.
        lines = ["@r1", "ACGT", "+", "IIII"][:have]
        data = "\n".join(lines) + "\n"
        with pytest.raises(ValueError, match=f"record 1.*{expected_role}"):
            read_fastq(io.StringIO(data))

    def test_truncation_in_second_record(self):
        data = "@r1\nAC\n+\n##\n@r2\nACGT\n"
        with pytest.raises(ValueError, match=r"truncated FASTQ: record 2"):
            read_fastq(io.StringIO(data))

    def test_quality_mismatch_names_record(self):
        data = "@r1\nACGT\n+\nII\n"
        with pytest.raises(ValueError, match=r"record 1 \('r1'\): quality length 2"):
            read_fastq(io.StringIO(data))

    def test_blank_lines_between_records_tolerated(self):
        data = "@r1\nAC\n+\n##\n\n\n@r2\nGG\n+\n!!\n"
        records = read_fastq(io.StringIO(data))
        assert [r.name for r in records] == ["r1", "r2"]


class TestFastqStreamParser:
    DATA = "@r1 extra\nACGT\n+\nIIII\n@r2\nGG\n+junk\n##\n\n@r3\nTTTT\n+\n!!!!\n"

    def expected(self):
        return read_fastq(io.StringIO(self.DATA))

    def test_single_feed(self):
        parser = FastqStreamParser()
        records = parser.feed(self.DATA)
        records += parser.close()
        assert records == self.expected()
        assert parser.records_parsed == 3

    def test_char_by_char_matches_iter_fastq(self):
        parser = FastqStreamParser()
        records = []
        for char in self.DATA:
            records.extend(parser.feed(char))
        records.extend(parser.close())
        assert records == self.expected()

    @pytest.mark.parametrize("size", [2, 3, 5, 7, 11])
    def test_arbitrary_chunk_sizes(self, size):
        parser = FastqStreamParser()
        records = []
        for i in range(0, len(self.DATA), size):
            records.extend(parser.feed(self.DATA[i : i + size]))
        records.extend(parser.close())
        assert records == self.expected()

    def test_unterminated_final_line_flushed_on_close(self):
        parser = FastqStreamParser()
        assert parser.feed("@r1\nAC\n+\n##") == []
        assert parser.close() == [FastqRecord("r1", "AC", "##")]

    def test_close_on_partial_record_raises_truncation(self):
        parser = FastqStreamParser()
        parser.feed("@r1\nAC\n+\n##\n@r2\nACGT\n")
        with pytest.raises(ValueError, match=r"truncated FASTQ: record 2"):
            parser.close()

    def test_feed_after_close_rejected(self):
        parser = FastqStreamParser()
        parser.close()
        with pytest.raises(ValueError, match="closed"):
            parser.feed("@r\nA\n+\n#\n")

    def test_close_idempotent(self):
        parser = FastqStreamParser()
        parser.feed("@r1\nAC\n+\n##\n")
        parser.close()
        assert parser.close() == []

    def test_nameless_header_raises_with_index(self):
        parser = FastqStreamParser()
        parser.feed("@ok\nAC\n+\n##\n")
        with pytest.raises(ValueError, match=r"record 2.*no read name"):
            parser.feed("@\nACGT\n+\nIIII\n")


class TestFastqCrlf:
    """CRLF and bare-``\\r`` handling (Windows-written FASTQ).

    Before CRLF handling, ``iter_fastq`` and
    ``FastqStreamParser.feed`` stripped only ``"\\n"``: every line kept a
    trailing ``\\r`` (sequence *and* quality, so the length check passed
    and the ``\\r`` flowed into mapped reads), and a ``"\\r"``-only blank
    line between records was misreported as a bad ``@`` header.
    """

    RECORDS = [
        FastqRecord("r1", "ACGT", "IIII"),
        FastqRecord("r2", "GGA", "##!"),
    ]
    CRLF_DATA = (
        "@r1 extra\r\nACGT\r\n+\r\nIIII\r\n"
        "@r2\r\nGGA\r\n+junk\r\n##!\r\n"
    )

    def test_crlf_round_trip(self):
        assert read_fastq(io.StringIO(self.CRLF_DATA)) == self.RECORDS

    def test_crlf_sequences_carry_no_carriage_return(self):
        for record in read_fastq(io.StringIO(self.CRLF_DATA)):
            assert "\r" not in record.sequence
            assert "\r" not in record.quality

    def test_mixed_line_endings(self):
        data = "@r1\r\nACGT\n+\r\nIIII\n@r2\nGGA\r\n+\n##!\r\n"
        assert read_fastq(io.StringIO(data)) == self.RECORDS

    def test_carriage_return_only_blank_line_between_records(self):
        # "\r\n" reads as the line "\r"; header.rstrip("\n") stayed truthy
        # and the blank line was misreported as a bad '@' header.
        data = "@r1\r\nACGT\r\n+\r\nIIII\r\n\r\n\r\n@r2\r\nGGA\r\n+\r\n##!\r\n"
        assert read_fastq(io.StringIO(data)) == self.RECORDS

    def test_stream_parser_crlf_single_feed(self):
        parser = FastqStreamParser()
        records = parser.feed(self.CRLF_DATA) + parser.close()
        assert records == self.RECORDS

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 11])
    def test_stream_parser_chunks_split_crlf_anywhere(self, size):
        # Every chunking splits some "\r\n" between feeds at size 1-3; the
        # "\r" must wait in the tail until its "\n" arrives.
        parser = FastqStreamParser()
        records = []
        for i in range(0, len(self.CRLF_DATA), size):
            records.extend(parser.feed(self.CRLF_DATA[i : i + size]))
        records.extend(parser.close())
        assert records == self.RECORDS

    def test_stream_parser_boundary_exactly_between_cr_and_lf(self):
        parser = FastqStreamParser()
        records = parser.feed("@r1\r\nACGT\r\n+\r\nIIII\r")
        # The lone "\r" is still ambiguous: no record may complete yet.
        assert records == []
        records += parser.feed("\n@r2\r\nGGA\r\n+\r\n##!\r\n")
        records += parser.close()
        assert records == self.RECORDS

    def test_stream_parser_crlf_blank_lines_between_records(self):
        parser = FastqStreamParser()
        data = "@r1\r\nACGT\r\n+\r\nIIII\r\n\r\n@r2\r\nGGA\r\n+\r\n##!\r\n"
        assert parser.feed(data) + parser.close() == self.RECORDS

    def test_stream_parser_close_strips_stranded_cr(self):
        # Stream ends between the "\r" and "\n" of the final line ending.
        parser = FastqStreamParser()
        parser.feed("@r1\r\nACGT\r\n+\r\nIIII\r")
        assert parser.close() == [FastqRecord("r1", "ACGT", "IIII")]

    def test_stream_parser_close_stranded_cr_after_blank(self):
        # Trailing blank line cut after its "\r": nothing left to flush.
        parser = FastqStreamParser()
        parser.feed("@r1\r\nACGT\r\n+\r\nIIII\r\n\r")
        assert parser.close() == []


def read_fastq_file(text):
    """``read_fastq`` on ``text`` written byte for byte to a file, which
    ``open()`` reads with universal newlines; a parse error is returned as
    its message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reads.fastq"
        path.write_bytes(text.encode("ascii"))
        try:
            return read_fastq(path)
        except ValueError as exc:
            return str(exc)


def parse_in_chunks(text, cuts):
    """The stream parser's records for ``text`` fed in pieces cut at
    ``cuts``; a parse error is returned as its message."""
    parser = FastqStreamParser()
    records = []
    start = 0
    try:
        for cut in sorted(cuts) + [len(text)]:
            records += parser.feed(text[start:cut])
            start = cut
        return records + parser.close()
    except ValueError as exc:
        return str(exc)


endings = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def fastq_texts(draw):
    """Random records, every line ending drawn from ``\\n``, ``\\r\\n``
    and ``\\r``, blank lines between records, and an optionally
    unterminated last line. An empty sequence makes blank lines inside a
    record too, so some texts are malformed: both parsers must then raise
    the same error."""
    parts = []
    for index in range(draw(st.integers(0, 4))):
        sequence = draw(st.text("ACGTN", max_size=12))
        quality = draw(
            st.text("!#+5?I", min_size=len(sequence), max_size=len(sequence))
        )
        header = f"@r{index}" + draw(st.sampled_from(["", " extra"]))
        separator = draw(st.sampled_from(["+", f"+r{index}"]))
        for line in (header, sequence, separator, quality):
            parts += [line, draw(endings)]
        for _ in range(draw(st.integers(0, 2))):
            parts.append(draw(endings))
    if parts and draw(st.booleans()):
        parts.pop()  # the last line ends the stream unterminated
    return "".join(parts)


class TestFastqStreamParserMatchesReadFastq:
    """The job fabric parses ``POST /v1/jobs/<id>/input`` bodies with
    :class:`FastqStreamParser`; it must give exactly the records
    ``read_fastq`` gives for the same bytes in a file, or the same error."""

    BARE_CR = "@r0\rCTCA\r+\rIIII\r@r1\r\nTCC\r\n+\r\nIII\r"

    def test_bare_carriage_returns_end_lines(self):
        # Split on "\n" alone this was one record: r0 with r1's sequence.
        expected = [
            FastqRecord("r0", "CTCA", "IIII"),
            FastqRecord("r1", "TCC", "III"),
        ]
        assert read_fastq_file(self.BARE_CR) == expected
        parser = FastqStreamParser()
        assert parser.feed(self.BARE_CR) + parser.close() == expected

    def test_bare_carriage_returns_end_lines_from_a_string_handle(self):
        # A StringIO translates no newlines, so its lines split on "\n"
        # alone; iter_fastq used to read BARE_CR from one as the single
        # record r0 with r1's sequence. Every handle now parses as a file.
        assert read_fastq(io.StringIO(self.BARE_CR)) == read_fastq_file(self.BARE_CR)

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_bare_carriage_returns_in_small_chunks(self, size):
        cuts = list(range(size, len(self.BARE_CR), size))
        assert parse_in_chunks(self.BARE_CR, cuts) == read_fastq_file(self.BARE_CR)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), text=fastq_texts())
    def test_any_chunking_equals_read_fastq(self, data, text):
        cuts = data.draw(
            st.lists(st.integers(0, len(text)), max_size=8), label="cuts"
        )
        assert parse_in_chunks(text, cuts) == read_fastq_file(text)
