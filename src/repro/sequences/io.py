"""Minimal FASTA/FASTQ readers and writers.

The mapping pipeline consumes references and reads; these helpers let the
examples and experiments persist datasets the way real tools exchange them.
Only the features the pipeline needs are implemented (multi-line FASTA,
4-line FASTQ) — by design, not omission.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry: ``>name description`` plus a sequence."""

    name: str
    sequence: str
    description: str = ""


@dataclass(frozen=True)
class FastqRecord:
    """One FASTQ entry; ``quality`` is the Phred+33 string."""

    name: str
    sequence: str
    quality: str

    def __post_init__(self) -> None:
        if len(self.quality) != len(self.sequence):
            raise ValueError(
                f"quality length {len(self.quality)} != sequence length "
                f"{len(self.sequence)} for record {self.name!r}"
            )


def _as_text_handle(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    """Return (handle, should_close) for a path or an open handle."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="ascii"), True
    return source, False


def read_fasta(source: str | Path | TextIO) -> list[FastaRecord]:
    """Parse all records from a FASTA file or handle."""
    handle, should_close = _as_text_handle(source)
    try:
        return list(iter_fasta(handle))
    finally:
        if should_close:
            handle.close()


def iter_fasta(handle: TextIO) -> Iterator[FastaRecord]:
    """Stream FASTA records from an open handle."""
    name: str | None = None
    description = ""
    chunks: list[str] = []
    for raw in handle:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield FastaRecord(name, "".join(chunks), description)
            header = line[1:].split(maxsplit=1)
            if not header:
                raise ValueError("FASTA header with no name")
            name = header[0]
            description = header[1] if len(header) > 1 else ""
            chunks = []
        else:
            if name is None:
                raise ValueError("FASTA sequence data before any header")
            chunks.append(line.strip())
    if name is not None:
        yield FastaRecord(name, "".join(chunks), description)


def write_fasta(
    records: Iterable[FastaRecord],
    destination: str | Path | TextIO,
    *,
    line_width: int = 70,
) -> None:
    """Write records in wrapped FASTA format."""
    if line_width <= 0:
        raise ValueError("line_width must be positive")
    handle, should_close = _as_writable_handle(destination)
    try:
        for record in records:
            header = f">{record.name}"
            if record.description:
                header = f"{header} {record.description}"
            handle.write(header + "\n")
            seq = record.sequence
            for i in range(0, len(seq), line_width):
                handle.write(seq[i : i + line_width] + "\n")
    finally:
        if should_close:
            handle.close()


def read_fastq(source: str | Path | TextIO) -> list[FastqRecord]:
    """Parse all records from a 4-line-per-record FASTQ file or handle."""
    handle, should_close = _as_text_handle(source)
    try:
        return list(iter_fastq(handle))
    finally:
        if should_close:
            handle.close()


_FASTQ_LINE_ROLES = ("header", "sequence", "'+' separator", "quality")


def _fastq_record(index: int, lines: list[str]) -> FastqRecord:
    """Validate four lines as FASTQ record number ``index`` (1-based)."""
    header, sequence, plus, quality = lines
    if not header.startswith("@"):
        raise ValueError(
            f"FASTQ record {index}: expected header starting with '@', "
            f"got {header!r}"
        )
    fields = header[1:].split()
    if not fields:
        raise ValueError(
            f"FASTQ record {index}: header {header!r} has no read name"
        )
    if not plus.startswith("+"):
        raise ValueError(
            f"FASTQ record {index}: expected '+' separator, got {plus!r}"
        )
    if len(quality) != len(sequence):
        raise ValueError(
            f"FASTQ record {index} ({fields[0]!r}): quality length "
            f"{len(quality)} != sequence length {len(sequence)}"
        )
    return FastqRecord(fields[0], sequence, quality)


def _truncation_error(index: int, have: int) -> ValueError:
    return ValueError(
        f"truncated FASTQ: record {index} ended at EOF after {have} of 4 "
        f"lines (expected its {_FASTQ_LINE_ROLES[have]} line)"
    )


def iter_fastq(handle: TextIO) -> Iterator[FastqRecord]:
    """Stream FASTQ records from an open handle.

    The handle's lines go through one :class:`FastqStreamParser`, so the
    rules are that parser's: malformed input raises :class:`ValueError`
    naming the 1-based record index and what was expected (including
    nameless ``@`` headers and records truncated by EOF); lines end in
    ``\\n``, ``\\r\\n`` or a bare ``\\r``, in any mix; blank lines between
    records are skipped.
    """
    parser = FastqStreamParser()
    for line in handle:
        yield from parser.feed(line)
    yield from parser.close()


class FastqStreamParser:
    """Incremental FASTQ parser over arbitrarily split text chunks.

    Feed pieces of a FASTQ stream as they arrive (chunk boundaries may
    fall anywhere, including mid-line and between the two characters of
    a ``\\r\\n``); each :meth:`feed` returns the records completed by
    that chunk. Lines end in ``\\n``, ``\\r\\n`` or a bare ``\\r``, in
    any mix, so the records are exactly :func:`read_fastq`'s for the same
    text saved to a file, whatever the chunking. Call :meth:`close` when
    the stream ends — it flushes a final unterminated line and raises the
    same truncation errors as :func:`iter_fastq` if a record is incomplete.
    """

    def __init__(self) -> None:
        self._tail = ""
        self._pending: list[str] = []
        self._records = 0
        self._closed = False

    @property
    def records_parsed(self) -> int:
        return self._records

    def _drain(self) -> list[FastqRecord]:
        out: list[FastqRecord] = []
        while len(self._pending) >= 4:
            self._records += 1
            out.append(_fastq_record(self._records, self._pending[:4]))
            del self._pending[:4]
        return out

    def feed(self, chunk: str) -> list[FastqRecord]:
        if self._closed:
            raise ValueError("cannot feed a closed FastqStreamParser")
        text = self._tail + chunk
        if "\r" in text:
            # Universal newlines, as ``open()`` reads a file for
            # :func:`read_fastq`: "\r\n", a bare "\r" and "\n" each end
            # a line. A trailing "\r" waits in the tail: only the next
            # chunk says whether a "\n" completes it as one "\r\n".
            cr = text.endswith("\r")
            if cr:
                text = text[:-1]
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            self._tail = lines.pop()
            if cr:
                self._tail += "\r"
        else:
            lines = text.split("\n")
            self._tail = lines.pop()
        for line in lines:
            # Blank lines are tolerated between records, not inside one.
            if line or len(self._pending) % 4:
                self._pending.append(line)
        return self._drain()

    def close(self) -> list[FastqRecord]:
        """Flush the final (possibly unterminated) record."""
        if self._closed:
            return []
        self._closed = True
        if self._tail:
            tail = self._tail
            if tail.endswith("\r"):
                # A held "\r" ends the final line: a bare "\r", or a
                # "\r\n" whose "\n" never came.
                tail = tail[:-1]
            if tail or len(self._pending) % 4:
                self._pending.append(tail)
            self._tail = ""
        out = self._drain()
        if self._pending:
            raise _truncation_error(self._records + 1, len(self._pending))
        return out


def write_fastq(
    records: Iterable[FastqRecord],
    destination: str | Path | TextIO,
) -> None:
    """Write records in 4-line FASTQ format."""
    handle, should_close = _as_writable_handle(destination)
    try:
        for record in records:
            handle.write(f"@{record.name}\n{record.sequence}\n+\n{record.quality}\n")
    finally:
        if should_close:
            handle.close()


def _as_writable_handle(destination: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(destination, (str, Path)):
        return open(destination, "w", encoding="ascii"), True
    if isinstance(destination, io.TextIOBase) or hasattr(destination, "write"):
        return destination, False
    raise TypeError(f"cannot write to {destination!r}")
