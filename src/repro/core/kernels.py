"""Plain-int kernel ABI between the pure GenASM kernels and native code.

GenASM-TB is a precompiled opcode program over plain-int state precisely
so the inner loops can be compiled. This module is that boundary: it lowers
the Python-level types (Alphabet, TracebackConfig programs) into the flat
representation the compiled extension ``repro.core._native`` consumes —
translate tables from characters to symbol codes, and opcode byte strings —
and lifts the results back into the exact objects the pure kernels
produce.

Batch layout (shared with ``_native.c``): a whole batch crosses the C
boundary in one call, as the caller's list of ``(text, pattern)`` pairs
plus the codec's two tables and symbol count. C codes each ``str`` through
its side's table itself, whatever its width, builds every pattern's mask
rows and runs all pairs with the GIL released once.

The mapper crosses the same way (``native_kmer_index_build``,
``native_seed_many``, ``native_map_many``): the reference as one coded
buffer, the reads of a ``map_reads`` call as their list of ``str`` plus one
table, and a ``KmerIndex``'s four flat arrays — codes, starts, positions
and the prefix directory — handed over as they are.
``native_map_many`` is the whole mapper for a batch in one GIL-free call:
it also takes the reference in text codes (kept by the index build), a
complement table over pattern codes, one region length per read and the
filter, window and scoring parameters, and answers each read's winner only.

One GenASM-DC window crosses on its own (``native_dc_window``) and comes
back as a :class:`NativeWindow`: the C kernel's packed ``R`` history, which
the one Python traceback walks like any other window's. The C traceback
walk runs only inside ``align_many``'s window loop.

Encoding scheme:

* alphabet symbols map to codes ``0 .. len(symbols) - 1`` in symbol order;
* in a **text** the wildcard and every other non-symbol character (one
  above U+00FF too) map to the sentinel code ``len(symbols)``, whose mask
  row is all-ones ("matches nothing") — the value ``masks.get(ch,
  all_ones)`` yields in the pure kernels;
* in a **pattern** only the wildcard maps to the sentinel; any other
  character outside the alphabet maps to ``len(symbols) + 1``. The pure
  kernels raise for those, so C runs no batch that holds one.

Every batch entry point answers every item, or returns None for the whole
batch, which the caller then runs on the pure path (it answers or raises
canonically): where the extension is not built, the alphabet cannot be
coded into bytes, the window is wider than one 64-bit word, or C does not
answer some item (a foreign character in a pattern or read, an empty
pattern for the sweeps, a window loop that fails). Correctness never
depends on the build: the conformance + Hypothesis parity suites pin the
extension bit-identical to the pure reference.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Sequence

from repro.core.bitap import BitapMatch
from repro.core.genasm_dc import WindowData, WindowUnalignableError
from repro.sequences.alphabet import DNA, Alphabet

try:  # pragma: no cover - exercised via native_available() in both states
    from repro.core import _native
except ImportError as exc:  # pragma: no cover
    _native = None  # type: ignore[assignment]
    _IMPORT_ERROR: str | None = str(exc)
else:  # pragma: no cover
    _IMPORT_ERROR = None

WORD_BITS = 64


def native_available() -> bool:
    """Whether the compiled extension imported successfully."""
    return _native is not None


def native_unavailable_reason() -> str | None:
    """Why :func:`native_available` is False (None when it is True)."""
    if _native is not None:
        return None
    return (
        "compiled extension repro.core._native is not built — run "
        "`python setup.py build_ext --inplace` (import failed: "
        f"{_IMPORT_ERROR})"
    )


# ----------------------------------------------------------------------
# Codec: str sequences -> byte strings of symbol codes
# ----------------------------------------------------------------------

@lru_cache(maxsize=16)
def _codec(alphabet: Alphabet) -> tuple[bytes, bytes, int] | None:
    """Text and pattern translate tables and the symbol count, or None.

    Both 256-entry tables map an alphabet symbol's latin-1 byte to its
    code. The text table sends every other byte to the all-ones sentinel
    ``len(symbols)``; the pattern table sends only the wildcard there and
    every other byte to ``len(symbols) + 1``, the mark of a character the
    pure kernels raise for. Alphabets with non-latin-1 symbols or more than
    254 symbols cannot use the byte codec and take the pure path.
    """
    n_symbols = len(alphabet.symbols)
    if not 1 <= n_symbols <= 254:
        return None
    if any(ord(ch) > 255 for ch in alphabet.symbols):
        return None
    text_table = bytearray([n_symbols]) * 256
    pattern_table = bytearray([n_symbols + 1]) * 256
    for code, ch in enumerate(alphabet.symbols):
        text_table[ord(ch)] = pattern_table[ord(ch)] = code
    wildcard = alphabet.wildcard
    if wildcard is not None and len(wildcard) == 1 and ord(wildcard) < 256:
        pattern_table[ord(wildcard)] = n_symbols
    return bytes(text_table), bytes(pattern_table), n_symbols


def _encode(sequence: str, table: bytes) -> bytes | None:
    """Symbol codes of ``sequence``, or None when it is not latin-1."""
    try:
        return sequence.encode("latin-1").translate(table)
    except UnicodeEncodeError:
        return None


def _native_batch(
    entry: str, pairs: Sequence[tuple[str, str]], alphabet: Alphabet, *params: Any
) -> list[Any] | None:
    """Run ``_native.<entry>`` on ``pairs`` as they are, with the codec.

    None, for the pure path to run the whole batch, when the extension or
    the codec is missing or C does not answer the batch.
    """
    codec = _codec(alphabet)
    if _native is None or codec is None:
        return None
    return getattr(_native, entry)(pairs, *codec, *params)


# ----------------------------------------------------------------------
# Whole-text DC sweeps: the scan and the filter's distance
# ----------------------------------------------------------------------

def native_scan_many(
    pairs: Sequence[tuple[str, str]],
    k: int,
    *,
    alphabet: Alphabet = DNA,
    first_match_only: bool = False,
) -> list[list[BitapMatch]] | None:
    """Every pair's Bitap matches in one C call; ``bitap_scan`` parity.

    C answers with one multiword GenASM-DC sweep per pair, distance rows in
    increasing ``d`` across the whole text; under ``first_match_only`` a
    row stops at its first hit and later rows sweep only the text right of
    it. None when the batch cannot run natively (see :func:`_native_batch`;
    an empty or foreign pattern, for which the pure scan raises). Rows
    above a pattern's length cannot change its matches, so C caps ``k`` per
    pair. Where the cap is below the pattern's length, a pieces pass runs
    first: the pattern cut into ``k + 1`` pieces, each looked for exactly
    in one pass over the text; a pair with none holds no match within
    ``k`` edits (the pigeonhole principle) and answers ``[]`` without a
    distance row.
    """
    scans = _native_batch(
        "scan_many", pairs, alphabet, k, bool(first_match_only)
    )
    if scans is None:
        return None
    return [
        [BitapMatch(start, distance) for start, distance in hits]
        for hits in scans
    ]


def native_scan(
    text: str,
    pattern: str,
    k: int,
    *,
    alphabet: Alphabet = DNA,
    first_match_only: bool = False,
) -> list[BitapMatch] | None:
    """:func:`native_scan_many` for one pair."""
    scans = native_scan_many(
        [(text, pattern)],
        k,
        alphabet=alphabet,
        first_match_only=first_match_only,
    )
    return None if scans is None else scans[0]


def native_edit_distance_many(
    pairs: Sequence[tuple[str, str]],
    k: int,
    *,
    alphabet: Alphabet = DNA,
) -> list[int] | None:
    """Every pair's smallest semi-global edit distance in one C call.

    The same sweep as :func:`native_scan_many` with early termination: it
    returns at the first distance row that hits anywhere in the text. A
    pair's entry is that distance, or ``-1`` when no distance up to ``k``
    (or the pattern length) hits; None where :func:`native_scan_many`
    answers None. The same pieces pass answers ``-1`` for a pair with no
    exact piece in its text before it takes one of C's two lanes, so the
    pairs that do take them pair with each other.
    """
    return _native_batch("edit_distance_many", pairs, alphabet, k)


# ----------------------------------------------------------------------
# GenASM-DC windows
# ----------------------------------------------------------------------

@dataclass
class NativeWindow(WindowData):
    """A window whose ``R`` history is the C kernel's packed bytes.

    ``history`` is ``(text_length + 1) * (edit_distance + 1)`` little-endian
    uint64s: row ``i`` is ``R`` after text iteration ``i`` and row
    ``text_length`` is the initial all-ones state — the layout
    ``SeneWindowBitvectors.r`` stores as nested lists. It stays bytes until
    the first :meth:`r_rows`, so :func:`native_dc_window` is one C call and
    nothing else; the traceback then walks the unpacked rows like any other
    window's.
    """

    text: str
    pattern: str
    edit_distance: int
    history: bytes
    alphabet: Alphabet = field(default=DNA, repr=False, compare=False)
    _rows: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def r_rows(self, limit: int | None = None) -> list[list[int]]:
        """The history, unpacked whole on first use and kept."""
        if self._rows is None:
            kk = self.edit_distance + 1
            n_rows = len(self.text) + 1
            values = struct.unpack(f"<{n_rows * kk}Q", self.history)
            self._rows = [
                list(values[i * kk : (i + 1) * kk]) for i in range(n_rows)
            ]
        return self._rows


def native_dc_window(
    text: str,
    pattern: str,
    *,
    alphabet: Alphabet = DNA,
) -> NativeWindow | None:
    """Run GenASM-DC for one window in C; ``run_dc_window`` parity (SENE).

    Returns None when the window cannot run natively (extension missing,
    pattern longer than one word, uncodable alphabet/sequences, a pattern
    character outside the alphabet) — the caller falls back to the pure
    kernel, which raises for the last one. Raises exactly like the pure
    kernel for empty inputs and unalignable windows.
    """
    codec = _codec(alphabet)
    if _native is None or codec is None:
        return None
    if not pattern:
        raise ValueError("window pattern must be non-empty")
    if not text:
        raise WindowUnalignableError("window text is empty")
    if len(pattern) > WORD_BITS:
        return None
    text_table, pattern_table, n_symbols = codec
    text_codes = _encode(text, text_table)
    pattern_codes = _encode(pattern, pattern_table)
    if text_codes is None or pattern_codes is None:
        return None
    if max(pattern_codes) > n_symbols:
        return None
    result = _native.dc_window(text_codes, pattern_codes, n_symbols)
    if result is None:
        raise WindowUnalignableError.no_row_hit(text, pattern)
    edit_distance, history = result
    return NativeWindow(
        text=text,
        pattern=pattern,
        edit_distance=edit_distance,
        history=history,
        alphabet=alphabet,
    )


# ----------------------------------------------------------------------
# Whole-pair windowed align loop
# ----------------------------------------------------------------------

def native_align_many(
    pairs: Sequence[tuple[str, str]],
    *,
    alphabet: Alphabet = DNA,
    window_size: int,
    overlap: int,
    program: Sequence[int],
) -> list[tuple[str, int, int]] | None:
    """Run the whole windowed DC + TB loop for every pair in one C call.

    A pair's entry is ``(expanded_cigar_ops, text_consumed, edit_distance)``
    (``NativeEngine.align_batch`` wraps the ops with ``Cigar.from_kernel``);
    an empty pattern's is ``("", 0, 0)``. None when the batch cannot run
    natively (see :func:`_native_batch`; also when the window is wider than
    one word, and when a pair's window loop would raise): the caller runs
    the generic window loop (``AlignmentEngine.align_batch``) for the whole
    batch, which answers or raises canonically.
    """
    if window_size > WORD_BITS:
        return None
    return _native_batch(
        "align_many", pairs, alphabet, window_size, overlap, bytes(program)
    )


def native_align_pair(
    text: str,
    pattern: str,
    *,
    alphabet: Alphabet = DNA,
    window_size: int,
    overlap: int,
    program: Sequence[int],
) -> tuple[str, int, int] | None:
    """:func:`native_align_many` for one pair."""
    aligned = native_align_many(
        [(text, pattern)],
        alphabet=alphabet,
        window_size=window_size,
        overlap=overlap,
        program=program,
    )
    return None if aligned is None else aligned[0]


# ----------------------------------------------------------------------
# K-mer index build and batch seeding (the mapper's front half)
# ----------------------------------------------------------------------

def native_kmer_index_build(
    sequence: str, k: int, *, alphabet: Alphabet, max_occurrences: int
) -> tuple[array, array, array, array, int, bytes] | None:
    """The k-mer index of ``sequence`` in one C call; ``KmerIndex.build`` parity.

    Returns ``(codes, starts, positions, directory, masked, text_codes)`` —
    ``array('Q')`` sorted distinct k-mer codes, ``array('q')`` offsets (one
    more than codes) into the ``array('i')`` reference positions, the
    ``array('i')`` prefix directory over the codes, the count of k-mers
    dropped for occurring more than ``max_occurrences`` times, and the
    sequence in text codes as it was handed to C — or None when the
    extension or the byte codec is missing or the sequence is not latin-1
    (the pure builder in ``mapping/index.py`` answers). Raises ValueError
    for a ``k`` that is not positive or does not fit one 64-bit code.

    The C build is a counting sort on the directory's prefix: two rolling
    passes count and then place every k-mer hit in its prefix bucket, in
    position order, and a stable merge sort orders each bucket by full code.
    It runs in O(n) while buckets stay small and O(n log n) at worst, when
    one prefix holds every hit. It holds 12 bytes a hit, plus merge scratch
    of 12 bytes a hit of the largest bucket, beside the result's buffers.
    """
    codec = _codec(alphabet)
    if _native is None or codec is None:
        return None
    text_codes = _encode(sequence, codec[0])
    if text_codes is None:
        return None
    *packed, masked = _native.kmer_index_build(
        text_codes, codec[2], k, max_occurrences
    )
    buffers = (array("Q"), array("q"), array("i"), array("i"))
    for buffer in buffers:  # each bytes object is freed once it is copied
        buffer.frombytes(packed.pop(0))
    return (*buffers, masked, text_codes)


def native_seed_many(
    reads: Sequence[str],
    index: Any,
    *,
    stride: int,
    max_candidates: int,
    diagonal_tolerance: int,
) -> tuple[list[int], list[int], list[int]] | None:
    """Seed every read against one index in one C call.

    ``index`` is a ``KmerIndex``; its four buffers cross as they are.
    Returns the parallel ``(read_ids, positions, votes)`` lists of
    ``candidate_locations_batch`` — each read's candidates ranked, reads in
    input order — or None when the extension or the byte codec is missing
    (the pure seeding in ``mapping/seeding.py`` answers). C codes a read
    like a text, so a character outside the alphabet breaks the k-mers
    around it, as in the pure loop.
    """
    codec = _codec(index.alphabet)
    if _native is None or codec is None:
        return None
    text_table, _, n_symbols = codec
    return _native.seed_many(
        reads,
        text_table,
        n_symbols,
        *_index_arguments(index),
        stride,
        max_candidates,
        diagonal_tolerance,
    )


def _index_arguments(index: Any) -> tuple[array, array, array, array, int]:
    """A ``KmerIndex``'s buffers and seed length, in ``_native``'s order."""
    return index.codes, index.starts, index.positions, index.directory, index.k


# ----------------------------------------------------------------------
# The whole mapper for a batch
# ----------------------------------------------------------------------

@lru_cache(maxsize=16)
def _complement_codes(alphabet: Alphabet) -> bytes | None:
    """``alphabet.complement`` as a table over pattern codes, or None.

    Entry ``c`` is the code of the complement of symbol ``c``; the last
    entry (code ``len(symbols)``) is the wildcard's. None when the codec is
    missing or some complement is not a symbol or the wildcard.
    """
    codec = _codec(alphabet)
    if codec is None:
        return None
    _, pattern_table, n_symbols = codec
    # The pattern codec sends only a one-character latin-1 wildcard to code
    # n_symbols (see _codec); without one that code never occurs.
    wildcard = alphabet.wildcard
    coded_wildcard = (
        wildcard is not None and len(wildcard) == 1 and ord(wildcard) < 256
    )
    table = bytearray()
    for symbol in alphabet.symbols + (wildcard if coded_wildcard else ""):
        complement = alphabet.complement(symbol)
        if len(complement) != 1 or ord(complement) > 255:
            return None
        table.append(pattern_table[ord(complement)])
    if not coded_wildcard:
        table.append(n_symbols)
    return None if max(table) > n_symbols else bytes(table)


def native_map_many(
    reads: Sequence[str],
    index: Any,
    *,
    region_lengths: Sequence[int],
    max_candidates: int,
    diagonal_tolerance: int,
    threshold: int | None,
    window_size: int,
    overlap: int,
    program: Sequence[int],
    scoring: tuple[int, int, int, int],
) -> tuple[int, int, list[tuple]] | None:
    """Map a batch of reads in one C call: ``ReadMapper.map_reads`` parity.

    ``index`` is a ``KmerIndex`` whose ``reference_codes`` hold the mapped
    reference; ``region_lengths`` has one entry per read (the mapper's
    region rule). For each read C builds the reverse strand through a
    complement table, seeds both strands at stride ``index.k``, cuts every
    candidate's region, filters it at ``threshold`` (None: no filter),
    aligns the survivors in ``window_size`` / ``overlap`` windows under
    ``program`` and keeps the first best ``(match, substitution, gap_open,
    gap_extend)`` score.

    Returns ``(candidates, survivors, entries)``: an entry is ``(position,
    reverse, ops, text_consumed, edit_distance, score)`` for a mapped read,
    or ``()`` for an unmapped one. None, for the staged path to map the
    whole batch, when the extension, the codecs or ``reference_codes`` are
    missing, the window is wider than one word, or C does not answer the
    batch (a read holding a foreign character, a window loop that fails, a
    score past 64 bits).
    """
    complement = _complement_codes(index.alphabet)
    if (
        _native is None
        or complement is None
        or index.reference_codes is None
        or window_size > WORD_BITS
    ):
        return None
    _, pattern_table, n_symbols = _codec(index.alphabet)
    return _native.map_many(
        reads,
        pattern_table,
        n_symbols,
        complement,
        index.reference_codes,
        *_index_arguments(index),
        index.k,  # the stride: seeds do not overlap
        max_candidates,
        diagonal_tolerance,
        array("q", region_lengths),
        -1 if threshold is None else threshold,
        window_size,
        overlap,
        bytes(program),
        scoring,
    )
