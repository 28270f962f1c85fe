"""Plain-int kernel ABI between the pure GenASM kernels and native code.

PR 3 shaped GenASM-TB as a precompiled opcode program over plain-int state
precisely so the inner loops could later be compiled. This module is that
boundary: it lowers the Python-level types (str sequences, Alphabet,
mask dicts, TracebackConfig programs) into the flat representation the
compiled extension ``repro.core._native`` consumes — byte strings of symbol
codes, packed little-endian uint64 mask rows, and opcode byte strings — and
lifts the results back into the exact objects the pure kernels produce.

Every entry point degrades gracefully: when the extension is not built, or
a particular call falls outside what the C kernels handle (patterns longer
than one 64-bit word for the window kernels, alphabets that cannot be coded
into bytes, non-latin-1 sequences), the wrappers return ``None`` and the
caller runs the pure path instead. Correctness therefore never depends on
the build; the extension is throughput only, and the conformance +
Hypothesis parity suites pin it bit-identical to the pure reference.

Encoding scheme (shared with ``_native.c``):

* alphabet symbols map to codes ``0 .. len(symbols) - 1`` in symbol order;
* the wildcard and every other non-symbol character map to the sentinel
  code ``len(symbols)``, whose mask row is all-ones ("matches nothing") —
  the same value ``masks.get(ch, all_ones)`` yields in the pure kernels;
* pattern characters outside the alphabet (wildcard excepted) cannot be
  coded at all — the pure kernels raise for those, so the wrappers fall
  back rather than replicate the raise lazily per window.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.bitap import BitapMatch, pattern_bitmasks
from repro.core.genasm_dc import SeneEdgeDerivation, WindowUnalignableError
from repro.core.genasm_tb import TracebackError, WindowTraceback
from repro.sequences.alphabet import DNA, Alphabet

try:  # pragma: no cover - exercised via native_available() in both states
    from repro.core import _native
except ImportError as exc:  # pragma: no cover
    _native = None  # type: ignore[assignment]
    _IMPORT_ERROR: str | None = str(exc)
else:  # pragma: no cover
    _IMPORT_ERROR = None

WORD_BITS = 64

#: Same starting error budget as AlignmentEngine.run_dc_windows' default,
#: so the native align loop retries budgets exactly like the generic loop.
DEFAULT_INITIAL_BUDGET = 8

#: Failure kinds align_pair reports (numerically matched with _native.c).
_STATUS_NO_PROGRESS = 1
_STATUS_PAST_END = 2
_STATUS_DEAD_END = 3
_STATUS_UNALIGNABLE = 4


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
def _codec(alphabet: Alphabet) -> tuple[bytes, int] | None:
    """256-entry translate table and symbol count, or None if uncodable.

    The table maps each latin-1 byte to its symbol code; every byte that is
    not an alphabet symbol becomes the all-ones sentinel ``len(symbols)``.
    Alphabets with non-latin-1 symbols or more than 254 symbols cannot use
    the byte codec and take the pure path.
    """
    n_symbols = len(alphabet.symbols)
    if not 1 <= n_symbols <= 254:
        return None
    if any(ord(ch) > 255 for ch in alphabet.symbols):
        return None
    table = bytearray([n_symbols]) * 256
    for code, ch in enumerate(alphabet.symbols):
        table[ord(ch)] = code
    return bytes(table), n_symbols


@lru_cache(maxsize=16)
def _alphabet_chars(alphabet: Alphabet) -> frozenset[str]:
    chars = set(alphabet.symbols)
    if alphabet.wildcard is not None:
        chars.add(alphabet.wildcard)
    return frozenset(chars)


def _encode_text(text: str, table: bytes) -> bytes | None:
    """Text codes, or None when the text cannot ride the byte codec.

    Any character is legal in a text (unknown ones match nothing), so the
    only failure is a non-latin-1 character the table cannot index.
    """
    try:
        raw = text.encode("latin-1")
    except UnicodeEncodeError:
        return None
    return raw.translate(table)


def _encode_pattern(
    pattern: str, alphabet: Alphabet, table: bytes
) -> bytes | None:
    """Pattern codes, or None when the pure kernels must handle the pattern.

    Unlike texts, patterns reject characters outside the alphabet
    (``pattern_bitmasks`` raises); rather than replicate that raise at the
    exact window the pure aligner would reach, callers fall back to pure
    for the whole job when the pattern is not cleanly codable.
    """
    if not set(pattern) <= _alphabet_chars(alphabet):
        return None
    try:
        raw = pattern.encode("latin-1")
    except UnicodeEncodeError:  # pragma: no cover - subset check passed
        return None
    return raw.translate(table)


# ----------------------------------------------------------------------
# Bitap scan
# ----------------------------------------------------------------------

def native_scan(
    text: str,
    pattern: str,
    k: int,
    *,
    alphabet: Alphabet = DNA,
    first_match_only: bool = False,
) -> list[BitapMatch] | None:
    """Multiword Bitap scan in C; ``bitap_scan`` parity.

    Returns None when this pair cannot run natively (extension missing,
    uncodable alphabet or text) — the caller falls back to the pure scan.
    Raises exactly like the pure scan for invalid ``k`` or pattern.
    """
    if _native is None:
        return None
    codec = _codec(alphabet)
    if codec is None:
        return None
    if k < 0:
        raise ValueError("edit distance threshold k must be non-negative")
    table, n_symbols = codec
    masks = pattern_bitmasks(pattern, alphabet)  # raises like the pure scan
    text_codes = _encode_text(text, table)
    if text_codes is None:
        return None
    m = len(pattern)
    words = (m + WORD_BITS - 1) // WORD_BITS
    row_bytes = words * 8
    all_ones = (1 << m) - 1
    rows = bytearray()
    for symbol in alphabet.symbols:
        rows += masks[symbol].to_bytes(row_bytes, "little")
    rows += all_ones.to_bytes(row_bytes, "little")  # the sentinel row
    hits = _native.scan(
        text_codes, bytes(rows), n_symbols + 1, words, m, k,
        bool(first_match_only),
    )
    return [BitapMatch(start=start, distance=distance) for start, distance in hits]


# ----------------------------------------------------------------------
# GenASM-DC windows
# ----------------------------------------------------------------------

@dataclass
class NativeWindow(SeneEdgeDerivation):
    """A SENE window whose ``R`` history lives in the extension's packed bytes.

    ``history`` is ``(text_length + 1) * (k + 1)`` little-endian uint64s:
    row ``i`` is ``R`` after text iteration ``i`` and row ``text_length`` is
    the initial all-ones state — the same layout ``SeneWindowBitvectors.r``
    stores as nested lists. The traceback normally never unpacks it: the
    ``native_traceback`` hook walks the bytes directly in C. The lazy
    ``r_rows`` / ``_r_row`` accessors exist for the generic walk (fallback
    when the extension is absent after pickling) and for the parity suites
    that diff edge vectors against the reference representation.
    """

    text: str
    pattern: str
    k: int
    edit_distance: int
    history: bytes
    alphabet: Alphabet = field(default=DNA, repr=False, compare=False)
    _masks: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )
    _rows: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def _ensure_masks(self) -> dict[str, int]:
        if self._masks is None:
            self._masks = pattern_bitmasks(self.pattern, self.alphabet)
        return self._masks

    def _r_row(self, text_index: int) -> list[int]:
        return self._unpacked()[text_index]

    def r_rows(self, limit: int | None = None) -> list[list[int]]:
        """The ``R`` history as Python ints (generic-TB + parity hook)."""
        return self._unpacked()

    def _unpacked(self) -> list[list[int]]:
        if self._rows is None:
            kk = self.k + 1
            n_rows = len(self.text) + 1
            values = struct.unpack(f"<{n_rows * kk}Q", self.history)
            self._rows = [
                list(values[i * kk : (i + 1) * kk]) for i in range(n_rows)
            ]
        return self._rows

    def native_traceback(
        self, consume_limit: int, program: Sequence[int]
    ) -> WindowTraceback | None:
        """Walk the traceback in C; ``traceback_window`` dispatches here.

        Returns None when the walk cannot run natively (extension absent —
        e.g. this window was unpickled where the build is missing), letting
        the generic opcode loop take over on the unpacked history.
        """
        if _native is None:
            return None
        codec = _codec(self.alphabet)
        if codec is None:  # pragma: no cover - window came from this codec
            return None
        table, n_symbols = codec
        pattern_codes = _encode_pattern(self.pattern, self.alphabet, table)
        if pattern_codes is None:  # pragma: no cover - as above
            return None
        text_codes = _encode_text(self.text, table)
        if text_codes is None:  # pragma: no cover - as above
            return None
        ops, text_consumed, pattern_consumed, errors_used = _native.traceback(
            self.history, text_codes, pattern_codes, n_symbols, self.k,
            self.edit_distance, consume_limit, bytes(program),
        )
        if ops is None:
            raise TracebackError(
                f"traceback dead end at textI={text_consumed} "
                f"patternI={pattern_consumed} errors={errors_used}"
            )
        return WindowTraceback(
            ops=ops,
            text_consumed=text_consumed,
            pattern_consumed=pattern_consumed,
            errors_used=errors_used,
        )


def native_dc_window(
    text: str,
    pattern: str,
    *,
    alphabet: Alphabet = DNA,
    initial_budget: int = DEFAULT_INITIAL_BUDGET,
) -> NativeWindow | None:
    """Run GenASM-DC for one window in C; ``run_dc_window`` parity (SENE).

    Returns None when the window cannot run natively (extension missing,
    pattern longer than one word, uncodable alphabet/sequences) — the
    caller falls back to the pure kernel. Raises exactly like the pure
    kernel for empty inputs and unalignable windows.
    """
    if _native is None:
        return None
    if not pattern:
        raise ValueError("window pattern must be non-empty")
    if not text:
        raise WindowUnalignableError("window text is empty")
    m = len(pattern)
    if m > WORD_BITS:
        return None
    codec = _codec(alphabet)
    if codec is None:
        return None
    table, n_symbols = codec
    pattern_codes = _encode_pattern(pattern, alphabet, table)
    if pattern_codes is None:
        return None
    text_codes = _encode_text(text, table)
    if text_codes is None:
        return None
    result = _native.dc_window(
        text_codes, pattern_codes, n_symbols, initial_budget
    )
    if result is None:
        raise WindowUnalignableError(
            f"window unalignable at k={m} "
            f"(text {len(text)} chars, pattern {m} chars)"
        )
    edit_distance, k_used, history = result
    return NativeWindow(
        text=text,
        pattern=pattern,
        k=k_used,
        edit_distance=edit_distance,
        history=history,
        alphabet=alphabet,
    )


# ----------------------------------------------------------------------
# Whole-pair windowed align loop
# ----------------------------------------------------------------------

def native_align_pair(
    text: str,
    pattern: str,
    *,
    alphabet: Alphabet = DNA,
    window_size: int,
    overlap: int,
    program: Sequence[int],
    initial_budget: int = DEFAULT_INITIAL_BUDGET,
) -> tuple[str, int] | None:
    """Run the whole windowed DC + TB loop for one pair in C.

    Returns ``(expanded_cigar_ops, text_consumed)`` — the arguments of
    ``Alignment.from_ops`` — or None when the pair cannot run natively
    (extension missing, empty pattern, window wider than one word,
    uncodable alphabet/sequences), in which case the caller must run the
    generic window loop (``AlignmentEngine.align_batch``). Raises the same
    exceptions with the same messages as the generic loop for no-progress
    / past-end / dead-end / unalignable windows.
    """
    if _native is None:
        return None
    if not pattern or window_size > WORD_BITS:
        return None
    codec = _codec(alphabet)
    if codec is None:
        return None
    table, n_symbols = codec
    pattern_codes = _encode_pattern(pattern, alphabet, table)
    if pattern_codes is None:
        return None
    text_codes = _encode_text(text, table)
    if text_codes is None:
        return None
    result = _native.align_pair(
        text_codes, pattern_codes, n_symbols, window_size, overlap,
        initial_budget, bytes(program),
    )
    if len(result) == 2:
        return result
    status, a, b, c = result
    if status == _STATUS_NO_PROGRESS:
        raise TracebackError(
            f"window made no progress (curText={a}, curPattern={b})"
        )
    if status == _STATUS_PAST_END:
        raise TracebackError("window consumed past the end of the text")
    if status == _STATUS_DEAD_END:
        raise TracebackError(
            f"traceback dead end at textI={a} patternI={b} errors={c}"
        )
    # _STATUS_UNALIGNABLE: reconstruct the failing window's dimensions the
    # way the generic loop sliced them (budget has reached the sub-pattern
    # length when run_dc_window gives up).
    sub_n = min(len(text) - a, window_size)
    sub_m = min(len(pattern) - b, window_size)
    raise WindowUnalignableError(
        f"window unalignable at k={sub_m} "
        f"(text {sub_n} chars, pattern {sub_m} chars)"
    )
