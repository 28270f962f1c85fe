"""uint64 packing for the NumPy-batched backend.

The batched engine represents every per-pair bitvector as a row of ``W``
64-bit words (word 0 = least significant), so a batch of ``B`` pairs is a
``(B, W)`` ``uint64`` array and one Bitap recurrence step is a handful of
array-wide shifts/ORs/ANDs. This module holds the conversions between that
layout and the arbitrary-precision Python integers the scalar kernels use:

* :func:`pack_patterns` — per-symbol pattern bitmasks, the per-pair
  ``all_ones`` masks, and the per-pair MSB probes, all as word arrays;
* :func:`encode_texts` — text characters as small integer codes indexing the
  bitmask table (one shared out-of-alphabet/wildcard fallback row);
* :func:`shift_left_words` — the multi-word left shift with carry chaining
  across word boundaries (Section 5's long-read modification);
* :class:`PackedWindowBitvectors` — a window whose ``R`` history *is* the
  ``(n + 1, k + 1, W)`` uint64 slice the DC loop produced (zero-copy;
  converted to Python ints only for the history prefix a traceback reads);
* :func:`words_to_int_matrix` — conversion back to Python ints.

NumPy is optional and imported on first use; :func:`numpy_available` gates
the backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.core.bitap import pattern_bitmasks
from repro.core.genasm_dc import WindowData
from repro.sequences.alphabet import DNA, Alphabet

#: Word width of the packed layout (matches the hardware model's SRAM rows).
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


@lru_cache(maxsize=None)
def numpy_available() -> bool:
    """True when NumPy imports; tried once, on first call.

    Every function here imports NumPy where it runs it, so a process that
    never runs the batched backend never loads NumPy (about 14 MB of RSS).
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def words_for(bits: int) -> int:
    """Words needed to hold ``bits`` bits (at least one)."""
    return max(1, (bits + WORD_BITS - 1) // WORD_BITS)


def int_to_words(value: int, word_count: int) -> list[int]:
    """Split a non-negative int into ``word_count`` LSW-first words."""
    return [(value >> (WORD_BITS * w)) & _WORD_MASK for w in range(word_count)]


@dataclass(frozen=True)
class PackedPatterns:
    """Batch-packed pattern state shared by every scan over the batch.

    Attributes
    ----------
    bitmasks:
        ``(B, S + 1, W)`` uint64 — row ``s < S`` is symbol ``s``'s pattern
        bitmask; row ``S`` is the pair's all-ones fallback used for wildcard
        and out-of-alphabet text characters.
    all_ones:
        ``(B, W)`` uint64 — ``(1 << m_b) - 1`` per pair, applied after every
        shift so state never leaks past each pattern's top bit.
    msb:
        ``(B, W)`` uint64 — the single bit ``1 << (m_b - 1)`` per pair, the
        match probe at each text iteration.
    lengths:
        ``(B,)`` int64 pattern lengths.
    word_count:
        ``W``, sized for the longest pattern in the batch.
    """

    bitmasks: "np.ndarray"
    all_ones: "np.ndarray"
    msb: "np.ndarray"
    lengths: "np.ndarray"
    word_count: int


def pack_patterns(
    patterns: Sequence[str], alphabet: Alphabet
) -> PackedPatterns:
    """Build the packed bitmask tables for a batch of patterns.

    Single-word batches (every pattern at most 64 symbols — in particular
    every DC window batch at the paper's ``W = 64``) take a fully
    vectorized path that builds all per-symbol masks with a handful of
    array-wide operations; it reproduces :func:`pattern_bitmasks` bit for
    bit, including empty-pattern/foreign-symbol validation and wildcard
    semantics (a wildcard in the pattern matches nothing). Longer patterns
    delegate mask construction to :func:`pattern_bitmasks` per pattern.
    """
    import numpy as np
    symbols = alphabet.symbols
    word_count = words_for(max(len(pattern) for pattern in patterns))
    if word_count == 1:
        packed = _pack_patterns_single_word(patterns, alphabet)
        if packed is not None:
            return packed
    batch = len(patterns)
    bitmasks = np.empty((batch, len(symbols) + 1, word_count), dtype=np.uint64)
    all_ones = np.empty((batch, word_count), dtype=np.uint64)
    msb = np.empty((batch, word_count), dtype=np.uint64)
    lengths = np.empty(batch, dtype=np.int64)
    for b, pattern in enumerate(patterns):
        masks = pattern_bitmasks(pattern, alphabet)
        m = len(pattern)
        lengths[b] = m
        all_ones[b] = int_to_words((1 << m) - 1, word_count)
        msb[b] = int_to_words(1 << (m - 1), word_count)
        for s, symbol in enumerate(symbols):
            bitmasks[b, s] = int_to_words(masks[symbol], word_count)
        bitmasks[b, len(symbols)] = all_ones[b]
    return PackedPatterns(
        bitmasks=bitmasks,
        all_ones=all_ones,
        msb=msb,
        lengths=lengths,
        word_count=word_count,
    )


def _pack_patterns_single_word(
    patterns: Sequence[str], alphabet: Alphabet
) -> PackedPatterns | None:
    """Vectorized :func:`pack_patterns` for batches of <= 64-bit patterns.

    Returns None when a pattern contains non-latin-1 characters or the
    alphabet has symbols outside the byte range (the scalar path handles
    those); raises exactly like :func:`pattern_bitmasks` on empty patterns
    and symbols foreign to the alphabet.
    """
    import numpy as np
    symbols = alphabet.symbols
    fallback = len(symbols)
    lengths = np.array([len(pattern) for pattern in patterns], dtype=np.int64)
    if not lengths.all():
        raise ValueError("pattern must be non-empty")
    batch = len(patterns)
    m_max = int(lengths.max())
    joined = "".join(patterns)
    try:
        raw = np.frombuffer(joined.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    lut = np.full(256, -1, dtype=np.int64)
    for s, symbol in enumerate(symbols):
        if ord(symbol) >= 256:
            return None
        lut[ord(symbol)] = s
    if alphabet.wildcard is not None and ord(alphabet.wildcard) < 256:
        lut[ord(alphabet.wildcard)] = fallback
    flat_codes = lut[raw]
    if flat_codes.min(initial=0) < 0:
        bad = joined[int(np.argmax(flat_codes < 0))]
        raise ValueError(f"pattern symbol {bad!r} not in alphabet")

    # Scatter the flat codes into a (B, m_max) grid; padding uses the
    # fallback code, which matches no symbol row and carries a zero bit
    # value, so it cannot perturb any mask.
    codes = np.full((batch, m_max), fallback, dtype=np.int64)
    rows = np.repeat(np.arange(batch), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    cols = np.arange(len(raw)) - np.repeat(offsets, lengths)
    codes[rows, cols] = flat_codes

    # Bit m - 1 - j for position j; `2 << (m - 1)` instead of `1 << m`
    # keeps the m = 64 all-ones value inside uint64 (wrapping subtraction).
    positions = np.arange(m_max, dtype=np.int64)[None, :]
    in_range = positions < lengths[:, None]
    bit_index = np.where(in_range, lengths[:, None] - 1 - positions, 0)
    bit_value = np.where(
        in_range, np.uint64(1) << bit_index.astype(np.uint64), np.uint64(0)
    )
    ones = (np.uint64(2) << (lengths - 1).astype(np.uint64)) - np.uint64(1)
    bitmasks = np.empty((batch, fallback + 1, 1), dtype=np.uint64)
    for s in range(fallback):
        hit = np.where(codes == s, bit_value, np.uint64(0))
        bitmasks[:, s, 0] = ones & ~np.bitwise_or.reduce(hit, axis=1)
    bitmasks[:, fallback, 0] = ones
    return PackedPatterns(
        bitmasks=bitmasks,
        all_ones=ones[:, None],
        msb=(np.uint64(1) << (lengths - 1).astype(np.uint64))[:, None],
        lengths=lengths,
        word_count=1,
    )


def encode_texts(
    texts: Sequence[str], alphabet: Alphabet
) -> tuple["np.ndarray", "np.ndarray"]:
    """Encode texts as ``(B, n_max)`` symbol codes plus per-text lengths.

    Characters outside the alphabet (including the wildcard) map to the
    fallback code ``len(alphabet.symbols)``, mirroring the scalar kernel's
    ``masks.get(ch, all_ones)``. Shorter texts are padded with the fallback
    code; padding never contributes because iterations beyond a text's
    length are masked out of the recurrence.
    """
    import numpy as np
    fallback = len(alphabet.symbols)
    lengths = np.array([len(text) for text in texts], dtype=np.int64)
    n_max = int(lengths.max()) if len(texts) else 0
    codes = np.full((len(texts), n_max), fallback, dtype=np.int64)
    char_lut = {symbol: s for s, symbol in enumerate(alphabet.symbols)}
    byte_lut = np.full(256, fallback, dtype=np.int64)
    for symbol, s in char_lut.items():
        if ord(symbol) < 256:
            byte_lut[ord(symbol)] = s
    for b, text in enumerate(texts):
        if not text:
            continue
        try:
            raw = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
        except UnicodeEncodeError:
            codes[b, : len(text)] = [char_lut.get(ch, fallback) for ch in text]
        else:
            codes[b, : len(text)] = byte_lut[raw]
    return codes, lengths


def shift_left_words(words: "np.ndarray") -> "np.ndarray":
    """Shift every packed bitvector left by one, carrying across words."""
    import numpy as np
    out = words << np.uint64(1)
    if words.shape[-1] > 1:
        out[..., 1:] |= words[..., :-1] >> np.uint64(WORD_BITS - 1)
    return out


def shift_left_words_by(words: "np.ndarray", shift: int) -> "np.ndarray":
    """Shift packed bitvectors left by ``shift`` bits, carrying across words.

    Bits pushed past the top word are dropped; callers re-apply their
    per-pair ``all_ones`` mask afterwards. Handles shifts of any size,
    including multiples of the word width and shifts past the whole vector.
    """
    import numpy as np
    word_count = words.shape[-1]
    word_shift, bit_shift = divmod(shift, WORD_BITS)
    if word_shift == 0 and bit_shift:
        out = words << np.uint64(bit_shift)
        if word_count > 1:
            out[..., 1:] |= words[..., :-1] >> np.uint64(WORD_BITS - bit_shift)
        return out
    out = np.zeros_like(words)
    if word_shift >= word_count:
        return out
    src = words[..., : word_count - word_shift]
    if bit_shift == 0:
        out[..., word_shift:] = src
    else:
        out[..., word_shift:] = src << np.uint64(bit_shift)
        if src.shape[-1] > 1:
            out[..., word_shift + 1 :] |= src[..., :-1] >> np.uint64(
                WORD_BITS - bit_shift
            )
    return out


class PackedWindowBitvectors(WindowData):
    """A window whose ``R`` history is a view of the batch's packed uint64 words.

    The batched DC loop already holds the whole ``R`` history as one
    ``(n_max + 1, m_max + 1, B, W)`` uint64 array; a window is the
    ``(n + 1, k + 1, W)`` slice for its pair — handed over as a NumPy view,
    so constructing the window copies nothing. Words are combined into
    Python ints only for the history prefix a traceback asks for.
    """

    def __init__(
        self,
        *,
        text: str,
        pattern: str,
        r_words: "np.ndarray",
        edit_distance: int,
        alphabet: Alphabet = DNA,
        pm_table: "np.ndarray | None" = None,
        pm_codes: "np.ndarray | None" = None,
    ) -> None:
        self.text = text
        self.pattern = pattern
        self.edit_distance = edit_distance
        self.alphabet = alphabet
        self.r_words = r_words
        # Optional zero-copy handles into the batch's packed pattern-mask
        # table (pm_table: (S + 1, W) per-symbol masks, pm_codes: (n,)
        # text symbol codes) — lets text_masks skip rebuilding the scalar
        # bitmask dict entirely.
        self.pm_table = pm_table
        self.pm_codes = pm_codes
        self._rows: list[list[int]] | None = None

    def r_rows(self, limit: int | None = None) -> list[list[int]]:
        """The ``R`` history as Python ints.

        ``limit`` bounds how many leading rows the caller needs (a
        consume-limited traceback never touches the rest): in the common
        single-word case (windows of at most 64 bp) that prefix converts in
        one ``tolist`` call. The whole history is converted once and kept.
        """
        if limit is not None and limit <= len(self.text):
            return words_to_int_matrix(self.r_words[:limit])
        if self._rows is None:
            self._rows = words_to_int_matrix(self.r_words)
        return self._rows

    def text_masks(self, limit: int | None = None) -> list[int]:
        """Per-text-character pattern masks, straight from the packed table.

        When the window still carries its batch's mask-table views, this is
        one fancy-index plus one ``tolist`` — no scalar bitmask dict is
        ever rebuilt. Falls back to the base class's dict path for a window
        built without them.
        """
        if self.pm_table is None or self.pm_codes is None:
            return super().text_masks(limit)
        codes = self.pm_codes if limit is None else self.pm_codes[:limit]
        return words_to_int_matrix(self.pm_table[codes])


def words_to_int_matrix(arr: "np.ndarray") -> list:
    """Collapse the trailing word axis into Python ints; return nested lists.

    ``arr`` has shape ``(..., W)``; the result is ``arr.tolist()`` with each
    innermost word row combined into one arbitrary-precision integer — a
    single ``tolist`` call when ``W`` is 1.
    """
    if arr.shape[-1] == 1:
        return arr[..., 0].tolist()
    acc = arr[..., -1].astype(object)
    for w in range(arr.shape[-1] - 2, -1, -1):
        acc = (acc << WORD_BITS) | arr[..., w].astype(object)
    return acc.tolist()
