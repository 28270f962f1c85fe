"""Multi-word bitvectors: the paper's long-read enabler, modelled faithfully.

Baseline Bitap limits the query length to the machine word because status
bitvectors must be shifted as single words (Section 3.1). GenASM-DC stores a
bitvector in ``ceil(m / w)`` words and chains shifts through saved carry bits
(Section 5): "the bit shifted out (MSB) of word i-1 needs to be stored
separately before performing the shift on word i-1. Then, that saved bit
needs to be loaded as the least significant bit (LSB) of word i."

:class:`MultiWordBitVector` is a word-accurate model of that carry chaining;
the software fast path elsewhere uses Python's arbitrary-precision integers.
:func:`~repro.core.bitap.bitap_scan_multiword` runs Bitap over it, and
property tests check that scan bit-for-bit against
:func:`~repro.core.bitap.bitap_scan`. The hardware model counts its own
operations and does not use this module.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MultiWordBitVector:
    """An ``m``-bit vector stored as least-significant-word-first words.

    Parameters
    ----------
    length:
        Number of live bits ``m``.
    word_size:
        Hardware word width ``w`` (64 in the paper's configuration).
    words:
        ``ceil(m / w)`` integers, each holding ``word_size`` bits,
        least-significant word first.
    """

    length: int
    word_size: int
    words: list[int]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, length: int, word_size: int = 64) -> "MultiWordBitVector":
        """All-zero vector (every position a match, in Bitap's encoding)."""
        cls._check_shape(length, word_size)
        return cls(length, word_size, [0] * _word_count(length, word_size))

    @classmethod
    def ones(cls, length: int, word_size: int = 64) -> "MultiWordBitVector":
        """All-one vector — Bitap's initial 'no partial match' state."""
        cls._check_shape(length, word_size)
        vec = cls.zeros(length, word_size)
        full = (1 << word_size) - 1
        for i in range(len(vec.words)):
            vec.words[i] = full
        vec._mask_top()
        return vec

    @classmethod
    def from_int(
        cls, value: int, length: int, word_size: int = 64
    ) -> "MultiWordBitVector":
        """Split an integer's low ``length`` bits into words."""
        cls._check_shape(length, word_size)
        if value < 0:
            raise ValueError("bitvector value must be non-negative")
        vec = cls.zeros(length, word_size)
        mask = (1 << word_size) - 1
        for i in range(len(vec.words)):
            vec.words[i] = (value >> (i * word_size)) & mask
        vec._mask_top()
        return vec

    @staticmethod
    def _check_shape(length: int, word_size: int) -> None:
        if length <= 0:
            raise ValueError("bitvector length must be positive")
        if word_size <= 0:
            raise ValueError("word size must be positive")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def to_int(self) -> int:
        """Recombine the words into a single integer."""
        value = 0
        for i, word in enumerate(self.words):
            value |= word << (i * self.word_size)
        return value

    def bit(self, index: int) -> int:
        """Bit at position ``index`` (0 = LSB)."""
        if not 0 <= index < self.length:
            raise IndexError(f"bit index {index} out of range [0, {self.length})")
        word, offset = divmod(index, self.word_size)
        return (self.words[word] >> offset) & 1

    @property
    def msb(self) -> int:
        """The most significant *live* bit — Bitap's match flag."""
        return self.bit(self.length - 1)

    @property
    def word_count(self) -> int:
        return len(self.words)

    # ------------------------------------------------------------------
    # Bitap operations (in-place; return self for chaining)
    # ------------------------------------------------------------------
    def shift_left(self) -> "MultiWordBitVector":
        """Shift left by one using the paper's carry-bit chaining.

        Word ``i``'s shifted-out MSB is saved and loaded as word ``i+1``'s
        new LSB, exactly as Section 5 describes for the hardware. The final
        carry (the vector's live MSB) is discarded, matching a single-word
        shift that drops the top bit.
        """
        carry = 0
        top = self.word_size - 1
        full = (1 << self.word_size) - 1
        for i in range(len(self.words)):
            shifted_out = (self.words[i] >> top) & 1
            self.words[i] = ((self.words[i] << 1) & full) | carry
            carry = shifted_out
        self._mask_top()
        return self

    def or_with(self, other: "MultiWordBitVector") -> "MultiWordBitVector":
        """Word-wise OR (used to fold the pattern bitmask in)."""
        self._check_compatible(other)
        for i in range(len(self.words)):
            self.words[i] |= other.words[i]
        return self

    def and_with(self, other: "MultiWordBitVector") -> "MultiWordBitVector":
        """Word-wise AND (used to combine the D/S/I/M intermediates)."""
        self._check_compatible(other)
        for i in range(len(self.words)):
            self.words[i] &= other.words[i]
        return self

    def copy(self) -> "MultiWordBitVector":
        return MultiWordBitVector(self.length, self.word_size, list(self.words))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "MultiWordBitVector") -> None:
        if self.length != other.length or self.word_size != other.word_size:
            raise ValueError(
                "bitvector shape mismatch: "
                f"({self.length},{self.word_size}) vs "
                f"({other.length},{other.word_size})"
            )

    def _mask_top(self) -> None:
        """Clear bits above ``length`` in the top word."""
        live = self.length - (len(self.words) - 1) * self.word_size
        self.words[-1] &= (1 << live) - 1


def _word_count(length: int, word_size: int) -> int:
    return (length + word_size - 1) // word_size


def words_needed(length: int, word_size: int = 64) -> int:
    """Words required for an ``length``-bit vector — the dm/we of Section 5."""
    MultiWordBitVector._check_shape(length, word_size)
    return _word_count(length, word_size)
