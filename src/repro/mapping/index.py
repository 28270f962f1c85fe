"""K-mer index of the reference as four flat arrays (Figure 1, step 0).

"Read mapping starts with indexing, which is an offline pre-processing step
performed on a known reference genome": the index maps every k-mer (seed) of
the reference to the list of positions where it occurs. This is the
structure the seeding step queries, and — per Section 11 — a structure
GenASM itself could help build; here we build it directly.

Layout (shared with ``core/_native.c``): every k-mer is packed into one
integer code, ``alphabet.bits_per_symbol`` bits per symbol with the first
symbol in the high bits (:meth:`Alphabet.encode`), so ``k * bits`` must not
pass 64. The index holds

* ``codes`` — ``array('Q')``, the distinct indexed k-mer codes, ascending;
* ``starts`` — ``array('q')``, one entry more than ``codes``;
* ``positions`` — ``array('i')`` (32-bit on every platform CPython runs
  on): k-mer ``codes[i]`` occurs at
  ``positions[starts[i] : starts[i + 1]]``, ascending;
* ``directory`` — ``array('i')``, the prefix directory: ``2**p + 1``
  entries for ``p = min(16, k * bits)`` bits, entry ``j`` the first slot of
  ``codes`` whose top ``p`` bits are at least ``j``. A lookup binary-searches
  only ``codes[directory[j] : directory[j + 1]]``, a few slots instead of
  the whole array.

That is 20 bytes per indexed k-mer (under 20 bytes per reference base)
where a ``dict[str, list[int]]`` held about 210, plus 256 KB of directory.
A k-mer holding the wildcard or any character outside the alphabet has no
code and is not indexed.

The native build also keeps the reference it read in text codes
(``reference_codes``): ``ReadMapper``'s one-call path cuts candidate
regions out of it, so a :class:`~repro.sequences.genome.GenomeShard` is
decoded once, here.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Iterable, Sequence

from repro.core import kernels
from repro.sequences.alphabet import DNA, Alphabet, AlphabetError
from repro.sequences.genome import Genome

#: Positions lists longer than this are dropped, as real mappers do for
#: ultra-frequent seeds (repeat regions would otherwise flood seeding).
DEFAULT_MAX_OCCURRENCES = 128

#: ``positions`` is int32.
MAX_GENOME_LENGTH = 2**31 - 1

#: Most k-mer code bits the prefix directory is indexed by.
DIRECTORY_BITS = 16


@dataclass
class KmerIndex:
    """K-mer -> sorted reference positions, with frequency capping.

    Parameters
    ----------
    k:
        Seed length. Mappers use 11-21 for short reads; tests use smaller
        genomes and proportionally smaller seeds.
    max_occurrences:
        Seeds occurring more often than this are masked out (treated as
        uninformative repeats).
    alphabet:
        Fixes the k-mer packing; ``k * alphabet.bits_per_symbol`` may not
        exceed 64.

    Build one with :meth:`build` or :meth:`from_seed_positions`; the four
    buffers (module docstring) and ``reference_codes`` are read-only once
    built and shared by every mapper replica. A ``directory`` left out is
    derived from ``codes``.
    """

    k: int
    max_occurrences: int = DEFAULT_MAX_OCCURRENCES
    genome_length: int = 0
    masked_seeds: int = 0
    alphabet: Alphabet = DNA
    codes: array = field(default_factory=lambda: array("Q"), repr=False)
    starts: array = field(default_factory=lambda: array("q", [0]), repr=False)
    positions: array = field(default_factory=lambda: array("i"), repr=False)
    directory: array | None = field(default=None, repr=False)
    #: The indexed reference in text codes (``kernels`` codec), or None
    #: when the pure builder made the index.
    reference_codes: bytes | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("seed length k must be positive")
        bits = self.alphabet.bits_per_symbol
        if self.k * bits > 64:
            raise ValueError(
                f"seed length {self.k} at {bits} bits per symbol does not "
                "fit a 64-bit k-mer code"
            )
        if self.directory is None:
            self.directory = self._prefix_directory()

    def _prefix_directory(self) -> array:
        """The directory of ``codes`` (pure reference of the native build)."""
        code_bits = self.k * self.alphabet.bits_per_symbol
        shift = max(0, code_bits - DIRECTORY_BITS)
        entries = (1 << (code_bits - shift)) + 1
        if not self.codes:
            return array("i", bytes(4 * entries))
        counts = [0] * entries
        for code in self.codes:
            counts[(code >> shift) + 1] += 1
        return array("i", accumulate(counts))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        genome: Genome,
        k: int = 15,
        *,
        max_occurrences: int = DEFAULT_MAX_OCCURRENCES,
    ) -> "KmerIndex":
        """Index every k-mer of ``genome`` (the offline step 0).

        One C call when ``repro.core._native`` is built; otherwise the
        pure-Python builder below, which yields the same four buffers (and
        no ``reference_codes``).
        """
        index = cls(
            k=k,
            max_occurrences=max_occurrences,
            genome_length=len(genome),
            alphabet=genome.alphabet,
        )
        if len(genome) < k:
            raise ValueError("genome shorter than the seed length")
        if len(genome) > MAX_GENOME_LENGTH:
            raise ValueError("reference too long for int32 positions")
        sequence = genome.sequence  # a GenomeShard decodes it on every read
        built = kernels.native_kmer_index_build(
            sequence, k, alphabet=genome.alphabet, max_occurrences=max_occurrences
        )
        if built is None:
            index._pack(_kmer_groups(sequence, k, genome.alphabet))
        else:
            (
                index.codes,
                index.starts,
                index.positions,
                index.directory,
                index.masked_seeds,
                index.reference_codes,
            ) = built
        return index

    @classmethod
    def from_seed_positions(
        cls,
        k: int,
        seeds: Iterable[tuple[str, Sequence[int]]],
        *,
        genome_length: int,
        alphabet: Alphabet = DNA,
        max_occurrences: int = DEFAULT_MAX_OCCURRENCES,
    ) -> "KmerIndex":
        """Index from ``(seed, ascending positions)`` pairs, one per seed.

        The same rules as :meth:`build`: a seed holding a wildcard or a
        foreign character is left out, one with more than
        ``max_occurrences`` positions is masked and counted.
        """
        index = cls(
            k=k,
            max_occurrences=max_occurrences,
            genome_length=genome_length,
            alphabet=alphabet,
        )
        groups = []
        for seed, positions in seeds:
            if len(seed) != k:
                raise ValueError(f"seed length {len(seed)} != index k {k}")
            try:
                groups.append((alphabet.encode(seed), positions))
            except AlphabetError:
                continue
        groups.sort(key=lambda group: group[0])
        index._pack(groups)
        return index

    def _pack(self, groups: Iterable[tuple[int, Sequence[int]]]) -> None:
        """Fill the buffers from ``(code, positions)`` in ascending code order."""
        for code, positions in groups:
            if len(positions) > self.max_occurrences:
                self.masked_seeds += 1
                continue
            self.codes.append(code)
            self.positions.extend(positions)
            self.starts.append(len(self.positions))
        self.directory = self._prefix_directory()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lookup(self, seed: str) -> list[int]:
        """Reference positions of ``seed`` (empty if absent or masked).

        A fresh list on every call: the caller may keep or change it.
        """
        if len(seed) != self.k:
            raise ValueError(f"seed length {len(seed)} != index k {self.k}")
        slot = self._slot(seed)
        if slot is None:
            return []
        return self.positions[self.starts[slot] : self.starts[slot + 1]].tolist()

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, seed: str) -> bool:
        return len(seed) == self.k and self._slot(seed) is not None

    def _slot(self, seed: str) -> int | None:
        """Where the k-mer ``seed`` sits in ``codes``; None when not indexed."""
        try:
            code = self.alphabet.encode(seed)
        except AlphabetError:
            return None
        slot = bisect_left(self.codes, code)
        if slot == len(self.codes) or self.codes[slot] != code:
            return None
        return slot


def _kmer_groups(
    sequence: str, k: int, alphabet: Alphabet
) -> Iterable[tuple[int, list[int]]]:
    """``(code, positions)`` of every codable k-mer, in ascending code order.

    The pure-Python reference of ``_native.kmer_index_build``: a rolling
    code restarted at every character outside the alphabet, each k-mer
    keyed ``code << 32 | position`` so one sort orders both.
    """
    bits = alphabet.bits_per_symbol
    symbol_codes = {symbol: code for code, symbol in enumerate(alphabet.symbols)}
    code_mask = (1 << (k * bits)) - 1
    keys = []
    code = valid = 0
    for end, symbol in enumerate(sequence, start=1):
        symbol_code = symbol_codes.get(symbol)
        if symbol_code is None:
            code = valid = 0
            continue
        code = ((code << bits) | symbol_code) & code_mask
        valid += 1
        if valid >= k:
            keys.append((code << 32) | (end - k))
    keys.sort()
    for code, run in groupby(keys, key=lambda key: key >> 32):
        yield code, [key & 0xFFFFFFFF for key in run]
