"""Synthetic reference genomes.

The paper evaluates against GRCh38 (Section 9). We cannot ship the human
genome, so this module synthesizes references with the two properties the
evaluation actually depends on:

* enough length/diversity that seeds resolve to a small number of candidate
  locations, and
* *repeated regions*, so that seeding produces several candidate mapping
  locations per read and the pre-alignment filter has dissimilar candidates
  to reject (the situation Figure 1 steps 1-2 exist for).

The substitution is recorded in DESIGN.md (Section 3).
"""

from __future__ import annotations

import json
import mmap
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:
    from repro.sequences.io import FastaRecord


@dataclass(frozen=True)
class Genome:
    """A named reference sequence plus its alphabet.

    ``Genome`` is the object the mapping pipeline indexes and that GenASM
    reads reference windows from; it deliberately stays a thin immutable
    wrapper so it can stand in for any reference (synthetic or loaded from
    FASTA).
    """

    name: str
    sequence: str
    alphabet: Alphabet = field(default=DNA)

    def __post_init__(self) -> None:
        self.alphabet.validate(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def region(self, start: int, length: int) -> str:
        """Return ``sequence[start : start+length]``, clamped to the ends.

        Clamping mirrors how a mapper handles candidate locations near the
        reference boundary: the region is simply shorter there.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        start = max(0, start)
        return self.sequence[start : start + length]

    def packed_size_bytes(self) -> int:
        """Size of the 2-bit-packed reference (Section 9: 715 MB for GRCh38)."""
        return self.alphabet.encoded_bytes(len(self.sequence))


def synthesize_genome(
    length: int,
    *,
    seed: int | None = None,
    gc_content: float = 0.41,
    repeat_fraction: float = 0.05,
    repeat_unit_length: int = 300,
    alphabet: Alphabet = DNA,
    name: str = "synthetic",
) -> Genome:
    """Create a random reference genome with embedded repeats.

    Parameters
    ----------
    length:
        Total genome length in bases.
    gc_content:
        Probability mass given to G+C (human-like default of 0.41).
    repeat_fraction:
        Fraction of the genome covered by copies of repeat units. Repeats
        are copied (with light divergence) to multiple loci so that k-mer
        seeding yields multiple candidate locations, as in real genomes.
    repeat_unit_length:
        Length of each repeat unit.
    """
    if length <= 0:
        raise ValueError("genome length must be positive")
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError("gc_content must be within [0, 1]")
    if not 0.0 <= repeat_fraction < 1.0:
        raise ValueError("repeat_fraction must be within [0, 1)")

    rng = random.Random(seed)
    if alphabet is DNA:
        weights = [
            (1 - gc_content) / 2,  # A
            gc_content / 2,  # C
            gc_content / 2,  # G
            (1 - gc_content) / 2,  # T
        ]
    else:
        weights = [1.0 / len(alphabet)] * len(alphabet)

    bases = rng.choices(alphabet.symbols, weights=weights, k=length)

    repeat_budget = int(length * repeat_fraction)
    unit_length = min(repeat_unit_length, max(1, length // 4))
    while repeat_budget >= unit_length and length > 2 * unit_length:
        src = rng.randrange(0, length - unit_length)
        unit = bases[src : src + unit_length]
        dst = rng.randrange(0, length - unit_length)
        copy = list(unit)
        # Lightly diverge the copy (1% substitutions) so repeats are
        # near-identical rather than exact, like real genomic repeats.
        for i in range(len(copy)):
            if rng.random() < 0.01:
                copy[i] = rng.choice(alphabet.symbols)
        bases[dst : dst + unit_length] = copy
        repeat_budget -= unit_length

    return Genome(name=name, sequence="".join(bases), alphabet=alphabet)


# ---------------------------------------------------------------------------
# Shard-per-chromosome storage (2-bit-packed, memory-mapped)
# ---------------------------------------------------------------------------
#
# Section 9 stores the reference 2-bit packed (715 MB for GRCh38). A
# ``ShardedGenome`` persists each chromosome as one packed file plus a JSON
# manifest; ``GenomeShard`` exposes the ``Genome`` surface over a read-only
# mmap of that file and pickles as metadata only, so handing a reference to
# another process costs a path instead of a chromosome.

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-sharded-genome"
_MANIFEST_VERSION = 1

_DECODE_TABLES: dict[str, tuple[str, ...]] = {}


def _packable(alphabet: Alphabet) -> None:
    if len(alphabet.symbols) != 4 or alphabet.bits_per_symbol != 2:
        raise ValueError(
            f"sharded storage packs 2 bits per base; alphabet "
            f"{alphabet.name!r} has {len(alphabet.symbols)} symbols"
        )


def _decode_table(symbols: str) -> tuple[str, ...]:
    """256-entry table: packed byte -> its four decoded characters."""
    table = _DECODE_TABLES.get(symbols)
    if table is None:
        table = tuple(
            symbols[(b >> 6) & 3]
            + symbols[(b >> 4) & 3]
            + symbols[(b >> 2) & 3]
            + symbols[b & 3]
            for b in range(256)
        )
        _DECODE_TABLES[symbols] = table
    return table


#: ``translate`` tables that move a 2-bit code to its field in a packed
#: byte: bits 7-6 for the first base of four, then 5-4, 3-2 and 1-0.
_FIELD_TABLES = tuple(
    bytes((code << shift) & 0xFF for code in range(256)) for shift in (6, 4, 2, 0)
)


def _pack_sequence(sequence: str, alphabet: Alphabet) -> bytes:
    """2-bit pack ``sequence``; wildcards pack as code 0 (spliced on decode).

    Each of the four lanes (every fourth base) is moved to its bit field
    by one ``translate`` and read as one big-endian integer; the fields
    never overlap, so the sum of the four integers is the packed bytes —
    C-speed work throughout, and no NumPy.
    """
    keys = alphabet.symbols
    values = bytes(range(4))
    if alphabet.wildcard is not None:
        keys += alphabet.wildcard
        values += b"\x00"
    codes = sequence.encode("ascii").translate(bytes.maketrans(keys.encode("ascii"), values))
    pad = -len(codes) % 4
    if pad:
        codes += b"\x00" * pad
    packed = 0
    for lane, table in enumerate(_FIELD_TABLES):
        packed += int.from_bytes(codes[lane::4].translate(table), "big")
    return packed.to_bytes(len(codes) // 4, "big")


def _wildcard_runs(sequence: str, wildcard: str | None) -> list[list[int]]:
    """``[start, length]`` runs of the wildcard symbol, sorted by start."""
    if not wildcard:
        return []
    runs: list[list[int]] = []
    i = sequence.find(wildcard)
    while i != -1:
        j = i + 1
        while j < len(sequence) and sequence[j] == wildcard:
            j += 1
        runs.append([i, j - i])
        i = sequence.find(wildcard, j)
    return runs


class GenomeShard:
    """One chromosome of a :class:`ShardedGenome`.

    Implements the ``Genome`` surface (``name``, ``alphabet``, ``len()``,
    :meth:`region`, ``sequence``) by decoding windows out of a read-only
    memory map of the 2-bit-packed shard file. Wildcard (``N``) positions
    cannot pack in 2 bits, so they are carried as runs in the manifest and
    spliced back during decode.

    Shards pickle as metadata (directory, name, length, runs) — a few
    hundred bytes — and reopen the mmap lazily on first access.
    """

    def __init__(
        self,
        directory: str | Path,
        name: str,
        length: int,
        filename: str,
        wildcard_runs: list[list[int]] | None = None,
        alphabet: Alphabet = DNA,
    ) -> None:
        _packable(alphabet)
        self.directory = Path(directory)
        self.name = name
        self.alphabet = alphabet
        self._length = length
        self._filename = filename
        self._runs = [list(run) for run in (wildcard_runs or [])]
        self._mmap: mmap.mmap | None = None
        self._file = None

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GenomeShard(name={self.name!r}, length={self._length}, "
            f"path={self.path})"
        )

    @property
    def path(self) -> Path:
        return self.directory / self._filename

    @property
    def wildcard_runs(self) -> list[tuple[int, int]]:
        return [(start, length) for start, length in self._runs]

    def _data(self) -> mmap.mmap:
        if self._mmap is None:
            expected = (self._length + 3) // 4
            self._file = open(self.path, "rb")
            try:
                self._mmap = mmap.mmap(
                    self._file.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError:
                # Zero-length file: mmap rejects it; only valid if empty.
                if expected:
                    self._file.close()
                    self._file = None
                    raise
                self._mmap = mmap.mmap(-1, 1)
            if expected and len(self._mmap) < expected:
                held = len(self._mmap)
                # Drop both handles, or the next access would skip this
                # check and decode the short map.
                self.close()
                raise ValueError(
                    f"shard {self.path} holds {held} bytes, "
                    f"expected {expected} for {self._length} bases"
                )
        return self._mmap

    def region(self, start: int, length: int) -> str:
        """Decode ``[start, start+length)``, clamped like :meth:`Genome.region`."""
        if length < 0:
            raise ValueError("length must be non-negative")
        start = max(0, start)
        end = min(start + length, self._length)
        if start >= end:
            return ""
        data = self._data()
        byte_lo = start // 4
        byte_hi = (end + 3) // 4
        table = _decode_table(self.alphabet.symbols)
        decoded = "".join(table[b] for b in data[byte_lo:byte_hi])
        offset = start - 4 * byte_lo
        text = decoded[offset : offset + (end - start)]
        if self._runs:
            wildcard = self.alphabet.wildcard
            chars: list[str] | None = None
            for run_start, run_length in self._runs:
                lo = max(run_start, start)
                hi = min(run_start + run_length, end)
                if lo < hi:
                    if chars is None:
                        chars = list(text)
                    for position in range(lo, hi):
                        chars[position - start] = wildcard
            if chars is not None:
                text = "".join(chars)
        return text

    @property
    def sequence(self) -> str:
        """The whole chromosome, decoded on every access (bind it once)."""
        return self.region(0, self._length)

    def packed_size_bytes(self) -> int:
        return self.alphabet.encoded_bytes(self._length)

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __getstate__(self) -> dict:
        return {
            "directory": str(self.directory),
            "name": self.name,
            "length": self._length,
            "filename": self._filename,
            "wildcard_runs": self._runs,
            "alphabet": (
                self.alphabet.name,
                self.alphabet.symbols,
                self.alphabet.wildcard,
            ),
        }

    def __setstate__(self, state: dict) -> None:
        name, symbols, wildcard = state["alphabet"]
        self.__init__(
            state["directory"],
            state["name"],
            state["length"],
            state["filename"],
            state["wildcard_runs"],
            _resolve_alphabet(name, symbols, wildcard),
        )


def _resolve_alphabet(name: str, symbols: str, wildcard: str | None) -> Alphabet:
    from repro.sequences.alphabet import RNA

    for known in (DNA, RNA):
        if known.symbols == symbols and known.wildcard == wildcard:
            return known
    return Alphabet(name, symbols, wildcard=wildcard)


def _shard_filename(index: int, name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)
    return f"{index:03d}_{safe or 'chromosome'}.2bit"


class ShardedGenome:
    """Shard-per-chromosome genome store backed by packed mmap files.

    ``write`` / ``from_fasta`` persist chromosomes one at a time (one
    ``.2bit`` file each plus :data:`MANIFEST_NAME`); ``open`` reads only
    the manifest, so opening GRCh38-scale references is O(chromosomes),
    not O(bases). ``len()`` is the chromosome count; ``total_length`` is
    the base count.
    """

    def __init__(self, directory: str | Path, shards: dict[str, GenomeShard]):
        self.directory = Path(directory)
        self._shards = dict(shards)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def chromosomes(self) -> tuple[str, ...]:
        return tuple(self._shards)

    @property
    def total_length(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def __len__(self) -> int:
        return len(self._shards)

    def __iter__(self) -> Iterator[GenomeShard]:
        return iter(self._shards.values())

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def shard(self, name: str) -> GenomeShard:
        try:
            return self._shards[name]
        except KeyError:
            raise KeyError(
                f"no chromosome {name!r}; have {', '.join(self._shards) or 'none'}"
            ) from None

    __getitem__ = shard

    def reference_sequences(self) -> list[tuple[str, int]]:
        """``(name, length)`` pairs in manifest order, for SAM headers."""
        return [(shard.name, len(shard)) for shard in self._shards.values()]

    def packed_size_bytes(self) -> int:
        return sum(shard.packed_size_bytes() for shard in self._shards.values())

    def close(self) -> None:
        for shard in self._shards.values():
            shard.close()

    @classmethod
    def write(
        cls, genomes: Iterable[Genome], directory: str | Path
    ) -> "ShardedGenome":
        """Pack each genome as one shard under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries: list[dict] = []
        shards: dict[str, GenomeShard] = {}
        alphabet: Alphabet | None = None
        for index, genome in enumerate(genomes):
            _packable(genome.alphabet)
            if alphabet is None:
                alphabet = genome.alphabet
            elif genome.alphabet != alphabet:
                raise ValueError(
                    "all chromosomes in a ShardedGenome share one alphabet"
                )
            if genome.name in shards:
                raise ValueError(f"duplicate chromosome name {genome.name!r}")
            filename = _shard_filename(index, genome.name)
            sequence = genome.sequence
            (directory / filename).write_bytes(
                _pack_sequence(sequence, genome.alphabet)
            )
            runs = _wildcard_runs(sequence, genome.alphabet.wildcard)
            entries.append(
                {
                    "name": genome.name,
                    "length": len(sequence),
                    "file": filename,
                    "wildcard_runs": runs,
                }
            )
            shards[genome.name] = GenomeShard(
                directory, genome.name, len(sequence), filename, runs, genome.alphabet
            )
        if alphabet is None:
            raise ValueError("cannot write a ShardedGenome with no chromosomes")
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "alphabet": {
                "name": alphabet.name,
                "symbols": alphabet.symbols,
                "wildcard": alphabet.wildcard,
            },
            "chromosomes": entries,
        }
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="ascii"
        )
        return cls(directory, shards)

    @classmethod
    def from_fasta(
        cls,
        source: str | Path,
        directory: str | Path,
        *,
        alphabet: Alphabet = DNA,
    ) -> "ShardedGenome":
        """Shard a (possibly multi-contig) FASTA file, one record at a time."""
        from repro.sequences.io import iter_fasta

        def genomes() -> Iterator[Genome]:
            with open(source, "r", encoding="ascii") as handle:
                record: FastaRecord
                for record in iter_fasta(handle):
                    yield Genome(
                        name=record.name,
                        sequence=record.sequence,
                        alphabet=alphabet,
                    )

        return cls.write(genomes(), directory)

    @classmethod
    def open(cls, directory: str | Path) -> "ShardedGenome":
        """Open an existing store by reading only its manifest."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no {MANIFEST_NAME} under {directory} — not a sharded genome"
            )
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(
                f"unrecognised manifest format {manifest.get('format')!r}"
            )
        spec = manifest["alphabet"]
        alphabet = _resolve_alphabet(
            spec["name"], spec["symbols"], spec.get("wildcard")
        )
        shards: dict[str, GenomeShard] = {}
        for entry in manifest["chromosomes"]:
            shards[entry["name"]] = GenomeShard(
                directory,
                entry["name"],
                entry["length"],
                entry["file"],
                entry.get("wildcard_runs", []),
                alphabet,
            )
        return cls(directory, shards)
