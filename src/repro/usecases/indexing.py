"""Hash-table index construction with GenASM (Section 11).

"As we need to find the locations of each seed in the reference text to
form the index structure, GenASM can be used to generate the hash-table
based index." — i.e. exact matching (Bitap with k = 0) locates every
occurrence of every distinct seed, and those locations populate the table.

This is deliberately the *same* index format the mapping pipeline consumes
(:class:`repro.mapping.index.KmerIndex`), so the GenASM-built index is a
drop-in replacement, which the tests verify against the direct builder.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.registry import get_engine
from repro.mapping.index import DEFAULT_MAX_OCCURRENCES, KmerIndex
from repro.sequences.genome import Genome

#: Text characters per engine call: every (genome, seed) pair carries the
#: whole genome, which a native call codes once per pair.
SCAN_CHUNK_CHARACTERS = 1_000_000


def build_index_with_genasm(
    genome: Genome,
    k: int = 15,
    *,
    max_occurrences: int = DEFAULT_MAX_OCCURRENCES,
) -> KmerIndex:
    """Build a :class:`KmerIndex` using Bitap exact search for locations.

    Each distinct k-mer of the genome is searched with the k = 0 (exact)
    Bitap scan; the reported start locations become the table entry. On
    hardware each distinct seed would be one GenASM-DC task; here they run
    as batches of the default engine's ``scan_batch``, each at most
    :data:`SCAN_CHUNK_CHARACTERS` of text.
    """
    if k <= 0:
        raise ValueError("seed length k must be positive")
    if len(genome) < k:
        raise ValueError("genome shorter than the seed length")

    sequence = genome.sequence
    distinct: set[str] = {
        sequence[pos : pos + k] for pos in range(len(sequence) - k + 1)
    }
    wildcard = genome.alphabet.wildcard
    # A seed holding the wildcard is not indexed (KmerIndex drops it).
    seeds = [seed for seed in distinct if not (wildcard and wildcard in seed)]
    chunk = max(1, SCAN_CHUNK_CHARACTERS // len(sequence))
    engine = get_engine()

    def located() -> Iterator[tuple[str, list[int]]]:
        for at in range(0, len(seeds), chunk):
            batch = seeds[at : at + chunk]
            scans = engine.scan_batch(
                [(sequence, seed) for seed in batch], 0,
                alphabet=genome.alphabet,
            )
            for seed, matches in zip(batch, scans):
                yield seed, sorted(match.start for match in matches)

    return KmerIndex.from_seed_positions(
        k,
        located(),
        genome_length=len(genome),
        alphabet=genome.alphabet,
        max_occurrences=max_occurrences,
    )
