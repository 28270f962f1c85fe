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

from repro.core.bitap import bitap_scan
from repro.mapping.index import DEFAULT_MAX_OCCURRENCES, KmerIndex
from repro.sequences.genome import Genome


def build_index_with_genasm(
    genome: Genome,
    k: int = 15,
    *,
    max_occurrences: int = DEFAULT_MAX_OCCURRENCES,
) -> KmerIndex:
    """Build a :class:`KmerIndex` using Bitap exact search for locations.

    Each distinct k-mer of the genome is searched with the k = 0 (exact)
    Bitap scan; the reported start locations become the table entry. On
    hardware each distinct seed would be one GenASM-DC task; here the scans
    run sequentially.
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

    def located() -> Iterator[tuple[str, list[int]]]:
        for seed in distinct:
            if wildcard and wildcard in seed:
                continue  # not indexed (KmerIndex drops it): skip the scan
            matches = bitap_scan(sequence, seed, 0, alphabet=genome.alphabet)
            yield seed, sorted(match.start for match in matches)

    return KmerIndex.from_seed_positions(
        k,
        located(),
        genome_length=len(genome),
        alphabet=genome.alphabet,
        max_occurrences=max_occurrences,
    )
