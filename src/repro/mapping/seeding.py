"""Seeding: candidate mapping locations from index queries (Figure 1, step 1).

"The seeding process queries the index structure to determine the candidate
(i.e., potential) mapping locations of each read in the reference genome
using substrings (i.e., seeds) from each read."

Seeds extracted from the read vote for the *diagonal* (reference position
minus read offset) they imply; nearby diagonals are clustered and each
cluster becomes one candidate location, ranked by vote count. Sequencing
errors knock out individual seeds but similar regions still accumulate
multiple votes — the FastHASH-style heuristic real mappers use.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.core import kernels
from repro.mapping.index import KmerIndex

#: Diagonals within this distance merge into one candidate by default.
DIAGONAL_TOLERANCE = 8


@dataclass(frozen=True)
class CandidateLocation:
    """One candidate mapping location for a read.

    ``position`` is where the read would start in the reference; ``votes``
    counts the supporting seeds (more votes = more promising candidate).
    """

    position: int
    votes: int


def extract_seeds(read: str, k: int, stride: int | None = None) -> list[tuple[int, str]]:
    """(offset, seed) pairs sampled along the read.

    The default stride of ``k`` gives non-overlapping seeds — enough for
    voting while keeping index pressure low, as real seeding does.
    """
    if k <= 0:
        raise ValueError("seed length must be positive")
    if stride is None:
        stride = k
    if stride <= 0:
        raise ValueError("stride must be positive")
    return [
        (offset, read[offset : offset + k])
        for offset in range(0, max(0, len(read) - k + 1), stride)
    ]


def candidate_locations_batch(
    reads: Sequence[str],
    index: KmerIndex,
    *,
    max_candidates: int = 16,
    diagonal_tolerance: int = DIAGONAL_TOLERANCE,
    stride: int | None = None,
) -> tuple[list[int], list[int], list[int]]:
    """Seed every read; cluster diagonal votes into candidate locations.

    Returns three parallel lists, one entry per candidate: the index of its
    read in ``reads``, its position and its votes — reads in input order,
    each read's candidates ranked best first (most votes, then leftmost). A
    read shorter than ``index.k`` has none. All reads are encoded once and
    seeded in one C call when ``repro.core._native`` is built; otherwise by
    the pure-Python loop below, which the parity suite pins it to.

    Parameters
    ----------
    max_candidates:
        Keep only the best-voted candidates of each read (mappers bound
        downstream work).
    diagonal_tolerance:
        Diagonals within this distance merge into one cluster, absorbing
        small indel-induced shifts between seeds of the same alignment.
    stride:
        Distance between seed offsets; ``index.k`` (no overlap) by default.
    """
    if stride is None:
        stride = index.k
    if stride <= 0:
        raise ValueError("stride must be positive")
    if max_candidates < 0 or diagonal_tolerance < 0:
        raise ValueError(
            "max_candidates and diagonal_tolerance must be non-negative"
        )
    seeded = kernels.native_seed_many(
        reads,
        index,
        stride=stride,
        max_candidates=max_candidates,
        diagonal_tolerance=diagonal_tolerance,
    )
    if seeded is not None:
        return seeded
    read_ids: list[int] = []
    positions: list[int] = []
    votes: list[int] = []
    for read_id, read in enumerate(reads):
        ranked = _ranked_clusters(read, index, stride, diagonal_tolerance)
        for position, count in ranked[:max_candidates]:
            read_ids.append(read_id)
            positions.append(position)
            votes.append(count)
    return read_ids, positions, votes


def candidate_locations(
    read: str,
    index: KmerIndex,
    *,
    max_candidates: int = 16,
    diagonal_tolerance: int = DIAGONAL_TOLERANCE,
    stride: int | None = None,
) -> list[CandidateLocation]:
    """:func:`candidate_locations_batch` for one read."""
    _, positions, votes = candidate_locations_batch(
        [read],
        index,
        max_candidates=max_candidates,
        diagonal_tolerance=diagonal_tolerance,
        stride=stride,
    )
    return [
        CandidateLocation(position=position, votes=count)
        for position, count in zip(positions, votes)
    ]


def _ranked_clusters(
    read: str, index: KmerIndex, stride: int, diagonal_tolerance: int
) -> list[tuple[int, int]]:
    """One read's ``(position, votes)`` clusters, best first (pure reference)."""
    votes: dict[int, int] = defaultdict(int)
    for offset, seed in extract_seeds(read, index.k, stride):
        for position in index.lookup(seed):
            votes[position - offset] += 1
    if not votes:
        return []

    # Cluster nearby diagonals: scan sorted diagonals and merge runs.
    clusters: list[tuple[int, int]] = []  # (position, votes)
    current_diag: int | None = None
    current_votes = 0
    best_diag = 0
    best_count = -1
    for diagonal in sorted(votes):
        if current_diag is not None and diagonal - current_diag <= diagonal_tolerance:
            current_votes += votes[diagonal]
            if votes[diagonal] > best_count:
                best_count = votes[diagonal]
                best_diag = diagonal
        else:
            if current_diag is not None:
                clusters.append((max(0, best_diag), current_votes))
            current_votes = votes[diagonal]
            best_diag = diagonal
            best_count = votes[diagonal]
        current_diag = diagonal
    clusters.append((max(0, best_diag), current_votes))

    clusters.sort(key=lambda cluster: (-cluster[1], cluster[0]))
    return clusters
