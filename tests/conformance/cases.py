"""The shared conformance corpus: one list of cases, every backend.

With four backends computing the same alignment (pure / batched / native /
sharded) correctness rests on bit-identical parity, so the corpus
concentrates every input class that has ever differed between
implementations of bitvector ASM kernels:

* degenerate strings (empty text, single bases, pattern == text);
* threshold extremes (``k = 0``, ``k >= m``, hopeless pairs);
* ambiguous ``N`` bases in the text, the pattern, and both;
* repeat structure (homopolymers, tandem repeats) that stresses traceback
  priority ordering;
* indel-heavy pairs where the read overhangs or underfills the region;
* pattern lengths straddling the window machinery's boundaries — the
  ``W = 64`` window, the ``W - O = 40`` consume limit, and the 64-bit
  machine word the batched backend packs into;
* realistic mapping shapes from 1 bp up to 10 kbp reads.

Cases are deterministic (fixed seed) so every backend sees byte-identical
inputs in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sequences.mutate import MutationProfile, mutate


@dataclass(frozen=True)
class ConformanceCase:
    """One (text, pattern, k) probe with a stable name for test IDs."""

    name: str
    text: str
    pattern: str
    k: int

    def __str__(self) -> str:  # pragma: no cover - test IDs only
        return self.name


def _dna(length: int, rng: random.Random) -> str:
    return "".join(rng.choice("ACGT") for _ in range(length))


def _mutated_pair(
    name: str,
    length: int,
    error_rate: float,
    rng: random.Random,
    *,
    pad: int | None = None,
) -> ConformanceCase:
    """A mapping-shaped case: region of ``m + k`` and a mutated read."""
    k = pad if pad is not None else max(8, int(length * error_rate))
    region = _dna(length + k, rng)
    read = mutate(
        region[:length], MutationProfile(error_rate=error_rate), rng=rng
    ).sequence
    return ConformanceCase(name, region, read, k)


def build_corpus() -> list[ConformanceCase]:
    rng = random.Random(0xC0DE)
    cases = [
        # --- degenerate strings ----------------------------------------
        ConformanceCase("empty_text", "", "ACGT", 2),
        ConformanceCase("single_base_match", "A", "A", 0),
        ConformanceCase("single_base_mismatch", "A", "T", 1),
        ConformanceCase("single_base_reject", "A", "T", 0),
        ConformanceCase("pattern_equals_text", "ACGTACGT", "ACGTACGT", 3),
        ConformanceCase("pattern_longer_than_text", "ACG", "ACGTACGT", 8),
        # --- threshold extremes ----------------------------------------
        ConformanceCase("k_zero_exact", "TTACGTACGTTT", "ACGTACGT", 0),
        ConformanceCase("k_zero_near_miss", "TTACGTACGTTT", "ACGAACGT", 0),
        ConformanceCase("k_equals_m", "GGGGCCCCGGGG", "ACGT", 4),
        ConformanceCase("k_exceeds_m", "GGGGCCCCGGGG", "ACGT", 9),
        ConformanceCase("hopeless_pair", "A" * 24, "T" * 12, 4),
        # --- ambiguous bases -------------------------------------------
        ConformanceCase("n_in_text", "ACGTNNACGTACGT", "ACGTACGT", 3),
        ConformanceCase("n_in_pattern", "ACGTACGTACGT", "ACGNACGT", 3),
        ConformanceCase("n_in_both", "ACNTACGTNCGT", "ANGTACGT", 4),
        ConformanceCase("all_n_pattern", "ACGTACGTACGT", "NNNN", 4),
        # --- repeat structure ------------------------------------------
        ConformanceCase("homopolymer", "A" * 40, "A" * 25, 4),
        ConformanceCase(
            "homopolymer_indel", "A" * 40, "A" * 12 + "T" + "A" * 12, 4
        ),
        ConformanceCase("tandem_repeat", "ACAC" * 12, "CACA" * 6, 5),
        ConformanceCase("dinucleotide_shift", "ATATATATATAT", "TATATATA", 3),
    ]
    # --- indel-heavy pairs ---------------------------------------------
    base = _dna(60, rng)
    cases += [
        ConformanceCase(
            "deletion_heavy", base, base[:18] + base[30:52], 14
        ),
        ConformanceCase(
            "insertion_heavy",
            base[:40],
            base[:20] + _dna(10, rng) + base[20:40],
            12,
        ),
    ]
    # --- window / word boundary lengths --------------------------------
    # W - O = 40 is the per-window consume limit, W = 64 the window and
    # the batched backend's packing word, 128 the two-word boundary.
    for length in (39, 40, 41, 63, 64, 65, 128):
        cases.append(
            _mutated_pair(f"boundary_{length}bp", length, 0.06, rng)
        )
    # --- realistic mapping shapes --------------------------------------
    cases += [
        _mutated_pair("short_read_100bp", 100, 0.05, rng),
        _mutated_pair("noisy_read_250bp", 250, 0.15, rng),
        _mutated_pair("long_read_1kbp", 1_000, 0.10, rng),
        # The paper's long-read shape; pad (= scan k) kept small so the
        # full backend matrix stays test-suite fast —
        # scan cost scales with k, align cost does not.
        _mutated_pair("long_read_10kbp", 10_000, 0.08, rng, pad=24),
    ]
    return cases


#: The corpus, materialized once per test session.
CORPUS: list[ConformanceCase] = build_corpus()

#: Cases legal for Bitap scans (the kernels reject empty patterns).
SCAN_CORPUS = [case for case in CORPUS if case.pattern]

#: Cases worth running through the full windowed aligner. Scanning 10 kbp
#: patterns at k ~ 800 would dominate suite runtime for no extra coverage,
#: so align cases keep their (already window-stressing) sizes but the scan
#: corpus carries the large-k work.
ALIGN_CORPUS = CORPUS


# ----------------------------------------------------------------------
# The filter's pigeonhole edge
# ----------------------------------------------------------------------

#: Pattern lengths for the pigeonhole cases: around each 64-bit word
#: boundary, a read, and five words; ``m = k + 1`` (one symbol a piece) is
#: added per threshold.
PIGEONHOLE_LENGTHS = (63, 64, 65, 100, 128, 129, 257)


def piece_bounds(m: int, k: int) -> list[int]:
    """The pieces pass's cut of an ``m``-symbol pattern at threshold ``k``:
    ``min(k, m) + 1`` contiguous pieces, piece ``j`` the symbols
    ``bounds[j]:bounds[j + 1]``. An alignment within ``k`` edits leaves one
    piece untouched, so that piece occurs exactly in the text."""
    cap = min(k, m)
    return [j * m // (cap + 1) for j in range(cap + 2)]


def word_edge_thresholds(m: int) -> list[int]:
    """The smallest threshold up to 64 whose cut ends a piece at pattern
    position ``m - 65``: that piece's last symbol is bit 64 of the masks,
    the first bit of the second word (none when no such threshold)."""
    return [
        k for k in range(1, min(65, m))
        if m - 64 in piece_bounds(m, k)[1:-1]
    ][:1]


def _edited(pattern: str, positions: list[int], kind: str) -> tuple[str, str]:
    """(text core, pattern) with one edit of ``kind`` at each position of a
    pattern over ACG: ``S`` turns the symbol to T in the text, ``D`` drops
    it from the text, ``I`` puts a T into the text before it, ``Nt`` turns
    it to the wildcard in the text and ``Np`` in the pattern. No symbol
    meets the wildcard or T by chance, so each edit costs one."""
    text, edited = list(pattern), list(pattern)
    for position in positions:
        if kind == "S":
            text[position] = "T"
        elif kind == "D":
            text[position] = ""
        elif kind == "I":
            text[position] = "T" + text[position]
        elif kind == "Nt":
            text[position] = "N"
        else:
            edited[position] = "N"
    return "".join(text), "".join(edited)


def _edit_positions(bounds: list[int], survivor: int, kind: str) -> list[int]:
    """One edit a piece but the survivor, on the survivor's side of it: a
    piece before it loses its last symbol, one after it its first (an
    insertion goes one symbol further in, to stay inside a piece of two)."""
    positions = []
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if j < survivor:
            positions.append(hi - 1)  # an insertion lands before it
        elif j > survivor:
            positions.append(lo + 1 if kind == "I" and hi - lo > 1 else lo)
    return positions


def build_pigeonhole_cases() -> list[ConformanceCase]:
    """Pairs at exactly ``k`` edits, one in every piece but a survivor, and
    at ``k + 1``, one in every piece.

    The edits sit next to the survivor, so a pieces pass whose surviving
    piece reaches one symbol too far misses it. The survivor is the first
    piece, the last, and the one holding bit 64 of the pattern's masks: it
    holds bit 63 too, or, at a threshold from :func:`word_edge_thresholds`,
    starts the second word. The flanks are T, or the wildcard for the ``N``
    kinds. The DP decides what a filter must accept."""
    rng = random.Random(0x9160)
    cases = []
    shapes = [(k + 1, k) for k in (1, 5)]
    for m in PIGEONHOLE_LENGTHS:
        shapes += [(m, k) for k in sorted({1, 5, *word_edge_thresholds(m)})]
    for m, k in shapes:
        pattern = "".join(rng.choice("ACG") for _ in range(m))
        bounds = piece_bounds(m, k)
        last = len(bounds) - 2
        survivors = {0, last}
        for j in range(last + 1):
            if bounds[j] <= m - 65 < bounds[j + 1]:
                survivors.add(j)  # bits 64 and 63, or it ends on bit 64
        for survivor in sorted(survivors):
            kinds = ["S", "I", "D"] + (["Nt", "Np"] if survivor == 0 else [])
            variants = [
                (kind, _edit_positions(bounds, survivor, kind), "k")
                for kind in kinds
            ]
            middle = (bounds[survivor] + bounds[survivor + 1]) // 2
            variants.append((
                "S",
                sorted(_edit_positions(bounds, survivor, "S") + [middle]),
                "k+1",
            ))
            for kind, positions, edits in variants:
                core, edited = _edited(pattern, positions, kind)
                flank = "NNN" if kind.startswith("N") else "TTT"
                cases.append(ConformanceCase(
                    f"pieces_m{m}_k{k}_survivor{survivor}_{kind}_{edits}",
                    flank + core + flank, edited, k,
                ))
    return cases


#: The pigeonhole cases, materialized once per test session.
PIGEONHOLE_CASES: list[ConformanceCase] = build_pigeonhole_cases()
