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
