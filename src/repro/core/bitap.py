"""Baseline Bitap algorithm (Algorithm 1 of the paper).

Bitap computes the minimum edit distance between a reference *text* and a
query *pattern* with at most ``k`` errors, using only shifts, ORs and ANDs.
The text is scanned from its last character to its first; when the most
significant bit of status bitvector ``R[d]`` becomes 0 at text iteration
``i``, the pattern matches a region *starting* at text position ``i`` with at
most ``d`` edits (semi-global matching: text outside the matched region is
free).

:func:`bitap_scan` is the one pure scan. It works on Python integers, so it
takes patterns of any length: an integer is already a chain of words, which
is GenASM's "long read support" (Section 5). The word-chained version of the
same recurrence, with carries passed between 64-bit words, is the C kernel's
``dc_sweep`` (``core/_native.c``); the native parity suites pin it to
:func:`bitap_scan` for patterns longer than one word.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sequences.alphabet import DNA, Alphabet


@dataclass(frozen=True)
class BitapMatch:
    """A semi-global match: pattern found at ``text[start:]`` with ``distance`` edits."""

    start: int
    distance: int


def pattern_bitmasks(pattern: str, alphabet: Alphabet = DNA) -> dict[str, int]:
    """Pre-process the pattern into per-symbol bitmasks (Algorithm 1 line 4).

    Bit ``m-1-j`` of ``PM[a]`` is 0 iff ``pattern[j] == a``; all other bits
    are 1 ("0 means match in the Bitap algorithm"). The MSB therefore
    corresponds to the first pattern character, matching Figure 3 where
    pattern ``CTGA`` yields ``PM(C) = 0111``.
    """
    m = len(pattern)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    all_ones = (1 << m) - 1
    masks = {symbol: all_ones for symbol in alphabet.symbols}
    for j, ch in enumerate(pattern):
        if ch not in masks:
            if ch == alphabet.wildcard:
                continue  # wildcard in pattern matches nothing: leave 1s
            raise ValueError(f"pattern symbol {ch!r} not in alphabet")
        masks[ch] &= ~(1 << (m - 1 - j)) & all_ones
    if alphabet.wildcard is not None:
        masks[alphabet.wildcard] = all_ones  # wildcard in text matches nothing
    return masks


def bitap_scan(
    text: str,
    pattern: str,
    k: int,
    *,
    alphabet: Alphabet = DNA,
    first_match_only: bool = False,
) -> list[BitapMatch]:
    """Run Algorithm 1, returning every (start, distance) match found.

    For each text position where some ``R[d]`` has MSB 0, the *smallest* such
    ``d`` is reported. Matches are returned in scan order, i.e. from the end
    of the text toward the start, as the algorithm discovers them.

    Parameters
    ----------
    k:
        Edit distance threshold; ``k = 0`` finds exact matches.
    first_match_only:
        Stop at the first (right-most) match; used by the pre-alignment
        filter where any location within threshold accepts the pair.
    """
    if k < 0:
        raise ValueError("edit distance threshold k must be non-negative")
    m = len(pattern)
    n = len(text)
    masks = pattern_bitmasks(pattern, alphabet)
    all_ones = (1 << m) - 1
    msb_mask = 1 << (m - 1)

    # R[m] has MSB 0 after the first text character (m insertions spell any
    # pattern), so rows above m can never be the smallest matching distance.
    k = min(k, m)
    r = [all_ones] * (k + 1)
    matches: list[BitapMatch] = []
    for i in range(n - 1, -1, -1):
        cur_pm = masks.get(text[i], all_ones)
        old_r = r
        r = [0] * (k + 1)
        r[0] = ((old_r[0] << 1) | cur_pm) & all_ones
        for d in range(1, k + 1):
            deletion = old_r[d - 1]
            substitution = (old_r[d - 1] << 1) & all_ones
            insertion = (r[d - 1] << 1) & all_ones
            match = ((old_r[d] << 1) | cur_pm) & all_ones
            r[d] = deletion & substitution & insertion & match
        for d in range(k + 1):
            if not r[d] & msb_mask:
                matches.append(BitapMatch(start=i, distance=d))
                break
        if matches and first_match_only:
            break
    return matches


def bitap_edit_distance(
    text: str,
    pattern: str,
    k: int,
    *,
    alphabet: Alphabet = DNA,
) -> int | None:
    """Minimum semi-global edit distance of ``pattern`` within ``text``.

    Returns ``None`` if no match exists within ``k`` errors. This is the
    quantity the GenASM pre-alignment filter thresholds (Section 10.3); note
    the paper's documented quirk that a deletion at the first pattern
    position is absorbed by the free text prefix, so the result can be one
    lower than the true global edit distance.
    """
    matches = bitap_scan(text, pattern, k, alphabet=alphabet)
    if not matches:
        return None
    return min(match.distance for match in matches)

