"""GenASM as a pre-alignment filter (Sections 8 and 10.3).

In the pre-alignment filtering step of short-read mapping, candidate
(read, reference-region) pairs from seeding are tested for similarity before
paying for full alignment. GenASM-DC alone suffices: it computes the actual
semi-global edit distance (not an approximation like Shouji's), and the pair
is accepted only if that distance is within the user-defined threshold.

Because Bitap matching is semi-global, a deletion at the first pattern
position is absorbed by the free text prefix — the paper's footnote 4 — so
the filter's distance can be one lower than the true global edit distance.
The consequences match the paper: a near-zero (but non-zero) false-accept
rate and an exactly-zero false-reject rate — for references with slack past
the read, as mapping candidates have (:class:`GenAsmFilter` says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engine.registry import get_engine
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.registry import AlignmentEngine


@dataclass(frozen=True)
class FilterDecision:
    """Outcome for one candidate pair.

    ``distance`` is the filter's computed semi-global edit distance, or
    ``None`` when it exceeds the threshold (the scan stops at ``k``).
    """

    accepted: bool
    distance: int | None


class GenAsmFilter:
    """Edit-distance pre-alignment filter backed by GenASM-DC.

    Parameters
    ----------
    threshold:
        Maximum number of edits for a pair to be considered similar — the
        ``E`` of the ASM problem statement (Section 2.2).
    engine:
        Compute backend for the Bitap scans (instance, registered name, or
        None for the process default). All backends are bit-identical.

    The scan, like GenASM-DC, starts every ``R[d]`` all-ones, so it never
    places an insertion after the last text character: ``"A"`` vs ``"AC"``
    scores 2 (the semi-global optimum is 1) and ``GenAsmFilter(1)`` rejects
    that pair. Mapping candidates carry ``k`` characters of slack past the
    read and never meet this; a reference no longer than its read can.
    """

    def __init__(
        self,
        threshold: int,
        *,
        alphabet: Alphabet = DNA,
        engine: "AlignmentEngine | str | None" = None,
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.alphabet = alphabet
        self.engine = get_engine(engine)

    def decide(self, reference: str, read: str) -> FilterDecision:
        """Compute the filter distance and the accept/reject decision."""
        return self.decide_batch([(reference, read)])[0]

    def decide_batch(
        self, pairs: Sequence[tuple[str, str]]
    ) -> list[FilterDecision]:
        """Decide every (reference, read) pair, batching the Bitap scans."""
        decisions, scan_indices, scan_pairs = self._split_trivial(
            pairs,
            empty_read=FilterDecision(accepted=True, distance=0),
            empty_reference=FilterDecision(accepted=False, distance=None),
        )
        if scan_pairs:
            distances = self.engine.edit_distance_batch(
                scan_pairs, self.threshold, alphabet=self.alphabet
            )
            for i, distance in zip(scan_indices, distances):
                decisions[i] = FilterDecision(
                    accepted=distance is not None, distance=distance
                )
        return decisions

    def accepts(self, reference: str, read: str) -> bool:
        """True when the pair should proceed to full read alignment."""
        return self.accepts_batch([(reference, read)])[0]

    def accepts_batch(self, pairs: Sequence[tuple[str, str]]) -> list[bool]:
        """Accept/reject every pair; cheaper than :meth:`decide_batch`.

        Any single location within the threshold accepts a pair, so the
        scan stops at each pair's first match instead of computing the true
        minimum distance across all locations.
        """
        verdicts, scan_indices, scan_pairs = self._split_trivial(
            pairs, empty_read=True, empty_reference=False
        )
        if scan_pairs:
            scans = self.engine.scan_batch(
                scan_pairs,
                self.threshold,
                alphabet=self.alphabet,
                first_match_only=True,
            )
            for i, matches in zip(scan_indices, scans):
                verdicts[i] = bool(matches)
        return verdicts

    @staticmethod
    def _split_trivial(
        pairs: Sequence[tuple[str, str]], *, empty_read, empty_reference
    ) -> tuple[list, list[int], list[tuple[str, str]]]:
        """Settle degenerate pairs up front; route the rest to a scan.

        An empty read is trivially similar (``empty_read`` result) and an
        empty reference can match nothing (``empty_reference`` result) —
        the precedence the scalar filter always had. Returns the partially
        filled result list plus the indices and pairs still needing a scan.
        """
        results: list = [None] * len(pairs)
        scan_indices: list[int] = []
        scan_pairs: list[tuple[str, str]] = []
        for i, (reference, read) in enumerate(pairs):
            if not read:
                results[i] = empty_read
            elif not reference:
                results[i] = empty_reference
            else:
                scan_indices.append(i)
                scan_pairs.append((reference, read))
        return results, scan_indices, scan_pairs

    def filter_pairs(
        self, pairs: list[tuple[str, str]]
    ) -> list[FilterDecision]:
        """Batched convenience for experiment drivers."""
        return self.decide_batch(pairs)
