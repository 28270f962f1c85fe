"""GenASM as a pre-alignment filter (Sections 8 and 10.3).

In the pre-alignment filtering step of short-read mapping, candidate
(read, reference-region) pairs from seeding are tested for similarity before
paying for full alignment. GenASM-DC alone suffices: it computes the actual
semi-global edit distance (not an approximation like Shouji's), and the pair
is accepted only if that distance is within the user-defined threshold.
That is the only question the filter asks, so it asks it of
``edit_distance_batch``, whose native kernel computes distance rows in
increasing ``d`` and stops at the first one that hits anywhere (early
termination, after Scrooge): a candidate at distance 5 under threshold 10
costs six rows, not eleven.

Most candidates a filter sees are dissimilar, and for those the native
kernel answers before any distance row: it cuts the read into ``k + 1``
contiguous pieces and looks for each, exactly, in one pass over the
reference (row 0's Shift-And with every piece restarted at its own start
bit). If the read aligns within ``d <= k`` edits, one piece holds none of
them — a substitution or a deleted read symbol falls in one piece, an
inserted reference symbol in at most one — so that piece occurs exactly
(the pigeonhole principle; Shouji estimates, this cannot err). A pair with
no piece in its reference has no distance up to ``k`` and is rejected
there. No verdict changes: the pass only rejects pairs the rows would
reject. That includes GenASM-DC's one departure from the semi-global
optimum, the missing insertion after the last text character (see
:class:`GenAsmFilter`): there the DC distance is only *higher* than the
optimum, so a pair the rows accept still has an alignment within ``k``
edits, and one of its pieces still occurs. The pure and batched backends
have no such pass and reach the same answers row by row. On
``prefilter_pairs`` the pass answers about half of all pairs, 93.5 % of
the rejections.

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
        Compute backend for the distance batches (instance, registered name, or
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
        self._decided: dict[int | None, FilterDecision] = {}

    def decide(self, reference: str, read: str) -> FilterDecision:
        """Compute the filter distance and the accept/reject decision."""
        return self.decide_batch([(reference, read)])[0]

    def decide_batch(
        self, pairs: Sequence[tuple[str, str]]
    ) -> list[FilterDecision]:
        """Decide every (reference, read) pair with one distance batch.

        An empty read is trivially similar (distance 0) and an empty
        reference can match nothing (no distance) — the precedence the
        scalar filter always had; every other pair goes to the engine's
        ``edit_distance_batch``. A decision depends on the distance alone,
        so each distinct one is built once and shared (it is frozen).
        """
        distances: list[int | None] = [0 if not read else None for _, read in pairs]
        scan_indices = [
            i for i, (reference, read) in enumerate(pairs) if reference and read
        ]
        if scan_indices:
            found = self.engine.edit_distance_batch(
                [pairs[i] for i in scan_indices],
                self.threshold,
                alphabet=self.alphabet,
            )
            for i, distance in zip(scan_indices, found):
                distances[i] = distance
        decided = self._decided
        return [
            decided.get(distance) or decided.setdefault(
                distance, FilterDecision(distance is not None, distance)
            )
            for distance in distances
        ]

    def accepts(self, reference: str, read: str) -> bool:
        """True when the pair should proceed to full read alignment."""
        return self.accepts_batch([(reference, read)])[0]

    def accepts_batch(self, pairs: Sequence[tuple[str, str]]) -> list[bool]:
        """Accept/reject every pair: :meth:`decide_batch`'s verdicts.

        A location within the threshold exists exactly when the smallest
        distance is within it, so one question serves both methods. The
        native engine answers it with early termination: each pair stops
        at its first hitting distance row. The distances map straight to
        verdicts; only a batch with an empty side goes through
        :meth:`decide_batch` for its precedence.
        """
        if not all(reference and read for reference, read in pairs):
            return [decision.accepted for decision in self.decide_batch(pairs)]
        return [
            distance is not None
            for distance in self.engine.edit_distance_batch(
                pairs, self.threshold, alphabet=self.alphabet
            )
        ]
