"""The GenASM aligner: divide-and-conquer DC + TB (Sections 4 and 6).

This is the paper's full execution loop (Figure 4 steps 3-7): the reference
region and query are processed in overlapping windows of ``W`` characters;
GenASM-DC generates each window's bitvectors, GenASM-TB consumes at most
``W - O`` characters of either sequence from them, and the per-window partial
traceback outputs are merged into the final CIGAR. The defaults
``W = 64, O = 24`` are the configuration the paper found optimal for both
performance and accuracy (Section 10.2).

Alignment semantics are *glocal*: the whole pattern is aligned, anchored at
the start of the given text region, with trailing text free. Read mapping
supplies a text region of length ``m + k`` starting at the candidate mapping
location, exactly as Section 6 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.cigar import Cigar
from repro.core.scoring import ScoringScheme, TracebackConfig
from repro.engine.registry import get_engine
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.registry import AlignmentEngine

#: Window size the paper uses throughout the evaluation.
DEFAULT_WINDOW_SIZE = 64
#: Window overlap the paper uses ("the optimum (W, O) setting ... W=64, O=24").
DEFAULT_OVERLAP = 24


@dataclass(slots=True)
class Alignment:
    """A completed GenASM alignment.

    A slotted value record, not a frozen one: nothing assigns to an
    alignment after it is built, and a mapper builds one per mapped read.
    ``frozen=True`` sets every field through ``object.__setattr__``; on
    CPython 3.11 that made a 7-field record cost 1.62 us to build against
    0.28 us slotted.

    Attributes
    ----------
    cigar:
        The merged traceback output.
    edit_distance:
        Total edits in the alignment (``cigar.edit_distance``).
    text_start:
        Offset within the supplied text where the alignment begins (non-zero
        only when the aligner was asked to locate the match first).
    text_consumed:
        Reference characters covered by the alignment from ``text_start``.
    """

    cigar: Cigar
    edit_distance: int
    text_start: int
    text_consumed: int

    @classmethod
    def from_ops(cls, ops: str, text_consumed: int) -> "Alignment":
        """The alignment anchored at ``text[0]`` that ``ops`` spells out."""
        cigar = Cigar(ops)
        return cls(cigar, cigar.edit_distance, 0, text_consumed)

    def score(self, scheme: ScoringScheme) -> int:
        """Alignment score under ``scheme`` (used by the accuracy analysis)."""
        return self.cigar.score(scheme)


class GenAsmAligner:
    """Windowed GenASM aligner with configurable traceback priorities.

    Parameters
    ----------
    window_size, overlap:
        ``W`` and ``O`` of Algorithm 2. ``W - O`` characters are consumed
        per window; the remaining ``O`` are recomputed by the next window so
        the merged output stays accurate across window boundaries.
    config:
        Traceback priority order (affine-gap mimicry by default); build one
        from a scoring scheme with :meth:`TracebackConfig.from_scoring`.
    engine:
        Compute backend for the DC bitvector generation and Bitap scans — an
        :class:`~repro.engine.registry.AlignmentEngine` instance, a
        registered backend name (``"pure"``, ``"batched"``), or None for
        the process default (see :func:`repro.engine.get_engine`). Every
        backend is bit-identical; they differ only in throughput.
    """

    def __init__(
        self,
        *,
        window_size: int = DEFAULT_WINDOW_SIZE,
        overlap: int = DEFAULT_OVERLAP,
        config: TracebackConfig | None = None,
        alphabet: Alphabet = DNA,
        engine: "AlignmentEngine | str | None" = None,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0 <= overlap < window_size:
            raise ValueError("overlap must satisfy 0 <= O < W")
        self.window_size = window_size
        self.overlap = overlap
        self.config = config if config is not None else TracebackConfig()
        self.alphabet = alphabet
        self.engine = get_engine(engine)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def align(self, text: str, pattern: str) -> Alignment:
        """Align ``pattern`` against ``text``, anchored at ``text[0]``.

        The text should be the candidate reference region (length about
        ``m + k``); the full pattern is always consumed — if the text runs
        out first, the remaining pattern characters become insertions.
        """
        return self.align_batch([(text, pattern)])[0]

    def align_batch(
        self, pairs: Sequence[tuple[str, str]]
    ) -> list[Alignment]:
        """Align many (text, pattern) pairs through the engine.

        The windowed DC + TB loop lives on the engine
        (:meth:`AlignmentEngine.align_batch`): in-process backends run the
        lock-step window loop, ``"native"`` runs one C call per batch and
        ``"sharded"`` fans whole pairs out to its threads. Output is
        bit-identical on every backend, in input order.
        """
        return self.engine.align_batch(
            pairs,
            alphabet=self.alphabet,
            window_size=self.window_size,
            overlap=self.overlap,
            config=self.config,
        )

    def align_located(
        self, text: str, pattern: str, k: int
    ) -> Alignment | None:
        """Locate the best match with DC, then trace it back (Section 4).

        Runs a full Bitap scan to find the start location with the minimum
        edit distance (GenASM-DC's "distance calculation" role), then aligns
        the pattern against the ``m + k``-long region starting there.
        Returns None when no location matches within ``k`` edits.
        """
        matches = self.engine.scan_batch(
            [(text, pattern)], k, alphabet=self.alphabet
        )[0]
        if not matches:
            return None
        best = min(matches, key=lambda match: (match.distance, match.start))
        region = text[best.start : best.start + len(pattern) + k]
        aligned = self.align(region, pattern)
        return Alignment(
            cigar=aligned.cigar,
            edit_distance=aligned.edit_distance,
            text_start=best.start,
            text_consumed=aligned.text_consumed,
        )


def genasm_align(
    text: str,
    pattern: str,
    *,
    window_size: int = DEFAULT_WINDOW_SIZE,
    overlap: int = DEFAULT_OVERLAP,
    scoring: ScoringScheme | None = None,
    alphabet: Alphabet = DNA,
    engine: "AlignmentEngine | str | None" = None,
) -> Alignment:
    """One-shot convenience wrapper around :class:`GenAsmAligner`.

    When ``scoring`` is given, the traceback priority order is derived from
    it (Section 6's partial support for complex scoring schemes).
    """
    config = TracebackConfig.from_scoring(scoring) if scoring else None
    aligner = GenAsmAligner(
        window_size=window_size,
        overlap=overlap,
        config=config,
        alphabet=alphabet,
        engine=engine,
    )
    return aligner.align(text, pattern)
