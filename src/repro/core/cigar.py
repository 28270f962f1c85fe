"""CIGAR strings: the traceback output format (Sections 2.1 and 6).

The optimal alignment is "defined using a CIGAR string, which shows the
sequence and position of each match, substitution, insertion, and deletion
for the read with respect to the selected mapping location of the reference."

Internally GenASM-TB emits one operation character per step; :class:`Cigar`
stores that expanded form and renders the run-length-encoded string. We use
``M`` (match), ``S`` (substitution — rendered ``X`` in SAM extended CIGAR),
``I`` (read character absent from the reference), ``D`` (reference character
absent from the read).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.scoring import ScoringScheme

_VALID_OPS = frozenset("MSID")
_CIGAR_TOKEN = re.compile(r"(\d+)([MSIDX=])")
_RUN = re.compile(r"M+|S+|I+|D+")
_GAP_RUN = re.compile(r"I+|D+")

#: SAM extended-CIGAR spelling of our internal op codes.
_SAM_OP = {"M": "=", "S": "X", "I": "I", "D": "D"}
_FROM_SAM_OP = {"=": "M", "X": "S", "M": "M", "S": "S", "I": "I", "D": "D"}
# Cigar.from_kernel builds a frozen instance without running __init__;
# bound once, as each lookup on ``object`` costs a mapped read ~0.05 us.
_new = object.__new__
_set_field = object.__setattr__


@dataclass(frozen=True)
class Cigar:
    """An alignment transcript as a sequence of per-character operations."""

    ops: str

    def __post_init__(self) -> None:
        # Deleting every valid op byte leaves nothing: one C pass.
        try:
            valid = not self.ops.encode("ascii").translate(None, b"MSID")
        except UnicodeEncodeError:
            valid = False
        if not valid:
            invalid = set(self.ops) - _VALID_OPS
            raise ValueError(f"invalid CIGAR ops: {sorted(invalid)}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "Cigar":
        """Parse a run-length CIGAR like ``"3M1S2M"`` or SAM ``"3=1X2="``."""
        if not text:
            return cls("")
        pos = 0
        expanded: list[str] = []
        for token in _CIGAR_TOKEN.finditer(text):
            if token.start() != pos:
                raise ValueError(f"malformed CIGAR near {text[pos:]!r}")
            count, op = int(token.group(1)), token.group(2)
            expanded.append(_FROM_SAM_OP[op] * count)
            pos = token.end()
        if pos != len(text):
            raise ValueError(f"malformed CIGAR near {text[pos:]!r}")
        return cls("".join(expanded))

    @classmethod
    def from_kernel(cls, ops: str) -> "Cigar":
        """Wrap ops a native kernel wrote, without re-checking them.

        The C traceback (``_native.align_many`` / ``map_many``) writes only
        ``M``, ``S``, ``I`` and ``D``, so ``__post_init__``'s scan would
        only cost time on every mapped read. Any other caller uses
        ``Cigar(ops)``; ``tests/conformance/test_native_batch.py`` pins the
        kernels' op alphabet over the corpus.
        """
        cigar = _new(cls)
        _set_field(cigar, "ops", ops)
        return cigar

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return "".join(f"{count}{op}" for op, count in self.runs())

    def to_sam(self) -> str:
        """Extended-CIGAR rendering with ``=``/``X`` per the SAM spec."""
        return "".join(f"{count}{_SAM_OP[op]}" for op, count in self.runs())

    def runs(self) -> Iterator[tuple[str, int]]:
        """Yield (op, run_length) pairs."""
        for run in _RUN.findall(self.ops):
            yield run[0], len(run)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    @property
    def edit_distance(self) -> int:
        """Number of non-match operations — the alignment's edit count."""
        return len(self.ops) - self.ops.count("M")

    @property
    def matches(self) -> int:
        return self.ops.count("M")

    @property
    def reference_length(self) -> int:
        """Reference characters consumed (M, S, D consume text)."""
        return len(self.ops) - self.ops.count("I")

    @property
    def query_length(self) -> int:
        """Query characters consumed (M, S, I consume pattern)."""
        return len(self.ops) - self.ops.count("D")

    def score(self, scheme: ScoringScheme) -> int:
        """Alignment score under an affine-gap scheme (Section 2.2).

        Each maximal run of I or D is one gap costing
        ``gap_open + length * gap_extend``. Computed from op counts; the
        gap runs are only looked for when the transcript has a gap.
        """
        ops = self.ops
        total = scheme.match * ops.count("M") + scheme.substitution * ops.count("S")
        gapped = ops.count("I") + ops.count("D")
        if gapped:
            total += (
                scheme.gap_open * len(_GAP_RUN.findall(ops))
                + scheme.gap_extend * gapped
            )
        return total

    # ------------------------------------------------------------------
    # Validation against the actual sequences
    # ------------------------------------------------------------------
    def is_valid_for(self, reference: str, query: str) -> bool:
        """Check the transcript is consistent with the two sequences.

        Requires that the CIGAR consumes the full query; the reference may
        have unconsumed trailing characters (semi-global alignment).
        """
        ti = qi = 0
        for op in self.ops:
            if op == "M":
                if ti >= len(reference) or qi >= len(query):
                    return False
                if reference[ti] != query[qi]:
                    return False
                ti, qi = ti + 1, qi + 1
            elif op == "S":
                if ti >= len(reference) or qi >= len(query):
                    return False
                if reference[ti] == query[qi]:
                    return False
                ti, qi = ti + 1, qi + 1
            elif op == "I":
                if qi >= len(query):
                    return False
                qi += 1
            else:  # "D"
                if ti >= len(reference):
                    return False
                ti += 1
        return qi == len(query)

    def concat(self, other: "Cigar") -> "Cigar":
        """Merge two window transcripts (Section 6 window merging)."""
        return Cigar(self.ops + other.ops)


def concat_all(parts: Iterable[Cigar]) -> Cigar:
    """Merge the per-window partial traceback outputs into the full CIGAR."""
    return Cigar("".join(part.ops for part in parts))
