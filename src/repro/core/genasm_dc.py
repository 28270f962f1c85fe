"""GenASM-DC: the modified Bitap kernel (Section 5).

GenASM-DC differs from baseline Bitap in what it *keeps*: besides computing
the status bitvectors ``R[d]``, it preserves per-iteration state that
GenASM-TB later walks. The software keeps one storage discipline, SENE —
*store entries, not edges*, after Scrooge (Lindegger et al., "Algorithmic
Improvement and GPU Acceleration of the GenASM Algorithm"): only the
``R[d]`` history is stored, one bitvector per ``(iteration, distance)``
cell, and the match / substitution / insertion / deletion edges are
re-derived from adjacent ``R`` entries (:class:`WindowData`). That is
``(W+1)·(W+1)·W`` bits per window instead of ``W·3·W·W``.

The MICRO 2020 paper's TB-SRAM layout — match, insertion and deletion
stored explicitly, substitution recovered as ``deletion << 1`` (Section 6)
— is the same history read three ways, so it is not a second window type:
it is hardware accounting, the closed form ``n·3·d·m`` bits per window in
:mod:`repro.hardware.accelerator`.

Every window is a :class:`WindowData`. Its subclasses differ only in where
the ``R`` history lives — :class:`SeneWindowBitvectors` (Python lists),
``kernels.NativeWindow`` (the C kernel's bytes) and
``packing.PackedWindowBitvectors`` (a NumPy view) — so GenASM-TB has one
walk for all of them and every backend stays bit-identical.

Within the divide-and-conquer scheme, DC runs on one *window* at a time: a
sub-text and sub-pattern of at most ``W`` characters each (Algorithm 2 lines
3-5). The traceback starts from the window's text offset 0, so the quantity
a window DC must produce is the minimum ``d`` whose ``R[d]`` has a 0 MSB at
the *final* text iteration (``i = 0``).

The software implementation runs on Python integers and terminates early
(ET, after Scrooge): row 0 is computed over the whole window text, then row
``d`` from the stored row ``d - 1``,

    ``R[d][i] = R[d-1][i+1] & (R[d-1][i+1] << 1) & (R[d-1][i] << 1)
    & ((R[d][i+1] << 1) | PM[text[i]])``

and the pass stops at the first row whose MSB is 0 at iteration 0. A window
therefore costs exactly ``edit_distance + 1`` rows, ``k == edit_distance``
always, and nothing is ever recomputed — the software form of the paper's
Fig. 5 wavefront, where row ``d`` trails row ``d - 1`` by one cycle.

A documented property, not a bug to fix here: every ``R[d]`` starts
all-ones (textbook Bitap starts ``R[d]`` at ``ones << d``), so no insertion
can follow the *last* text character. ``"A"`` vs ``"AC"`` costs 2, not the
semi-global optimum 1. Read mapping never meets this (candidate regions
carry ``k`` characters of slack past the read), but a pre-alignment filter
called on a text no longer than its read can reject a pair within its
threshold (``tests/conformance/test_oracle.py`` pins the case on every
backend). Changing the initial state would change DC semantics in all three
implementations at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.core.bitap import pattern_bitmasks
from repro.sequences.alphabet import DNA, Alphabet


class WindowUnalignableError(RuntimeError):
    """Raised when a window cannot be aligned within ``m`` errors.

    With ``len(sub_text) >= 1`` this cannot happen (an
    all-substitution/insertion chain always exists at ``d = m``); seeing
    this error indicates a bug or an empty window, both worth failing
    loudly over.
    """

    @classmethod
    def no_row_hit(cls, text: str, pattern: str) -> "WindowUnalignableError":
        """The error every backend raises when no row up to ``m`` hits."""
        return cls(
            f"window unalignable within {len(pattern)} errors "
            f"(text {len(text)} chars, pattern {len(pattern)} chars)"
        )


class WindowData(ABC):
    """One GenASM-DC window: its ``R`` history and the edges derived from it.

    Subclasses hold ``text``, ``pattern``, ``edit_distance`` and
    ``alphabet``, and implement only :meth:`r_rows` — where the history
    lives. Everything GenASM-TB and the accounting read is defined here,
    once.

    The edge derivation inverts one recurrence step. With ``old = R`` after
    iteration ``i + 1`` and ``new = R`` after iteration ``i``:

    * ``match[i][d]       = (old[d] << 1) | PM(text[i])``
    * ``deletion[i][d]    = old[d - 1]``
    * ``substitution[i][d] = old[d - 1] << 1``
    * ``insertion[i][d]   = new[d - 1] << 1``

    so every edge GenASM-TB checks is two history reads and a shift away —
    nothing beyond ``R`` itself ever needs storing.
    """

    text: str
    pattern: str
    edit_distance: int
    alphabet: Alphabet = DNA
    _masks: dict[str, int] | None = None

    @abstractmethod
    def r_rows(self, limit: int | None = None) -> list[list[int]]:
        """The ``R`` history as Python ints: ``r_rows()[i][d]`` is ``R[d]``.

        Row ``i`` is the state *after* text iteration ``i`` (iterations run
        from ``n - 1`` down to 0); row ``n`` is the initial all-ones state.
        ``limit`` is a lower bound on how many leading rows the caller needs
        (a consume-limited traceback never reads past it); implementations
        may return more.
        """

    @property
    def k(self) -> int:
        """Distance rows kept above row 0 (early termination: the distance)."""
        return self.edit_distance

    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    @property
    def text_length(self) -> int:
        return len(self.text)

    def _ensure_masks(self) -> dict[str, int]:
        if self._masks is None:
            self._masks = pattern_bitmasks(self.pattern, self.alphabet)
        return self._masks

    def edge_vectors(
        self, text_index: int, distance: int
    ) -> tuple[int, int, int, int]:
        """Whole ``(match, substitution, insertion, deletion)`` bitvectors.

        The cold-path / parity surface; GenASM-TB derives the same vectors
        inline. At ``distance == 0`` the three error vectors read as
        all-ones ("no").
        """
        all_ones = (1 << len(self.pattern)) - 1
        rows = self.r_rows()
        row_after = rows[text_index + 1]
        text_mask = self._ensure_masks().get(self.text[text_index], all_ones)
        match = ((row_after[distance] << 1) | text_mask) & all_ones
        if distance == 0:
            return match, all_ones, all_ones, all_ones
        deletion = row_after[distance - 1]
        insertion = (rows[text_index][distance - 1] << 1) & all_ones
        return match, (deletion << 1) & all_ones, insertion, deletion

    def text_masks(self, limit: int | None = None) -> list[int]:
        """Pattern bitmask per text character (the ``PM`` lookup, batched).

        GenASM-TB materializes this once per window so its inner loop can
        derive match vectors with plain list indexing. ``limit`` is a
        lower bound on how many leading entries the caller needs;
        implementations may return more.
        """
        masks = self._ensure_masks()
        all_ones = (1 << len(self.pattern)) - 1
        text = self.text if limit is None else self.text[:limit]
        return [masks.get(ch, all_ones) for ch in text]

    def stored_bits(self, traceback_columns: int | None = None) -> int:
        """Bits of TB storage under SENE: one vector per (i, d) cell.

        ``(n + 1) * (k + 1)`` stored ``R`` rows of ``m`` bits — the ~3x
        reduction over the paper layout's ``n * 3 * k * m`` edge stores.
        ``traceback_columns`` is DENT (Scrooge): a traceback that consumes
        at most that many text characters (``W - O``) never reads an entry
        past that text iteration, so a TB-SRAM need not keep them —
        ``(min(n, traceback_columns) + 1) * (k + 1)`` rows. (DC itself
        still needs each whole previous row, so software skips no stores;
        this is an accounting of what must outlive DC.)
        """
        columns = self.text_length
        if traceback_columns is not None:
            columns = min(columns, traceback_columns)
        return (columns + 1) * (self.k + 1) * self.pattern_length


@dataclass
class SeneWindowBitvectors(WindowData):
    """A window whose ``R`` history is nested Python lists (the reference).

    ``r[i][d]`` is ``R[d]`` after text iteration ``i``; ``len(r) ==
    text_length + 1`` and every row holds ``edit_distance + 1`` values.
    """

    text: str
    pattern: str
    r: list[list[int]]
    edit_distance: int
    alphabet: Alphabet = field(default=DNA, repr=False, compare=False)
    _masks: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )

    def r_rows(self, limit: int | None = None) -> list[list[int]]:
        """The history, always whole: it is already materialized."""
        return self.r


def run_dc_window(
    text: str,
    pattern: str,
    *,
    alphabet: Alphabet = DNA,
) -> SeneWindowBitvectors:
    """Run GenASM-DC on one window, keeping the ``R`` history.

    Distance rows are computed in increasing ``d`` and the pass stops at
    the first row whose MSB is 0 at text iteration 0 (module docstring), so
    the returned window has ``k == edit_distance``. Row ``m`` always hits:
    every pattern character can be consumed by a substitution or insertion.
    """
    if not pattern:
        raise ValueError("window pattern must be non-empty")
    if not text:
        raise WindowUnalignableError("window text is empty")

    m = len(pattern)
    n = len(text)
    masks = pattern_bitmasks(pattern, alphabet)
    all_ones = (1 << m) - 1
    msb_mask = 1 << (m - 1)
    pms = [masks.get(ch, all_ones) for ch in text]

    # rows[d][i] is R[d] after text iteration i; rows[d][n] the initial state.
    row = [all_ones] * (n + 1)
    for i in range(n - 1, -1, -1):
        row[i] = ((row[i + 1] << 1) | pms[i]) & all_ones
    rows = [row]
    while row[0] & msb_mask:
        if len(rows) > m:
            raise WindowUnalignableError.no_row_hit(text, pattern)
        below_row = row
        row = [all_ones] * (n + 1)
        for i in range(n - 1, -1, -1):
            # deletion & substitution & insertion & match; ``below`` is
            # already clamped to m bits, so the shifted terms need no mask.
            below = below_row[i + 1]
            row[i] = (
                below
                & (below << 1)
                & (below_row[i] << 1)
                & ((row[i + 1] << 1) | pms[i])
            )
        rows.append(row)

    return SeneWindowBitvectors(
        text=text,
        pattern=pattern,
        r=[list(column) for column in zip(*rows)],
        edit_distance=len(rows) - 1,
        alphabet=alphabet,
        _masks=masks,
    )
