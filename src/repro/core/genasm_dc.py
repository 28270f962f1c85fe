"""GenASM-DC: the modified Bitap kernel (Section 5).

GenASM-DC differs from baseline Bitap in what it *keeps*: besides computing
the status bitvectors ``R[d]``, it preserves per-iteration state that
GenASM-TB later walks. Two storage disciplines are supported, selected with
the ``representation`` argument:

``"sene"`` (default) — *store entries, not edges*, after Scrooge
    (Lindegger et al., "Algorithmic Improvement and GPU Acceleration of the
    GenASM Algorithm"): only the ``R[d]`` history itself is stored — one
    bitvector per ``(iteration, distance)`` cell — and the traceback
    re-derives the match / substitution / insertion / deletion edges on the
    fly from adjacent ``R`` entries. This cuts the TB storage from
    ``W·3·W·W`` bits to ``(W+1)·(W+1)·W`` (~3x) and removes two of the
    three per-iteration stores from the DC loop.

``"edges"`` — the MICRO 2020 paper's hardware layout: the match, insertion,
    and deletion intermediate bitvectors are stored explicitly, and
    substitution is recovered as ``deletion << 1`` (Section 6, the
    optimization that already cut the TB-SRAM footprint from ``W·4·W·W`` to
    ``W·3·W·W`` bits). The hardware model keeps using this mode because it
    is what the paper's TB-SRAM sizing describes.

Both representations expose the same edge-query surface
(:meth:`edge_vectors` plus the per-bit accessors), so GenASM-TB is agnostic
to which one it walks and every backend stays bit-identical.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.core.bitap import pattern_bitmasks
from repro.sequences.alphabet import DNA, Alphabet

#: Valid values for the ``representation`` argument of the DC entry points.
WINDOW_REPRESENTATIONS = ("sene", "edges")


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


def _validate_representation(representation: str) -> None:
    if representation not in WINDOW_REPRESENTATIONS:
        raise ValueError(
            f"unknown window representation {representation!r}; "
            f"expected one of {WINDOW_REPRESENTATIONS}"
        )


@dataclass
class WindowBitvectors:
    """The ``"edges"`` representation: explicit M/I/D stores per iteration.

    Attributes
    ----------
    text, pattern:
        The window's sub-text and sub-pattern.
    k:
        Number of error rows computed (bitvectors exist for ``d in [1, k]``).
    match, insertion, deletion:
        ``match[i][d]`` is the match intermediate bitvector computed at text
        iteration ``i`` for distance ``d``; likewise for insertion and
        deletion with ``d >= 1`` (index 0 is unused padding for those two).
        For ``d = 0`` the match bitvector *is* ``R[0]``.
    edit_distance:
        Minimum ``d`` with a 0 MSB at text iteration 0 — the window's
        traceback entry error count.
    """

    text: str
    pattern: str
    k: int
    match: list[list[int]]
    insertion: list[list[int]]
    deletion: list[list[int]]
    edit_distance: int

    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    @property
    def text_length(self) -> int:
        return len(self.text)

    def match_bit(self, text_index: int, distance: int, pattern_index: int) -> int:
        """Bit of the match bitvector at (textI, curError, patternI)."""
        return (self.match[text_index][distance] >> pattern_index) & 1

    def insertion_bit(self, text_index: int, distance: int, pattern_index: int) -> int:
        """Bit of the insertion bitvector; 1 (no) when ``distance`` is 0."""
        if distance == 0:
            return 1
        return (self.insertion[text_index][distance] >> pattern_index) & 1

    def deletion_bit(self, text_index: int, distance: int, pattern_index: int) -> int:
        """Bit of the deletion bitvector; 1 (no) when ``distance`` is 0."""
        if distance == 0:
            return 1
        return (self.deletion[text_index][distance] >> pattern_index) & 1

    def substitution_bit(
        self, text_index: int, distance: int, pattern_index: int
    ) -> int:
        """Substitution = deletion shifted left by one (Section 6).

        The shift feeds a 0 into the LSB, so a substitution consuming the
        final pattern character is always available once an error budget
        remains — the same behaviour the stored S bitvector would have had.
        """
        if distance == 0:
            return 1
        if pattern_index == 0:
            return 0
        return self.deletion_bit(text_index, distance, pattern_index - 1)

    def edge_vectors(
        self, text_index: int, distance: int
    ) -> tuple[int, int, int, int]:
        """Whole ``(match, substitution, insertion, deletion)`` bitvectors.

        GenASM-TB's inner loop reads full vectors once per ``(i, d)`` cell
        and tests individual bits inline, instead of paying a method call
        per bit. At ``distance == 0`` the three error vectors read as
        all-ones ("no") like the per-bit accessors.
        """
        all_ones = (1 << len(self.pattern)) - 1
        match = self.match[text_index][distance]
        if distance == 0:
            return match, all_ones, all_ones, all_ones
        deletion = self.deletion[text_index][distance]
        return (
            match,
            (deletion << 1) & all_ones,
            self.insertion[text_index][distance],
            deletion,
        )

    def stored_bits(self) -> int:
        """Bits of TB-SRAM this window occupies (3 vectors per (i, d))."""
        m = self.pattern_length
        return self.text_length * 3 * self.k * m


class SeneEdgeDerivation:
    """Mixin: derive M/S/I/D edges on the fly from the ``R[d]`` history.

    Hosts need ``text``, ``pattern``, ``k``, and two accessors:
    ``_r_row(i)`` returning the ``k + 1`` ``R`` values *after* text
    iteration ``i`` (``i == text_length`` being the initial all-ones state)
    and ``_ensure_masks()`` returning the pattern's per-symbol bitmask
    table.

    The derivation inverts one recurrence step. With ``old = R`` after
    iteration ``i + 1`` and ``new = R`` after iteration ``i``:

    * ``match[i][d]       = (old[d] << 1) | PM(text[i])``
    * ``deletion[i][d]    = old[d - 1]``
    * ``substitution[i][d] = old[d - 1] << 1``
    * ``insertion[i][d]   = new[d - 1] << 1``

    so every edge GenASM-TB checks is two history reads and a shift away —
    nothing beyond ``R`` itself ever needs storing.
    """

    def edge_vectors(
        self, text_index: int, distance: int
    ) -> tuple[int, int, int, int]:
        """Whole ``(match, substitution, insertion, deletion)`` bitvectors."""
        all_ones = (1 << len(self.pattern)) - 1
        row_after = self._r_row(text_index + 1)
        match = ((row_after[distance] << 1) | self._text_mask(text_index)) & all_ones
        if distance == 0:
            return match, all_ones, all_ones, all_ones
        deletion = row_after[distance - 1]
        insertion = (self._r_row(text_index)[distance - 1] << 1) & all_ones
        return match, (deletion << 1) & all_ones, insertion, deletion

    def _text_mask(self, text_index: int) -> int:
        all_ones = (1 << len(self.pattern)) - 1
        return self._ensure_masks().get(self.text[text_index], all_ones)

    def text_masks(self, limit: int | None = None) -> list[int]:
        """Pattern bitmask per text character (the ``PM`` lookup, batched).

        GenASM-TB materializes this once per window so its inner loop can
        derive match vectors with plain list indexing. ``limit`` is a
        lower bound on how many leading entries the caller needs (a
        traceback bounded by ``consume_limit`` never looks past it);
        implementations may return more.
        """
        masks = self._ensure_masks()
        all_ones = (1 << len(self.pattern)) - 1
        text = self.text if limit is None else self.text[:limit]
        return [masks.get(ch, all_ones) for ch in text]

    # Per-bit accessors mirror WindowBitvectors' surface (used by tests and
    # the hardware model); the hot path goes through edge_vectors instead.
    def match_bit(self, text_index: int, distance: int, pattern_index: int) -> int:
        return (self.edge_vectors(text_index, distance)[0] >> pattern_index) & 1

    def substitution_bit(
        self, text_index: int, distance: int, pattern_index: int
    ) -> int:
        return (self.edge_vectors(text_index, distance)[1] >> pattern_index) & 1

    def insertion_bit(self, text_index: int, distance: int, pattern_index: int) -> int:
        return (self.edge_vectors(text_index, distance)[2] >> pattern_index) & 1

    def deletion_bit(self, text_index: int, distance: int, pattern_index: int) -> int:
        return (self.edge_vectors(text_index, distance)[3] >> pattern_index) & 1

    @property
    def pattern_length(self) -> int:
        return len(self.pattern)

    @property
    def text_length(self) -> int:
        return len(self.text)

    def stored_bits(self, traceback_columns: int | None = None) -> int:
        """Bits of TB storage under SENE: one vector per (i, d) cell.

        ``(n + 1) * (k + 1)`` stored ``R`` rows of ``m`` bits — the ~3x
        reduction over the ``n * 3 * k * m`` edge stores that motivates the
        representation. ``traceback_columns`` is DENT (Scrooge): a
        traceback that consumes at most that many text characters (``W -
        O``) never reads an entry past that text iteration, so a TB-SRAM
        need not keep them — ``(min(n, traceback_columns) + 1) * (k + 1)``
        rows. (DC itself still needs each whole previous row, so software
        skips no stores; this is an accounting of what must outlive DC.)
        """
        columns = self.text_length
        if traceback_columns is not None:
            columns = min(columns, traceback_columns)
        return (columns + 1) * (self.k + 1) * self.pattern_length


@dataclass
class SeneWindowBitvectors(SeneEdgeDerivation):
    """The ``"sene"`` representation: only the ``R[d]`` history is kept.

    Attributes
    ----------
    text, pattern:
        The window's sub-text and sub-pattern.
    k:
        Number of error rows computed.
    r:
        ``r[i][d]`` is ``R[d]`` *after* text iteration ``i`` (iterations run
        from ``n - 1`` down to 0); ``r[n]`` is the initial all-ones state.
        ``len(r) == text_length + 1``.
    edit_distance:
        Minimum ``d`` with a 0 MSB at text iteration 0.
    """

    text: str
    pattern: str
    k: int
    r: list[list[int]]
    edit_distance: int
    alphabet: Alphabet = field(default=DNA, repr=False, compare=False)
    _masks: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )

    def _r_row(self, text_index: int) -> list[int]:
        return self.r[text_index]

    def _ensure_masks(self) -> dict[str, int]:
        if self._masks is None:
            self._masks = pattern_bitmasks(self.pattern, self.alphabet)
        return self._masks

    def r_rows(self, limit: int | None = None) -> list[list[int]]:
        """The ``R`` history as Python ints (hot TB + parity hook).

        ``limit`` is a lower bound on the leading rows needed; the scalar
        history is already materialized, so it is always returned whole.
        """
        return self.r


class WindowData(Protocol):
    """Any window object GenASM-TB can trace.

    Implementations: :class:`WindowBitvectors` (edge stores),
    :class:`SeneWindowBitvectors` (scalar SENE), and the batched engine's
    :class:`~repro.engine.packing.PackedWindowBitvectors` (packed SENE).
    """

    text: str
    pattern: str
    k: int
    edit_distance: int

    @property
    def pattern_length(self) -> int: ...

    @property
    def text_length(self) -> int: ...

    def edge_vectors(
        self, text_index: int, distance: int
    ) -> tuple[int, int, int, int]: ...

    def stored_bits(self) -> int:
        """Bits of TB storage the window occupies in its own layout.

        Only the SENE windows (:class:`SeneEdgeDerivation` hosts) also take
        ``traceback_columns`` (DENT); narrow to that class before passing it.
        """
        ...


def run_dc_window(
    text: str,
    pattern: str,
    *,
    alphabet: Alphabet = DNA,
    representation: str = "sene",
) -> WindowData:
    """Run GenASM-DC on one window, keeping the traceback state.

    Distance rows are computed in increasing ``d`` and the pass stops at
    the first row whose MSB is 0 at text iteration 0 (module docstring), so
    the returned window has ``k == edit_distance``. Row ``m`` always hits:
    every pattern character can be consumed by a substitution or insertion.

    ``representation`` picks the storage discipline (module docstring):
    ``"sene"`` returns a :class:`SeneWindowBitvectors` holding only the
    ``R`` history; ``"edges"`` returns the classic
    :class:`WindowBitvectors` with explicit match/insertion/deletion stores.
    """
    _validate_representation(representation)
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
    k = len(rows) - 1

    if representation == "sene":
        return SeneWindowBitvectors(
            text=text,
            pattern=pattern,
            k=k,
            r=[list(column) for column in zip(*rows)],
            edit_distance=k,
            alphabet=alphabet,
            _masks=masks,
        )
    # The explicit stores are the same history read three ways (the
    # derivation SeneEdgeDerivation documents); index 0 of the two error
    # stores is padding.
    return WindowBitvectors(
        text=text,
        pattern=pattern,
        k=k,
        match=[
            [((rows[d][i + 1] << 1) | pms[i]) & all_ones for d in range(k + 1)]
            for i in range(n)
        ],
        insertion=[
            [all_ones]
            + [(rows[d - 1][i] << 1) & all_ones for d in range(1, k + 1)]
            for i in range(n)
        ],
        deletion=[
            [all_ones] + [rows[d - 1][i + 1] for d in range(1, k + 1)]
            for i in range(n)
        ],
        edit_distance=k,
    )
