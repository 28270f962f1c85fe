"""GenASM-TB: the Bitap-compatible traceback (Algorithm 2, Section 6).

Starting from the MSB of the window's ``R[editDist]`` bitvector, the
traceback follows a chain of 0s toward the LSB, reverting the bitwise
operations that produced them:

* **match** — a 0 in the match bitvector consumes one text and one pattern
  character and keeps the error count (``<x, y, z> -> <x-1, y+1, z>``);
* **substitution** — consumes both and decrements the errors
  (``<x-1, y+1, z-1>``);
* **insertion** — the inserted character is absent from the text: consumes
  only a pattern character (``<x-1, y, z-1>``);
* **deletion** — the deleted character is absent from the pattern: consumes
  only a text character (``<x, y+1, z-1>``).

The priority among cases is configurable (:class:`TracebackConfig`); the
paper's default checks gap *extensions* first to mimic the affine gap model.

There is one walk for every window (:class:`~repro.core.genasm_dc.WindowData`,
whatever stores its ``R`` history), and it is allocation-light: the case
priority order is precompiled once per config into a tuple of integer
opcodes (cached), the window's ``R`` history and per-text pattern masks are
pulled into plain Python lists once up front, whole ``(M, S, I, D)``
bitvectors for the current ``(text iteration, error count)`` cell are
derived inline with a couple of shifts, and every case check is a single
AND against the current pattern-position bit. No per-bit (or even per-step)
method calls survive on the hot path; the windows' ``edge_vectors``
accessor remains the cold-path / parity surface. The native engine's C walk
(``tb_core`` in ``_native.c``) is the same loop, run inside its one-call
window loop (``align_many``) and nowhere else.

The chain-of-0s invariant (a 0 in ``R[d]`` guarantees a 0 in at least one
intermediate bitvector, whose reversal lands on another 0 of the appropriate
``R``) means a well-formed window can never dead-end; we still detect that
case and raise, because silently emitting a wrong alignment would be worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.genasm_dc import WindowData
from repro.core.scoring import TracebackCase, TracebackConfig

#: Integer opcodes the compiled priority program dispatches on.
_MATCH = 0
_SUBSTITUTION = 1
_INSERTION_OPEN = 2
_DELETION_OPEN = 3
_INSERTION_EXTEND = 4
_DELETION_EXTEND = 5

_CASE_OPCODE = {
    TracebackCase.MATCH: _MATCH,
    TracebackCase.SUBSTITUTION: _SUBSTITUTION,
    TracebackCase.INSERTION_OPEN: _INSERTION_OPEN,
    TracebackCase.DELETION_OPEN: _DELETION_OPEN,
    TracebackCase.INSERTION_EXTEND: _INSERTION_EXTEND,
    TracebackCase.DELETION_EXTEND: _DELETION_EXTEND,
}


class TracebackError(RuntimeError):
    """Raised if no traceback case applies — indicates a DC/TB bug."""


@dataclass(frozen=True)
class WindowTraceback:
    """Result of tracing one window.

    Attributes
    ----------
    ops:
        Expanded CIGAR characters for this window, in alignment order.
    text_consumed, pattern_consumed:
        How far the window advanced each sequence (Algorithm 2 lines 31-32
        use these to position the next window).
    errors_used:
        Edits consumed in this window (its contribution to the total
        edit distance).
    """

    ops: str
    text_consumed: int
    pattern_consumed: int
    errors_used: int


@lru_cache(maxsize=64)
def _compile_order(
    order: tuple[TracebackCase, ...], affine: bool
) -> tuple[int, ...]:
    """Lower a config's case priority into a tuple of integer opcodes.

    With ``affine=False`` the gap-extension entries vanish from the program
    entirely (the open entries later in the order cover those cells), which
    matches the previous behaviour of skipping them per step — just decided
    once instead of per iteration.
    """
    program = []
    for case in order:
        if not affine and case in (
            TracebackCase.INSERTION_EXTEND,
            TracebackCase.DELETION_EXTEND,
        ):
            continue
        program.append(_CASE_OPCODE[case])
    return tuple(program)


def traceback_window(
    window: WindowData,
    *,
    consume_limit: int,
    config: TracebackConfig | None = None,
) -> WindowTraceback:
    """Run Algorithm 2's inner loop on one window.

    Parameters
    ----------
    window:
        Any GenASM-DC window — the pure kernel's lists, the native kernel's
        bytes, or the batched engine's packed uint64 view.
    consume_limit:
        ``W - O``: the traceback stops once this many characters of either
        sequence are consumed, so consecutive windows overlap by ``O``
        characters and the merged output stays accurate (Section 6).
    config:
        Case priority order; defaults to the paper's Algorithm 2 order.
    """
    if consume_limit <= 0:
        raise ValueError("consume_limit must be positive")
    if config is None:
        config = TracebackConfig()
    program = _compile_order(config.order, config.affine)

    m = window.pattern_length
    n = window.text_length
    all_ones = (1 << m) - 1

    # Materialize the window state as plain Python lists up front, so the
    # step loop below is nothing but int ops and list indexing. Every step
    # that advances text_index also consumes a text character, so a
    # consume-limited trace never reads history rows past consume_limit + 1
    # (nor text masks past consume_limit).
    limit = min(n, consume_limit) + 2
    r = window.r_rows(limit)
    pms = window.text_masks(limit - 1)

    pattern_index = m - 1
    pattern_bit = 1 << pattern_index
    text_index = 0
    cur_error = window.edit_distance
    text_consumed = 0
    pattern_consumed = 0
    errors_used = 0
    prev = ""
    ops: list[str] = []

    while text_consumed < consume_limit and pattern_consumed < consume_limit:
        if pattern_index < 0 or text_index >= n:
            break
        # Edge vectors for the current (text_index, cur_error) cell; every
        # step moves one of the two coordinates, so they are per-step.
        row_after = r[text_index + 1]
        mvec = ((row_after[cur_error] << 1) | pms[text_index]) & all_ones
        if cur_error:
            dvec = row_after[cur_error - 1]
            svec = (dvec << 1) & all_ones
            ivec = (r[text_index][cur_error - 1] << 1) & all_ones
        else:
            svec = ivec = dvec = all_ones
        picked = -1
        for opcode in program:
            if opcode == _MATCH:
                if not mvec & pattern_bit:
                    picked = _MATCH
                    break
            elif cur_error <= 0:
                continue  # error cases need budget remaining
            elif opcode == _SUBSTITUTION:
                if not svec & pattern_bit:
                    picked = _SUBSTITUTION
                    break
            elif opcode == _INSERTION_OPEN:
                if not ivec & pattern_bit:
                    picked = _INSERTION_OPEN
                    break
            elif opcode == _DELETION_OPEN:
                if not dvec & pattern_bit:
                    picked = _DELETION_OPEN
                    break
            elif opcode == _INSERTION_EXTEND:
                if prev == "I" and not ivec & pattern_bit:
                    picked = _INSERTION_EXTEND
                    break
            else:  # _DELETION_EXTEND
                if prev == "D" and not dvec & pattern_bit:
                    picked = _DELETION_EXTEND
                    break
        if picked < 0:
            raise TracebackError(
                f"traceback dead end at textI={text_index} "
                f"patternI={pattern_index} errors={cur_error}"
            )
        if picked == _MATCH:
            ops.append("M")
            prev = "M"
            text_index += 1
            text_consumed += 1
            pattern_index -= 1
            pattern_bit >>= 1
            pattern_consumed += 1
        elif picked == _SUBSTITUTION:
            ops.append("S")
            prev = "S"
            cur_error -= 1
            errors_used += 1
            text_index += 1
            text_consumed += 1
            pattern_index -= 1
            pattern_bit >>= 1
            pattern_consumed += 1
        elif picked in (_INSERTION_OPEN, _INSERTION_EXTEND):
            ops.append("I")
            prev = "I"
            cur_error -= 1
            errors_used += 1
            pattern_index -= 1
            pattern_bit >>= 1
            pattern_consumed += 1
        else:  # deletion open / extend
            ops.append("D")
            prev = "D"
            cur_error -= 1
            errors_used += 1
            text_index += 1
            text_consumed += 1

    return WindowTraceback(
        ops="".join(ops),
        text_consumed=text_consumed,
        pattern_consumed=pattern_consumed,
        errors_used=errors_used,
    )
