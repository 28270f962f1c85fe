"""The ``"native"`` backend: compiled C kernels behind the engine surface.

Each batch method is one call into ``repro.core._native`` through
:mod:`repro.core.kernels`, which codes the ``str`` pairs itself:
:meth:`scan_batch` runs one multiword GenASM-DC sweep per pair
(``scan_many``), :meth:`edit_distance_batch` the same sweep stopped at the
first distance row that hits (``edit_distance_many``, the filter's
question), and :meth:`align_batch` every pair's whole windowed DC + TB loop
(``align_many``). :meth:`run_dc_windows` stays one C call per window (a
:class:`~repro.core.kernels.NativeWindow` the Python traceback walks); only
batches ``align_many`` does not take reach it.

C answers every pair of a batch or none of it (:mod:`repro.core.kernels`
says when). A refused batch runs through the pure scan or the base-class
window loop, which answer or raise exactly as the pure backend does, first
error first, so behavior never depends on the build; a bad pattern is found
without a pure pass over the other pairs. This is the default engine when
the extension loads; when it does not, the registry names the build
command and the default falls to ``"batched"`` (or ``"pure"`` without
NumPy).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.core import kernels
from repro.core.bitap import BitapMatch, pattern_bitmasks
from repro.core.cigar import Cigar
from repro.core.genasm_dc import WindowData, run_dc_window
from repro.core.genasm_tb import _compile_order
from repro.core.scoring import TracebackConfig
from repro.engine.pure import PurePythonEngine
from repro.engine.registry import AlignmentEngine, register_engine
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aligner import Alignment


def _threshold(k: int) -> int:
    """``k`` sign-checked, and cut to a ``Py_ssize_t`` (C caps it per pair)."""
    if k < 0:
        raise ValueError("edit distance threshold k must be non-negative")
    return min(k, sys.maxsize)


_PURE = PurePythonEngine()  # runs the sweeps C refuses


def _check_patterns(pairs: Sequence[tuple[str, str]], alphabet: Alphabet) -> None:
    """Raise the pure scan's first error: past ``k``, only a bad pattern."""
    for _, pattern in pairs:
        pattern_bitmasks(pattern, alphabet)


@register_engine
class NativeEngine(AlignmentEngine):
    """Compiled scan / DC / align kernels; a batch C refuses runs pure."""

    name = "native"

    @classmethod
    def is_available(cls) -> bool:
        return kernels.native_available()

    @classmethod
    def unavailable_reason(cls) -> str | None:
        return kernels.native_unavailable_reason()

    # ------------------------------------------------------------------
    # Whole-text DC sweeps: the scan and the filter's distance
    # ------------------------------------------------------------------
    def scan_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
        first_match_only: bool = False,
    ) -> list[list[BitapMatch]]:
        pairs = list(pairs)
        scans = kernels.native_scan_many(
            pairs, _threshold(k), alphabet=alphabet,
            first_match_only=first_match_only,
        )
        if scans is None:
            _check_patterns(pairs, alphabet)  # before any pure scan runs
            return _PURE.scan_batch(
                pairs, k, alphabet=alphabet, first_match_only=first_match_only
            )
        return scans

    def edit_distance_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
    ) -> list[int | None]:
        pairs = list(pairs)
        distances = kernels.native_edit_distance_many(
            pairs, _threshold(k), alphabet=alphabet
        )
        if distances is None:
            _check_patterns(pairs, alphabet)
            return _PURE.edit_distance_batch(pairs, k, alphabet=alphabet)
        return [distance if distance >= 0 else None for distance in distances]

    # ------------------------------------------------------------------
    # GenASM-DC windows
    # ------------------------------------------------------------------
    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
    ) -> list[WindowData]:
        windows: list[WindowData] = []
        for sub_text, sub_pattern in jobs:
            window: WindowData | None = kernels.native_dc_window(
                sub_text, sub_pattern, alphabet=alphabet
            )
            if window is None:
                # Oversize patterns and uncodable jobs.
                window = run_dc_window(sub_text, sub_pattern, alphabet=alphabet)
            windows.append(window)
        return windows

    # ------------------------------------------------------------------
    # Whole-pair windowed alignment
    # ------------------------------------------------------------------
    def align_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
        window_size: int,
        overlap: int,
        config: TracebackConfig,
    ) -> list["Alignment"]:
        """Align the batch with one C call over every pair's window loop.

        A batch C refuses (windows wider than a word, an uncodable
        alphabet, a foreign pattern, a window that fails) goes through the
        base-class window loop, with native DC where possible. That loop
        raises round by round, each pair from its own windows, and runs a
        batch C answers without raising. So when C answers the pairs whose
        patterns are all in the alphabet, the batch's first error is the
        first the others raise alone: they run first, and the whole batch
        only when they answer (a foreign character the loop never reaches,
        as beside an empty text). Output order and bits match pure.
        """
        from repro.core.aligner import Alignment

        pairs = list(pairs)
        native = partial(
            kernels.native_align_many,
            alphabet=alphabet,
            window_size=window_size,
            overlap=overlap,
            program=_compile_order(config.order, config.affine),
        )
        aligned = native(pairs)
        if aligned is not None:
            return [
                Alignment(Cigar.from_kernel(ops), distance, 0, consumed)
                for ops, consumed, distance in aligned
            ]
        window_loop = partial(
            super().align_batch,
            alphabet=alphabet,
            window_size=window_size,
            overlap=overlap,
            config=config,
        )
        clean = [all(ch in alphabet for ch in set(p)) for _, p in pairs]
        kept = [pair for pair, ok in zip(pairs, clean) if ok]
        if 0 < len(kept) < len(pairs) and native(kept) is not None:
            window_loop([pair for pair, ok in zip(pairs, clean) if not ok])
        return window_loop(pairs)
