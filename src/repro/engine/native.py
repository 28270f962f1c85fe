"""The ``"native"`` backend: compiled C kernels behind the engine surface.

This engine routes the three hot loops through the compiled extension
``repro.core._native`` via the plain-int ABI in :mod:`repro.core.kernels`:

* :meth:`scan_batch` — **one** C call (``scan_many``) takes the list of
  ``str`` pairs as it is, codes it, builds every pattern's mask rows and
  runs one multiword GenASM-DC sweep per pair, distance rows in increasing
  ``d`` across the text;
* :meth:`edit_distance_batch` — the same sweep with early termination
  (``edit_distance_many``): each pair stops at the first distance row that
  hits anywhere, the only question the pre-alignment filter asks;
* :meth:`align_batch` — likewise one C call (``align_many``) runs the whole
  windowed DC + TB loop of every pair: no per-pair, let alone per-window,
  Python dispatch survives on the align path;
* :meth:`run_dc_windows` — one C call per window produces a
  :class:`~repro.core.kernels.NativeWindow`, whose packed ``R`` history the
  one Python traceback walks like any window's. It stays a per-window loop:
  only pairs the batch calls could not take reach it (tail windows when the
  window is wider than 64, codable windows of a pair that also holds
  non-latin-1 ones), so the C traceback walk lives only inside
  ``align_many``.

The batch calls answer ``None`` for a pair that falls outside what the C
kernels handle (non-latin-1 sequence, uncodable alphabet, empty or foreign
pattern, window wider than 64 symbols, extension not built). Exactly those
pairs are filled in, in input order, from the pure scan (at the pair's own
``min(k, m)``, the cap C applies per pair) or from the base-class window
loop over this engine's own ``run_dc_windows`` — which also raise what the
pure backend raises. Behavior therefore never depends on the build.
Availability is gated on the extension import: when it loads
this is the default engine, and when the build is missing the registry
reports a reason naming the build command and the default falls to
``"batched"`` (or ``"pure"`` without NumPy).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Sequence

from repro.core import kernels
from repro.core.bitap import BitapMatch, bitap_edit_distance, bitap_scan
from repro.core.genasm_dc import WindowData, run_dc_window
from repro.core.genasm_tb import _compile_order
from repro.core.scoring import TracebackConfig
from repro.engine.registry import AlignmentEngine, register_engine
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aligner import Alignment


def _threshold(k: int) -> int:
    """``k`` sign-checked, and cut to a ``Py_ssize_t`` (C caps it per pair)."""
    if k < 0:
        raise ValueError("edit distance threshold k must be non-negative")
    return min(k, sys.maxsize)


@register_engine
class NativeEngine(AlignmentEngine):
    """Compiled scan / DC / align kernels with per-job pure fallback."""

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
        k = _threshold(k)
        pairs = list(pairs)
        results = kernels.native_scan_many(
            pairs, k, alphabet=alphabet, first_match_only=first_match_only
        )
        for idx, matches in enumerate(results):
            if matches is None:
                text, pattern = pairs[idx]
                results[idx] = bitap_scan(
                    text, pattern, min(k, len(pattern)),
                    alphabet=alphabet, first_match_only=first_match_only,
                )
        return results  # type: ignore[return-value]

    def edit_distance_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
    ) -> list[int | None]:
        k = _threshold(k)
        pairs = list(pairs)
        distances = kernels.native_edit_distance_many(pairs, k, alphabet=alphabet)
        return [
            bitap_edit_distance(
                text, pattern, min(k, len(pattern)), alphabet=alphabet
            )
            if distance is None
            else distance if distance >= 0 else None
            for (text, pattern), distance in zip(pairs, distances)
        ]

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

        Pairs the C loop cannot take (empty patterns, windows wider than a
        word, uncodable sequences) go through the base-class window loop —
        still with native DC where possible. Output order and bits match
        the pure backend.
        """
        from repro.core.aligner import Alignment

        pairs = list(pairs)
        native = kernels.native_align_many(
            pairs,
            alphabet=alphabet,
            window_size=window_size,
            overlap=overlap,
            program=_compile_order(config.order, config.affine),
        )
        redone = iter(
            super().align_batch(
                [pair for pair, taken in zip(pairs, native) if taken is None],
                alphabet=alphabet,
                window_size=window_size,
                overlap=overlap,
                config=config,
            )
        )
        return [
            next(redone) if taken is None else Alignment.from_ops(*taken)
            for taken in native
        ]
