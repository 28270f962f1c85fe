"""The ``"native"`` backend: compiled C kernels behind the engine surface.

This engine routes the three hot loops through the compiled extension
``repro.core._native`` via the plain-int ABI in :mod:`repro.core.kernels`:

* :meth:`scan_batch` — the multiword Bitap scan runs entirely in C;
* :meth:`run_dc_windows` — DC produces :class:`~repro.core.kernels.NativeWindow`
  objects whose packed ``R`` history stays in bytes; ``traceback_window``
  dispatches their walk to C through the ``native_traceback`` hook, so even
  the base-class window loop gets a native traceback;
* :meth:`align_batch` — the whole windowed DC + TB loop for each pair runs
  as one C call (``align_pair``), which is what closes the gap to scan-only
  throughput: no per-window Python dispatch survives on the align path.

Every method falls back per job when a call falls outside what the C
kernels handle (extension not built, window wider than 64 symbols,
uncodable alphabets/sequences): scans and windows to the pure kernels,
whole pairs to the base-class window loop over this engine's own
``run_dc_windows``. Behavior therefore never depends on the build.
Availability is gated on the extension import; when the build is missing
the registry reports a reason naming the build command and the default
engine selection is unaffected (``"native"`` is chosen explicitly, by name
or via ``REPRO_ENGINE=native``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core import kernels
from repro.core.bitap import BitapMatch, bitap_scan
from repro.core.genasm_dc import WindowData, run_dc_window
from repro.core.genasm_tb import _compile_order
from repro.core.scoring import TracebackConfig
from repro.engine.registry import AlignmentEngine, register_engine
from repro.sequences.alphabet import DNA, Alphabet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aligner import Alignment


@register_engine
class NativeEngine(AlignmentEngine):
    """Compiled scan / DC / traceback kernels with per-job pure fallback."""

    name = "native"

    @classmethod
    def is_available(cls) -> bool:
        return kernels.native_available()

    @classmethod
    def unavailable_reason(cls) -> str | None:
        return kernels.native_unavailable_reason()

    # ------------------------------------------------------------------
    # Bitap scan
    # ------------------------------------------------------------------
    def scan_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
        first_match_only: bool = False,
    ) -> list[list[BitapMatch]]:
        if k < 0:
            raise ValueError("edit distance threshold k must be non-negative")
        results: list[list[BitapMatch]] = []
        for text, pattern in pairs:
            matches = kernels.native_scan(
                text,
                pattern,
                k,
                alphabet=alphabet,
                first_match_only=first_match_only,
            )
            if matches is None:
                matches = bitap_scan(
                    text,
                    pattern,
                    k,
                    alphabet=alphabet,
                    first_match_only=first_match_only,
                )
            results.append(matches)
        return results

    # ------------------------------------------------------------------
    # GenASM-DC windows
    # ------------------------------------------------------------------
    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
        initial_budget: int = 8,
    ) -> list[WindowData]:
        windows: list[WindowData] = []
        for sub_text, sub_pattern in jobs:
            window: WindowData | None = kernels.native_dc_window(
                sub_text,
                sub_pattern,
                alphabet=alphabet,
                initial_budget=initial_budget,
            )
            if window is None:
                # Oversize patterns and uncodable jobs.
                window = run_dc_window(
                    sub_text,
                    sub_pattern,
                    alphabet=alphabet,
                    initial_budget=initial_budget,
                )
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
        """Align each pair with one C call over the whole window loop.

        Pairs the C loop cannot take (empty patterns, windows wider than a
        word, uncodable sequences) go through the base-class window loop —
        still with native DC and native per-window traceback where
        possible. Output order and bits match the pure backend.
        """
        from repro.core.aligner import Alignment

        program = _compile_order(config.order, config.affine)
        pairs = list(pairs)
        results: list[Alignment | None] = [None] * len(pairs)
        fallback: list[int] = []
        for idx, (text, pattern) in enumerate(pairs):
            native = kernels.native_align_pair(
                text,
                pattern,
                alphabet=alphabet,
                window_size=window_size,
                overlap=overlap,
                program=program,
            )
            if native is None:
                fallback.append(idx)
            else:
                results[idx] = Alignment.from_ops(*native)
        if fallback:
            redone = super().align_batch(
                [pairs[idx] for idx in fallback],
                alphabet=alphabet,
                window_size=window_size,
                overlap=overlap,
                config=config,
            )
            for idx, alignment in zip(fallback, redone):
                results[idx] = alignment
        return results  # type: ignore[return-value]
