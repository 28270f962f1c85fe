"""The reference backend: a thin batch adapter over the pure-Python kernels.

This engine defines correct behavior — every other backend is tested for
bit-identical output against it. It simply loops the existing scalar kernels
over the batch, so it works everywhere and costs nothing extra per pair.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bitap import BitapMatch, bitap_scan
from repro.core.genasm_dc import WindowData, run_dc_window
from repro.engine.registry import AlignmentEngine, register_engine
from repro.sequences.alphabet import DNA, Alphabet


@register_engine
class PurePythonEngine(AlignmentEngine):
    """Scalar loop over :func:`bitap_scan` / :func:`run_dc_window`."""

    name = "pure"

    def scan_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
        first_match_only: bool = False,
    ) -> list[list[BitapMatch]]:
        pairs = list(pairs)
        k = self.clamp_k(k, pairs)
        return [
            bitap_scan(
                text,
                pattern,
                k,
                alphabet=alphabet,
                first_match_only=first_match_only,
            )
            for text, pattern in pairs
        ]

    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
    ) -> list[WindowData]:
        return [
            run_dc_window(sub_text, sub_pattern, alphabet=alphabet)
            for sub_text, sub_pattern in jobs
        ]
