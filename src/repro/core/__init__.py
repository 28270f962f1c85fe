"""GenASM core: the paper's primary contribution.

Exposes the modified Bitap distance calculation (GenASM-DC), the
Bitap-compatible traceback (GenASM-TB), the windowed divide-and-conquer
aligner, and the two derived use cases (pre-alignment filtering and edit
distance calculation).
"""

from repro.core.aligner import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW_SIZE,
    Alignment,
    GenAsmAligner,
    genasm_align,
)
from repro.core.bitap import (
    BitapMatch,
    bitap_edit_distance,
    bitap_scan,
    pattern_bitmasks,
)
from repro.core.cigar import Cigar, concat_all
from repro.core.edit_distance import EditDistanceResult, genasm_edit_distance
from repro.core.genasm_dc import (
    SeneWindowBitvectors,
    WindowData,
    WindowUnalignableError,
    run_dc_window,
)
from repro.core.genasm_tb import TracebackError, WindowTraceback, traceback_window
from repro.core.prefilter import FilterDecision, GenAsmFilter
from repro.core.scoring import (
    DEFAULT_ORDER,
    ScoringScheme,
    TracebackCase,
    TracebackConfig,
)

__all__ = [
    "DEFAULT_ORDER",
    "DEFAULT_OVERLAP",
    "DEFAULT_WINDOW_SIZE",
    "Alignment",
    "BitapMatch",
    "Cigar",
    "EditDistanceResult",
    "FilterDecision",
    "GenAsmAligner",
    "GenAsmFilter",
    "ScoringScheme",
    "TracebackCase",
    "TracebackConfig",
    "TracebackError",
    "SeneWindowBitvectors",
    "WindowData",
    "WindowTraceback",
    "WindowUnalignableError",
    "bitap_edit_distance",
    "bitap_scan",
    "concat_all",
    "genasm_align",
    "genasm_edit_distance",
    "pattern_bitmasks",
    "run_dc_window",
    "traceback_window",
]
