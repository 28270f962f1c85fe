"""repro — a reproduction of GenASM (MICRO 2020).

GenASM is an approximate string matching (ASM) acceleration framework for
genome sequence analysis, built on an enhanced Bitap algorithm with the first
Bitap-compatible traceback. This package reproduces the paper end to end:

* :mod:`repro.core` — GenASM-DC, GenASM-TB, the windowed aligner, and the
  derived pre-alignment filter and edit-distance use cases;
* :mod:`repro.sequences` — alphabets, synthetic genomes, read simulators;
* :mod:`repro.baselines` — the comparators the paper evaluates against
  (DP aligners, Myers/Edlib, Shouji, GACT, ...);
* :mod:`repro.hardware` — the systolic-array accelerator model, SRAMs,
  vault-level parallelism, and the analytical performance/area/power models;
* :mod:`repro.mapping` — a full read-mapping pipeline (index, seed, filter,
  align) hosting GenASM as its alignment step;
* :mod:`repro.serving` — the asyncio alignment server that batches many
  concurrent requests into few large engine calls (size or fixed-deadline
  flushes), the replicated cluster router over N such servers
  (least-in-flight dispatch, replica-aware load shedding, cross-replica
  retry, mergeable latency histograms), plus the stdlib HTTP/JSON network
  front that mounts either;
* :mod:`repro.eval` — datasets, metrics, and one experiment driver per
  table/figure in the paper's evaluation.
"""

from repro.core import (
    Alignment,
    Cigar,
    GenAsmAligner,
    GenAsmFilter,
    ScoringScheme,
    TracebackConfig,
    bitap_edit_distance,
    bitap_scan,
    genasm_align,
    genasm_edit_distance,
)
from repro.engine import (
    AlignmentEngine,
    BatchedEngine,
    EngineInfo,
    PurePythonEngine,
    ShardedEngine,
    available_engines,
    engine_info,
    get_engine,
    register_engine,
)
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    JobManager,
    LatencyHistogram,
    ServerClosedError,
    ServingStats,
    serve_http,
)

__version__ = "1.38.0"

__all__ = [
    "Alignment",
    "AlignmentCluster",
    "AlignmentEngine",
    "AlignmentHTTPServer",
    "AlignmentServer",
    "BatchedEngine",
    "Cigar",
    "EngineInfo",
    "GenAsmAligner",
    "GenAsmFilter",
    "JobManager",
    "LatencyHistogram",
    "PurePythonEngine",
    "ScoringScheme",
    "ServerClosedError",
    "ServingStats",
    "ShardedEngine",
    "TracebackConfig",
    "__version__",
    "available_engines",
    "bitap_edit_distance",
    "bitap_scan",
    "engine_info",
    "genasm_align",
    "genasm_edit_distance",
    "get_engine",
    "register_engine",
    "serve_http",
]
