"""Pluggable alignment compute backends behind one interface.

:class:`AlignmentEngine` (:mod:`repro.engine.registry`) is the whole engine
surface. A backend implements ``scan_batch`` and ``run_dc_windows``; the
base class supplies ``edit_distance_batch`` (the minimum over a full scan;
``native`` and ``sharded`` override it), ``align_batch`` (the one lock-step
window loop, Algorithm 2) and ``pop_shard_timings`` (``None`` unless a
backend fans out). Windows are SENE on every backend. The registry
maps names to implementations:

* ``"pure"`` — :class:`PurePythonEngine`, the scalar reference kernels;
* ``"batched"`` — :class:`BatchedEngine`, NumPy uint64 arrays running the
  Bitap / GenASM-DC recurrence across a whole batch per operation;
* ``"native"`` — :class:`NativeEngine`, the compiled C kernels behind the
  optional ``repro.core._native`` extension; ``scan_batch``,
  ``edit_distance_batch`` (early termination: distance rows stop at the
  first hit) and ``align_batch`` are one C call per batch, pure scan /
  base-class loop for the pairs C cannot take;
* ``"sharded"`` — :class:`ShardedEngine`, the batch interface chunked over a
  thread pool that shares one instance of the best backend above; every
  method is a pair-level fan-out of the same method.

Pick a backend per call site (``GenAsmAligner(engine="batched")``), per
process (``REPRO_ENGINE=pure``), or let :func:`get_engine` choose the best
available one (``native``, then ``batched``, then ``pure``).
:func:`engine_info` surfaces capability metadata (worker count,
availability reason) per backend. New backends plug in via
:func:`register_engine` without touching the call sites.
"""

from repro.engine.batched import BatchedEngine
from repro.engine.native import NativeEngine
from repro.engine.packing import PackedWindowBitvectors
from repro.engine.pure import PurePythonEngine
from repro.engine.registry import (
    ENGINE_ENV_VAR,
    AlignmentEngine,
    EngineInfo,
    UnknownEngineError,
    available_engines,
    create_engine,
    default_engine_name,
    engine_info,
    get_engine,
    register_engine,
    registered_engines,
)
from repro.engine.sharded import ShardedEngine

__all__ = [
    "ENGINE_ENV_VAR",
    "AlignmentEngine",
    "BatchedEngine",
    "EngineInfo",
    "NativeEngine",
    "PackedWindowBitvectors",
    "PurePythonEngine",
    "ShardedEngine",
    "UnknownEngineError",
    "available_engines",
    "create_engine",
    "default_engine_name",
    "engine_info",
    "get_engine",
    "register_engine",
    "registered_engines",
]
