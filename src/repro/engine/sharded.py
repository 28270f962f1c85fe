"""Process-pool sharded backend: the batch interface across many cores.

Python's per-process GIL caps the pure and NumPy-batched backends at one
core. This backend shards the *batch* dimension instead: ``scan_batch`` and
``run_dc_windows`` split their job lists into contiguous chunks, submit the
chunks to a persistent ``multiprocessing`` pool whose workers each host an
ordinary in-process engine (``"batched"`` when NumPy is importable, else
``"pure"``), and concatenate the per-chunk results back in submission order
— so output stays bit-identical to the reference backend, just computed on
several cores at once.

The economics mirror the GenASM batching story one level up: IPC costs
(pickling jobs and results, pool scheduling) are paid per *chunk*, so the
backend only wins when each chunk carries real work. That makes it the
right tool for the long-read workloads (10 kbp patterns, large error
budgets) where single-core NumPy stays near parity with Python big-ints,
and the wrong tool for tiny batches — which is why batches below
``min_batch`` jobs short-circuit to the in-process engine, paying zero IPC.

The pool is created lazily on the first sharded call and lives for the
engine instance's lifetime (the registry caches instances, so the spawn
cost is paid once per process). ``close()`` — or using the engine as a
context manager — tears it down early; the interpreter's multiprocessing
finalizers clean up whatever remains at exit.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Sequence, TypeVar

from repro.core.bitap import BitapMatch
from repro.core.genasm_dc import WindowData
from repro.core.scoring import TracebackConfig
from repro.engine.registry import AlignmentEngine, register_engine
from repro.sequences.alphabet import DNA, Alphabet

T = TypeVar("T")

#: Hard cap on the default pool size; past this, chunk scheduling and
#: result pickling dominate for every workload we serve.
_MAX_DEFAULT_WORKERS = 8


def _default_workers() -> int:
    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS))


def _pool_context() -> multiprocessing.context.BaseContext:
    """Pick a start method that is safe *right now*.

    Fork is cheapest (workers inherit imports), but forking a process with
    live threads is unsound — a child can inherit a lock held by another
    thread and deadlock, and Python 3.12+ warns about it. The serving layer
    creates pools lazily from its flush worker thread while the event loop
    thread runs, which is exactly that case, so fork is only used when this
    process is still single-threaded; otherwise forkserver (or spawn)
    starts workers from a clean process.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    for method in ("forkserver", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context("fork")  # pragma: no cover


# ----------------------------------------------------------------------
# Worker-side code. These must be module-level (picklable by reference);
# each worker process hosts one in-process engine resolved once by the
# pool initializer.
# ----------------------------------------------------------------------
_WORKER_ENGINE: AlignmentEngine | None = None
_WORKER_MAPPER: Any = None

#: Worker-side cache of mappers rebuilt from IPC-cheap specs, keyed by the
#: mapper token. Bounded so a worker serving many references (one shard per
#: chromosome) keeps the hot few k-mer indexes without hoarding all of them.
_WORKER_MAPPERS: dict[str, Any] = {}
_WORKER_MAPPER_CAP = 4


def _init_worker(inner_name: str) -> None:
    global _WORKER_ENGINE
    from repro.engine.registry import get_engine

    _WORKER_ENGINE = get_engine(inner_name)


def _init_map_worker(inner_name: str, spec: Any) -> None:
    """Pool initializer for mapper sharding: pin one mapper per worker.

    The reference genome and k-mer index cross the IPC boundary exactly once
    — here, inside ``spec`` at pool start — so per-call chunks carry only
    the reads themselves.
    """
    global _WORKER_MAPPER
    _init_worker(inner_name)
    _WORKER_MAPPER = spec.build(_WORKER_ENGINE)


def _map_chunk(
    reads: list[tuple[str, str]],
) -> tuple[list[Any], Any, float]:
    """Run the full mapping pipeline for one chunk of reads.

    Returns the chunk's results, the stats *delta* it generated (so the
    parent can fold worker counters into the caller's mapper), and the
    worker-side compute seconds — the only per-shard timing that can
    cross the IPC boundary, since a parent-side clock would fold pool
    queueing into every chunk.
    """
    from repro.mapping.pipeline import PipelineStats

    started = time.perf_counter()
    _WORKER_MAPPER.stats = PipelineStats()
    results = _WORKER_MAPPER.map_reads(reads)
    return results, _WORKER_MAPPER.stats, time.perf_counter() - started


def _map_chunk_spec(
    args: tuple[str, Any, list[tuple[str, str]]],
) -> tuple[list[Any], Any, float]:
    """Map one chunk from an IPC-cheap spec through the *shared* pool.

    A spec over a mmap-backed :class:`GenomeShard` pickles as paths, so it
    rides along with every chunk instead of requiring a dedicated pinned
    pool per mapper. The worker rebuilds the mapper (mmap open + k-mer
    index) on first sight of a token and caches it, so alternating between
    references — one mapper per chromosome — stops tearing pools down.
    """
    from repro.mapping.pipeline import PipelineStats

    token, spec, reads = args
    started = time.perf_counter()
    mapper = _WORKER_MAPPERS.get(token)
    if mapper is None:
        mapper = spec.build(_WORKER_ENGINE)
        while len(_WORKER_MAPPERS) >= _WORKER_MAPPER_CAP:
            _WORKER_MAPPERS.pop(next(iter(_WORKER_MAPPERS)))
        _WORKER_MAPPERS[token] = mapper
    else:
        # Re-insert to keep eviction order ~LRU.
        _WORKER_MAPPERS.pop(token)
        _WORKER_MAPPERS[token] = mapper
    mapper.stats = PipelineStats()
    results = mapper.map_reads(reads)
    return results, mapper.stats, time.perf_counter() - started


def _scan_chunk(
    args: tuple[list[tuple[str, str]], int, Alphabet, bool],
) -> tuple[list[list[BitapMatch]], float]:
    pairs, k, alphabet, first_match_only = args
    started = time.perf_counter()
    results = _WORKER_ENGINE.scan_batch(
        pairs, k, alphabet=alphabet, first_match_only=first_match_only
    )
    return results, time.perf_counter() - started


def _dc_chunk(
    args: tuple[list[tuple[str, str]], Alphabet, int],
) -> tuple[list[WindowData], float]:
    jobs, alphabet, initial_budget = args
    started = time.perf_counter()
    results = _WORKER_ENGINE.run_dc_windows(
        jobs, alphabet=alphabet, initial_budget=initial_budget
    )
    return results, time.perf_counter() - started


def _align_chunk(
    args: tuple[list[tuple[str, str]], Alphabet, int, int, TracebackConfig],
) -> tuple[list[Any], float]:
    pairs, alphabet, window_size, overlap, config = args
    started = time.perf_counter()
    results = _WORKER_ENGINE.align_batch(
        pairs,
        alphabet=alphabet,
        window_size=window_size,
        overlap=overlap,
        config=config,
    )
    return results, time.perf_counter() - started


@register_engine
class ShardedEngine(AlignmentEngine):
    """Chunked fan-out of the batch interface over a process pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``min(cpu_count, 8)``.
    inner:
        Name of the in-process backend each worker hosts. Defaults to the
        best single-process backend (``"batched"`` if NumPy is available,
        else ``"pure"``). Must not itself be ``"sharded"``.
    min_batch:
        Batches smaller than this run on an in-process copy of ``inner``
        instead of crossing the IPC boundary (identical results, no pool
        spin-up for small jobs). Defaults to ``4 * workers``.
    chunks_per_worker:
        How many chunks to cut each batch into per worker. Values above 1
        smooth out load imbalance from uneven job sizes at a slightly
        higher per-chunk IPC cost.
    """

    name = "sharded"

    def __init__(
        self,
        *,
        workers: int | None = None,
        inner: str | None = None,
        min_batch: int | None = None,
        chunks_per_worker: int = 2,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be at least 1")
        if inner == self.name:
            raise ValueError("inner engine must be an in-process backend")
        self.workers = workers if workers is not None else _default_workers()
        self.inner_name = inner if inner is not None else _best_inner_name()
        self.min_batch = (
            min_batch if min_batch is not None else 4 * self.workers
        )
        self.chunks_per_worker = chunks_per_worker
        from repro.engine.registry import get_engine

        self._local = get_engine(self.inner_name)
        self._pool: multiprocessing.pool.Pool | None = None
        self._map_pool: multiprocessing.pool.Pool | None = None
        self._map_pool_token: str | None = None
        self._atexit_registered = False
        self._shard_timings: list[dict[str, Any]] | None = None

    # ------------------------------------------------------------------
    # Availability / capability metadata
    # ------------------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        try:
            # Platforms without a working semaphore implementation (some
            # sandboxes) raise on this import; a pool cannot start there.
            import multiprocessing.synchronize  # noqa: F401
        except ImportError:  # pragma: no cover - platform-specific
            return False
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        if cls.is_available():
            return None
        return "multiprocessing semaphores are unsupported on this platform"

    @classmethod
    def default_worker_count(cls) -> int:
        return _default_workers()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = _pool_context().Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.inner_name,),
            )
            # Terminate before interpreter teardown; a pool collected during
            # shutdown spews "Exception ignored in Pool.__del__" noise.
            if not self._atexit_registered:
                self._atexit_registered = True
                atexit.register(self.close)
        return self._pool

    def warm_up(self) -> None:
        """Spawn the worker pool now instead of on the first sharded call.

        Call this at service startup, while the process is still
        single-threaded: the pool then uses the cheap fork start method and
        the spawn cost is off the request path. The serving layer warms any
        engine exposing this method when the server is constructed.
        """
        self._ensure_pool()

    def _ensure_map_pool(
        self, spec: Any, token: str
    ) -> multiprocessing.pool.Pool:
        """A pool whose workers each hold a mapper built from ``spec``.

        The pool is keyed by the mapper's ``token``: repeated calls for the
        same mapper reuse the pinned workers (reads are the only per-call
        IPC payload), while a different mapper tears the old pool down and
        pays the genome/index pickle once for the new one.
        """
        if self._map_pool is not None and self._map_pool_token != token:
            self._map_pool.terminate()
            self._map_pool.join()
            self._map_pool = None
        if self._map_pool is None:
            self._map_pool = _pool_context().Pool(
                processes=self.workers,
                initializer=_init_map_worker,
                initargs=(self.inner_name, spec),
            )
            self._map_pool_token = token
            if not self._atexit_registered:
                self._atexit_registered = True
                atexit.register(self.close)
        return self._map_pool

    def close(self) -> None:
        """Tear down the worker pools (recreated lazily if used again)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._map_pool is not None:
            self._map_pool.terminate()
            self._map_pool.join()
            self._map_pool = None
            self._map_pool_token = None
        if self._atexit_registered:
            self._atexit_registered = False
            atexit.unregister(self.close)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Sharded batch interface
    # ------------------------------------------------------------------
    def _shard(self, jobs: list[T]) -> list[list[T]]:
        """Contiguous chunks; concatenating them restores input order."""
        target = self.workers * self.chunks_per_worker
        chunk_size = max(1, -(-len(jobs) // target))
        return [
            jobs[i : i + chunk_size] for i in range(0, len(jobs), chunk_size)
        ]

    def _run_sharded(
        self,
        jobs: list[T],
        worker_fn: Callable[..., tuple[list[Any], float]],
        extra: tuple,
        local_fn: Callable[[list[T]], list[Any]],
    ) -> list[Any]:
        chunks = self._shard(jobs)
        if len(chunks) == 1:
            # One chunk would serialize through one worker anyway; skip IPC.
            return local_fn(jobs)
        pool = self._ensure_pool()
        outputs = pool.map(worker_fn, [(chunk, *extra) for chunk in chunks])
        self._shard_timings = [
            {"jobs": len(chunk), "seconds": seconds}
            for chunk, (_, seconds) in zip(chunks, outputs)
        ]
        return [item for chunk_result, _ in outputs for item in chunk_result]

    def pop_shard_timings(self) -> list[dict[str, Any]] | None:
        """Per-shard worker timings of the last fan-out, then clear them.

        Each entry is ``{"jobs": <chunk size>, "seconds": <worker-side
        compute seconds>}``, in chunk submission order. Returns ``None``
        when the last call took the in-process path (below ``min_batch``
        or a single chunk). Return-and-clear semantics keep a stale
        fan-out from being attributed to a later small-batch call; the
        serving layer attaches the popped list to the request's
        ``engine`` span.
        """
        timings, self._shard_timings = self._shard_timings, None
        return timings

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
        if not pairs:
            return []
        def local(chunk: list[tuple[str, str]]) -> list[list[BitapMatch]]:
            return self._local.scan_batch(
                chunk, k, alphabet=alphabet, first_match_only=first_match_only
            )

        if len(pairs) < self.min_batch:
            return local(pairs)
        return self._run_sharded(
            pairs, _scan_chunk, (k, alphabet, first_match_only), local
        )

    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
        initial_budget: int = 8,
    ) -> list[WindowData]:
        """Sharded window DC; results come home as compact SENE payloads.

        The per-chunk IPC result is the packed ``(n + 1, k + 1, W)`` uint64
        history array per window (batched workers) or the big-int ``R``
        history (pure workers).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        def local(chunk: list[tuple[str, str]]) -> list[WindowData]:
            return self._local.run_dc_windows(
                chunk, alphabet=alphabet, initial_budget=initial_budget
            )

        if len(jobs) < self.min_batch:
            return local(jobs)
        return self._run_sharded(
            jobs, _dc_chunk, (alphabet, initial_budget), local
        )

    def align_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
        window_size: int,
        overlap: int,
        config: TracebackConfig,
    ) -> list[Any]:
        """Shard whole windowed alignments across the pool.

        For full GenASM alignments the right fan-out unit is the *pair*,
        not the window round: each worker runs its inner engine's whole
        ``align_batch`` for its chunk, so one IPC round trip covers
        hundreds of window rounds and only sequences go out / compact
        CIGARs come back. Output order and bits match any in-process
        backend.
        """
        pairs = list(pairs)
        if not pairs:
            return []

        def local(chunk: list[tuple[str, str]]) -> list[Any]:
            return self._local.align_batch(
                chunk,
                alphabet=alphabet,
                window_size=window_size,
                overlap=overlap,
                config=config,
            )

        if len(pairs) < min(self.min_batch, 2 * self.workers):
            return local(pairs)
        return self._run_sharded(
            pairs, _align_chunk, (alphabet, window_size, overlap, config), local
        )

    # ------------------------------------------------------------------
    # Mapper-level sharding
    # ------------------------------------------------------------------
    @property
    def min_map_batch(self) -> float:
        """Smallest read batch worth fanning out to the mapper pool.

        With a single worker there is no parallelism to buy, only IPC and
        a second pool to pay for — the infinite threshold steers
        :meth:`ReadMapper.map_reads_batch` to its in-process path.
        """
        if self.workers < 2:
            return float("inf")
        return max(2, self.workers)

    def shard_map(
        self,
        spec: Any,
        token: str,
        reads: Sequence[tuple[str, str]],
    ) -> tuple[list[Any], Any]:
        """Fan whole-read mapping across the pool.

        Each chunk of ``reads`` runs the complete pipeline — seeding,
        pre-alignment filtering, and alignment — inside one worker whose
        :class:`~repro.mapping.pipeline.ReadMapper` was rebuilt from
        ``spec`` at pool start (see :meth:`_ensure_map_pool`), so the
        per-call IPC payload is just read sequences out and
        :class:`~repro.mapping.pipeline.MappingResult` lists back. Because
        reads are mapped independently, concatenating the per-chunk results
        is bit-identical to an in-process
        :meth:`~repro.mapping.pipeline.ReadMapper.map_reads` call.

        Returns ``(results, stats)`` where ``stats`` is the summed
        :class:`~repro.mapping.pipeline.PipelineStats` delta across workers.
        """
        from repro.mapping.pipeline import PipelineStats

        reads = list(reads)
        total = PipelineStats()
        if not reads:
            return [], total
        chunks = self._shard(reads)
        if getattr(spec, "ipc_cheap", False):
            # Cheap specs ship per chunk through the shared pool; the
            # worker-side cache keyed by token amortizes mapper rebuilds
            # without pinning a dedicated pool to one reference.
            pool = self._ensure_pool()
            outputs = pool.map(
                _map_chunk_spec, [(token, spec, chunk) for chunk in chunks]
            )
        else:
            pool = self._ensure_map_pool(spec, token)
            outputs = pool.map(_map_chunk, chunks)
        results = [
            result
            for chunk_results, _, _ in outputs
            for result in chunk_results
        ]
        for _, chunk_stats, _ in outputs:
            total.merge(chunk_stats)
        self._shard_timings = [
            {"jobs": len(chunk), "seconds": seconds}
            for chunk, (_, _, seconds) in zip(chunks, outputs)
        ]
        return results, total


def _best_inner_name() -> str:
    """Best single-process backend for workers to host."""
    from repro.engine.batched import BatchedEngine

    return "batched" if BatchedEngine.is_available() else "pure"
