"""Thread fan-out backend: one batch cut across several threads.

GenASM's parallelism — identical units, independent pairs, one shared copy
of the data — in one process: each batch method cuts its jobs into contiguous
chunks, one per worker, runs the *same* method of one shared in-process engine
on a thread pool, and concatenates the results in order. Nothing is pickled.

Threads overlap only where the inner engine releases the GIL: ``"native"``
does (once around a whole chunk), ``"batched"`` does inside NumPy,
``"pure"`` never does. No thread-scaling figure is committed yet: that
needs a machine with more than the reference box's two cores.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.core.bitap import BitapMatch
from repro.core.genasm_dc import WindowData
from repro.core.scoring import TracebackConfig
from repro.engine.registry import AlignmentEngine, get_engine, register_engine
from repro.engine.registry import _best_available_name
from repro.sequences.alphabet import DNA, Alphabet


@register_engine
class ShardedEngine(AlignmentEngine):
    """Chunked fan-out of the batch interface over a thread pool.

    Parameters
    ----------
    workers:
        Thread count; defaults to ``min(cpu_count, 8)``.
    inner:
        Name of the in-process backend all threads share; defaults to the
        best available one (``"native"`` when built). Not ``"sharded"``.
    """

    name = "sharded"

    def __init__(
        self, *, workers: int | None = None, inner: str | None = None
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if inner == self.name:
            raise ValueError("inner engine must be an in-process backend")
        self.workers = workers or self.default_worker_count()
        self.inner = get_engine(inner or _best_available_name())
        self._pool = ThreadPoolExecutor(self.workers)  # threads start on submit
        self._shard_timings: list[dict[str, Any]] | None = None

    @classmethod
    def default_worker_count(cls) -> int:
        return max(1, min(os.cpu_count() or 1, 8))

    def close(self) -> None:
        """Join the worker threads; the engine stays usable afterwards."""
        self._pool.shutdown()
        self._pool = ThreadPoolExecutor(self.workers)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _fan_out(self, call: Callable[..., list], jobs: list, **kwargs: Any) -> list:
        """``call(chunk, **kwargs)`` per contiguous chunk, results in order.

        Fewer than two jobs per worker (or a single worker) run inline;
        the first failing chunk's exception propagates.
        """
        self._shard_timings = None
        if self.workers == 1 or len(jobs) < 2 * self.workers:
            return call(jobs, **kwargs)
        size = -(-len(jobs) // self.workers)
        chunks = [jobs[i : i + size] for i in range(0, len(jobs), size)]

        def timed(chunk: list) -> tuple[list, float]:
            started = time.perf_counter()
            return call(chunk, **kwargs), time.perf_counter() - started

        outputs = list(self._pool.map(timed, chunks))
        self._shard_timings = [
            {"jobs": len(chunk), "seconds": seconds}
            for chunk, (_, seconds) in zip(chunks, outputs)
        ]
        return [item for results, _ in outputs for item in results]

    def pop_shard_timings(self) -> list[dict[str, Any]] | None:
        """``{"jobs", "seconds"}`` per chunk of the last call, then clear.

        ``None`` when it ran inline; feeds the ``engine`` span's ``shards``.
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
        return self._fan_out(
            self.inner.scan_batch,
            pairs,
            k=self.clamp_k(k, pairs),
            alphabet=alphabet,
            first_match_only=first_match_only,
        )

    def edit_distance_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
    ) -> list[int | None]:
        pairs = list(pairs)
        return self._fan_out(
            self.inner.edit_distance_batch,
            pairs,
            k=self.clamp_k(k, pairs),
            alphabet=alphabet,
        )

    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
    ) -> list[WindowData]:
        return self._fan_out(
            self.inner.run_dc_windows, list(jobs), alphabet=alphabet
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
        """Fan out whole pairs: each thread runs the inner window loop."""
        return self._fan_out(
            self.inner.align_batch,
            list(pairs),
            alphabet=alphabet,
            window_size=window_size,
            overlap=overlap,
            config=config,
        )
