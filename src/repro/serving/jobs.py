"""Streaming map jobs over the serving layer — the job fabric.

Everything else in ``serving/`` answers one request with one response. A
flow cell of reads mapped against a reference (the paper's read-mapping
use case, Sections 9 and 11) does not fit in a request body: it arrives
as a stream, runs for minutes, and must survive a client disconnect.

A :class:`JobManager` turns any backend exposing the serving surface
(``AlignmentServer`` or ``AlignmentCluster``) into a job executor for the
one job kind, **map**: chunked FASTQ in, SAM out. Input chunks may be
split anywhere (mid-line is fine); each parsed read becomes one
``map_read`` request through the backend, with a bounded window of reads
in flight, and SAM records are appended to the job's output in input
order. Memory stays bounded no matter how many reads stream through.

Because every read re-enters the backend as an ordinary request, the
cluster's routing and retries apply to job traffic for free. A job's
reads carry the empty context: no deadline (a job outlives the request
that made it) and no trace (that request's trace must not grow with
every read the job ever maps). The job id is just a handle on the
stream's progress and spooled output, which is what makes the HTTP front's
``GET /v1/jobs/<id>/output?offset=N`` resumable: reconnect, re-ask from
your last offset, keep going.
"""

from __future__ import annotations

import asyncio
import logging
import tempfile
import time
import uuid
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any

from repro.mapping.sam import sam_header
from repro.sequences.io import FastqStreamParser
from repro.serving.observability import (
    MetricFamily,
    StatsBlock,
    counted,
    log_event,
    metric_family,
)
from repro.serving.server import NO_CONTEXT

logger = logging.getLogger("repro.serving.jobs")

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, CANCELLED)

JOB_KINDS = ("map",)

_EOF = object()

#: Parsed-but-unsubmitted reads a map job buffers before input appends
#: start awaiting (backpressure toward the ingest side).
INPUT_BACKLOG = 1024

#: Concurrent unfinished jobs before :meth:`JobManager.create` rejects.
MAX_ACTIVE_JOBS = 8

#: Finished jobs retained (output still fetchable) before the oldest are
#: evicted.
MAX_FINISHED_JOBS = 64

#: Output bytes a job keeps in memory before its spool rolls to a temp file.
SPOOL_BYTES = 256 * 1024


class JobError(ValueError):
    """A client mistake: unknown kind, closed input, malformed payload."""


class JobRejectedError(RuntimeError):
    """The manager is at its concurrent-job capacity; retry later."""

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobOutput:
    """Append-only spooled output with offset reads.

    Small outputs stay in memory; past ``SPOOL_BYTES`` the spool rolls to
    a temp file, so a chromosome of SAM text never lives in RAM. Offsets
    are byte offsets — a client that reconnects re-reads from wherever it
    stopped.
    """

    def __init__(self) -> None:
        self._file = tempfile.SpooledTemporaryFile(max_size=SPOOL_BYTES)
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def append(self, text: str) -> None:
        self._file.seek(0, 2)
        self._file.write(text.encode("ascii"))
        self._size += len(text)

    def read(self, offset: int, limit: int) -> str:
        if offset < 0:
            raise JobError("offset must be non-negative")
        if limit <= 0:
            raise JobError("limit must be positive")
        self._file.seek(min(offset, self._size))
        return self._file.read(limit).decode("ascii")

    def close(self) -> None:
        self._file.close()


@dataclass
class Job:
    """One streaming job: identity, progress counters, spooled output."""

    job_id: str
    kind: str
    output: JobOutput
    parser: FastqStreamParser = field(repr=False)
    input_queue: asyncio.Queue = field(repr=False)
    state: str = PENDING
    error: str | None = None
    created: float = field(default_factory=time.time)
    started_monotonic: float = field(default_factory=time.monotonic)
    finished_monotonic: float | None = None
    reads_in: int = 0
    reads_done: int = 0
    reads_mapped: int = 0
    input_bytes: int = 0
    input_closed: bool = False
    task: asyncio.Task | None = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    def status_payload(self) -> dict:
        """The JSON body of ``GET /v1/jobs/<id>``."""
        elapsed = (
            self.finished_monotonic
            if self.finished_monotonic is not None
            else time.monotonic()
        ) - self.started_monotonic
        payload = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "created": self.created,
            "elapsed_s": round(elapsed, 6),
            "input_closed": self.input_closed,
            "input_bytes": self.input_bytes,
            "reads_in": self.reads_in,
            "reads_done": self.reads_done,
            "reads_mapped": self.reads_mapped,
            "output_bytes": self.output.size,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobManager(StatsBlock):
    """Run streaming jobs against a serving backend.

    Parameters
    ----------
    backend:
        Anything exposing the serving surface (a ``map_read`` coroutine
        and a ``mapper``) — an :class:`~repro.serving.server.
        AlignmentServer` or :class:`~repro.serving.cluster.
        AlignmentCluster` built with a mapper.
    window:
        Maximum backend requests in flight per job — the bound on a map
        job's in-memory read window.

    Every other bound is a module constant (``INPUT_BACKLOG``,
    ``MAX_ACTIVE_JOBS``, ``MAX_FINISHED_JOBS``, ``SPOOL_BYTES``).
    """

    created_total = counted("genasm_jobs_created_total", by="kind")
    finished_total = counted("genasm_jobs_finished_total", by="state")
    reads_total = counted("genasm_job_reads_total")
    output_bytes_total = counted("genasm_job_output_bytes_total")

    def __init__(
        self,
        backend: Any,
        *,
        window: int = 32,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        super().__init__()
        self.backend = backend
        self.window = window
        self.jobs: dict[str, Job] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def _active_count(self) -> int:
        return sum(1 for job in self.jobs.values() if not job.finished)

    def create(self, kind: str) -> Job:
        """Create a job and start its runner task.

        Must be called from a running event loop. Creation only wires the
        stream: feed reads with :meth:`append_input` afterwards.
        """
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
        if self._active_count() >= MAX_ACTIVE_JOBS:
            raise JobRejectedError(f"at capacity ({MAX_ACTIVE_JOBS} active jobs)")
        if getattr(self.backend, "mapper", None) is None:
            raise JobError("backend has no mapper attached")
        job = Job(
            job_id=uuid.uuid4().hex[:16],
            kind=kind,
            output=JobOutput(),
            parser=FastqStreamParser(),
            input_queue=asyncio.Queue(maxsize=INPUT_BACKLOG),
        )
        self.jobs[job.job_id] = job
        self.created_total[kind] += 1
        job.task = asyncio.create_task(self._run(job))
        log_event(logger, "job_created", job_id=job.job_id, kind=kind)
        return job

    async def _run(self, job: Job) -> None:
        job.state = RUNNING
        try:
            await self._run_map(job)
        except asyncio.CancelledError:
            if job.state == RUNNING:
                job.state = CANCELLED
            raise
        except Exception as exc:  # noqa: BLE001 - job boundary
            job.state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.state = DONE
        finally:
            self._finalize(job)

    def _finalize(self, job: Job) -> None:
        job.finished_monotonic = time.monotonic()
        self.finished_total[job.state] += 1
        self.output_bytes_total += job.output.size
        log_event(
            logger,
            "job_finished",
            job_id=job.job_id,
            kind=job.kind,
            state=job.state,
            reads=job.reads_done,
            output_bytes=job.output.size,
            error=job.error,
        )
        self._evict_finished()

    def _evict_finished(self) -> None:
        finished = [job for job in self.jobs.values() if job.finished]
        excess = len(finished) - MAX_FINISHED_JOBS
        if excess <= 0:
            return
        finished.sort(key=lambda job: job.finished_monotonic or 0.0)
        for job in finished[:excess]:
            self.jobs.pop(job.job_id, None)
            job.output.close()

    async def cancel(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if not job.finished and job.task is not None:
            job.task.cancel()
            try:
                await job.task
            except asyncio.CancelledError:
                pass
            if not job.finished:
                # Cancelled before the runner task ever got scheduled;
                # _run's finally never ran, so finalize here.
                job.state = CANCELLED
                self._finalize(job)
        return job

    async def stop(self) -> None:
        """Cancel every running job, then close every job's output spool.

        Jobs stay listed with their final status, but a stopped manager
        serves no more output: the spools (temp files past
        ``SPOOL_BYTES``) are released here, not left to the collector.
        """
        for job_id in list(self.jobs):
            job = self.jobs.get(job_id)
            if job is not None and not job.finished:
                await self.cancel(job_id)
        for job in self.jobs.values():
            job.output.close()

    # ------------------------------------------------------------------
    # Map-job streaming input
    # ------------------------------------------------------------------
    async def append_input(
        self, job_id: str, text: str, *, final: bool = False
    ) -> dict:
        """Feed a FASTQ chunk (split anywhere) into a map job.

        Backpressure: when the runner's read window and backlog are full,
        this awaits — an HTTP client sees the POST complete only once the
        chunk's reads are actually queued. Malformed FASTQ fails the job
        and raises, naming the offending record.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if job.input_closed:
            raise JobError(f"job {job_id} input is already closed")
        if job.finished:
            raise JobError(f"job {job_id} is already {job.state}")
        try:
            records = job.parser.feed(text) if text else []
            if final:
                records = records + job.parser.close()
        except ValueError as exc:
            if job.task is not None:
                job.task.cancel()
            job.state = FAILED
            job.error = str(exc)
            raise
        job.input_bytes += len(text)
        job.reads_in += len(records)
        for record in records:
            await job.input_queue.put((record.name, record.sequence))
        if final:
            job.input_closed = True
            await job.input_queue.put(_EOF)
        return {
            "job_id": job.job_id,
            "received_reads": len(records),
            "reads_in": job.reads_in,
            "input_closed": job.input_closed,
        }

    # ------------------------------------------------------------------
    # Runner
    # ------------------------------------------------------------------
    def _reference_sequences(self) -> list[tuple[str, int]]:
        mapper = self.backend.mapper
        refs = getattr(mapper, "reference_sequences", None)
        if refs is not None:
            return refs()
        return [(mapper.genome.name, len(mapper.genome))]

    async def _run_map(self, job: Job) -> None:
        """FASTQ records in, SAM lines out, bounded in-flight window.

        Reads are submitted as individual ``map_read`` requests (the
        backend batches whatever is concurrently in flight) and their SAM
        lines are written strictly in input order.
        """
        job.output.append(sam_header(self._reference_sequences()))
        pending: deque[asyncio.Task] = deque()

        async def drain_one() -> None:
            result = await pending.popleft()
            job.output.append(result.record.to_line() + "\n")
            job.reads_done += 1
            self.reads_total += 1
            if result.record.is_mapped:
                job.reads_mapped += 1

        try:
            while True:
                item = await job.input_queue.get()
                if item is _EOF:
                    break
                name, sequence = item
                while len(pending) >= self.window:
                    await drain_one()
                pending.append(
                    asyncio.create_task(
                        self.backend.map_read(name, sequence, ctx=NO_CONTEXT)
                    )
                )
            while pending:
                await drain_one()
        finally:
            for task in pending:
                task.cancel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        by_state: Counter = Counter(job.state for job in self.jobs.values())
        return {
            "active": self._active_count(),
            "retained": len(self.jobs),
            "by_state": dict(by_state),
            **self.to_dict(),
        }

    def collect_metrics(self) -> list[MetricFamily]:
        jobs = metric_family("genasm_jobs")
        for (kind, state), count in Counter(
            (job.kind, job.state) for job in self.jobs.values()
        ).items():
            jobs.add(count, kind=kind, state=state)
        return [jobs, *self.metric_families()]
