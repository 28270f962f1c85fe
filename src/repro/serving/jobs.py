"""Streaming batch jobs over the serving layer — the job fabric.

Everything else in ``serving/`` answers one request with one response. The
paper's real workloads are chromosome-scale (Sections 9 and 11): mapping a
flow cell of reads against a reference, aligning two genomes, all-vs-all
overlap finding. Those don't fit in a request body — they arrive as
streams, run for minutes, and must survive a client disconnect.

A :class:`JobManager` turns any backend exposing the serving surface
(``AlignmentServer`` or ``AlignmentCluster``) into a job executor:

* **map** — chunked FASTQ in, SAM out. Input chunks may be split anywhere
  (mid-line is fine); each parsed read becomes one ``map_read`` request
  through the backend, with a bounded window of reads in flight, and SAM
  records are appended to the job's output in input order. Memory stays
  bounded no matter how many reads stream through.
* **whole_genome** — one ``align`` request through the backend, summarized
  with :func:`~repro.usecases.whole_genome.complete_alignment`.
* **overlap** — k-mer voting runs in-process (pure indexing); every
  candidate's suffix/prefix verification is an ``align`` request through
  the backend, windowed, then thresholded exactly like
  :func:`~repro.usecases.overlap.find_overlaps`.
* **text_search** — one ``scan`` through the backend, hits collapsed with
  :func:`~repro.usecases.text_search.collapse_matches`, optional per-hit
  traceback as windowed ``align`` requests.

Because every unit of work re-enters the backend as an ordinary request,
the cluster's routing, retries and fair queueing all apply to job traffic
for free, under one :class:`~repro.serving.qos.RequestContext` per job:
the creating tenant, no deadline (a job outlives the request that made
it) and no trace (that request's trace must not grow with every read
the job ever maps). The job id is just a handle on the
stream's progress and spooled output, which is what makes the HTTP front's
``GET /v1/jobs/<id>/output?offset=N`` resumable: reconnect, re-ask from
your last offset, keep going.
"""

from __future__ import annotations

import asyncio
import json
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
from repro.serving.qos import RequestContext
from repro.usecases.overlap import overlap_candidates, select_overlaps
from repro.usecases.text_search import collapse_matches
from repro.usecases.whole_genome import complete_alignment

logger = logging.getLogger("repro.serving.jobs")

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, CANCELLED)

JOB_KINDS = ("map", "whole_genome", "overlap", "text_search")

_EOF = object()


class JobError(ValueError):
    """A client mistake: unknown kind, closed input, malformed payload."""


class JobRejectedError(RuntimeError):
    """The manager is at its concurrent-job capacity; retry later."""

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class JobOutput:
    """Append-only spooled output with offset reads.

    Small outputs stay in memory; past ``spool_bytes`` the spool rolls to
    a temp file, so a chromosome of SAM text never lives in RAM. Offsets
    are byte offsets — a client that reconnects re-reads from wherever it
    stopped.
    """

    def __init__(self, spool_bytes: int = 256 * 1024) -> None:
        self._file = tempfile.SpooledTemporaryFile(max_size=spool_bytes)
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
    #: Handed to the backend with every request this job issues; names
    #: the tenant that created the job.
    ctx: RequestContext
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
    result: dict | None = None
    task: asyncio.Task | None = field(default=None, repr=False)
    parser: FastqStreamParser | None = field(default=None, repr=False)
    input_queue: asyncio.Queue | None = field(default=None, repr=False)

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
            "tenant": self.ctx.tenant,
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
        if self.result is not None:
            payload["result"] = self.result
        return payload


class JobManager(StatsBlock):
    """Run streaming jobs against a serving backend.

    Parameters
    ----------
    backend:
        Anything exposing the serving surface (``scan`` / ``align`` /
        ``map_read`` coroutines) — an :class:`~repro.serving.server.
        AlignmentServer` or :class:`~repro.serving.cluster.
        AlignmentCluster`. Map jobs additionally need ``backend.mapper``.
    window:
        Maximum backend requests in flight per job — the bound on a map
        job's in-memory read window.
    input_backlog:
        Parsed-but-unsubmitted reads a map job will buffer before input
        appends start awaiting (backpressure toward the ingest side).
    max_active:
        Concurrent unfinished jobs before :meth:`create` rejects.
    max_finished:
        Finished jobs retained (output still fetchable) before the
        oldest are evicted.
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
        input_backlog: int = 1024,
        max_active: int = 8,
        max_finished: int = 64,
        spool_bytes: int = 256 * 1024,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if input_backlog < 1:
            raise ValueError("input_backlog must be at least 1")
        super().__init__()
        self.backend = backend
        self.window = window
        self.input_backlog = input_backlog
        self.max_active = max_active
        self.max_finished = max_finished
        self.spool_bytes = spool_bytes
        self.jobs: dict[str, Job] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def _active_count(self) -> int:
        return sum(1 for job in self.jobs.values() if not job.finished)

    def create(
        self,
        kind: str,
        payload: dict | None = None,
        *,
        tenant: str | None = None,
    ) -> Job:
        """Create a job and start its runner task.

        Must be called from a running event loop. For ``map`` jobs the
        payload may carry an initial ``fastq`` chunk and ``final`` flag
        (append them with :meth:`append_input` afterwards — creation only
        wires the stream).
        """
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
        if self._active_count() >= self.max_active:
            raise JobRejectedError(
                f"at capacity ({self.max_active} active jobs)"
            )
        if kind == "map" and getattr(self.backend, "mapper", None) is None:
            raise JobError("backend has no mapper attached")
        payload = payload or {}
        job = Job(
            job_id=uuid.uuid4().hex[:16],
            kind=kind,
            output=JobOutput(self.spool_bytes),
            ctx=RequestContext(tenant=tenant),
        )
        if kind == "map":
            job.parser = FastqStreamParser()
            job.input_queue = asyncio.Queue(maxsize=self.input_backlog)
            runner = lambda: self._run_map(job)  # noqa: E731
        elif kind == "whole_genome":
            runner = lambda: self._run_whole_genome(job, payload)  # noqa: E731
        elif kind == "overlap":
            runner = lambda: self._run_overlap(job, payload)  # noqa: E731
        else:
            runner = lambda: self._run_text_search(job, payload)  # noqa: E731
        self.jobs[job.job_id] = job
        self.created_total[kind] += 1
        job.task = asyncio.create_task(self._run(job, runner))
        log_event(
            logger, "job_created", job_id=job.job_id, kind=kind, tenant=tenant
        )
        return job

    async def _run(self, job: Job, runner) -> None:
        job.state = RUNNING
        try:
            await runner()
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
        excess = len(finished) - self.max_finished
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
        ``spool_bytes``) are released here, not left to the collector.
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
        if job.kind != "map":
            raise JobError(f"job {job_id} is a {job.kind} job, not map")
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
    # Runners
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
                        self.backend.map_read(name, sequence, ctx=job.ctx)
                    )
                )
            while pending:
                await drain_one()
        finally:
            for task in pending:
                task.cancel()

    async def _windowed_aligns(
        self, job: Job, pairs: list[tuple[str, str]]
    ) -> list[Any]:
        """Align pairs through the backend, at most ``window`` in flight."""
        semaphore = asyncio.Semaphore(self.window)

        async def one(text: str, pattern: str) -> Any:
            async with semaphore:
                return await self.backend.align(text, pattern, ctx=job.ctx)

        return list(
            await asyncio.gather(*(one(text, pattern) for text, pattern in pairs))
        )

    async def _run_whole_genome(self, job: Job, payload: dict) -> None:
        reference = payload.get("reference", "")
        query = payload.get("query", "")
        if not isinstance(reference, str) or not isinstance(query, str):
            raise JobError("reference and query must be strings")
        if not reference or not query:
            raise JobError("both reference and query must be non-empty")
        alignment = await self.backend.align(reference, query, ctx=job.ctx)
        summary = complete_alignment(alignment, len(reference), len(query))
        job.result = {
            "identity": summary.identity,
            "edit_distance": summary.edit_distance,
            "matches": summary.matches,
            "substitutions": summary.substitutions,
            "insertions": summary.insertions,
            "deletions": summary.deletions,
            "reference_span": summary.reference_span,
            "query_span": summary.query_span,
        }
        job.output.append(summary.cigar.to_sam() + "\n")

    async def _run_overlap(self, job: Job, payload: dict) -> None:
        reads = payload.get("reads")
        if not isinstance(reads, list) or not all(
            isinstance(read, str) for read in reads
        ):
            raise JobError("reads must be a list of strings")
        k = int(payload.get("k", 15))
        min_overlap = int(payload.get("min_overlap", 50))
        max_error_rate = float(payload.get("max_error_rate", 0.20))
        candidates = overlap_candidates(
            reads, k=k, min_overlap=min_overlap, max_error_rate=max_error_rate
        )
        alignments = await self._windowed_aligns(
            job, [(c.region, c.query) for c in candidates]
        )
        overlaps = select_overlaps(
            candidates, alignments, max_error_rate=max_error_rate
        )
        job.result = {
            "candidates": len(candidates),
            "overlaps": len(overlaps),
        }
        for overlap in overlaps:
            job.output.append(
                json.dumps(
                    {
                        "a_index": overlap.a_index,
                        "b_index": overlap.b_index,
                        "a_start": overlap.a_start,
                        "length": overlap.length,
                        "edit_distance": overlap.edit_distance,
                        "identity": overlap.identity,
                    }
                )
                + "\n"
            )

    async def _run_text_search(self, job: Job, payload: dict) -> None:
        text = payload.get("text", "")
        pattern = payload.get("pattern", "")
        if not isinstance(text, str) or not isinstance(pattern, str):
            raise JobError("text and pattern must be strings")
        if not pattern:
            raise JobError("pattern must be non-empty")
        max_errors = int(payload.get("max_errors", 0))
        if max_errors < 0:
            raise JobError("max_errors must be non-negative")
        with_traceback = bool(payload.get("with_traceback", False))
        max_matches = payload.get("max_matches")
        raw = await self.backend.scan(text, pattern, max_errors, ctx=job.ctx)
        collapsed = collapse_matches(raw, max_errors)
        if max_matches is not None:
            collapsed = collapsed[: int(max_matches)]
        cigars: list[str | None] = [None] * len(collapsed)
        if with_traceback:
            pairs = [
                (text[start : start + len(pattern) + max_errors], pattern)
                for start, _ in collapsed
            ]
            alignments = await self._windowed_aligns(job, pairs)
            cigars = [alignment.cigar.to_sam() for alignment in alignments]
        job.result = {"matches": len(collapsed)}
        for (start, distance), cigar in zip(collapsed, cigars):
            entry: dict[str, Any] = {"start": start, "distance": distance}
            if cigar is not None:
                entry["cigar"] = cigar
            job.output.append(json.dumps(entry) + "\n")

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
