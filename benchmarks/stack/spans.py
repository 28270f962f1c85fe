"""Spans recorded from outside the program, and the wrappers that record them.

The traced pass measures every layer by timing calls into its public
functions: the benchmark injects delegating wrappers it owns at the seams
the program already exposes (engine instance, ``ReadMapper`` filter/aligner
slots, ``AlignmentCluster(servers=...)``, the HTTP front's backend and job
manager) and each wrapper records one span per call. Nothing under ``src/``
knows about any of this.

A span is ``name, layer, start, end, parent, trace`` plus ``n`` (ops in a
batch span) and ``cpu`` (thread CPU seconds, for spans that run
synchronously on one thread). Clocks are ``time.monotonic`` — on Linux one
system-wide clock, so spans from the ``serve.py`` child and from the load
generator share a time axis. A layer's self time is its span minus the part
its child spans cover.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Iterator

from repro import GenAsmAligner, GenAsmFilter
from repro.engine.registry import AlignmentEngine
from repro.mapping.pipeline import ReadMapper

#: (span id, trace id) of the innermost open span in this context. Sync
#: code in an executor thread and coroutines on the loop both nest through
#: it; an executor call starts from an empty context, which is why batch
#: spans find their callers through :meth:`Tracer.open_ops` instead.
_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "stack_bench_span", default=None
)


class Tracer:
    """In-memory span recorder; written out once when the run ends."""

    def __init__(self, prefix: str = "") -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._prefix = prefix
        self._occurrences: Counter = Counter()
        #: op name -> (span id, trace id) of the server span now holding it.
        self.open_ops: dict[str, tuple[str, str]] = {}

    def trace_id(self, op_name: str) -> str:
        """``name#k`` for the k-th time ``op_name`` is seen.

        Pools are cycled, so names repeat; both sides of the wire count
        occurrences of a name independently and arrive at the same id.
        """
        self._occurrences[op_name] += 1
        return f"{op_name}#{self._occurrences[op_name]}"

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        *,
        n: int = 1,
        trace: str | None = None,
        cpu: bool = False,
        **attrs: Any,
    ) -> Iterator[dict[str, Any]]:
        outer = _CURRENT.get()
        span_id = f"{self._prefix}{next(self._ids)}"
        if trace is None:
            trace = outer[1] if outer is not None else span_id
        record: dict[str, Any] = {
            "id": span_id,
            "parent": outer[0] if outer is not None else None,
            "trace": trace,
            "name": name,
            "layer": layer,
            "n": n,
            **attrs,
        }
        token = _CURRENT.set((span_id, trace))
        cpu_start = time.thread_time() if cpu else 0.0
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            if cpu:
                record["cpu"] = time.thread_time() - cpu_start
            _CURRENT.reset(token)
            self.spans.append(record)


def write_spans(path, spans: list[dict[str, Any]], **header: Any) -> None:
    with open(path, "w", encoding="ascii") as handle:
        json.dump({**header, "spans": spans}, handle)


# ----------------------------------------------------------------------
# Wrappers — one per seam
# ----------------------------------------------------------------------
class TracedEngine(AlignmentEngine):
    """Delegating engine: one ``engine`` span per batch call."""

    name = "traced"

    def __init__(self, inner: AlignmentEngine, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        if hasattr(inner, "align_batch"):
            # GenAsmAligner probes for align_batch with getattr; mirror
            # the inner engine's shape exactly.
            self.align_batch = self._align_batch

    def scan_batch(self, pairs, k, **kwargs):
        with self._tracer.span("engine.scan_batch", "engine", n=len(pairs), cpu=True):
            return self._inner.scan_batch(pairs, k, **kwargs)

    def run_dc_windows(self, jobs, **kwargs):
        with self._tracer.span("engine.run_dc_windows", "engine", n=len(jobs), cpu=True):
            return self._inner.run_dc_windows(jobs, **kwargs)

    def edit_distance_batch(self, pairs, k, **kwargs):
        with self._tracer.span(
            "engine.edit_distance_batch", "engine", n=len(pairs), cpu=True
        ):
            return self._inner.edit_distance_batch(pairs, k, **kwargs)

    def _align_batch(self, pairs, **kwargs):
        with self._tracer.span("engine.align_batch", "engine", n=len(pairs), cpu=True):
            return self._inner.align_batch(pairs, **kwargs)


class TracedFilter:
    """``GenAsmFilter`` in a mapper's ``prefilter`` slot: ``core`` spans."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def accepts(self, reference: str, read: str) -> bool:
        return self.accepts_batch([(reference, read)])[0]

    def accepts_batch(self, pairs):
        with self._tracer.span("core.accepts_batch", "core", n=len(pairs), cpu=True):
            return self._inner.accepts_batch(pairs)


class TracedAligner:
    """``GenAsmAligner`` entry points for a mapper's aligner slots."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def align(self, text: str, pattern: str):
        with self._tracer.span("core.align_batch", "core", cpu=True):
            return self._inner.align(text, pattern)

    def align_batch(self, pairs):
        with self._tracer.span("core.align_batch", "core", n=len(pairs), cpu=True):
            return self._inner.align_batch(pairs)


class _Delegate:
    """Forward every attribute the subclass does not time."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedMapper(_Delegate):
    """``ReadMapper`` proxy: one ``mapping`` batch span per call.

    ``AlignmentServer`` calls ``map_reads_batch`` from its executor thread,
    where no span context exists; the batch span names the server spans
    waiting on it through ``traces``.
    """

    def __init__(self, inner: Any, tracer: Tracer, **attrs: Any) -> None:
        super().__init__(inner, tracer)
        self._attrs = attrs

    def map_reads(self, reads):
        return self._timed(self._inner.map_reads, reads)

    def map_reads_batch(self, reads):
        return self._timed(self._inner.map_reads_batch, reads)

    def _timed(self, call, reads):
        reads = list(reads)
        open_ops = self._tracer.open_ops
        traces = [open_ops[name][1] for name, _ in reads if name in open_ops]
        attrs = {**self._attrs, "traces": traces} if traces else self._attrs
        with self._tracer.span(
            "mapping.map_reads", "mapping", n=len(reads), cpu=True, **attrs
        ):
            return call(reads)


def traced_mapper(genome, index, engine, tracer: Tracer, error_rate: float, **attrs: Any):
    """``make_genasm_mapper``'s mapper with a wrapper in every slot."""
    aligner = TracedAligner(GenAsmAligner(engine=engine), tracer)
    inner = ReadMapper(
        genome=genome,
        index=index,
        error_rate=error_rate,
        prefilter=TracedFilter(
            GenAsmFilter(max(4, int(200 * error_rate)), engine=engine), tracer
        ),
        aligner=aligner.align,
        batch_aligner=aligner.align_batch,
        engine=engine,
    )
    return TracedMapper(inner, tracer, **attrs)


class TracedServer(_Delegate):
    """``AlignmentServer`` proxy handed to ``AlignmentCluster(servers=)``."""

    async def map_read(self, name: str, read: str, **kwargs):
        tracer = self._tracer
        with tracer.span(
            "server.map_read", "serving.server", replica=self._inner.name
        ) as span:
            tracer.open_ops[name] = (span["id"], span["trace"])
            try:
                return await self._inner.map_read(name, read, **kwargs)
            finally:
                tracer.open_ops.pop(name, None)


class TracedBackend(_Delegate):
    """Backend (cluster) proxy mounted by the HTTP front and the jobs."""

    async def map_read(self, name: str, read: str, **kwargs):
        with self._tracer.span(
            "cluster.map_read", "serving.cluster", trace=self._tracer.trace_id(name)
        ):
            return await self._inner.map_read(name, read, **kwargs)


class TracedJobs(_Delegate):
    """``JobManager`` proxy: one ``serving.jobs`` span per ingested chunk."""

    async def append_input(self, job_id: str, text: str, **kwargs):
        with self._tracer.span(
            "jobs.append_input",
            "serving.jobs",
            trace=self._tracer.trace_id("chunk"),
            bytes=len(text),
        ):
            return await self._inner.append_input(job_id, text, **kwargs)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Seconds of self time per layer: each span minus its children.

    Children are the spans naming it as ``parent``; a batch span reached
    through ``traces`` is the child of every server span waiting on it and
    blocks each of them for its whole length.
    """
    by_id = {span["id"]: span for span in spans}
    waiting_on: dict[str, str] = {}
    for span in spans:
        if span["layer"] == "serving.server":
            waiting_on[span["trace"]] = span["id"]
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        length = span["end"] - span["start"]
        parents = [span["parent"]] if span["parent"] is not None else [
            waiting_on[trace] for trace in span.get("traces", ()) if trace in waiting_on
        ]
        for parent in parents:
            if parent in by_id:
                covered[parent] += length
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["layer"]] += max(
            0.0, span["end"] - span["start"] - covered[span["id"]]
        )
    return dict(totals)


def cpu_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Thread-CPU seconds of self time per layer, over spans carrying ``cpu``."""
    covered: dict[str, float] = defaultdict(float)
    for span in spans:
        if "cpu" in span and span["parent"] is not None:
            covered[span["parent"]] += span["cpu"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if "cpu" in span:
            totals[span["layer"]] += max(0.0, span["cpu"] - covered[span["id"]])
    return dict(totals)


def link_children(
    parents: list[dict[str, Any]], children: list[dict[str, Any]]
) -> None:
    """Attach each root child span to the parent span sharing its trace id.

    Joins the two sides of the wire: a client request span and the backend
    span it caused were given the same ``name#k`` independently.
    """
    by_trace = {span["trace"]: span["id"] for span in parents}
    for span in children:
        if span["parent"] is None and "traces" not in span:
            span["parent"] = by_trace.get(span["trace"])


def nesting_violations(spans: list[dict[str, Any]], slack: float = 1e-4) -> list[str]:
    """Spans that start before or end after the span that caused them."""
    by_id = {span["id"]: span for span in spans}
    bad = []
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        if span["start"] < parent["start"] - slack or span["end"] > parent["end"] + slack:
            bad.append(f"{span['name']}({span['id']}) outside {parent['name']}")
        if "traces" not in span and span["trace"] != parent["trace"]:
            bad.append(f"{span['name']}({span['id']}) changed trace id")
    return bad
