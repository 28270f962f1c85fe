"""Cross-cutting observability for the serving stack.

When a request through the cluster is slow, the end-to-end latency
histogram can only say *that* it was slow — not whether the time went to
queue wait, batch assembly, engine compute, or a retry on another
replica. This module is the decomposition layer the rest of
:mod:`repro.serving` wires through, in three pieces that deliberately
share one design rule: **zero new bookkeeping on the hot path unless the
request carries a trace** (tracing) or **read only at scrape time** (metrics).

Request tracing
---------------
A :class:`Trace` is created at the network front (honoring a client
``X-Request-ID`` header, generating an id otherwise) and travels through
the cluster router, retry attempts, the batching server's queue, and the
engine call as the ``trace`` field of the request's
:class:`~repro.serving.server.RequestContext` — an explicit argument: a retry
records into the same trace because it was handed the same context, and
a job's reads, handed one without, record into none. Each stage records
a span (``parse``, ``queue_wait``, ``batch_assembly``, ``engine``,
``serialize``, per-replica ``attempt``) with monotonic timestamps and
stage attributes (replica, batch size, outcome, per-shard timings), as
one plain list on the trace; the :class:`Span` views are built only when
the trace is read.
Completed traces land in a bounded :class:`TraceBuffer` ring, queryable
via ``GET /v1/trace/<id>``; passing ``?debug=timing`` on any request
inlines the same breakdown into its response.

There is no switch below the front: a stage records spans exactly when
the context it was handed carries a trace. A bare server called without
one pays a single ``is None`` check per stage — no allocation.

Metrics
-------
A serving counter is declared once, as a :func:`counted` attribute of the
:class:`StatsBlock` that stores it (``ServingStats``,
``EndpointStats``, and the replica, cluster, front and
job manager for the counters they own). The declaration names
the counter's metric family and labels; ``/v1/stats`` (:meth:`StatsBlock.\
to_dict`), the cluster-wide aggregate (:meth:`StatsBlock.merge`) and
``/metrics`` (:meth:`StatsBlock.metric_families`) are all derived from
it, and :data:`METRIC_FAMILIES` is the one table of family kinds and help
texts. The hot path is a plain attribute increment.

Each owner's ``collect_metrics`` returns its families, built fresh when
``GET /metrics`` is scraped; :func:`render_metrics` merges same-named
families and renders Prometheus text exposition (``# HELP`` / ``# TYPE``,
counters, gauges, and histograms whose buckets are the log-spaced
:class:`~repro.serving.histogram.LatencyHistogram` boundaries). The
matching parser the tests and the CI smoke gate assert with lives beside
that gate, in ``benchmarks/check_metrics_endpoint.py`` — format validity
is checked by parsing, not by grep.

Structured event logging
------------------------
One stdlib :mod:`logging` logger per subsystem
(``repro.serving.<name>``), a :class:`JsonFormatter` that renders each
record as one JSON object per line, and :func:`log_event` +
:class:`EventRateLimiter` for the events worth a line in production —
slow requests, sheds — rate-limited per event key (with a
``suppressed`` count carried on the next emitted line) and carrying the
trace id so a log line and a trace cross-reference.
"""

from __future__ import annotations

import json
import logging
import operator
import os
import re
import threading
import time
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, Iterator

from repro.serving.histogram import LatencyHistogram

__all__ = [
    "METRIC_FAMILIES",
    "EventRateLimiter",
    "JsonFormatter",
    "MetricFamily",
    "Span",
    "StatsBlock",
    "Trace",
    "TraceBuffer",
    "configure_logging",
    "counted",
    "derived",
    "finish_span",
    "get_logger",
    "log_event",
    "metric_family",
    "new_trace_id",
    "render_metrics",
]


# ----------------------------------------------------------------------
# Request tracing
# ----------------------------------------------------------------------
def new_trace_id() -> str:
    """A fresh random 32-hex-char request/trace id (128 bits from
    :func:`os.urandom`: unguessable, like the ``uuid4`` it replaced, at a
    quarter of its cost)."""
    return os.urandom(16).hex()


#: One recorded span: ``[name, start, end, outcome, attrs]``, ``end`` None
#: while open. :meth:`Trace.begin` returns it as the handle
#: :func:`finish_span` closes.
SpanRecord = list


def finish_span(span: SpanRecord, outcome: str = "ok", **attrs: Any) -> None:
    """Close an open span record (first close wins) and fold in attributes.

    Idempotent, so a span raced by cancellation cannot be overwritten by a
    late completion.
    """
    if span[2] is None:
        span[2] = time.monotonic()
        span[3] = outcome
        if attrs:
            span[4].update(attrs)


@dataclass(frozen=True)
class Span:
    """Read-only view of one timed stage: name, interval, outcome, attributes.

    Built from a trace's records when they are read (:attr:`Trace.spans`,
    :meth:`Trace.to_dict`), never on the request path. Timestamps are
    ``time.monotonic()`` seconds.
    """

    name: str
    start: float
    end: float | None = None
    outcome: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Span length in seconds (None while still open)."""
        return None if self.end is None else self.end - self.start

    def to_dict(self, origin: float) -> dict[str, Any]:
        """Wire form with millisecond offsets relative to ``origin``."""
        out: dict[str, Any] = {
            "name": self.name,
            "start_ms": (self.start - origin) * 1e3,
            "end_ms": None if self.end is None else (self.end - origin) * 1e3,
            "duration_ms": (
                None if self.duration is None else self.duration * 1e3
            ),
            "outcome": self.outcome if self.end is not None else "open",
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Trace:
    """Per-request span collection, shared by every stage of one request.

    Each span is one mutable :data:`SpanRecord` in a plain list; the
    :class:`Span` views are built only when the trace is read. Records are
    appended and closed from the event loop only (worker threads never
    touch a trace; the server records engine spans from the loop around
    the executor call), so no lock is needed.
    """

    __slots__ = ("trace_id", "started", "ended", "_records", "meta")

    def __init__(self, trace_id: str | None = None, **meta: Any) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.started = time.monotonic()
        self.ended: float | None = None
        self._records: list[SpanRecord] = []
        self.meta = meta

    def begin(self, name: str, **attrs: Any) -> SpanRecord:
        """Open (and record) a new span starting now; close it with
        :func:`finish_span`."""
        span = [name, time.monotonic(), None, "ok", attrs]
        self._records.append(span)
        return span

    def record(self, name: str, start: float, end: float | None = None) -> None:
        """Record a closed span from ``start`` to ``end`` (default: now)."""
        if end is None:
            end = time.monotonic()
        self._records.append([name, start, end, "ok", {}])

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Context-managed span: closes ``ok`` on exit, ``error`` on raise."""
        span = self.begin(name, **attrs)
        try:
            yield span
        except BaseException:
            finish_span(span, "error")
            raise
        finish_span(span)

    @property
    def spans(self) -> list[Span]:
        """Views of the spans recorded so far, in recording order."""
        return [Span(*record) for record in self._records]

    def finish(self) -> "Trace":
        """Mark the request complete (first call wins)."""
        if self.ended is None:
            self.ended = time.monotonic()
        return self

    @property
    def duration(self) -> float | None:
        """End-to-end seconds (None while the request is in flight)."""
        return None if self.ended is None else self.ended - self.started

    def accounted_fraction(self) -> float:
        """Fraction of the end-to-end interval covered by >=1 span.

        The union of closed span intervals (overlapping spans — an
        ``attempt`` covering its ``queue_wait`` — count once), clamped
        to the trace window. This is the "where did the time go"
        completeness measure: near 1.0 means the breakdown explains the
        latency; a low value means an uninstrumented stage is hiding.
        """
        end = self.ended if self.ended is not None else time.monotonic()
        total = end - self.started
        if total <= 0:
            return 1.0
        intervals = sorted(
            (max(start, self.started), min(stop, end))
            for _, start, stop, _, _ in self._records
            if stop is not None and stop > self.started
        )
        covered = 0.0
        cursor = self.started
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return min(1.0, covered / total)

    def to_dict(self) -> dict[str, Any]:
        """Wire form for ``/v1/trace/<id>`` and ``?debug=timing``."""
        duration = self.duration
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "complete": self.ended is not None,
            "duration_ms": None if duration is None else duration * 1e3,
            "accounted_fraction": self.accounted_fraction(),
            "spans": [span.to_dict(self.started) for span in self.spans],
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


#: Completed/in-flight traces a :class:`TraceBuffer` retains (the HTTP
#: front's ``GET /v1/trace/<id>`` window).
_TRACE_BUFFER_SIZE = 256


class TraceBuffer:
    """Bounded ring of recent traces, keyed by trace id.

    Traces are inserted when their request *starts* (so an in-flight
    request is already queryable) and evicted oldest-first past
    ``_TRACE_BUFFER_SIZE``. Lock-guarded: inserts come from the event
    loop, lookups can come from anywhere.
    """

    def __init__(self) -> None:
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._lock = threading.Lock()

    def add(self, trace: Trace) -> None:
        """Insert (or refresh) one trace, evicting the oldest past capacity."""
        with self._lock:
            self._traces.pop(trace.trace_id, None)
            self._traces[trace.trace_id] = trace
            while len(self._traces) > _TRACE_BUFFER_SIZE:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Trace | None:
        """The trace under ``trace_id``, or None if unknown/evicted."""
        with self._lock:
            return self._traces.get(trace_id)

    def trace_ids(self) -> list[str]:
        """Known ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# ----------------------------------------------------------------------
# Metric families and Prometheus text exposition
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_METRIC_KINDS = ("counter", "gauge", "histogram")


class MetricFamily:
    """One named metric family: kind, help text, and labeled samples.

    Collectors build these fresh at scrape time; :func:`render_metrics`
    merges families with the same name (a cluster collector and an HTTP
    collector may both contribute to one family) and renders them as one
    exposition block. For histograms the *sample value is the live*
    :class:`~repro.serving.histogram.LatencyHistogram` — rendering
    converts it to cumulative buckets.
    """

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in _METRIC_KINDS:
            raise ValueError(f"kind must be one of {_METRIC_KINDS}")
        self.name = name
        self.kind = kind
        self.help = help
        self.samples: list[tuple[dict[str, str], Any]] = []

    def add(self, value: float, **labels: Any) -> "MetricFamily":
        """Append one counter/gauge sample (labels stringified)."""
        self.samples.append(
            ({name: str(val) for name, val in labels.items()}, float(value))
        )
        return self

    def add_histogram(
        self, histogram: LatencyHistogram, **labels: Any
    ) -> "MetricFamily":
        """Append one histogram sample holding the live histogram."""
        if self.kind != "histogram":
            raise ValueError(f"{self.name} is a {self.kind}, not a histogram")
        self.samples.append(
            ({name: str(val) for name, val in labels.items()}, histogram)
        )
        return self


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_metrics(families: Iterable[MetricFamily]) -> str:
    """The Prometheus text exposition (format 0.0.4) of ``families``.

    Same-named families fold into one block, samples in order; a name
    that arrives as two kinds is a :class:`ValueError`.
    """
    merged: dict[str, MetricFamily] = {}
    for family in families:
        existing = merged.setdefault(family.name, family)
        if existing is family:
            continue
        if existing.kind != family.kind:
            raise ValueError(
                f"metric {family.name!r} registered as both "
                f"{existing.kind} and {family.kind}"
            )
        existing.samples.extend(family.samples)
    lines: list[str] = []
    for family in merged.values():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, value in family.samples:
            if family.kind == "histogram":
                lines.extend(_render_histogram(family.name, labels, value))
            else:
                lines.append(
                    f"{family.name}{_format_labels(labels)} "
                    f"{_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def _render_histogram(
    name: str, labels: dict[str, str], histogram: LatencyHistogram
) -> list[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one sample.

    Only boundaries whose bucket holds samples are emitted (plus the
    mandatory ``+Inf``): buckets are cumulative, so any boundary subset
    is a valid exposition, and eliding the empty ones keeps 100+-bucket
    log-spaced histograms from dominating the scrape body.
    """
    lines = []
    for bound, cumulative in histogram.cumulative_buckets():
        bucket_labels = dict(labels)
        bucket_labels["le"] = f"{bound:.9g}"
        lines.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
        )
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(
        f"{name}_bucket{_format_labels(inf_labels)} {histogram.count}"
    )
    lines.append(
        f"{name}_sum{_format_labels(labels)} {_format_value(histogram.total)}"
    )
    lines.append(f"{name}_count{_format_labels(labels)} {histogram.count}")
    return lines


# ----------------------------------------------------------------------
# Stored counters: declared once, rendered three ways
# ----------------------------------------------------------------------
#: Every metric family the serving stack exports: ``name -> (kind, help)``.
METRIC_FAMILIES: dict[str, tuple[str, str]] = {
    "genasm_serving_requests_total": ("counter", "Requests by final serving outcome."),
    "genasm_serving_flushes_total": ("counter", "Batch flushes by trigger reason."),
    "genasm_serving_engine_calls_total": (
        "counter", "Synchronous engine batch calls dispatched."),
    "genasm_serving_inline_calls_total": (
        "counter", "Engine calls run on the event loop, not the worker thread."),
    "genasm_serving_request_latency_seconds": (
        "histogram", "Submit-to-result latency observed by callers."),
    "genasm_serving_pending_requests": (
        "gauge", "Requests queued or in flight against max_pending."),
    "genasm_cluster_replicas": ("gauge", "Replica count by liveness."),
    "genasm_cluster_events_total": (
        "counter", "Routing events: sheds and retries."),
    "genasm_cluster_replica_requests_total": (
        "counter", "Per-replica dispatch outcomes seen by the router."),
    "genasm_cluster_replica_latency_seconds": (
        "histogram", "Router-observed per-replica request latency."),
    "genasm_http_requests_total": ("counter", "HTTP requests received, by endpoint."),
    "genasm_http_errors_total": (
        "counter", "HTTP error responses, by endpoint and status code."),
    "genasm_http_request_duration_seconds": (
        "histogram", "Wall time of successful requests, parse to handler return."),
    "genasm_http_client_disconnects_total": (
        "counter", "Requests abandoned mid-flight by a disconnecting client."),
    "genasm_jobs": ("gauge", "Jobs currently retained, by kind and state"),
    "genasm_jobs_created_total": ("counter", "Jobs created, by kind"),
    "genasm_jobs_finished_total": ("counter", "Jobs finished, by terminal state"),
    "genasm_job_reads_total": ("counter", "Reads mapped through map jobs"),
    "genasm_job_output_bytes_total": (
        "counter", "Output bytes produced by finished jobs"),
}


def metric_family(name: str) -> MetricFamily:
    """A fresh, empty family named in :data:`METRIC_FAMILIES`."""
    return MetricFamily(name, *METRIC_FAMILIES[name])


class counted:
    """One stored counter, declared as a class attribute of a :class:`StatsBlock`.

    ``family`` (a :data:`METRIC_FAMILIES` name) and the constant ``labels``
    say how ``/metrics`` exports it; without a family the value is in
    ``/v1/stats`` only, with ``json=False`` in ``/metrics`` only. The
    attribute is an int, a :class:`LatencyHistogram` under a histogram
    family, or with ``by`` a :class:`~collections.Counter` whose keys become
    that label. ``merge`` replaces addition when blocks are folded (``max``
    for a high-water mark).
    """

    def __init__(
        self,
        family: str | None = None,
        *,
        by: str | None = None,
        merge: Callable[[Any, Any], Any] = operator.add,
        json: bool = True,
        **labels: str,
    ) -> None:
        self.family = family
        self.labels = labels
        self.by = by
        self.merge = merge
        self.json = json

    def __set_name__(self, owner: type, name: str) -> None:
        owner.declared = {**owner.declared, name: self}

    def initial(self) -> Any:
        """The value a fresh block starts this counter at."""
        if self.by is not None:
            return Counter()
        if self.family and METRIC_FAMILIES[self.family][0] == "histogram":
            return LatencyHistogram()
        return 0


class derived(property):
    """A value computed from a block's counters (``hit_rate``): rendered
    by :meth:`StatsBlock.to_dict`, never merged or exported."""

    family = None
    json = True

    def __set_name__(self, owner: type, name: str) -> None:
        owner.declared = {**owner.declared, name: self}


class StatsBlock:
    """Base of every object that stores serving counters.

    A subclass writes each counter once (``served = counted(family,
    outcome="served")``); ``__init__`` — an owner with its own calls it
    first — makes each a plain instance attribute, so the hot path stays
    ``stats.served += n``, and the three read surfaces below are derived
    from the declarations.
    """

    #: Declarations by attribute name, in class-body order.
    declared: ClassVar[dict[str, "counted | derived"]] = {}

    def __init__(self) -> None:
        for name, declaration in self.declared.items():
            if isinstance(declaration, counted):
                setattr(self, name, declaration.initial())

    def to_dict(self) -> dict[str, Any]:
        """Wire form for ``/v1/stats`` (histograms as percentile fields)."""
        out: dict[str, Any] = {}
        for name, declaration in self.declared.items():
            if declaration.json:
                value = getattr(self, name)
                if isinstance(value, LatencyHistogram):
                    value = value.to_dict()
                elif isinstance(value, Counter):
                    value = {str(key): n for key, n in sorted(value.items())}
                out[name] = value
        return out

    def merge(self, other: "StatsBlock") -> "StatsBlock":
        """Fold ``other``'s counters into this block (cluster-wide view)."""
        for name, declaration in self.declared.items():
            if isinstance(declaration, counted):
                mine, theirs = getattr(self, name), getattr(other, name)
                if isinstance(mine, Counter):
                    mine.update(theirs)
                elif isinstance(mine, LatencyHistogram):
                    mine.merge(theirs)
                else:
                    setattr(self, name, declaration.merge(mine, theirs))
        return self

    def metric_families(self, **labels: Any) -> list[MetricFamily]:
        """This block's exported counters, each sample carrying ``labels``."""
        families: dict[str, MetricFamily] = {}
        for name, declaration in self.declared.items():
            if declaration.family is None:
                continue
            family = families.get(declaration.family)
            if family is None:
                family = metric_family(declaration.family)
                families[declaration.family] = family
            value = getattr(self, name)
            constant = {**declaration.labels, **labels}
            if isinstance(value, LatencyHistogram):
                family.add_histogram(value, **constant)
            elif isinstance(value, Counter):
                for key, n in sorted(value.items()):
                    family.add(n, **{declaration.by: key}, **constant)
            else:
                family.add(value, **constant)
        return list(families.values())


# ----------------------------------------------------------------------
# Structured JSON event logging
# ----------------------------------------------------------------------
#: Root of the serving logger hierarchy; configure_logging attaches here.
LOGGER_ROOT = "repro.serving"


class JsonFormatter(logging.Formatter):
    """Render each log record as one JSON object per line.

    Standard fields: ``ts`` (epoch seconds), ``level``, ``logger``,
    ``event`` (the short machine-readable name, falling back to the
    message), and ``message``. Structured payloads attached by
    :func:`log_event` ride in flat keys; exceptions land under
    ``exception``. Values that are not JSON-serializable degrade to
    ``str`` rather than raising — a log formatter must never throw.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, "event", None) or record.getMessage(),
            "message": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            for key, value in fields.items():
                payload.setdefault(key, value)
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


def get_logger(subsystem: str) -> logging.Logger:
    """The logger for one serving subsystem (``repro.serving.<name>``)."""
    return logging.getLogger(f"{LOGGER_ROOT}.{subsystem}")


def configure_logging(
    level: int = logging.INFO, stream: Any = None
) -> logging.Handler:
    """Attach a JSON-lines handler to the serving logger hierarchy.

    Idempotent: a handler previously installed by this function is
    replaced, not duplicated. Library code never calls this — emitting
    handlers is the application's decision — but every subsystem logger
    works the moment it runs.
    """
    root = logging.getLogger(LOGGER_ROOT)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_json_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonFormatter())
    handler._repro_json_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    return handler


#: Seconds an :class:`EventRateLimiter` key stays quiet after it emits.
_EVENT_MIN_INTERVAL = 1.0


class EventRateLimiter:
    """Per-key minimum-interval limiter for high-frequency events.

    A saturated cluster sheds thousands of requests per second; logging
    each one would melt the very server the log is diagnosing. Each key
    emits at most once per ``_EVENT_MIN_INTERVAL`` seconds; suppressed
    occurrences are counted and reported with the next emitted event.
    """

    def __init__(self) -> None:
        self._last: dict[str, float] = {}
        self._suppressed: dict[str, int] = {}
        self._lock = threading.Lock()

    def ready(self, key: str, now: float | None = None) -> tuple[bool, int]:
        """``(emit, suppressed_since_last_emit)`` for one occurrence."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            last = self._last.get(key)
            if last is not None and now - last < _EVENT_MIN_INTERVAL:
                self._suppressed[key] = self._suppressed.get(key, 0) + 1
                return False, 0
            self._last[key] = now
            suppressed = self._suppressed.pop(key, 0)
            return True, suppressed


def log_event(
    logger: logging.Logger,
    event: str,
    *,
    level: int = logging.INFO,
    trace_id: str | None = None,
    limiter: EventRateLimiter | None = None,
    limit_key: str | None = None,
    **fields: Any,
) -> bool:
    """Emit one structured event line; returns whether it was emitted.

    With ``limiter``, occurrences past the per-key rate are counted but
    not emitted; the next emitted line carries ``suppressed`` so volume
    is never silently lost. The enabled-check runs before any payload
    work, so disabled loggers cost one comparison.
    """
    if not logger.isEnabledFor(level):
        return False
    if limiter is not None:
        emit, suppressed = limiter.ready(limit_key or event)
        if not emit:
            return False
        if suppressed:
            fields["suppressed"] = suppressed
    if trace_id is not None:
        fields["trace_id"] = trace_id
    logger.log(level, event, extra={"event": event, "fields": fields})
    return True
