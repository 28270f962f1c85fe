"""Async serving layer: batch-accumulating front-end over the engines.

:class:`AlignmentServer` turns many small concurrent requests (``scan``,
``edit_distance``, ``align``, ``map_read``) into the large batches the
engine backends are built to amortize, with a size-or-deadline flush
policy (one fixed ``flush_interval`` deadline), bounded-queue
backpressure, and graceful shutdown. See
:mod:`repro.serving.server` for the design notes.

:class:`AlignmentCluster` (:mod:`repro.serving.cluster`) replicates that
server N times — one private engine per replica — behind a health-aware
router with one dispatch rule (the eligible replica with the fewest
requests in flight, ties taken in turn), replica-aware load shedding with
a dynamic ``Retry-After`` computed from observed latency EWMAs,
cross-replica retry (a replica cools down only when another answers the
request it failed), and clean per-replica draining. Unusual replicas —
engine instances, wrapped or test-double servers — are built by the
caller and handed in as ``servers=``.

:class:`AlignmentHTTPServer` (:mod:`repro.serving.http`) puts a stdlib
HTTP/1.1 JSON API in front of either — ``POST /v1/scan``,
``/v1/edit_distance``, ``/v1/align``, ``/v1/map``, plus ``GET /healthz``
and ``/v1/stats`` — with request validation, load shedding, and graceful
draining. Latency percentiles (p50/p90/p99) come from the mergeable
log-bucket :class:`LatencyHistogram` (:mod:`repro.serving.histogram`) and
appear per endpoint, per replica, and cluster-wide in ``/v1/stats``.

:class:`RequestContext` is what travels with a request besides its
payload: an optional deadline (``timeout_ms`` / ``X-Request-Deadline`` on
the wire; expired work is dropped before the engine call and answered
with :class:`DeadlineExceededError`, HTTP 504) and an optional trace. It
is built once — by the HTTP front, or by a direct caller — and passed as
the ``ctx=`` keyword of every entry point.

:mod:`repro.serving.jobs` adds a streaming map-job fabric on top:
``POST /v1/jobs/map`` ingests chunked FASTQ with bounded in-memory
windows and emits SAM incrementally (resumable byte-offset reads at
``GET /v1/jobs/<id>/output``); every read re-enters the backend as an
ordinary ``map_read`` request, so routing and retries apply.

:mod:`repro.serving.observability` threads the whole stack together:
per-request traces (``X-Request-ID`` honored/echoed, span breakdowns at
``GET /v1/trace/<id>`` and ``?debug=timing``), metric families that the
front, the backend and the job manager collect when ``GET /metrics`` is
scraped and :func:`~repro.serving.observability.render_metrics` turns
into Prometheus text, and
structured JSON event logging (sheds, slow requests) with per-event rate
limiting.
"""

from repro.serving.cluster import (
    AlignmentCluster,
    ClusterSaturatedError,
    Replica,
)
from repro.serving.histogram import LatencyHistogram
from repro.serving.observability import (
    EventRateLimiter,
    JsonFormatter,
    MetricFamily,
    Span,
    Trace,
    TraceBuffer,
    configure_logging,
    finish_span,
    get_logger,
    log_event,
    new_trace_id,
)
from repro.serving.http import (
    AlignmentHTTPServer,
    EndpointStats,
    HttpError,
    open_memory_connection,
    serve_http,
)
from repro.serving.jobs import (
    JOB_KINDS,
    Job,
    JobError,
    JobManager,
    JobRejectedError,
)
from repro.serving.server import (
    AlignmentServer,
    DeadlineExceededError,
    RequestContext,
    ServerClosedError,
    ServingStats,
)

__all__ = [
    "JOB_KINDS",
    "AlignmentCluster",
    "AlignmentHTTPServer",
    "AlignmentServer",
    "ClusterSaturatedError",
    "DeadlineExceededError",
    "EndpointStats",
    "EventRateLimiter",
    "HttpError",
    "Job",
    "JobError",
    "JobManager",
    "JobRejectedError",
    "JsonFormatter",
    "LatencyHistogram",
    "MetricFamily",
    "Replica",
    "RequestContext",
    "ServerClosedError",
    "ServingStats",
    "Span",
    "Trace",
    "TraceBuffer",
    "configure_logging",
    "finish_span",
    "get_logger",
    "log_event",
    "new_trace_id",
    "serve_http",
]
