"""Unit tests for the observability primitives.

The tracing, metrics, and logging pieces are cross-cutting — every
serving module leans on them — so their local contracts are pinned here
in isolation: span idempotence, interval-union accounting, ring-buffer
eviction, family merging, *round-trip* validity of the Prometheus
exposition (rendered text must satisfy the ``/metrics`` gate's strict
parser), JSON log
formatting, and rate-limiter suppression counting. Integration through
the wire lives in ``test_trace_propagation.py``.
"""

import io
import json
import logging
import sys
from pathlib import Path

import pytest

from repro.serving import observability
from repro.serving.histogram import LatencyHistogram
from repro.serving.observability import (
    EventRateLimiter,
    MetricFamily,
    Span,
    Trace,
    TraceBuffer,
    configure_logging,
    finish_span,
    get_logger,
    log_event,
    new_trace_id,
    render_metrics,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from check_metrics_endpoint import parse_prometheus_text  # noqa: E402


class TestSpan:
    def test_finish_is_idempotent_first_outcome_wins(self):
        trace = Trace()
        record = trace.begin("engine")
        finish_span(record, "cancelled", replica="r0")
        (span,) = trace.spans
        finish_span(record, "ok", replica="r9")  # a late completion must not win
        (late,) = trace.spans
        assert late.outcome == "cancelled"
        assert late.end == span.end is not None
        assert late.attrs == {"replica": "r0"}

    def test_open_span_has_no_duration_and_reports_open(self):
        span = Span(name="queue_wait", start=5.0)
        assert span.duration is None
        assert span.to_dict(origin=5.0)["outcome"] == "open"

    def test_to_dict_offsets_are_millisecond_relative(self):
        span = Span(name="engine", start=10.0, end=10.25)
        wire = span.to_dict(origin=9.9)
        assert wire["start_ms"] == pytest.approx(100.0)
        assert wire["end_ms"] == pytest.approx(350.0)
        assert wire["duration_ms"] == pytest.approx(250.0)


class TestTrace:
    def test_ids_are_generated_or_honored(self):
        assert Trace("client-id").trace_id == "client-id"
        generated = Trace()
        assert len(generated.trace_id) == 32
        assert new_trace_id() != new_trace_id()

    def test_span_contextmanager_marks_errors(self):
        trace = Trace()
        with pytest.raises(RuntimeError):
            with trace.span("engine"):
                raise RuntimeError("boom")
        assert trace.spans[0].outcome == "error"
        with trace.span("parse"):
            pass
        assert trace.spans[1].outcome == "ok"

    def test_accounted_fraction_unions_overlapping_spans(self):
        # Overlap (attempt covering queue_wait) must count once, and the
        # uninstrumented tail must show up as missing coverage.
        trace = Trace()
        origin = trace.started
        trace.record("attempt", origin, origin + 0.6)
        trace.record("queue_wait", origin + 0.1, origin + 0.5)
        trace.record("serialize", origin + 0.8, origin + 0.9)
        trace.ended = origin + 1.0
        assert trace.accounted_fraction() == pytest.approx(0.7)

    def test_accounted_fraction_clamps_to_window(self):
        trace = Trace()
        origin = trace.started
        trace.record("engine", origin - 1.0, origin + 2.0)
        trace.ended = origin + 1.0
        assert trace.accounted_fraction() == 1.0

    def test_finish_first_call_wins(self):
        trace = Trace()
        trace.finish()
        ended = trace.ended
        trace.finish()
        assert trace.ended == ended

    def test_to_dict_carries_meta_and_completion(self):
        trace = Trace("abc", path="/v1/scan", method="POST")
        finish_span(trace.begin("parse"))
        wire = trace.to_dict()
        assert wire["complete"] is False and wire["duration_ms"] is None
        trace.finish()
        wire = trace.to_dict()
        assert wire["complete"] is True
        assert wire["meta"] == {"path": "/v1/scan", "method": "POST"}
        assert [span["name"] for span in wire["spans"]] == ["parse"]


class TestTraceBuffer:
    @pytest.fixture(autouse=True)
    def capacity_two(self, monkeypatch):
        monkeypatch.setattr(observability, "_TRACE_BUFFER_SIZE", 2)

    def test_evicts_oldest_past_capacity(self):
        ring = TraceBuffer()
        traces = [Trace(f"t{i}") for i in range(3)]
        for trace in traces:
            ring.add(trace)
        assert len(ring) == 2
        assert ring.get("t0") is None
        assert ring.get("t2") is traces[2]
        assert ring.trace_ids() == ["t1", "t2"]

    def test_refresh_moves_a_trace_to_newest(self):
        ring = TraceBuffer()
        first, second, third = Trace("a"), Trace("b"), Trace("c")
        ring.add(first)
        ring.add(second)
        ring.add(first)  # refreshed: now newest
        ring.add(third)  # evicts "b", not "a"
        assert ring.get("a") is first
        assert ring.get("b") is None


class TestMetricFamily:
    def test_rejects_bad_names_and_kinds(self):
        with pytest.raises(ValueError):
            MetricFamily("0bad", "counter")
        with pytest.raises(ValueError):
            MetricFamily("fine_name", "summary")

    def test_histogram_samples_only_on_histogram_kind(self):
        with pytest.raises(ValueError):
            MetricFamily("x_total", "counter").add_histogram(
                LatencyHistogram()
            )


class TestRenderMetrics:
    def test_merges_same_named_families_across_collectors(self):
        text = render_metrics(
            [
                MetricFamily("genasm_x_total", "counter").add(1, shard="a"),
                MetricFamily("genasm_y", "gauge").add(3),
                MetricFamily("genasm_x_total", "counter").add(2, shard="b"),
            ]
        )
        assert text.count("# TYPE genasm_x_total counter") == 1
        families = parse_prometheus_text(text)
        assert list(families) == ["genasm_x_total", "genasm_y"]
        assert families["genasm_x_total"]["samples"] == [
            ("genasm_x_total", {"shard": "a"}, 1.0),
            ("genasm_x_total", {"shard": "b"}, 2.0),
        ]

    def test_kind_conflict_raises(self):
        with pytest.raises(ValueError, match="registered as both"):
            render_metrics(
                [
                    MetricFamily("genasm_x", "counter").add(1),
                    MetricFamily("genasm_x", "gauge").add(1),
                ]
            )

    def test_render_round_trips_through_the_parser(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.01, 0.5, 0.5):
            histogram.record(value)
        text = render_metrics(
            [
                MetricFamily(
                    "genasm_reqs_total", "counter", "Requests."
                ).add(7, endpoint="/v1/scan"),
                MetricFamily("genasm_load", "gauge").add(0.25),
                MetricFamily(
                    "genasm_latency_seconds", "histogram", "Latency."
                ).add_histogram(histogram, endpoint="/v1/scan"),
            ]
        )
        families = parse_prometheus_text(text)
        assert families["genasm_reqs_total"]["type"] == "counter"
        assert families["genasm_reqs_total"]["help"] == "Requests."
        assert families["genasm_reqs_total"]["samples"] == [
            ("genasm_reqs_total", {"endpoint": "/v1/scan"}, 7.0)
        ]
        latency = families["genasm_latency_seconds"]["samples"]
        by_name = {}
        for sample_name, labels, value in latency:
            by_name.setdefault(sample_name, []).append((labels, value))
        (sum_labels, sum_value), = by_name["genasm_latency_seconds_sum"]
        assert sum_value == pytest.approx(histogram.total)
        (_, count_value), = by_name["genasm_latency_seconds_count"]
        assert count_value == 5.0
        inf_buckets = [
            value
            for labels, value in by_name["genasm_latency_seconds_bucket"]
            if labels["le"] == "+Inf"
        ]
        assert inf_buckets == [5.0]

    def test_label_values_escape_and_round_trip(self):
        tricky = 'quote " slash \\ newline \n end'
        text = render_metrics(
            [MetricFamily("genasm_x_total", "counter").add(1, name=tricky)]
        )
        families = parse_prometheus_text(text)
        ((_, labels, _),) = families["genasm_x_total"]["samples"]
        assert labels["name"] == tricky

    def test_empty_input_is_a_valid_empty_page(self):
        assert parse_prometheus_text(render_metrics([])) == {}

    def test_family_without_samples_is_declared(self):
        text = render_metrics(
            [MetricFamily("genasm_jobs", "gauge", "Jobs by state.")]
        )
        families = parse_prometheus_text(text)
        assert families["genasm_jobs"]["type"] == "gauge"
        assert families["genasm_jobs"]["samples"] == []


class TestCumulativeBuckets:
    def test_matches_count_and_is_monotone(self):
        histogram = LatencyHistogram()
        for value in (1e-5, 0.003, 0.003, 1.5, 250.0):
            histogram.record(value)
        buckets = histogram.cumulative_buckets()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == histogram.count
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds)

    def test_empty_histogram_has_no_buckets(self):
        assert LatencyHistogram().cumulative_buckets() == []


class TestExpositionParser:
    def test_sample_without_type_declaration_is_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_prometheus_text("genasm_x_total 3\n")

    def test_malformed_sample_line_is_rejected(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text(
                "# TYPE genasm_x counter\ngenasm_x{oops 3\n"
            )

    def test_garbage_value_is_rejected(self):
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prometheus_text(
                "# TYPE genasm_x counter\ngenasm_x notanumber\n"
            )

    def test_duplicate_type_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus_text(
                "# TYPE genasm_x counter\n# TYPE genasm_x gauge\n"
            )

    def test_noncumulative_histogram_buckets_are_rejected(self):
        text = (
            "# TYPE genasm_h histogram\n"
            'genasm_h_bucket{le="0.1"} 5\n'
            'genasm_h_bucket{le="1"} 3\n'
            'genasm_h_bucket{le="+Inf"} 5\n'
            "genasm_h_count 5\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_inf_bucket_must_agree_with_count(self):
        text = (
            "# TYPE genasm_h histogram\n"
            'genasm_h_bucket{le="+Inf"} 5\n'
            "genasm_h_count 7\n"
        )
        with pytest.raises(ValueError, match="!= _count"):
            parse_prometheus_text(text)

    def test_histogram_missing_inf_bucket_is_rejected(self):
        text = (
            "# TYPE genasm_h histogram\n"
            'genasm_h_bucket{le="0.1"} 5\n'
            "genasm_h_count 5\n"
        )
        with pytest.raises(ValueError, match="missing \\+Inf"):
            parse_prometheus_text(text)


class TestJsonLogging:
    def _capture(self, level=logging.INFO):
        stream = io.StringIO()
        handler = configure_logging(level=level, stream=stream)
        return stream, handler

    def test_log_event_emits_one_json_object_per_line(self):
        stream, _ = self._capture()
        logger = get_logger("cluster")
        emitted = log_event(
            logger,
            "cluster.shed",
            level=logging.WARNING,
            trace_id="abc123",
            live_replicas=2,
        )
        assert emitted
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "cluster.shed"
        assert record["level"] == "warning"
        assert record["logger"] == "repro.serving.cluster"
        assert record["trace_id"] == "abc123"
        assert record["live_replicas"] == 2

    def test_configure_logging_is_idempotent(self):
        stream, _ = self._capture()
        configure_logging(stream=stream)  # must replace, not duplicate
        log_event(get_logger("http"), "http.slow_request")
        assert len(stream.getvalue().strip().splitlines()) == 1

    def test_disabled_level_short_circuits(self):
        stream, _ = self._capture(level=logging.ERROR)
        assert not log_event(get_logger("http"), "http.slow_request")
        assert stream.getvalue() == ""

    def test_unserializable_fields_degrade_to_str(self):
        stream, _ = self._capture()
        log_event(get_logger("http"), "weird", payload=object())
        record = json.loads(stream.getvalue().strip())
        assert "object object" in record["payload"]

    def teardown_method(self):
        # Drop the captured-stream handler so later tests (and suites)
        # never write into a closed StringIO.
        root = logging.getLogger("repro.serving")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_json_handler", False):
                root.removeHandler(handler)


class TestEventRateLimiter:
    def test_suppresses_within_interval_and_counts(self, monkeypatch):
        monkeypatch.setattr(observability, "_EVENT_MIN_INTERVAL", 1.0)
        limiter = EventRateLimiter()
        assert limiter.ready("shed", now=0.0) == (True, 0)
        assert limiter.ready("shed", now=0.2) == (False, 0)
        assert limiter.ready("shed", now=0.8) == (False, 0)
        # The next emitted event reports how many lines it swallowed.
        assert limiter.ready("shed", now=1.5) == (True, 2)
        assert limiter.ready("shed", now=3.0) == (True, 0)

    def test_keys_are_independent(self, monkeypatch):
        monkeypatch.setattr(observability, "_EVENT_MIN_INTERVAL", 1.0)
        limiter = EventRateLimiter()
        assert limiter.ready("shed", now=0.0) == (True, 0)
        assert limiter.ready("hedge", now=0.1) == (True, 0)

    def test_suppressed_count_reaches_the_log_line(self, monkeypatch):
        monkeypatch.setattr(observability, "_EVENT_MIN_INTERVAL", 10.0)
        stream = io.StringIO()
        configure_logging(stream=stream)
        try:
            limiter = EventRateLimiter()
            logger = get_logger("cluster")
            assert log_event(logger, "shed", limiter=limiter)
            assert not log_event(logger, "shed", limiter=limiter)
            assert not log_event(logger, "shed", limiter=limiter)
            limiter._last["shed"] = -100.0  # force the window open
            assert log_event(logger, "shed", limiter=limiter)
            lines = [
                json.loads(line)
                for line in stream.getvalue().strip().splitlines()
            ]
            assert lines[-1]["suppressed"] == 2
        finally:
            root = logging.getLogger("repro.serving")
            for handler in list(root.handlers):
                if getattr(handler, "_repro_json_handler", False):
                    root.removeHandler(handler)
