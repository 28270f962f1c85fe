"""Unit + Hypothesis property tests for the mergeable latency histogram,
plus wire tests for the percentile fields it adds to ``/v1/stats``.

The properties pin the contract the cluster's stats aggregation relies
on: fixed shared boundaries make ``merge`` *exactly* the histogram of the
pooled samples (index-wise count addition), counts are exact, quantile
estimates never undershoot the true sample quantile and overshoot by at
most one bucket width, and quantiles are monotone in q.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import AlignmentHTTPServer, AlignmentServer, LatencyHistogram
from repro.serving.cluster import AlignmentCluster
from repro.serving.histogram import GROWTH, LOWEST

from tests.serving.test_http import HttpClient


def build(samples):
    hist = LatencyHistogram()
    for sample in samples:
        hist.record(sample)
    return hist


def true_quantile(samples, q):
    """Nearest-rank sample quantile, ties rounded half up — the same rank
    rule the histogram uses (a float-ceiling here would drift past exact
    products: 0.9 * 10 == 9.000000000000002)."""
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, int(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


# In-range samples: away from the underflow bucket (below LOWEST every
# value collapses to one bucket) and the overflow bucket.
in_range_samples = st.lists(
    st.floats(min_value=2e-5, max_value=500.0, allow_nan=False),
    min_size=1,
    max_size=120,
)
quantiles = st.floats(min_value=0.01, max_value=1.0)


class TestUnit:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(0.5) is None
        assert hist.to_dict() == {
            "count": 0,
            "mean_ms": None,
            "max_ms": None,
            "p50_ms": None,
            "p90_ms": None,
            "p99_ms": None,
        }

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-0.001)

    def test_bad_quantile_rejected(self):
        hist = build([0.01])
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hist.quantile(q)

    def test_exact_fields_are_exact(self):
        samples = [0.001, 0.004, 0.002, 0.100]
        hist = build(samples)
        assert hist.count == 4
        assert hist.total == pytest.approx(sum(samples))
        assert hist.max == 0.100
        assert hist.mean == pytest.approx(sum(samples) / 4)

    def test_single_sample_quantile_is_tight(self):
        hist = build([0.0042])
        estimate = hist.quantile(0.5)
        # Clamped to the observed max: exact for a single sample.
        assert estimate == pytest.approx(0.0042)

    def test_underflow_reported_at_or_below_lowest(self):
        hist = build([1e-7, 1e-6])
        assert hist.quantile(0.99) <= LOWEST

    def test_overflow_reported_as_observed_max(self):
        huge = 5000.0  # beyond the last bucket boundary
        hist = build([huge])
        assert hist.quantile(1.0) == huge

    def test_zero_duration_is_exact(self):
        hist = build([0.0, 0.0])
        assert hist.quantile(1.0) == 0.0

    def test_p90_of_ten_is_the_ninth_sample_not_the_max(self):
        # Regression: 0.9 * 10 == 9.000000000000002 in IEEE floats; a
        # ceiling rank would report the 10 s outlier as p90.
        hist = build([0.001] * 9 + [10.0])
        assert hist.quantile(0.9) < 0.01
        assert hist.quantile(1.0) == 10.0

    def test_merged_classmethod_pools_counts(self):
        a, b, c = build([0.001]), build([0.010]), build([0.100, 0.2])
        pooled = LatencyHistogram.merged([a, b, c])
        assert pooled.count == 4
        assert pooled.bucket_counts() == build(
            [0.001, 0.010, 0.100, 0.2]
        ).bucket_counts()
        # Sources untouched (merged() builds a fresh histogram).
        assert a.count == 1 and b.count == 1 and c.count == 2


class TestProperties:
    @given(in_range_samples)
    @settings(max_examples=60, deadline=None)
    def test_counts_are_exact(self, samples):
        hist = build(samples)
        assert hist.count == len(samples)
        assert sum(hist.bucket_counts()) == len(samples)

    @given(in_range_samples, quantiles)
    @settings(max_examples=80, deadline=None)
    def test_quantile_brackets_true_quantile_within_one_bucket(
        self, samples, q
    ):
        hist = build(samples)
        estimate = hist.quantile(q)
        true = true_quantile(samples, q)
        assert estimate >= true * (1 - 1e-12)
        assert estimate <= true * GROWTH * (1 + 1e-12)

    @given(in_range_samples)
    @settings(max_examples=60, deadline=None)
    def test_quantiles_monotone_in_q(self, samples):
        hist = build(samples)
        grid = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        values = [hist.quantile(q) for q in grid]
        assert values == sorted(values)

    @given(in_range_samples, in_range_samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_exactly_the_pooled_histogram(self, left, right):
        merged = build(left).merge(build(right))
        pooled = build(left + right)
        assert merged.bucket_counts() == pooled.bucket_counts()
        assert merged.count == len(left) + len(right)
        assert merged.max == pooled.max
        assert merged.total == pytest.approx(pooled.total)

    @given(in_range_samples, in_range_samples, quantiles)
    @settings(max_examples=80, deadline=None)
    def test_merge_quantiles_bracket_pooled_samples(self, left, right, q):
        """The ISSUE's headline property: merge(a, b) quantiles bracket
        the pooled samples within one bucket width."""
        merged = build(left).merge(build(right))
        true = true_quantile(left + right, q)
        estimate = merged.quantile(q)
        assert true * (1 - 1e-12) <= estimate <= true * GROWTH * (1 + 1e-12)


# ----------------------------------------------------------------------
# /v1/stats wire tests for the new percentile fields
# ----------------------------------------------------------------------
def assert_percentile_fields(latency, *, expect_counts: bool):
    assert set(latency) == {
        "count", "mean_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms",
    }
    if expect_counts:
        assert latency["count"] > 0
        assert latency["p50_ms"] > 0
        assert latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]
        assert latency["p99_ms"] <= latency["max_ms"] * (GROWTH + 1e-9)


class TestStatsWire:
    def test_server_stats_report_latency_percentiles(self):
        async def main():
            server = AlignmentServer(
                engine="pure", batch_size=4, flush_interval=0.002
            )
            async with AlignmentHTTPServer(server) as front:
                client = await HttpClient.connect(front)
                for _ in range(6):
                    status, _, _ = await client.request(
                        "POST",
                        "/v1/edit_distance",
                        {"text": "ACGTACGT", "pattern": "ACGGT", "k": 3},
                    )
                    assert status == 200
                status, body, _ = await client.request("GET", "/v1/stats")
                client.close()
                return status, body

        status, body = asyncio.run(main())
        assert status == 200
        # Serving-layer latency (submit -> result) with percentiles.
        serving_latency = body["serving"]["latency"]
        assert serving_latency["count"] == 6
        assert_percentile_fields(serving_latency, expect_counts=True)
        # Per-endpoint HTTP latency percentiles.
        endpoint = body["endpoints"]["/v1/edit_distance"]
        assert endpoint["ok"] == 6
        assert_percentile_fields(endpoint["latency"], expect_counts=True)
        assert endpoint["latency"]["count"] == 6
        # Untouched endpoints expose the same (empty) shape.
        assert_percentile_fields(
            body["endpoints"]["/v1/align"]["latency"], expect_counts=False
        )

    def test_cluster_stats_report_per_replica_percentiles(self):
        async def main():
            cluster = AlignmentCluster(
                replicas=2,
                engine="pure",
                batch_size=2,
                flush_interval=0.002,
            )
            async with AlignmentHTTPServer(cluster) as front:
                client = await HttpClient.connect(front)
                for _ in range(8):
                    status, _, _ = await client.request(
                        "POST",
                        "/v1/edit_distance",
                        {"text": "ACGTACGT", "pattern": "ACGGT", "k": 3},
                    )
                    assert status == 200
                status, body, _ = await client.request("GET", "/v1/stats")
                health_status, health, _ = await client.request(
                    "GET", "/healthz"
                )
                client.close()
                return status, body, health_status, health

        status, body, health_status, health = asyncio.run(main())
        assert status == 200
        assert body["cluster"]["replicas"] == 2
        # Cluster-wide percentiles are the merged replica histograms:
        # counts add exactly.
        per_replica = [r["latency"] for r in body["replicas"]]
        assert all(r["count"] > 0 for r in per_replica)
        assert body["serving"]["latency"]["count"] == sum(
            r["count"] for r in per_replica
        )
        assert_percentile_fields(body["serving"]["latency"], expect_counts=True)
        for latency in per_replica:
            assert_percentile_fields(latency, expect_counts=True)
        # healthz reports per-replica load for the cluster.
        assert health_status == 200
        assert health["status"] == "ok"
        assert [r["state"] for r in health["replicas"]] == ["up", "up"]
