"""Fixed-boundary log-bucket latency histograms (mergeable, sample-free).

Percentile latency is the serving metric that matters — a mean hides the
tail a saturated replica inflicts — but storing every sample is exactly
what a server under millions of requests cannot do. The standard answer
(HdrHistogram, Prometheus native histograms) is a histogram over
*log-spaced* buckets: relative error is bounded by the bucket growth
factor, memory is a fixed few hundred counters, and recording is one
bisect plus an increment.

The boundaries here are **fixed at class level**, shared by every
instance. That single decision is what makes the type mergeable: two
histograms — one per replica, one per endpoint — merge by index-wise
count addition, and the merged histogram is *bit-identical* to the
histogram that would have been built from the pooled samples. A cluster's
``/v1/stats`` can therefore report true cluster-wide percentiles without
any replica ever shipping a sample.

Quantile extraction returns the **upper edge** of the bucket holding the
target rank (clamped to the observed maximum), so the estimate is
conservative: ``true_quantile <= estimate <= true_quantile * GROWTH`` for
values inside the bucket range — "within one bucket width", the bound the
property tests assert. Values below ``LOWEST`` land in the underflow
bucket (reported as ``LOWEST``); values above the top boundary land in
the overflow bucket and are reported as the observed maximum.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

#: Bucket growth factor: four buckets per octave, ~19% worst-case
#: relative error on any reported quantile.
GROWTH = 2.0 ** 0.25

#: Lower edge of the first real bucket (10 microseconds). Anything
#: faster is "instant" at serving granularity.
LOWEST = 1e-5

#: Number of log-spaced boundaries. 108 buckets of 2**0.25 span
#: 10 us .. ~1286 s, comfortably past any request this layer serves.
_N_BOUNDS = 108

#: Shared upper edges: bucket ``i`` holds values in
#: ``(_BOUNDS[i-1], _BOUNDS[i]]`` (bucket 0: ``(0, LOWEST]``); one extra
#: overflow bucket follows the last boundary.
_BOUNDS: tuple[float, ...] = tuple(LOWEST * GROWTH**i for i in range(_N_BOUNDS))


class LatencyHistogram:
    """Counts of observed durations (seconds) in shared log buckets."""

    __slots__ = ("_counts", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._counts = [0] * (_N_BOUNDS + 1)  # + overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    # ------------------------------------------------------------------
    # Recording and merging
    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        """Fold one observed duration into the histogram."""
        if seconds < 0:
            raise ValueError("durations must be non-negative")
        self._counts[bisect_left(_BOUNDS, seconds)] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram in place (and return it).

        Because every instance shares the same boundaries, the result is
        exactly the histogram of the pooled samples.
        """
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self._count += other._count
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        return self

    @classmethod
    def merged(cls, items: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        """A fresh histogram holding the pooled counts of ``items``."""
        out = cls()
        for item in items:
            out.merge(item)
        return out

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total recorded durations."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of recorded durations, seconds (exact, kept for the mean)."""
        return self._sum

    @property
    def max(self) -> float:
        """Largest recorded duration, seconds (exact)."""
        return self._max

    @property
    def mean(self) -> float | None:
        """Mean duration, seconds (None when empty)."""
        if self._count == 0:
            return None
        return self._sum / self._count

    def bucket_counts(self) -> list[int]:
        """A copy of the raw bucket counts (tests and debugging)."""
        return list(self._counts)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_edge_seconds, cumulative_count)`` for occupied buckets.

        The Prometheus-histogram view of the counts: each entry is a
        ``le`` boundary with the number of samples at or below it. Only
        boundaries whose own bucket holds samples are emitted — buckets
        are cumulative, so any boundary subset is a faithful exposition,
        and eliding the empty ones keeps the 100+-bucket log spacing from
        bloating every scrape. The overflow bucket has no finite edge;
        callers emit the mandatory ``+Inf`` bucket from :attr:`count`.
        """
        out: list[tuple[float, int]] = []
        seen = 0
        for i, bucket in enumerate(self._counts[:_N_BOUNDS]):
            seen += bucket
            if bucket:
                out.append((_BOUNDS[i], seen))
        return out

    @staticmethod
    def bucket_bounds() -> Sequence[float]:
        """The shared bucket upper edges (seconds)."""
        return _BOUNDS

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (0 < q <= 1) in seconds, None if empty.

        Nearest-rank (ties rounded half up) over the bucket counts;
        returns the upper edge of the bucket containing the target rank,
        clamped to the observed max. The estimate never undershoots the
        true sample quantile and overshoots by at most one bucket width
        (factor :data:`GROWTH`) for in-range values.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self._count == 0:
            return None
        # Round-half-up rank: stable against binary-float drift, where a
        # ceiling would overshoot (0.9 * 10 == 9.000000000000002 must
        # still pick rank 9, not 10).
        target = min(self._count, max(1, int(q * self._count + 0.5)))
        seen = 0
        for i, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                upper = _BOUNDS[i] if i < _N_BOUNDS else self._max
                # The observed max bounds every sample, so clamping keeps
                # the estimate >= the true quantile while tightening the
                # underflow/overflow buckets to exact values.
                return min(upper, self._max)
        return self._max  # pragma: no cover - counts always sum to _count

    def percentiles(
        self, points: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> dict[float, float | None]:
        """Quantiles at the given percentile ``points`` (0-100 scale)."""
        return {p: self.quantile(p / 100.0) for p in points}

    def to_dict(self) -> dict[str, float | int | None]:
        """Wire form for ``/v1/stats``: count, mean/max, p50/p90/p99 (ms)."""

        def ms(seconds: float | None) -> float | None:
            return None if seconds is None else seconds * 1e3

        quantiles = self.percentiles()
        return {
            "count": self._count,
            "mean_ms": ms(self.mean),
            "max_ms": ms(self._max) if self._count else None,
            "p50_ms": ms(quantiles[50.0]),
            "p90_ms": ms(quantiles[90.0]),
            "p99_ms": ms(quantiles[99.0]),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self._count}, mean={self.mean}, "
            f"max={self._max})"
        )
