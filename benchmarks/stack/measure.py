"""Turning raw timings into the end-to-end metrics.

Every timing metric is taken over the **fastest 1 % of a run's samples**, not
over all of them. The reference box alternates, on a scale of tenths of a
second to tens of seconds, between a fast state and one 1.4-1.6x slower (a
busy sibling hyperthread: Python and native code slow down together, and
CPU time with them). A mean or median over a run lands wherever the mix of
the two states puts it and repeats within 40 %; so does any percentile that
describes the shape of the distribution (p50, p90 — those are reported as
per-layer diagnostics only). The fastest samples are the box left alone:
over 10 s of timing spread across 20 s of a run they repeat within about
8 % when the box is busy and 3 % when it is quiet (NOISE.json). A change to
the program moves them as it moves the rest; a change
that only trims slow outliers (a shorter pause) does not show here and has
to be argued from the diagnostics.

* in-process: a sample is one batch call; its cost is its duration per op.
* ``interactive_map``: ``latency_fast_ms`` ranks request round trips and
  ``reads_per_s`` ranks windows of WINDOW seconds by requests completed.
* ``job_stream``: a sample is a stretch of STRETCH consecutive chunk POSTs
  held by backpressure: the job takes reads in exactly as fast as it maps
  them, so ``STRETCH * 256`` reads over the stretch's duration is its
  throughput then, and the duration over STRETCH is what one chunk costs the
  client. (The output side cannot be windowed: a pull returns whatever the
  last 20 to 500 ms produced.) Here the fast level is the **best quartile's
  edge**, not the fastest 1 %: now and then everything lines up — a quiet
  box, full batches on both replicas — and the job runs 40 % above its
  usual pace for a second; whether a run saw that is luck, and the fastest
  1 % of its stretches says nothing else.
"""

from __future__ import annotations

import resource
import statistics

#: Share of a run's samples taken to be the uncontended box.
FAST = 0.01
#: ...but never fewer than this many samples.
LEAST = 3
#: Width of a throughput window on ``interactive_map``, seconds.
WINDOW = 0.05
#: Consecutive chunk POSTs in one ``job_stream`` sample.
STRETCH = 8
#: Least seconds between two timed sections of a run. The slow spells last
#: up to tens of seconds: ten contiguous seconds often see nothing else, and
#: the same ten seconds spread over twenty rarely do.
GAP = 2.5
#: Part of a traced run spent untraced, to price the spans themselves.
UNTRACED_PART = 0.25


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fastest(samples: list, cost) -> list:
    """The FAST share of ``samples`` with the lowest ``cost``, bar the very first.

    The single cheapest sample is the one a timing accident can fake (a
    backlog that drained in a burst, a window that caught one completion
    too many), so it is left out whenever there are samples to spare.
    """
    keep = max(LEAST, int(len(samples) * FAST))
    ordered = sorted(samples, key=cost)
    return ordered[1 : keep + 1] if len(ordered) > keep else ordered[:keep]


def call_metrics(calls: list[tuple[float, int, float]]) -> dict:
    """In-process: ``calls`` are ``(seconds, ops, process cpu seconds)``."""
    fast = fastest(calls, lambda call: call[0] / call[1])
    durations = sorted(call[0] for call in calls)
    return {
        "reads_per_s": sum(call[1] for call in fast) / sum(call[0] for call in fast),
        "latency_fast_ms": statistics.mean(call[0] for call in fast) * 1e3,
        "cpu_ms_per_op": sum(c[2] for c in calls) / sum(c[1] for c in calls) * 1e3,
        "latency_p50_ms": percentile(durations, 0.5) * 1e3,
        "latency_p90_ms": percentile(durations, 0.9) * 1e3,
    }


def window_rates(completions: list[float], start: float, end: float) -> list[float]:
    """Ops per second in each WINDOW of ``[start, end)``, from completion times."""
    counts = [0] * max(1, int((end - start) / WINDOW))
    for when in completions:
        slot = int((when - start) / WINDOW)
        if when >= start and slot < len(counts):
            counts[slot] += 1
    return [count / WINDOW for count in counts]


def wire_metrics(sections: list[dict], quartile: bool) -> dict:
    """On the wire, over one timed section per child.

    A section holds ``rates`` (ops per second, one sample per window or
    stretch), ``latencies`` (seconds, one sample per op-call), and the
    child's ``cpu`` seconds and ``ops`` over the section. With ``quartile``
    the fast level is the best quartile's edge, not the fastest 1 %.
    """
    rates = sorted((rate for s in sections for rate in s["rates"]), reverse=True)
    latencies = sorted(x for s in sections for x in s["latencies"])
    if quartile:
        rate, latency = percentile(rates, 0.25), percentile(latencies, 0.25)
    else:
        rate = statistics.mean(fastest(rates, lambda rate: -rate))
        latency = statistics.mean(fastest(latencies, lambda x: x))
    return {
        "reads_per_s": rate,
        "latency_fast_ms": latency * 1e3,
        "cpu_ms_per_op": (
            sum(s["cpu"] for s in sections) / sum(s["ops"] for s in sections) * 1e3
        ),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
