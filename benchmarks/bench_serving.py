"""Serving benchmark: concurrent clients through the AlignmentServer.

Simulates a service under concurrent load: ``--clients`` independent client
coroutines each submit single-pair requests to one
:class:`~repro.serving.server.AlignmentServer` and await every response
before sending the next, while the server re-batches whatever is in flight
into one engine call per flush. Two workloads bound the design space:

* ``short`` — 150 bp reads served as ``edit_distance`` requests (the
  pre-alignment filtering service shape);
* ``long``  — 10 kbp reads served as full ``align`` requests (the long-read
  alignment service shape the sharded backend targets).

Each configuration sweeps the flush window (deadline, ms) and the backend —
``pure`` vs ``batched`` vs ``sharded`` at each requested worker count — and
records requests/sec plus p50/p99 client-observed latency. Emits a
machine-readable ``BENCH_serving.json`` at the repo root (tracked across
PRs, uploaded as a CI artifact); the rendered table goes to stdout.

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
"""

from __future__ import annotations

import argparse
import asyncio
import random
import time
from dataclasses import dataclass
from pathlib import Path

from _common import REPO_ROOT, emit_json, emit_table

from repro.engine import ShardedEngine, available_engines, get_engine
from repro.serving import AlignmentServer
from repro.sequences.mutate import MutationProfile, mutate

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"


@dataclass(frozen=True)
class Workload:
    """One service shape: request op + read geometry."""

    name: str
    op: str  # "edit_distance" | "align"
    read_length: int
    error_rate: float
    requests: int  # total requests across all clients

    @property
    def threshold(self) -> int:
        return max(8, int(self.read_length * self.error_rate))


def build_pairs(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """(region, read) pairs shaped like accepted mapping candidates."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(workload.requests):
        region = "".join(
            rng.choice("ACGT")
            for _ in range(workload.read_length + workload.threshold)
        )
        read = mutate(
            region[: workload.read_length],
            MutationProfile(error_rate=workload.error_rate),
            rng=rng,
        ).sequence
        pairs.append((region, read))
    return pairs


async def drive_clients(
    server: AlignmentServer,
    workload: Workload,
    pairs: list[tuple[str, str]],
    clients: int,
) -> tuple[float, list[float]]:
    """Run the client swarm; returns (wall seconds, per-request latencies)."""

    async def client(own: list[tuple[str, str]]) -> list[float]:
        latencies = []
        for text, pattern in own:
            start = time.perf_counter()
            if workload.op == "edit_distance":
                await server.edit_distance(text, pattern, workload.threshold)
            else:
                await server.align(text, pattern)
            latencies.append(time.perf_counter() - start)
        return latencies

    shards = [pairs[c::clients] for c in range(clients)]
    start = time.perf_counter()
    per_client = await asyncio.gather(
        *(client(shard) for shard in shards if shard)
    )
    elapsed = time.perf_counter() - start
    return elapsed, [lat for lats in per_client for lat in lats]


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile of ``latencies`` (q in [0, 100])."""
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def run_config(
    workload: Workload,
    pairs: list[tuple[str, str]],
    backend: str,
    workers: int | None,
    flush_ms: float,
    clients: int,
    batch_size: int,
) -> dict:
    if backend == "sharded":
        engine = ShardedEngine(workers=workers)
    else:
        engine = get_engine(backend)
    try:

        async def run() -> tuple[float, list[float], AlignmentServer]:
            async with AlignmentServer(
                engine=engine,
                batch_size=batch_size,
                flush_interval=flush_ms / 1000.0,
                max_pending=max(batch_size, clients * 4),
            ) as server:
                elapsed, latencies = await drive_clients(
                    server, workload, pairs, clients
                )
                return elapsed, latencies, server

        elapsed, latencies, server = asyncio.run(run())
    finally:
        if backend == "sharded":
            engine.close()
    return {
        "workload": workload.name,
        "op": workload.op,
        "read_length": workload.read_length,
        "error_rate": workload.error_rate,
        "backend": backend,
        "workers": workers if workers is not None else 1,
        "flush_ms": flush_ms,
        "clients": clients,
        "batch_size": batch_size,
        "requests": len(pairs),
        "seconds": elapsed,
        "requests_per_sec": len(pairs) / elapsed,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "flushes": server.stats.flushes,
        "mean_batch": server.stats.mean_batch,
        "deadline_flushes": server.stats.deadline_flushes,
        "size_flushes": server.stats.size_flushes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI: short reads, few requests, 2 workers",
    )
    parser.add_argument(
        "--clients", type=int, default=64, help="concurrent client coroutines"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[2, 4],
        help="sharded worker counts to sweep",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON artifact",
    )
    args = parser.parse_args()
    if args.clients < 1:
        parser.error("--clients must be at least 1")

    if args.smoke:
        clients = min(args.clients, 16)
        workloads = [
            Workload("short", "edit_distance", 64, 0.10, requests=64),
            Workload("long", "align", 1_000, 0.10, requests=8),
        ]
        flush_windows = [2.0]
        worker_counts = [2]
        batch_size = 16
    else:
        clients = args.clients
        workloads = [
            Workload("short", "edit_distance", 150, 0.05, requests=512),
            Workload("long", "align", 10_000, 0.10, requests=96),
        ]
        flush_windows = [2.0, 10.0]
        worker_counts = sorted(set(args.workers))
        batch_size = 64

    single_process = [
        name for name in available_engines() if name != "sharded"
    ]
    sharded_available = "sharded" in available_engines()

    results: list[dict] = []
    for workload in workloads:
        pairs = build_pairs(workload, seed=0x5EED)
        for flush_ms in flush_windows:
            for backend in single_process:
                results.append(
                    run_config(
                        workload, pairs, backend, None, flush_ms, clients,
                        batch_size,
                    )
                )
            if sharded_available:
                for workers in worker_counts:
                    results.append(
                        run_config(
                            workload, pairs, "sharded", workers, flush_ms,
                            clients, batch_size,
                        )
                    )

    # Speedup of sharded over pure, per workload / window / worker count.
    pure_rate = {
        (r["workload"], r["flush_ms"]): r["requests_per_sec"]
        for r in results
        if r["backend"] == "pure"
    }
    speedups = [
        {
            "workload": r["workload"],
            "flush_ms": r["flush_ms"],
            "backend": r["backend"],
            "workers": r["workers"],
            "speedup_vs_pure": r["requests_per_sec"]
            / pure_rate[(r["workload"], r["flush_ms"])],
        }
        for r in results
        if r["backend"] != "pure"
    ]
    long_sharded = [
        s["speedup_vs_pure"]
        for s in speedups
        if s["backend"] == "sharded"
        and s["workload"] == "long"
        and s["workers"] >= 2
    ]
    summary = {
        "clients": clients,
        "worker_counts": worker_counts if sharded_available else [],
        "best_sharded_speedup_long_reads": max(long_sharded, default=None),
        "max_requests_per_sec": max(r["requests_per_sec"] for r in results),
    }

    emit_json(
        args.output,
        "serving",
        {
            "smoke": args.smoke,
            "results": results,
            "speedups": speedups,
            "summary": summary,
        },
    )

    rows = [
        [
            r["workload"],
            r["backend"],
            r["workers"],
            f"{r['flush_ms']:.0f}",
            r["clients"],
            f"{r['requests_per_sec']:,.0f}",
            f"{r['p50_ms']:.1f}",
            f"{r['p99_ms']:.1f}",
            f"{r['mean_batch']:.1f}",
        ]
        for r in results
    ]
    emit_table(
        "bench_serving",
        [
            "workload", "backend", "workers", "window ms", "clients",
            "req/s", "p50 ms", "p99 ms", "mean batch",
        ],
        rows,
        title="Async serving throughput/latency (pure vs batched vs sharded)",
    )
    print(f"\nwrote {args.output}")
    if summary["best_sharded_speedup_long_reads"] is not None:
        print(
            "best sharded speedup vs pure on long reads: "
            f"{summary['best_sharded_speedup_long_reads']:.2f}x"
        )


if __name__ == "__main__":
    main()
