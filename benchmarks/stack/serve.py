"""Launcher for the program under test in the wire workloads.

Started by ``wire.py`` as a child process: builds the serving stack the
workload names, listens on a loopback port the kernel picks, prints one
*ready line* (JSON: port, pid, and ``setup_s`` — wall time inside the
program's own set-up calls until the first warm-up op returns, once per
``--setups``), serves until
a line arrives on stdin, shuts down, and prints one *exit report* (peak RSS,
CPU, and where the spans were written). Everything it reads from the network
is generated by the load generator from the seed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import inputs as inp  # noqa: E402
import spans as sp  # noqa: E402
from repro.engine.registry import create_engine  # noqa: E402
from repro.mapping.index import KmerIndex  # noqa: E402
from repro.mapping.pipeline import make_genasm_mapper  # noqa: E402
from repro.sequences import ShardedGenome  # noqa: E402
from repro.serving import (  # noqa: E402
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    JobManager,
)


def build_cluster(reference, flush_interval: float, tracer: sp.Tracer | None):
    """Two replicas over ``reference``; with a tracer, wrapped at every seam."""
    if tracer is None:
        return AlignmentCluster(
            replicas=inp.REPLICAS,
            mapper=make_genasm_mapper(
                reference, seed_length=inp.SEED_LENGTH,
                error_rate=inp.ERROR_RATE, engine=inp.ENGINE,
            ),
            batch_size=64,
            flush_interval=flush_interval,
        )
    index = KmerIndex.build(reference, k=inp.SEED_LENGTH)
    servers = []
    for i in range(inp.REPLICAS):
        replica = f"replica-{i}"
        engine = sp.TracedEngine(create_engine(inp.ENGINE), tracer)
        server = AlignmentServer(
            engine=engine,
            mapper=sp.traced_mapper(
                reference, index, engine, tracer, inp.ERROR_RATE, replica=replica
            ),
            batch_size=64,
            flush_interval=flush_interval,
            name=replica,
        )
        servers.append(sp.TracedServer(server, tracer))
    return AlignmentCluster(servers=servers)


async def serve(args: argparse.Namespace) -> None:
    genome = inp.reference_genome(args.seed, args.genome_length)
    warm_read = genome.region(len(genome) // 2, inp.READ_LENGTH)
    workdir = Path(args.workdir)
    tracer = sp.Tracer("s") if args.traced else None

    # Set up --setups times, timing each; all but the last are torn down.
    setup_s = []
    for repeat in range(args.setups):
        if repeat:
            await front.stop()
        started = time.monotonic()
        if args.workload == "job_stream":
            store = ShardedGenome.write([genome], workdir / f"shards-{os.getpid()}")
            backend = build_cluster(store.shard(genome.name), 0.005, tracer)
        else:
            backend = build_cluster(genome, 0.0, tracer)
        if tracer is not None:
            backend = sp.TracedBackend(backend, tracer)
        if args.workload == "job_stream":
            jobs = JobManager(backend, window=inp.JOB_WINDOW)
            if tracer is not None:
                jobs = sp.TracedJobs(jobs, tracer)
            front = AlignmentHTTPServer(backend, job_manager=jobs)
        else:
            front = AlignmentHTTPServer(backend)
        await front.start(port=0)
        await backend.map_read("warmup", warm_read)
        setup_s.append(time.monotonic() - started)

    print(json.dumps({"port": front.port, "pid": os.getpid(), "setup_s": setup_s}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    await front.stop()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": time.process_time(),
    }
    if tracer is not None:
        report["spans"] = str(workdir / f"spans-{os.getpid()}.json")
        sp.write_spans(report["spans"], tracer.spans)
    print(json.dumps(report), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inp.WIRE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--genome-length", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--setups", type=int, default=1)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
