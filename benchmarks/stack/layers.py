"""Per-layer metrics: from spans, from public counters, from direct calls.

Three sources, all outside the program: the spans the wrappers in
``spans.py`` recorded during the traced section; counters the program
already publishes (``ReadMapper.stats``, ``GET /v1/stats``); and, for the
stages no wrapper can reach (raw kernels, seeding, SAM rendering, region
reads, FASTQ parsing), a pass that calls the stage directly over inputs of
the same shape. Layer names are the program's module names.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import inputs as inp
from repro import GenAsmAligner, get_engine
from repro.core import kernels
from repro.core.genasm_tb import _compile_order
from repro.core.scoring import TracebackConfig
from repro.mapping.seeding import candidate_locations
from repro.sequences import FastqStreamParser, Genome, ShardedGenome

ROOT = Path(__file__).resolve().parents[2]
MAPPER_THRESHOLD = max(4, int(200 * inp.ERROR_RATE))  # make_genasm_mapper's rule


def zero_layers() -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json at 0: a layer off the path."""
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        return {metric["name"]: 0.0 for metric in json.load(handle)["per_layer"]}


# ----------------------------------------------------------------------
# Direct-call passes
# ----------------------------------------------------------------------
def _us_per_item(call: Callable[[Any], Any], items: list) -> float:
    started = time.perf_counter()
    for item in items:
        call(item)
    return (time.perf_counter() - started) / len(items) * 1e6


def direct_passes(
    genome: Genome,
    seed: int,
    longs: list[tuple[str, str]] | None = None,
    *,
    sample: list[tuple[str, str]] | None = None,
    threshold: int = MAPPER_THRESHOLD,
    mapper=None,
) -> dict:
    """Stages no wrapper can reach, timed by calling them directly.

    Raw kernels through the ``core.kernels`` ABI and the ``batched``
    reference rows run for every workload, over ``sample`` and ``longs``
    (512 pairs shaped like the mapper's candidates and four 10 kb pairs,
    unless the workload brings its own); the mapping and sequence stages
    only when the workload has a mapper. ``long_pair_us`` is not a metric:
    ``engine.dispatch_ratio`` on ``long_read_align`` needs it.
    """
    if sample is None:
        sample = inp.candidate_pairs(genome, 512, seed)
    if longs is None:
        longs = inp.long_pairs(genome, 4, seed, 10_000)
    config = TracebackConfig()
    window = dict(
        window_size=64, overlap=24, program=_compile_order(config.order, config.affine)
    )

    def align(pair):
        return kernels.native_align_pair(pair[0], pair[1], **window)

    long_us = _us_per_item(align, longs)
    out = {
        "core.align_pair_us": _us_per_item(align, sample),
        "core.scan_us": _us_per_item(
            lambda p: kernels.native_scan(p[0], p[1], threshold, first_match_only=True),
            sample,
        ),
        "core.dc_window_us": _us_per_item(
            lambda p: kernels.native_dc_window(p[0][:64], p[1][:64]), sample
        ),
        "core.align_long_us_per_kb": long_us / (len(longs[0][1]) / 1000),
        "long_pair_us": long_us,
    }
    reference = get_engine("batched")
    started = time.perf_counter()
    GenAsmAligner(engine=reference).align_batch(sample)
    out["engine.batched.align_us_per_pair"] = (time.perf_counter() - started) / len(sample) * 1e6
    started = time.perf_counter()
    reference.scan_batch(sample, threshold, first_match_only=True)
    out["engine.batched.scan_us_per_pair"] = (time.perf_counter() - started) / len(sample) * 1e6
    if mapper is None:
        return out

    reads = [read for _, read in sample]
    complement = str.maketrans("ACGT", "TGCA")
    oriented = reads + [read.translate(complement)[::-1] for read in reads]
    # map_reads seeds both strands of every read and fetches each
    # candidate's region: two oriented passes per read.
    out["mapping.seed_us_per_read"] = 2 * _us_per_item(
        lambda read: [
            genome.region(c.position, len(read) + 8)
            for c in candidate_locations(read, mapper.index, max_candidates=8)
        ],
        oriented,
    )
    records = [
        result.record
        for result in mapper.map_reads([(f"d{i}", read) for i, read in enumerate(reads)])
    ]
    out["mapping.sam_us_per_read"] = _us_per_item(lambda record: record.to_line(), records)
    rng = random.Random(seed + 6)
    starts = [rng.randrange(len(genome) - 200) for _ in range(2048)]
    out["sequences.region_us"] = _us_per_item(lambda s: genome.region(s, 108), starts)
    out["mapping.index_kmers"] = float(len(mapper.index))
    return out


def sequence_passes(genome: Genome, fastq_pieces: list[str], reads: int, workdir: Path) -> dict:
    """``job_stream``'s storage and parsing stages, called directly."""
    store_dir = workdir / "direct-shards"
    started = time.perf_counter()
    store = ShardedGenome.write([genome], store_dir)
    written = time.perf_counter() - started
    shard = store.shard(genome.name)
    rng = random.Random(len(genome))
    starts = [rng.randrange(len(genome) - 200) for _ in range(2048)]
    region_us = _us_per_item(lambda s: shard.region(s, 108), starts)
    store.close()
    shutil.rmtree(store_dir, ignore_errors=True)
    parser = FastqStreamParser()
    started = time.perf_counter()
    for piece in fastq_pieces:
        parser.feed(piece)
    parse_us = (time.perf_counter() - started) / reads * 1e6
    return {
        "sequences.sharded_write_s": written,
        "sequences.shard_region_us": region_us,
        "sequences.fastq_parse_us_per_read": parse_us,
    }


# ----------------------------------------------------------------------
# From spans and counters
# ----------------------------------------------------------------------
def named(spans: list[dict], name: str) -> list[dict]:
    return [span for span in spans if span["name"] == name]


def _length(spans: list[dict]) -> float:
    return sum(span["end"] - span["start"] for span in spans)


def engine_metrics(spans: list[dict], direct: dict, workload: str) -> dict:
    """Calls, pairs and time at the engine seam.

    ``busy_s`` is wall time inside the calls; ``us_per_pair`` is thread CPU,
    which does not count the wait for the interpreter lock that the wire
    workloads' three threads impose on each other.
    """
    out: dict[str, float] = {}
    total_calls = total_pairs = 0
    for kind in ("align", "scan"):
        calls = named(spans, f"engine.{kind}_batch")
        pairs = sum(span["n"] for span in calls)
        cpu = sum(span["cpu"] for span in calls)
        out[f"engine.{kind}_calls"] = float(len(calls))
        out[f"engine.{kind}_pairs"] = float(pairs)
        out[f"engine.{kind}_busy_s"] = _length(calls)
        out[f"engine.{kind}_us_per_pair"] = cpu / pairs * 1e6 if pairs else 0.0
        total_calls += len(calls)
        total_pairs += pairs
    out["engine.mean_batch_pairs"] = total_pairs / total_calls if total_calls else 0.0
    # 1.0 means the registry/shim/packing layer is free: engine time per
    # pair over the raw kernel's, for the kernel the workload leans on.
    if workload == "prefilter_pairs":
        ratio = out["engine.scan_us_per_pair"] / direct["core.scan_us"]
    elif workload == "long_read_align":
        ratio = out["engine.align_us_per_pair"] / direct["long_pair_us"]
    else:
        ratio = out["engine.align_us_per_pair"] / direct["core.align_pair_us"]
    out["engine.dispatch_ratio"] = ratio
    return out


def mapping_metrics(spans: list[dict], counts: dict | None) -> dict:
    """From ``mapping.map_reads`` spans and ``ReadMapper.stats`` counters."""
    if not counts or not counts["reads"]:
        return {}
    calls = named(spans, "mapping.map_reads")
    reads = sum(span["n"] for span in calls) or 1
    busy = _length(calls)
    filtering = _length(named(spans, "core.accepts_batch"))
    aligning = _length(named(spans, "core.align_batch"))
    return {
        "mapping.map_reads_calls": float(len(calls)),
        "mapping.map_reads_busy_s": busy,
        "mapping.us_per_read": busy / reads * 1e6,
        "mapping.filter_us_per_read": filtering / reads * 1e6,
        "mapping.align_us_per_read": aligning / reads * 1e6,
        "mapping.self_us_per_read": (busy - filtering - aligning) / reads * 1e6,
        "mapping.candidates_per_read": counts["candidates"] / counts["reads"],
        "mapping.filter_reject_share": (
            counts["filtered_out"] / counts["candidates"] if counts["candidates"] else 0.0
        ),
        "mapping.alignments_per_read": counts["alignments_run"] / counts["reads"],
        "mapping.mapped_share": counts["mapped"] / counts["reads"],
        "mapping.align_useful_share": (
            counts["mapped"] / counts["alignments_run"] if counts["alignments_run"] else 0.0
        ),
    }


def pipeline_counts(mapper) -> dict[str, int] | None:
    """``ReadMapper.stats`` as a dict (None when the workload has no mapper)."""
    if mapper is None:
        return None
    return {
        key: getattr(mapper.stats, key)
        for key in ("reads", "candidates", "filtered_out", "alignments_run", "mapped")
    }


def server_metrics(spans: list[dict], stats: tuple[dict, dict], wall: float) -> dict:
    """From ``GET /v1/stats`` before and after, and the mapper batch spans."""
    before, after = stats

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return float(a - b)

    flushes = delta("serving", "flushes")
    dispatched = [
        float(a["dispatched"] - b["dispatched"])
        for a, b in zip(after["replicas"], before["replicas"])
    ]
    busy: dict[Any, float] = {}
    for span in named(spans, "mapping.map_reads"):
        replica = span.get("replica")
        busy[replica] = busy.get(replica, 0.0) + span["end"] - span["start"]
    return {
        "serving.server.flushes": flushes,
        "serving.server.mean_batch": delta("serving", "served") / flushes if flushes else 0.0,
        "serving.server.size_flush_share": (
            delta("serving", "size_flushes") / flushes if flushes else 0.0
        ),
        "serving.server.busy_share": statistics.mean(busy.values()) / wall if busy else 0.0,
        "serving.server.cancelled": delta("serving", "cancelled"),
        "serving.server.expired": delta("serving", "expired"),
        "serving.cluster.replica_imbalance": (
            max(dispatched) / statistics.mean(dispatched) if sum(dispatched) else 0.0
        ),
        "serving.cluster.retries": delta("cluster", "retries"),
        "serving.cluster.hedges": delta("cluster", "hedges"),
        "serving.cluster.shed": delta("cluster", "shed"),
    }


def shares(layers: dict[str, float], per_layer: dict, *, reads: int, fastq: bool) -> dict:
    """Each layer's share of the measured time, from seconds of self time.

    ``sequences`` cannot be wrapped: its part is the direct-call cost of the
    region reads per read (and, on ``job_stream``, the FASTQ parse), moved
    out of the layer whose span it ran inside.
    """
    total = sum(layers.values())
    if not total:
        return {}
    region_us = per_layer["sequences.shard_region_us"] or per_layer["sequences.region_us"]
    serving = sum(v for k, v in layers.items() if k.startswith("serving"))
    mapping = layers.get("mapping", 0.0)
    in_mapping = min(
        mapping, region_us * per_layer["mapping.candidates_per_read"] * reads / 1e6
    )
    in_serving = (
        min(serving, per_layer["sequences.fastq_parse_us_per_read"] * reads / 1e6)
        if fastq
        else 0.0
    )
    return {
        "share.core": layers.get("core", 0.0) / total,
        "share.engine": layers.get("engine", 0.0) / total,
        "share.mapping": (mapping - in_mapping) / total,
        "share.sequences": (in_mapping + in_serving) / total,
        "share.serving": (serving - in_serving) / total,
    }


def union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered
