"""The three in-process workloads: the library called the way a user calls it.

Every workload — here and in ``wire.py`` — has the same shape. Inputs come
from the seed (a pool of unique ops, cycled). The program is set up, several
times, so ``setup_s`` is not one sample. A fixed *validation pass* over the
first ops of the pool warms the program up and has every output judged by
``validate.py``. Then the *timed section* cycles the rest of the pool for
the requested number of seconds; an op there fails when its call raises or
returns the wrong number of results.

Why each workload is here is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

import inputs as inp
import layers as ly
import measure as me
import spans as sp
import validate as va
from repro import GenAsmAligner, GenAsmFilter, get_engine
from repro.mapping.index import KmerIndex
from repro.mapping.pipeline import make_genasm_mapper

OUT = Path(__file__).resolve().parent / "out"


class InProcess:
    """One in-process workload: inputs, set-up, the op call, the validator."""

    def __init__(self, name: str, sizes: inp.Sizes, seed: int) -> None:
        self.name = name
        self.genome = inp.reference_genome(seed, sizes.genome)
        self.mapper: Any = None
        self.index_build_s = 0.0
        if name == "long_read_align":
            self.ops = inp.long_pairs(self.genome, sizes.pool, seed, sizes.read_length)
        elif name == "prefilter_pairs":
            self.ops = inp.filter_pairs(self.genome, sizes.pool, seed)
        else:
            self.reads = inp.short_reads(self.genome, sizes.pool, seed)
            self.ops = [(read.name, read.sequence) for read in self.reads]
        self.batches = inp.batched(self.ops, sizes.batch)

    def setup(self, tracer: sp.Tracer | None) -> Callable[[list], list]:
        """Build the program under test and run the first warm-up op.

        Returns the op call. With a tracer every seam carries a wrapper.
        """
        engine = (
            inp.ENGINE if tracer is None else sp.TracedEngine(get_engine(inp.ENGINE), tracer)
        )
        if self.name == "long_read_align":
            aligner = GenAsmAligner(engine=engine)
            call = aligner.align_batch
            if tracer is not None:
                call = sp.TracedAligner(aligner, tracer).align_batch
        elif self.name == "prefilter_pairs":
            prefilter = GenAsmFilter(inp.FILTER_THRESHOLD, engine=engine)
            call = prefilter.accepts_batch
            if tracer is not None:
                call = sp.TracedFilter(prefilter, tracer).accepts_batch
        else:
            started = time.perf_counter()
            if tracer is None:
                self.mapper = make_genasm_mapper(
                    self.genome, seed_length=inp.SEED_LENGTH,
                    error_rate=inp.ERROR_RATE, engine=engine,
                )
            else:
                index = KmerIndex.build(self.genome, k=inp.SEED_LENGTH)
                self.mapper = sp.traced_mapper(
                    self.genome, index, engine, tracer, inp.ERROR_RATE
                )
            self.index_build_s = time.perf_counter() - started
            call = self.mapper.map_reads
        call(self.batches[0])
        return call

    def judge(self, tally: va.Tally, outputs: list[list]) -> str:
        """Judge the validation pass; returns its ``output_sha256``."""
        flat = [result for batch in outputs for result in batch]
        if self.name == "long_read_align":
            for (text, read), alignment in zip(self.ops, flat):
                tally.judge(va.check_alignment(alignment, text, read))
            return va.digest(
                f"{a.text_consumed}:{a.edit_distance}:{a.cigar.to_sam()}" for a in flat
            )
        if self.name == "prefilter_pairs":
            for (region, read), verdict in zip(self.ops, flat):
                va.judge_filter(tally, verdict, region, read, inp.FILTER_THRESHOLD)
            return va.digest("1" if verdict else "0" for verdict in flat)
        lines = [result.record.to_line() for result in flat]
        for read, line in zip(self.reads, lines):
            va.judge_mapping(
                tally, line, read, self.genome.sequence, self.genome.name,
                inp.PLACEMENT_TOLERANCE,
            )
        return va.digest(lines)


def drive(call: Callable[[list], list], batches: list[list], first: int, seconds: float):
    """One timed section: cycle ``batches`` from ``first`` for ``seconds``.

    Returns ``(calls, ops failed, start, end)``; a call is ``(seconds, ops,
    process cpu seconds)``.
    """
    calls: list[tuple[float, int, float]] = []
    failed = 0
    cursor = first
    begin = time.monotonic()
    deadline = begin + seconds
    while True:
        batch = batches[cursor % len(batches)]
        cursor += 1
        cpu = time.process_time()
        start = time.monotonic()
        try:
            returned = len(call(batch))
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            returned = 0
        end = time.monotonic()
        calls.append((end - start, len(batch), time.process_time() - cpu))
        failed += len(batch) - min(returned, len(batch))
        if end >= deadline:
            return calls, failed, begin, end


def run_in_process(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    sizes = (inp.SMOKE if smoke else inp.FULL)[name]
    work = InProcess(name, sizes, seed)
    tally = va.Tally()
    first = sizes.validate // sizes.batch
    result: dict[str, Any] = {"tally": tally}

    def timed(call, seconds: float) -> tuple[list, float, float]:
        calls, failed, start, end = drive(call, work.batches, first, seconds)
        tally.attempted += sum(ops for _, ops, _ in calls)
        if failed:
            tally.fail("timed_call", failed)
        return calls, start, end

    if not traced:
        # One round per set-up: set the program up afresh, time a share of
        # the seconds, and leave GAP before the next, so that a run samples
        # the box at moments well apart (see measure.py).
        setup_times = []
        calls: list = []
        for round_ in range(sizes.setups):
            waited = time.monotonic()
            for _ in range(sizes.repeats):
                started = time.monotonic()
                call = work.setup(None)
                setup_times.append(time.monotonic() - started)
            if round_ == 0:
                outputs = [call(batch) for batch in work.batches[:first]]
            elif not smoke:
                time.sleep(max(0.0, me.GAP - (time.monotonic() - waited)))
            calls += timed(call, seconds / sizes.setups)[0]
        rss = me.peak_rss_mb()
        result["output_sha256"] = work.judge(tally, outputs)
        tally.attempted += tally.validated
        result["latency_samples"] = len(calls)
        result["end_to_end"] = {
            "setup_s": min(setup_times),
            **me.call_metrics(calls),
            "peak_rss_mb": rss,
            "correct_share": tally.correct_share,
        }
        return result

    plain = me.call_metrics(timed(work.setup(None), seconds * me.UNTRACED_PART)[0])
    tracer = sp.Tracer()
    call = work.setup(tracer)
    counts_before = ly.pipeline_counts(work.mapper)
    outputs = [call(batch) for batch in work.batches[:first]]
    calls, start, end = timed(call, seconds * (1 - me.UNTRACED_PART))
    counts = ly.pipeline_counts(work.mapper)
    result["output_sha256"] = work.judge(tally, outputs)
    tally.attempted += tally.validated
    result["latency_samples"] = len(calls)
    timing = me.call_metrics(calls)
    ops = sum(n for _, n, _ in calls)
    if counts is not None:
        counts = {key: counts[key] - counts_before[key] for key in counts}
    spans = [s for s in tracer.spans if s["start"] >= start]
    seconds_by_layer = sp.self_times(spans)
    per_layer = ly.zero_layers()
    # The raw kernels are timed on the workload's own pairs where it has any.
    if name == "long_read_align":
        direct = ly.direct_passes(work.genome, seed, work.ops[:4])
    elif name == "prefilter_pairs":
        direct = ly.direct_passes(
            work.genome, seed, sample=work.ops[:512], threshold=inp.FILTER_THRESHOLD
        )
    else:
        direct = ly.direct_passes(work.genome, seed, mapper=work.mapper)
    per_layer.update({k: v for k, v in direct.items() if k in per_layer})
    per_layer["mapping.index_build_s"] = work.index_build_s
    per_layer.update(ly.engine_metrics(spans, direct, name))
    per_layer.update(ly.mapping_metrics(spans, counts))
    per_layer.update(ly.shares(seconds_by_layer, per_layer, reads=ops, fastq=False))
    per_layer.update({k: v for k, v in timing.items() if k in per_layer})
    per_layer["traced_reads_per_s"] = timing["reads_per_s"]
    per_layer["trace_overhead_share"] = 1 - timing["reads_per_s"] / plain["reads_per_s"]
    per_layer["attributed_share"] = sum(seconds_by_layer.values()) / (end - start)
    result["per_layer"] = per_layer
    result["violations"] = sp.nesting_violations(tracer.spans)
    sp.write_spans(OUT / f"trace-{name}.json", tracer.spans, workload=name, seed=seed)
    return result
