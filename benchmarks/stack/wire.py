"""The two wire workloads: ``serve.py`` as a child, driven over loopback TCP.

The program under test runs in its own process, started by ``Child``. The
load generator is this process: one thread (asyncio) and two keep-alive
connections, never more — the reference box has two cores, and a generator
that took more of them would be measuring itself. Requests are rendered to
bytes before the timed section; responses are kept raw and judged after it.

``job_stream``: connection 1 posts FASTQ chunks of 256 reads (each cut
mid-line) to one map job while connection 2 pulls the SAM output to EOF.
``interactive_map``: two closed-loop clients, one read per ``POST /v1/map``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import inputs as inp
import layers as ly
import measure as me
import spans as sp
import validate as va
from repro.mapping.pipeline import make_genasm_mapper
from repro.mapping.sam import sam_header
from workloads import OUT

HERE = Path(__file__).resolve().parent
OUTPUT_LIMIT = 262144
#: Seconds the output puller sleeps after a read that did not fill
#: OUTPUT_LIMIT: the endpoint does not long-poll, and an unthrottled puller
#: would mostly measure its own polling.
PULL_INTERVAL = 0.02
FILL_CHUNKS = (1024 + inp.JOB_WINDOW) // inp.CHUNK_READS

class Child:
    """A ``serve.py`` process: the program under test."""

    def __init__(self, name: str, seed: int, sizes: inp.Sizes, traced: bool, workdir: Path):
        self.log = open(workdir / f"serve-{name}.log", "ab")
        # The job fabric spools output through tempfile: keep it in here.
        env = dict(os.environ, TMPDIR=str(workdir), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve.py"),
                "--workload", name, "--seed", str(seed),
                "--genome-length", str(sizes.genome),
                "--workdir", str(workdir), "--traced", str(int(traced)),
                "--setups", str(1 if traced else sizes.repeats),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        self._ticks = os.sysconf("SC_CLK_TCK")
        self.ready = self._line()
        self.port = self.ready["port"]

    def _line(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"serve.py exited early; see {self.log.name}")
        return json.loads(line)

    def cpu_seconds(self) -> float:
        """user+sys CPU of the child so far, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self._ticks

    def stop(self) -> dict:
        """Ask the child to shut down; returns its exit report."""
        try:
            self.process.stdin.write(b"stop\n")
            self.process.stdin.flush()
            report = self._line()
            self.process.wait(timeout=30)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child has ended, whatever state it is in."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout, self.log):
            stream.close()


class Connection:
    """One keep-alive HTTP/1.1 connection speaking pre-rendered requests."""

    async def open(self, port: int) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=4 * OUTPUT_LIMIT
        )
        return self

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        self.writer.write(raw)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        self.writer.close()


def render(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


async def fetch_stats(port: int) -> dict:
    connection = await Connection().open(port)
    try:
        _, body = await connection.request(render("GET", "/v1/stats"))
        return json.loads(body)
    finally:
        connection.close()


async def timed_request(
    connection: Connection, raw: bytes, tracer: sp.Tracer | None, name: str,
    trace: str | None = None,
) -> tuple[float, float, int, bytes]:
    """One request; ``(start, end, status, body)``. A client span when traced."""
    if tracer is None:
        start = time.monotonic()
        status, body = await connection.request(raw)
        return start, time.monotonic(), status, body
    with tracer.span(name, "serving.http", trace=trace) as span:
        status, body = await connection.request(raw)
    return span["start"], span["end"], status, body


async def interactive_pass(
    port: int, requests: list[bytes], names: list[str], first: int,
    count: int | None, seconds: float, tracer: sp.Tracer | None,
) -> list[tuple[float, float, int, int, bytes]]:
    """CLIENTS closed-loop clients, one connection each, one read per request.

    Client ``c`` sends ops ``first + c``, ``first + c + CLIENTS``, ...; all
    stop after ``count`` ops in total or, with ``count`` None, once
    ``seconds`` have passed. Returns ``(start, end, op, status, body)``.
    """
    done: list[tuple[float, float, int, int, bytes]] = []
    deadline = time.monotonic() + seconds

    def more(cursor: int) -> bool:
        if count is not None:
            return cursor < first + count
        return time.monotonic() < deadline

    async def client(offset: int) -> None:
        connection = await Connection().open(port)
        try:
            cursor = first + offset
            while more(cursor):
                op = cursor % len(requests)
                cursor += inp.CLIENTS
                trace = tracer.trace_id(names[op]) if tracer is not None else None
                start, end, status, body = await timed_request(
                    connection, requests[op], tracer, "http.request", trace
                )
                done.append((start, end, op, status, body))
        finally:
            connection.close()

    await asyncio.gather(*(client(offset) for offset in range(inp.CLIENTS)))
    return done


async def job_pass(
    port: int, bodies: list[bytes], reads_per_pass: int, seconds: float | None,
    tracer: sp.Tracer | None,
) -> dict[str, Any]:
    """Stream one map job: connection 1 posts chunks, connection 2 pulls SAM.

    Whole passes over ``bodies`` are posted until ``seconds`` have passed
    (exactly one pass when ``seconds`` is None), so the expected output is
    a whole number of passes. Returns what the client saw.
    """
    poster = await Connection().open(port)
    puller = await Connection().open(port)
    seen: dict[str, Any] = {"chunks": [], "progress": [], "pulled": [], "non_200": 0}

    async def ask(connection, raw, name, trace=None):
        start, end, status, body = await timed_request(connection, raw, tracer, name, trace)
        if status != 200:
            seen["non_200"] += 1
        return start, end, status, body

    async def post(path: str) -> None:
        chunk_requests = [render("POST", path, body) for body in bodies]
        deadline = seen["start"] + (seconds or 0.0)
        seen["passes"] = 0

        async def send(raw: bytes):
            trace = tracer.trace_id("chunk") if tracer is not None else None
            return await ask(poster, raw, "http.post_input", trace)

        while seen["passes"] == 0 or (seconds is not None and time.monotonic() < deadline):
            for raw in chunk_requests:
                start, end, status, _ = await send(raw)
                seen["chunks"].append((start, end, status, len(raw)))
            seen["passes"] += 1
        _, seen["final_at"], _, _ = await send(
            render("POST", path, b'{"fastq": "", "final": true}')
        )

    async def pull(job_id: str) -> None:
        offset = records = 0
        while True:
            raw = render("GET", f"/v1/jobs/{job_id}/output?offset={offset}&limit={OUTPUT_LIMIT}")
            _, end, status, body = await ask(puller, raw, "http.get_output")
            if status != 200:
                return
            chunk = json.loads(body)
            data = chunk["data"]
            offset = chunk["next_offset"]
            if data:
                seen["pulled"].append(data)
                fresh = data.count("\n") - data.count("\n@") - data.startswith("@")
                if fresh and "first_output_at" not in seen:
                    seen["first_output_at"] = end
                records += fresh
                seen["progress"].append((end, fresh))
            if chunk["eof"] or chunk["state"] in ("failed", "cancelled"):
                seen["end"] = end
                return
            if len(data) < OUTPUT_LIMIT:
                await asyncio.sleep(PULL_INTERVAL)

    try:
        seen["start"] = time.monotonic()
        _, _, _, created = await ask(poster, render("POST", "/v1/jobs/map", b"{}"), "http.create_job")
        job_id = json.loads(created)["job_id"]
        await asyncio.gather(post(f"/v1/jobs/{job_id}/input"), pull(job_id))
        seen["reads"] = seen["passes"] * reads_per_pass
    finally:
        poster.close()
        puller.close()
    return seen


def chunk_seconds(ends: list[float]) -> list[float]:
    """Seconds per chunk over every stretch of STRETCH backpressured chunks.

    ``ends`` are one job's chunk POST completion times. A fresh job swallows
    its backlog (1024 reads) and its window without making the poster wait,
    so its first FILL_CHUNKS chunks are not samples — unless (``--smoke``)
    the job is too short to have any others.
    """
    held = ends[FILL_CHUNKS:] if len(ends) > FILL_CHUNKS + 1 else ends
    length = min(me.STRETCH, len(held) - 1)
    return [(b - a) / length for a, b in zip(held, held[length:])]


class Wire:
    """Inputs and oracle shared by the two wire workloads."""

    def __init__(self, name: str, sizes: inp.Sizes, seed: int) -> None:
        self.name = name
        self.sizes = sizes
        self.genome = inp.reference_genome(seed, sizes.genome)
        self.reads = inp.short_reads(self.genome, sizes.pool, seed)
        self.ops = [(read.name, read.sequence) for read in self.reads]
        # The oracle: the in-process pipeline over the same reads.
        started = time.perf_counter()
        self.oracle = make_genasm_mapper(
            self.genome, seed_length=inp.SEED_LENGTH,
            error_rate=inp.ERROR_RATE, engine=inp.ENGINE,
        )
        self.oracle_build_s = time.perf_counter() - started
        started = time.perf_counter()
        results = [
            result
            for batch in inp.batched(self.ops, 64)
            for result in self.oracle.map_reads(batch)
        ]
        #: What a read costs when nothing but ``map_reads`` stands around it.
        self.oracle_us_per_read = (time.perf_counter() - started) / len(self.ops) * 1e6
        self.lines = [result.record.to_line() for result in results]
        self.counts = ly.pipeline_counts(self.oracle)
        self.header = sam_header(self.oracle.reference_sequences())

    def judge_placements(self) -> va.Tally:
        """The oracle's own lines against where the simulator drew the reads."""
        accuracy = va.Tally()
        for read, line in zip(self.reads, self.lines):
            va.judge_mapping(
                accuracy, line, read, self.genome.sequence, self.genome.name,
                inp.PLACEMENT_TOLERANCE,
            )
        return accuracy

    def expected_sam(self, reads: int) -> str:
        """What a job over the first ``reads`` ops of cycled passes must emit."""
        passes, rest = divmod(reads, len(self.lines))
        one_pass = "".join(line + "\n" for line in self.lines)
        return self.header + one_pass * passes + "".join(
            line + "\n" for line in self.lines[:rest]
        )


async def measure(
    work: Wire, child: Child, seconds: float, tracer: sp.Tracer | None, tally: va.Tally
) -> dict[str, Any]:
    """Validation pass, then the timed section, against one child."""
    sizes = work.sizes
    port = child.port
    m: dict[str, Any] = {}

    async def timed(section):
        """Run the timed section between two reads of ``/v1/stats`` and CPU."""
        before = await fetch_stats(port)
        cpu = child.cpu_seconds()
        outcome = await section
        m["cpu"] = child.cpu_seconds() - cpu
        m["stats"] = (before, await fetch_stats(port))
        return outcome

    if work.name == "interactive_map":
        requests = [
            render("POST", "/v1/map", json.dumps({"name": n, "read": r}).encode())
            for n, r in work.ops
        ]
        names = [n for n, _ in work.ops]
        checked = await interactive_pass(port, requests, names, 0, sizes.validate, 0.0, tracer)
        done = await timed(
            interactive_pass(port, requests, names, sizes.validate, None, seconds, tracer)
        )
        first_answers = {op: body for _, _, op, status, body in checked if status == 200}
        m["sha"] = va.digest(
            json.loads(first_answers[op])["sam"] if op in first_answers else ""
            for op in range(sizes.validate)
        )
        for _, _, op, status, body in checked + done:
            sam = json.loads(body).get("sam") if status == 200 else None
            va.judge_response(tally, status, sam, work.lines[op])
        m.update(
            start=min(start for start, *_ in done),
            end=max(end for _, end, *_ in done),
            ops=len(done),
            latencies=[end - start for start, end, *_ in done],
            rates=me.window_rates(
                [end for _, end, *_ in done],
                min(start for start, *_ in done), max(end for _, end, *_ in done),
            ),
            non_200=sum(1 for *_, status, _ in done if status != 200),
            request_bytes=sum(map(len, requests)) / len(requests),
            response_bytes=sum(len(body) for *_, body in done) / len(done),
        )
    else:
        bodies, _ = inp.fastq_bodies(work.ops)
        small, _ = inp.fastq_bodies(work.ops[: sizes.validate])
        checked = await job_pass(port, small, sizes.validate, None, tracer)
        pulled = "".join(checked["pulled"])
        m["sha"] = va.digest([pulled])
        va.judge_stream(tally, pulled, work.expected_sam(sizes.validate), sizes.validate)
        seen = await timed(job_pass(port, bodies, len(work.ops), seconds, tracer))
        va.judge_stream(
            tally, "".join(seen["pulled"]), work.expected_sam(seen["reads"]), seen["reads"]
        )
        if checked["non_200"] + seen["non_200"]:
            tally.fail("http_non_200", checked["non_200"] + seen["non_200"])
        per_chunk = chunk_seconds([end for _, end, *_ in seen["chunks"]])
        m.update(
            start=seen["start"], end=seen["end"], ops=seen["reads"], seen=seen,
            latencies=per_chunk,
            rates=[inp.CHUNK_READS / seconds for seconds in per_chunk],
            posts=[end - start for start, end, *_ in seen["chunks"]],
            non_200=seen["non_200"],
            request_bytes=sum(size for *_, size in seen["chunks"]) / len(seen["chunks"]),
            response_bytes=sum(map(len, seen["pulled"])) / len(seen["pulled"]),
        )
    return m


async def against(
    work: Wire, seed: int, workdir: Path, seconds: float,
    tracer: sp.Tracer | None, tally: va.Tally,
) -> tuple[dict, dict]:
    """One round: a fresh child, ``measure``, shut down. ``(section, exit report)``."""
    child = Child(work.name, seed, work.sizes, tracer is not None, workdir)
    try:
        m = await measure(work, child, seconds, tracer, tally)
    finally:
        report = child.stop()
    m["setup_s"] = child.ready["setup_s"]
    return m, report


async def end_to_end(work: Wire, seed: int, seconds: float, workdir: Path, tally: va.Tally):
    """The untraced pass: one round per set-up, pooled.

    Stopping one child and starting the next leaves seconds between the
    timed sections, so a run samples the box at moments well apart (see
    measure.py).
    """
    accuracy = work.judge_placements()
    if accuracy.failed:
        tally.fail("oracle_line_invalid", accuracy.failed)
    rounds = [
        await against(work, seed, workdir, seconds / work.sizes.setups, None, tally)
        for _ in range(work.sizes.setups)
    ]
    sections = [section for section, _ in rounds]
    return {
        "end_to_end": {
            "setup_s": min(s for section in sections for s in section["setup_s"]),
            **me.wire_metrics(sections, work.name == "job_stream"),
            "peak_rss_mb": max(report["peak_rss_mb"] for _, report in rounds),
            # Byte-identical to the oracle, so as accurate as the oracle.
            "correct_share": accuracy.correct_share * tally.correct_share,
        },
        "output_sha256": sections[0]["sha"],
        "latency_samples": sum(len(section["latencies"]) for section in sections),
    }


async def per_layer(work: Wire, seed: int, seconds: float, workdir: Path, tally: va.Tally):
    """The traced pass: a quarter of the seconds plain, the rest with spans."""
    name = work.name
    quartile = name == "job_stream"
    plain, _ = await against(work, seed, workdir, seconds * me.UNTRACED_PART, None, va.Tally())
    tracer = sp.Tracer("c")
    m, report = await against(
        work, seed, workdir, seconds * (1 - me.UNTRACED_PART), tracer, tally
    )
    with open(report["spans"], encoding="ascii") as handle:
        served = json.load(handle)["spans"]
    sp.link_children(tracer.spans, served)
    everything = tracer.spans + served
    sp.write_spans(OUT / f"trace-{name}.json", everything, workload=name, seed=seed)

    timed = [s for s in everything if s["start"] >= m["start"] and s["end"] <= m["end"] + 1e-3]
    wall = m["end"] - m["start"]
    ops = m["ops"]
    seconds_by_layer = sp.self_times(timed)
    cpu_by_layer = sp.cpu_times(timed)
    timing = me.wire_metrics([m], quartile)
    out = ly.zero_layers()
    direct = ly.direct_passes(work.genome, seed, mapper=work.oracle)
    out.update({k: v for k, v in {**direct, **timing}.items() if k in out})
    out["mapping.index_build_s"] = work.oracle_build_s
    out.update(ly.engine_metrics(timed, direct, name))
    out.update(ly.mapping_metrics(timed, work.counts))
    out.update(ly.server_metrics(timed, m["stats"], wall))
    round_trips = sorted(m.get("posts", m["latencies"]))
    loop_cpu = m["cpu"] - sum(cpu_by_layer.values())
    out.update({
        "serving.http.request_bytes": m["request_bytes"],
        "serving.http.response_bytes": m["response_bytes"],
        "serving.http.non_200": float(m["non_200"]),
        "serving.http.latency_p99_ms": me.percentile(round_trips, 0.99) * 1e3,
        "serving.http.self_us_per_request": (
            seconds_by_layer.get("serving.http", 0.0)
            / sum(1 for span in timed if span["layer"] == "serving.http") * 1e6
        ),
        "serving.cluster.self_us_per_read": (
            seconds_by_layer.get("serving.cluster", 0.0) / ops * 1e6
        ),
        "serving.server.self_us_per_read": (
            seconds_by_layer.get("serving.server", 0.0) / ops * 1e6
        ),
        "serving.loop_cpu_us_per_op": loop_cpu / ops * 1e6,
        # CPU a read costs here that it would not cost a caller of map_reads.
        "serving.overhead_share": 1 - work.oracle_us_per_read / (m["cpu"] / ops * 1e6),
    })
    if name == "job_stream":
        seen = m["seen"]
        _, pieces = inp.fastq_bodies(work.ops)
        out.update(ly.sequence_passes(work.genome, pieces, len(work.ops), workdir))
        in_backend = ly.union(
            [(s["start"], s["end"]) for s in ly.named(timed, "cluster.map_read")]
        )
        out.update({
            "serving.jobs.self_us_per_read": (wall - in_backend) / ops * 1e6,
            "serving.jobs.ingest_blocked_share": sum(round_trips) / wall,
            "serving.jobs.chunks_in": float(len(round_trips)),
            "serving.jobs.chunk_post_p50_ms": me.percentile(round_trips, 0.5) * 1e3,
            "serving.jobs.output_bytes_per_read": sum(map(len, seen["pulled"])) / ops,
            "serving.jobs.first_output_s": (
                seen.get("first_output_at", seen["end"]) - seen["start"]
            ),
            "serving.jobs.drain_s": seen["end"] - seen["final_at"],
        })
        # Three threads share the interpreter lock here, so wall-clock
        # spans stretch while they wait on each other; CPU does not. The
        # loop thread's CPU is every serving layer and the FASTQ parse.
        basis = {**cpu_by_layer, "serving": loop_cpu}
        attributed = ly.union([(s["start"], s["end"]) for s in timed]) / wall
    else:
        basis = seconds_by_layer
        attributed = sum(seconds_by_layer.values()) / (wall * inp.CLIENTS)
    out.update(ly.shares(basis, out, reads=ops, fastq=name == "job_stream"))
    out["traced_reads_per_s"] = timing["reads_per_s"]
    out["trace_overhead_share"] = (
        1 - timing["reads_per_s"] / me.wire_metrics([plain], quartile)["reads_per_s"]
    )
    out["attributed_share"] = attributed
    return {
        "per_layer": out,
        "output_sha256": m["sha"],
        "latency_samples": len(m["latencies"]),
        "violations": sp.nesting_violations(everything),
    }


def run_wire(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    work = Wire(name, (inp.SMOKE if smoke else inp.FULL)[name], seed)
    tally = va.Tally()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = asyncio.run(
            (per_layer if traced else end_to_end)(work, seed, seconds, workdir, tally)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally.attempted = tally.validated  # every op on the wire is judged
    return {**result, "tally": tally}
