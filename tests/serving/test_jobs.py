"""Tests for the streaming job fabric (JobManager + /v1/jobs endpoints).

The acceptance-critical property — a map job fed over HTTP in arbitrary
chunks, with the client disconnecting mid-job and resuming from its last
byte offset, yields SAM byte-identical to the in-process pipeline — is
exercised end to end through the in-memory connection in
``TestHttpJobs::test_map_job_survives_reconnect_and_matches``; that a map
job holds a fixed window, never the stream, is
``TestBoundedWindow``. Over real TCP, ``benchmarks/stack``'s
``job_stream`` workload streams a map job through a 2-replica cluster.
"""

import asyncio
import contextlib
import io

import pytest

from repro.mapping.pipeline import make_genasm_mapper
from repro.mapping.sam import write_sam
from repro.sequences.genome import synthesize_genome
from repro.sequences.io import FastqRecord, write_fastq
from repro.sequences.read_simulator import illumina_profile, simulate_reads
from repro.serving import (
    AlignmentHTTPServer,
    AlignmentServer,
    JobError,
    JobManager,
    JobRejectedError,
)
from repro.serving import jobs as jobs_module
from repro.serving.jobs import JobOutput

from tests.serving.test_http import HttpClient, run


GENOME = synthesize_genome(20_000, seed=50)
READS = simulate_reads(
    GENOME, count=16, read_length=100, profile=illumina_profile(0.05), seed=51
)


def reads_fastq(reads=READS) -> str:
    out = io.StringIO()
    write_fastq(
        [FastqRecord(r.name, r.sequence, "I" * len(r.sequence)) for r in reads],
        out,
    )
    return out.getvalue()


def expected_sam(reads=READS) -> str:
    mapper = make_genasm_mapper(GENOME, engine="pure")
    results = mapper.map_reads([(r.name, r.sequence) for r in reads])
    out = io.StringIO()
    write_sam(
        [r.record for r in results],
        out,
        reference_sequences=[(GENOME.name, len(GENOME))],
    )
    return out.getvalue()


def make_server(**kwargs):
    kwargs.setdefault("engine", "pure")
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("flush_interval", 0.002)
    kwargs.setdefault("mapper", make_genasm_mapper(GENOME, engine="pure"))
    return AlignmentServer(**kwargs)


@contextlib.asynccontextmanager
async def job_manager(backend, **kwargs):
    """A :class:`JobManager` stopped on exit, so every job's output spool
    is closed by its owner rather than left to the collector."""
    manager = JobManager(backend, **kwargs)
    try:
        yield manager
    finally:
        await manager.stop()


class TestJobOutput:
    def test_offset_reads(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "SPOOL_BYTES", 8)
        output = JobOutput()
        output.append("hello ")
        output.append("world")  # rolls past the spool threshold
        assert output.size == 11
        assert output.read(0, 5) == "hello"
        assert output.read(6, 100) == "world"
        assert output.read(11, 10) == ""
        assert output.read(999, 10) == ""
        output.close()

    def test_bad_offsets_rejected(self):
        output = JobOutput()
        with pytest.raises(JobError):
            output.read(-1, 10)
        with pytest.raises(JobError):
            output.read(0, 0)
        output.close()


class TestMapJobs:
    def test_chunked_map_job_matches_in_process(self):
        async def main():
            async with make_server() as server, job_manager(
                server, window=4
            ) as manager:
                job = manager.create("map")
                data = reads_fastq()
                third = len(data) // 3
                for i, chunk in enumerate(
                    (data[:third], data[third : 2 * third], data[2 * third :])
                ):
                    await manager.append_input(
                        job.job_id, chunk, final=(i == 2)
                    )
                await job.task
                assert job.state == "done"
                assert job.reads_in == job.reads_done == len(READS)
                return job.output.read(0, 10**6)

        assert run(main()) == expected_sam()

    def test_window_one_still_ordered(self):
        async def main():
            async with make_server() as server, job_manager(
                server, window=1
            ) as manager:
                job = manager.create("map")
                await manager.append_input(job.job_id, reads_fastq(), final=True)
                await job.task
                return job.output.read(0, 10**6)

        assert run(main()) == expected_sam()

    def test_malformed_fastq_fails_job_with_record_index(self):
        async def main():
            async with make_server() as server, job_manager(server) as manager:
                job = manager.create("map")
                with pytest.raises(ValueError, match="record 1"):
                    await manager.append_input(
                        job.job_id, "@\nACGT\n+\nIIII\n", final=True
                    )
                try:
                    await job.task
                except asyncio.CancelledError:
                    pass
                return job

        job = run(main())
        assert job.state == "failed"
        assert "no read name" in job.error

    def test_input_after_final_rejected(self):
        async def main():
            async with make_server() as server, job_manager(server) as manager:
                job = manager.create("map")
                await manager.append_input(job.job_id, reads_fastq(), final=True)
                with pytest.raises(JobError, match="closed"):
                    await manager.append_input(job.job_id, "@r\nA\n+\nI\n")
                await job.task

        run(main())

    def test_cancel_mid_stream(self):
        async def main():
            async with make_server() as server, job_manager(server) as manager:
                job = manager.create("map")
                await manager.append_input(job.job_id, reads_fastq())
                job = await manager.cancel(job.job_id)
                return job

        job = run(main())
        assert job.state == "cancelled"
        assert job.finished

    def test_stop_closes_every_spool(self, monkeypatch):
        """Finished and cancelled jobs alike: no spooled file is left open
        for the collector (``-X dev`` reports those as ResourceWarning)."""
        monkeypatch.setattr(jobs_module, "SPOOL_BYTES", 64)

        async def main():
            async with make_server() as server:
                manager = JobManager(server)
                done = manager.create("map")
                await manager.append_input(done.job_id, reads_fastq(), final=True)
                await done.task
                running = manager.create("map")
                await manager.append_input(running.job_id, reads_fastq())
                assert done.output.size > 64  # rolled over to a temp file
                await manager.stop()
                return done, running

        done, running = run(main())
        assert (done.state, running.state) == ("done", "cancelled")
        for job in (done, running):
            assert job.output._file.closed
            with pytest.raises(ValueError, match="closed"):
                job.output.read(0, 10)

    def test_map_requires_mapper(self):
        async def main():
            async with make_server(mapper=None) as server:
                manager = JobManager(server)
                with pytest.raises(JobError, match="mapper"):
                    manager.create("map")

        run(main())


class CountingBackend:
    """Serving-surface double for map jobs: maps each read in-process and
    records the peak number of ``map_read`` calls in flight and the peak
    depth of the job's input queue."""

    def __init__(self, mapper):
        self.mapper = mapper
        self.job = None
        self.in_flight = 0
        self.peak_in_flight = 0
        self.peak_backlog = 0

    def sample_backlog(self):
        self.peak_backlog = max(self.peak_backlog, self.job.input_queue.qsize())

    async def map_read(self, name, sequence, *, ctx=None):
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        self.sample_backlog()
        try:
            await asyncio.sleep(0)  # let the runner fill its window
            return self.mapper.map_read(name, sequence)
        finally:
            self.in_flight -= 1


class TestBoundedWindow:
    """A map job holds a fixed window, never the stream: 4x the reads
    streamed through keeps the same reads in flight, the same input
    backlog, and spools the growing SAM to disk."""

    WINDOW = 4
    BACKLOG = 8
    SPOOL_BYTES = 2_048
    STREAM = simulate_reads(
        GENOME, count=64, read_length=100, profile=illumina_profile(0.05), seed=56
    )

    def stream_job(self, reads, monkeypatch):
        backend = CountingBackend(make_genasm_mapper(GENOME, engine="pure"))
        monkeypatch.setattr(jobs_module, "INPUT_BACKLOG", self.BACKLOG)
        monkeypatch.setattr(jobs_module, "SPOOL_BYTES", self.SPOOL_BYTES)

        async def main():
            async with job_manager(backend, window=self.WINDOW) as manager:
                job = backend.job = manager.create("map")
                data = reads_fastq(reads)
                for start in range(0, len(data), 250):
                    await manager.append_input(job.job_id, data[start : start + 250])
                    backend.sample_backlog()
                await manager.append_input(job.job_id, "", final=True)
                await job.task
                assert job.state == "done"
                return job.output._file._rolled, job.output.read(0, 10**7)

        rolled, sam = run(main())
        return backend, rolled, sam

    @pytest.mark.parametrize("scale", [1, 4])
    def test_map_job_holds_a_fixed_window_not_the_stream(self, scale, monkeypatch):
        reads = self.STREAM[: 16 * scale]
        backend, rolled, sam = self.stream_job(reads, monkeypatch)
        assert backend.peak_in_flight == self.WINDOW
        assert backend.peak_backlog == self.BACKLOG
        assert rolled and len(sam) > self.SPOOL_BYTES
        assert sam == expected_sam(reads)


class TestManagerLimits:
    def test_capacity_rejection(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_ACTIVE_JOBS", 1)

        async def main():
            async with make_server() as server, job_manager(server) as manager:
                first = manager.create("map")
                with pytest.raises(JobRejectedError):
                    manager.create("map")
                await manager.cancel(first.job_id)

        run(main())

    def test_unknown_kind_rejected(self):
        async def main():
            async with make_server() as server, job_manager(server) as manager:
                for kind in ("frobnicate", "whole_genome"):
                    with pytest.raises(JobError) as rejected:
                        manager.create(kind)
                    assert str(rejected.value) == (
                        f"unknown job kind {kind!r}; expected one of map"
                    )

        run(main())

    @pytest.mark.parametrize("kind", ["whole_genome", "overlap", "text_search"])
    def test_removed_kinds_are_unknown(self, kind):
        async def main():
            async with make_server() as server, job_manager(server) as manager:
                with pytest.raises(JobError, match="expected one of map$"):
                    manager.create(kind)
                return manager.stats_payload()

        stats = run(main())
        assert stats["created_total"] == {}

    def test_finished_eviction(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)

        async def main():
            async with make_server() as server, job_manager(server) as manager:
                jobs = []
                for _ in range(4):
                    job = manager.create("map")
                    await manager.append_input(
                        job.job_id, reads_fastq(READS[:1]), final=True
                    )
                    await job.task
                    jobs.append(job)
                return manager, jobs

        manager, jobs = run(main())
        assert len(manager.jobs) == 2
        assert jobs[0].job_id not in manager.jobs
        assert jobs[-1].job_id in manager.jobs

    def test_stats_and_metrics(self):
        async def main():
            async with make_server() as server, job_manager(server) as manager:
                job = manager.create("map")
                await manager.append_input(job.job_id, reads_fastq(), final=True)
                await job.task
                return manager

        manager = run(main())
        stats = manager.stats_payload()
        assert stats["created_total"] == {"map": 1}
        assert stats["finished_total"] == {"done": 1}
        assert stats["reads_total"] == len(READS)
        names = [family.name for family in manager.collect_metrics()]
        assert "genasm_jobs" in names
        assert "genasm_job_reads_total" in names


class TestHttpJobs:
    def test_map_job_survives_reconnect_and_matches(self):
        """The acceptance path: chunked ingest, mid-job disconnect, offset
        resume, byte-identical SAM."""

        async def main():
            server = make_server()
            front = AlignmentHTTPServer(server)
            async with front:
                data = reads_fastq()
                third = len(data) // 3

                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST", "/v1/jobs/map", {"fastq": data[:third]}
                )
                assert status == 200
                job_id = body["job_id"]
                assert body["state"] in ("pending", "running")

                # Read whatever output exists, then drop the connection
                # mid-job — the fabric must not care.
                status, first, _ = await client.request(
                    "GET", f"/v1/jobs/{job_id}/output?offset=0&limit=64"
                )
                assert status == 200
                client.close()

                client = await HttpClient.connect(front)
                status, _, _ = await client.request(
                    "POST",
                    f"/v1/jobs/{job_id}/input",
                    {"fastq": data[third : 2 * third]},
                )
                assert status == 200
                status, body, _ = await client.request(
                    "POST",
                    f"/v1/jobs/{job_id}/input",
                    {"fastq": data[2 * third :], "final": True},
                )
                assert status == 200
                assert body["input_closed"] is True

                # Poll status until done, then pull output by offsets.
                while True:
                    status, body, _ = await client.request(
                        "GET", f"/v1/jobs/{job_id}"
                    )
                    assert status == 200
                    if body["state"] == "done":
                        break
                    await asyncio.sleep(0.01)
                assert body["reads_done"] == len(READS)

                collected = first["data"]
                offset = len(collected.encode("ascii"))
                while True:
                    status, chunk, _ = await client.request(
                        "GET",
                        f"/v1/jobs/{job_id}/output?offset={offset}&limit=256",
                    )
                    assert status == 200
                    collected += chunk["data"]
                    offset = chunk["next_offset"]
                    if chunk["eof"]:
                        break
                client.close()
                return collected

        assert run(main()) == expected_sam()

    def test_job_reads_stay_out_of_the_creating_requests_trace(self):
        """A job outlives the request that created it, so what the job
        does later must not land in that request's trace: however many
        reads stream through, ``POST /v1/jobs/map`` keeps the spans of
        one POST."""
        from repro.serving import AlignmentCluster

        stream = simulate_reads(
            GENOME,
            count=208,
            read_length=50,
            profile=illumina_profile(0.02),
            seed=53,
        )

        async def main():
            cluster = AlignmentCluster(
                replicas=2,
                engine="pure",
                mapper=make_genasm_mapper(GENOME, engine="pure"),
                batch_size=8,
                flush_interval=0.002,
            )
            async with AlignmentHTTPServer(cluster) as front:  # tracing on
                client = await HttpClient.connect(front)
                traces = []
                for reads in (stream[:8], stream):
                    data = reads_fastq(reads)
                    status, body, headers = await client.request(
                        "POST", "/v1/jobs/map", {"fastq": data[: len(data) // 2]}
                    )
                    assert status == 200
                    job = front.job_manager.get(body["job_id"])
                    status, _, _ = await client.request(
                        "POST",
                        f"/v1/jobs/{job.job_id}/input",
                        {"fastq": data[len(data) // 2 :], "final": True},
                    )
                    assert status == 200
                    await job.task
                    assert job.reads_done == len(reads)
                    traces.append(front.traces.get(headers["x-request-id"]))
                client.close()
                return traces

        few_reads, many_reads = run(main())
        names = [span.name for span in many_reads.spans]
        assert many_reads.ended is not None
        assert not {"attempt", "queue_wait", "batch_assembly", "engine"} & set(
            names
        )
        assert names == [span.name for span in few_reads.spans]

    def test_error_paths(self):
        async def main():
            server = make_server()
            front = AlignmentHTTPServer(server)
            async with front:
                client = await HttpClient.connect(front)
                unknown_kinds = [
                    await client.request("POST", f"/v1/jobs/{kind}", {})
                    for kind in ("frobnicate", "whole_genome")
                ]
                unknown_job = await client.request(
                    "GET", "/v1/jobs/deadbeef"
                )
                unknown_output = await client.request(
                    "GET", "/v1/jobs/deadbeef/output"
                )
                bare_prefix = await client.request("GET", "/v1/jobs")
                wrong_method = await client.request("GET", "/v1/jobs/map")
                status, body, _ = await client.request(
                    "POST", "/v1/jobs/map", {}
                )
                assert status == 200
                bad_offset = await client.request(
                    "GET", f"/v1/jobs/{body['job_id']}/output?offset=-1"
                )
                client.close()
                return (
                    unknown_kinds,
                    unknown_job,
                    unknown_output,
                    bare_prefix,
                    wrong_method,
                    bad_offset,
                )

        results = run(main())
        unknown_kinds, unknown_job, unknown_output = results[:3]
        bare_prefix, wrong_method, bad_offset = results[3:]
        for kind, (status, body, _) in zip(
            ("frobnicate", "whole_genome"), unknown_kinds
        ):
            assert status == 400
            assert body["error"] == (
                f"unknown job kind {kind!r}; expected one of map"
            )
        assert unknown_job[0] == 404
        assert unknown_output[0] == 404
        assert bare_prefix[0] == 404
        assert wrong_method[0] == 405
        assert bad_offset[0] == 400

    @pytest.mark.parametrize("kind", ["whole_genome", "overlap", "text_search"])
    def test_removed_kinds_are_400_over_http(self, kind):
        async def main():
            front = AlignmentHTTPServer(make_server())
            async with front:
                client = await HttpClient.connect(front)
                response = await client.request(
                    "POST", f"/v1/jobs/{kind}", {"reads": ["ACGT"]}
                )
                client.close()
                return response, front.job_manager.stats_payload()

        (status, body, _), stats = run(main())
        assert status == 400
        assert body["error"] == f"unknown job kind {kind!r}; expected one of map"
        assert stats["created_total"] == {}

    def test_cancel_and_stats_over_http(self):
        async def main():
            server = make_server()
            front = AlignmentHTTPServer(server)
            async with front:
                client = await HttpClient.connect(front)
                status, body, _ = await client.request(
                    "POST", "/v1/jobs/map", {}
                )
                assert status == 200
                job_id = body["job_id"]
                status, body, _ = await client.request(
                    "POST", f"/v1/jobs/{job_id}/cancel"
                )
                assert status == 200
                assert body["state"] == "cancelled"
                status, stats, _ = await client.request("GET", "/v1/stats")
                assert status == 200
                client.close()
                return stats

        stats = run(main())
        assert stats["jobs"]["created_total"] == {"map": 1}
        assert stats["jobs"]["finished_total"] == {"cancelled": 1}
