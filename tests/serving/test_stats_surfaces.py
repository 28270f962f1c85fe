"""The two read surfaces of the serving counters, pinned against each other.

``GET /v1/stats`` and ``GET /metrics`` render the same stored counters.
``TestSchemaSnapshot`` freezes the *shape* of both — the ``/v1/stats``
key tree with JSON types, and every metric family's name, kind, help
text and label-key sets — against ``stats_schema.json``, a fixture
generated from a stack with every subsystem switched on. Regenerate it
(only when a surface is meant to change) with
``PYTHONPATH=src:. python tests/serving/test_stats_surfaces.py``.
``TestSurfaceParity`` checks the *values*: after a workload that makes
every kind of counter move, it walks the declarations of every live
:class:`~repro.serving.observability.StatsBlock` and requires the
``/v1/stats`` value, the ``/metrics`` sample and the cluster-wide merge to
agree — so a counter declared later is covered without editing this file.
"""

import asyncio
import json
import sys
import threading
from collections import Counter, deque
from functools import reduce
from pathlib import Path

from repro.engine import PurePythonEngine
from repro.mapping.pipeline import make_genasm_mapper
from repro.serving import (
    AlignmentCluster,
    AlignmentHTTPServer,
    AlignmentServer,
    ServingStats,
)
from repro.serving import jobs as jobs_module
from repro.serving.observability import METRIC_FAMILIES, counted
from repro.serving.server import NO_CONTEXT

from tests.serving.test_jobs import GENOME, READS, reads_fastq
from tests.serving.test_http import HttpClient

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from check_metrics_endpoint import parse_prometheus_text  # noqa: E402

FIXTURE = Path(__file__).with_name("stats_schema.json")


def json_schema(value):
    """Key paths and JSON types of ``value``, values dropped."""
    if isinstance(value, dict):
        return {key: json_schema(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        distinct = []
        for item in map(json_schema, value):
            if item not in distinct:
                distinct.append(item)
        return distinct
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return "string"


async def metrics_text(front):
    """The ``GET /metrics`` page, rendered in-process (no request counted)."""
    return (await front._handle_metrics({}, NO_CONTEXT)).body.decode()


def metrics_schema(text):
    """``{family: kind, help, distinct sorted label-key sets}`` of a scrape."""
    return {
        name: {
            "kind": family["type"],
            "help": family["help"],
            "labels": sorted(
                {tuple(sorted(labels)) for _, labels, _ in family["samples"]}
            ),
        }
        for name, family in sorted(parse_prometheus_text(text).items())
    }


async def everything_on():
    """``(/v1/stats body, /metrics text)`` of a stack with every block live.

    Two replicas, one finished map job, and one 400.
    """
    cluster = AlignmentCluster(
        replicas=2,
        engine="pure",
        mapper=make_genasm_mapper(GENOME, engine="pure"),
        batch_size=8,
        flush_interval=0.002,
    )
    async with AlignmentHTTPServer(cluster) as front:
        client = await HttpClient.connect(front)
        scan = {"text": "ACGTACGTACGT", "pattern": "ACGT", "k": 1}
        for _ in range(3):
            await client.request("POST", "/v1/scan", scan)
        await client.request(
            "POST", "/v1/edit_distance", {"text": "ACGTACGT", "pattern": "ACGA", "k": 2}
        )
        await client.request(
            "POST", "/v1/align", {"text": "ACGTACGT", "pattern": "ACGT"}
        )
        await client.request(
            "POST", "/v1/map", {"name": READS[0].name, "read": READS[0].sequence}
        )
        status, _, _ = await client.request("POST", "/v1/scan", {"text": "ACGT"})
        assert status == 400
        status, job, _ = await client.request(
            "POST", "/v1/jobs/map", {"fastq": reads_fastq(), "final": True}
        )
        assert status == 200
        await front.job_manager.get(job["job_id"]).task
        status, stats, _ = await client.request("GET", "/v1/stats")
        assert status == 200
        client.close()
        await client.writer.wait_closed()
        return stats, await metrics_text(front)


def snapshot():
    stats, metrics_text = asyncio.run(everything_on())
    # JSON has no tuples: round-trip so both sides compare as lists.
    return json.loads(
        json.dumps(
            {"stats": json_schema(stats), "metrics": metrics_schema(metrics_text)}
        )
    )


class TestSchemaSnapshot:
    def test_stats_tree_and_metric_families_match_the_fixture(self):
        expected = json.loads(FIXTURE.read_text())
        actual = snapshot()
        assert actual["stats"] == expected["stats"]
        assert actual["metrics"] == expected["metrics"]


class FaultyEngine(PurePythonEngine):
    """Pure engine whose next scan, on whichever replica it lands, raises
    once per queued ``"fail"``. The script is shared so a fault needs no
    routing knowledge."""

    def __init__(self, script, lock):
        self.script = script
        self.lock = lock

    def scan_batch(self, pairs, k, **kwargs):
        with self.lock:
            fault = self.script.popleft() if self.script else None
        if fault == "fail":
            raise RuntimeError("scripted engine failure")
        return super().scan_batch(pairs, k, **kwargs)


def scan_body(i):
    """The ``i``-th of a family of distinct small scan requests."""
    text = "".join("ACGT"[(i >> 2 * j) & 3] for j in range(12)) + "ACGT"
    return {"text": text, "pattern": "ACGT", "k": 0}


async def mixed_workload():
    """Drive every counter, then read both surfaces of one quiescent state.

    Returns ``(live blocks, /v1/stats body, parsed /metrics)`` where a live
    block is ``(block, its sample labels, its /v1/stats subtree)``.
    """
    script, lock = deque(), threading.Lock()
    cluster = AlignmentCluster(
        servers=[
            AlignmentServer(
                engine=FaultyEngine(script, lock),
                mapper=make_genasm_mapper(GENOME, engine="pure"),
                batch_size=8,
                flush_interval=0.03,
            )
            for _ in range(2)
        ]
    )
    front = AlignmentHTTPServer(cluster)
    async with front:
        client = await HttpClient.connect(front)

        async def scan(body):
            status, _, _ = await client.request("POST", "/v1/scan", body)
            return status

        # served.
        for i in range(7):
            assert await scan(scan_body(i)) == 200
        # failed + retry: one engine call raises, the other replica answers.
        script.append("fail")
        assert await scan(scan_body(8)) == 200
        # 400, 504 (expired on arrival).
        assert await scan({"text": "ACGT"}) == 400
        assert await scan(scan_body(11) | {"timeout_ms": 1e-6}) == 504
        # 503: the job manager is at MAX_ACTIVE_JOBS while the first map job's
        # input is still open.
        status, job, _ = await client.request("POST", "/v1/jobs/map", {})
        assert status == 200
        status, _, _ = await client.request("POST", "/v1/jobs/map", {})
        assert status == 503
        status, _, _ = await client.request(
            "POST",
            f"/v1/jobs/{job['job_id']}/input",
            {"fastq": reads_fastq(READS[:2]), "final": True},
        )
        assert status == 200
        await front.job_manager.get(job["job_id"]).task
        # cancelled + client disconnect: hang up while the request is
        # still queued behind the flush window.
        quitter = await HttpClient.connect(front)
        body = json.dumps(scan_body(12)).encode()
        quitter.writer.write(
            b"POST /v1/scan HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await quitter.writer.drain()
        quitter.close()
        await quitter.writer.wait_closed()
        for _ in range(200):  # until the front noticed and the flush ran
            if front.client_disconnects and cluster.stats.cancelled:
                break
            await asyncio.sleep(0.01)

        # /metrics first, rendered in-process; the /v1/stats body is built
        # before that request is itself counted, so both show one state.
        metrics = parse_prometheus_text(await metrics_text(front))
        status, stats, _ = await client.request("GET", "/v1/stats")
        assert status == 200
        client.close()
        await client.writer.wait_closed()

        blocks = [
            (cluster, {}, stats["cluster"]),
            (front, {}, stats),
            (front.job_manager, {}, stats["jobs"]),
        ]
        for replica, block in zip(cluster.replicas, stats["replicas"]):
            labels = {"replica": replica.name}
            blocks.append((replica, labels, block))
            blocks.append((replica.server.stats, labels, block["serving"]))
        for path, endpoint in front.stats.items():
            wire = stats["endpoints"][path]
            if wire["requests"]:  # by design an idle route exports nothing
                blocks.append((endpoint, {"endpoint": path}, wire))
        return blocks, stats, metrics


def sample(metrics, family, labels, suffix=""):
    """The one ``family`` sample carrying exactly ``labels`` (None: absent)."""
    labels = {key: str(value) for key, value in labels.items()}
    found = [
        value
        for name, sample_labels, value in metrics[family]["samples"]
        if name == family + suffix and sample_labels == labels
    ]
    assert len(found) <= 1, (family, labels)
    return found[0] if found else None


class TestSurfaceParity:
    def test_every_declared_counter_agrees_across_surfaces(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_ACTIVE_JOBS", 1)
        blocks, stats, metrics = asyncio.run(mixed_workload())

        # The workload reached what it set out to reach.
        serving = stats["serving"]
        for key in ("served", "failed", "cancelled", "expired"):
            assert serving[key] >= 1, key
        assert stats["cluster"]["retries"] >= 1
        assert stats["client_disconnects"] == 1
        assert set(stats["endpoints"]["/v1/scan"]["errors"]) == {"400", "504"}
        assert stats["endpoints"]["/v1/jobs"]["errors"] == {"503": 1}

        checked = Counter()
        for block, labels, wire in blocks:
            for name, declaration in type(block).declared.items():
                if not isinstance(declaration, counted):
                    assert name in wire  # derived: rendered, nothing to match
                    continue
                if declaration.json:
                    value = wire[name]
                else:
                    assert name not in wire
                    value = dict(getattr(block, name))
                family = declaration.family
                if family is None:
                    continue
                constant = {**declaration.labels, **labels}
                if declaration.by is not None:
                    for key, n in value.items():
                        by_key = {**constant, declaration.by: key}
                        assert sample(metrics, family, by_key) == n, (name, key)
                elif METRIC_FAMILIES[family][0] == "histogram":
                    exported = sample(metrics, family, constant, "_count")
                    assert exported == value["count"], (name, constant)
                else:
                    assert sample(metrics, family, constant) == value, (name, constant)
                checked[family] += 1
        # Every family a block can export was compared at least once.
        assert set(checked) == {
            declaration.family
            for block, _, _ in blocks
            for declaration in type(block).declared.values()
            if declaration.family is not None
        }

        # The cluster-wide block is the declared merge of the per-replica
        # ones: sums, ``max`` for max_batch, histogram counts added.
        parts = [wire for block, _, wire in blocks if type(block) is ServingStats]
        assert len(parts) == 2
        for name, declaration in ServingStats.declared.items():
            if not isinstance(declaration, counted):
                continue
            values = [part[name] for part in parts]
            if isinstance(values[0], dict):  # a histogram's wire form
                assert serving[name]["count"] == sum(v["count"] for v in values)
            else:
                assert serving[name] == reduce(declaration.merge, values), name
        assert ServingStats.declared["max_batch"].merge is max


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
