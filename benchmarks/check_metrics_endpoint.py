"""CI smoke gate for the ``/metrics`` exposition endpoint.

Boots a real replicated serving stack — a two-replica
:class:`AlignmentCluster` behind the HTTP front on an ephemeral loopback
port — drives a little traffic through every POST
endpoint, then scrapes ``GET /metrics`` *externally* (``curl`` when
available, ``urllib`` otherwise: the point is crossing a real TCP socket,
not an in-process shortcut) and validates the scrape with
:func:`repro.serving.observability.parse_prometheus_text`. Validation is
structural — TYPE declarations, cumulative histogram buckets, ``+Inf``
vs ``_count`` agreement — plus a required-family checklist covering
every layer: HTTP front, batching server and cluster router. A
missing family means a collector silently fell off the registry; a parse
error means the exposition format rotted.

Exit status 0 on success, 1 with a failure list otherwise.

Run:  PYTHONPATH=src python benchmarks/check_metrics_endpoint.py
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.serving import (  # noqa: E402
    AlignmentCluster,
    AlignmentHTTPServer,
    parse_prometheus_text,
)

#: Every serving layer must contribute at least these families; one
#: entry per subsystem so a dropped collector is named, not just counted.
REQUIRED_FAMILIES = {
    "http front": (
        "genasm_http_requests_total",
        "genasm_http_request_duration_seconds",
    ),
    "batching server": (
        "genasm_serving_requests_total",
        "genasm_serving_flushes_total",
        "genasm_serving_request_latency_seconds",
        "genasm_serving_pending_requests",
    ),
    "cluster router": (
        "genasm_cluster_replicas",
        "genasm_cluster_events_total",
        "genasm_cluster_replica_requests_total",
        "genasm_cluster_replica_latency_seconds",
    ),
}


def scrape(url: str) -> str:
    """Fetch ``url`` over real TCP: curl if present, urllib otherwise."""
    curl = shutil.which("curl")
    if curl is not None:
        proc = subprocess.run(
            [curl, "--silent", "--show-error", "--fail", "--max-time", "10", url],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"curl failed: {proc.stderr.strip()}")
        return proc.stdout
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode()


async def drive_and_scrape() -> tuple[str, str]:
    """Boot the stack, send traffic, return (metrics text, trace text)."""
    cluster = AlignmentCluster(
        replicas=2,
        engine="pure",
        batch_size=8,
        flush_interval=0.002,
    )
    front = AlignmentHTTPServer(cluster)
    await front.start(host="127.0.0.1", port=0)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", front.port)

        async def post(path: str, payload: dict) -> dict:
            body = json.dumps(payload).encode()
            writer.write(
                (
                    f"POST {path} HTTP/1.1\r\nHost: smoke\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            raw = await reader.readexactly(
                int(headers.get("content-length", "0"))
            )
            if status != 200:
                raise RuntimeError(f"{path} -> {status}: {raw[:200]!r}")
            return {"body": json.loads(raw), "headers": headers}

        # Touch every POST surface.
        for _ in range(3):
            await post(
                "/v1/scan", {"text": "ACGTACGTACGT", "pattern": "ACGT", "k": 1}
            )
        await post(
            "/v1/edit_distance",
            {"text": "ACGTACGT", "pattern": "ACGA", "k": 2},
        )
        # The request whose trace is looked up below: it crosses
        # queue_wait -> batch_assembly -> engine.
        traced = await post("/v1/align", {"text": "ACGTACGT", "pattern": "ACGT"})
        writer.close()
        await writer.wait_closed()

        request_id = traced["headers"].get("x-request-id", "")
        metrics_text = await asyncio.to_thread(
            scrape, f"http://127.0.0.1:{front.port}/metrics"
        )
        trace_text = await asyncio.to_thread(
            scrape, f"http://127.0.0.1:{front.port}/v1/trace/{request_id}"
        )
        return metrics_text, trace_text
    finally:
        await front.stop()


def check_families(families: dict) -> list[str]:
    """Name every required family that is missing or has no samples."""
    failures: list[str] = []
    for subsystem, names in REQUIRED_FAMILIES.items():
        for name in names:
            if name not in families:
                failures.append(f"{subsystem}: family {name!r} missing")
            elif not families[name]["samples"]:
                failures.append(f"{subsystem}: family {name!r} has no samples")
    return failures


def check_trace(trace_text: str) -> list[str]:
    """The traced request must be queryable end-to-end over the same TCP
    path, with a breakdown that accounts for its latency."""
    try:
        trace = json.loads(trace_text)
    except json.JSONDecodeError as exc:
        return [f"trace lookup: unparseable body ({exc})"]
    failures: list[str] = []
    if not trace.get("complete"):
        failures.append("trace lookup: request not marked complete")
    if trace.get("accounted_fraction", 0.0) < 0.5:
        failures.append(
            "trace lookup: span breakdown accounts for "
            f"{trace.get('accounted_fraction')!r} of the latency"
        )
    if not trace.get("spans"):
        failures.append("trace lookup: no spans recorded")
    return failures


def main() -> int:
    metrics_text, trace_text = asyncio.run(drive_and_scrape())

    try:
        families = parse_prometheus_text(metrics_text)
    except ValueError as exc:
        print(f"FAIL: /metrics is not valid Prometheus text exposition: {exc}")
        return 1

    failures = check_families(families) + check_trace(trace_text)
    if failures:
        print(f"FAIL: {len(failures)} /metrics smoke failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    total_samples = sum(len(f["samples"]) for f in families.values())
    print(
        f"OK: /metrics served {len(families)} families "
        f"({total_samples} samples) covering "
        f"{', '.join(REQUIRED_FAMILIES)}; trace lookup round-tripped"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
