"""CI smoke gate for the ``/metrics`` exposition endpoint.

Boots a real replicated serving stack — a two-replica
:class:`AlignmentCluster` behind the HTTP front on an ephemeral loopback
port — drives a little traffic through every POST
endpoint, then scrapes ``GET /metrics`` *externally* (``curl`` when
available, ``urllib`` otherwise: the point is crossing a real TCP socket,
not an in-process shortcut) and validates the scrape with
:func:`parse_prometheus_text`, defined here apart from the renderer it
checks (the tests import it from this script). Validation is
structural — TYPE declarations, cumulative histogram buckets, ``+Inf``
vs ``_count`` agreement — plus a required-family checklist covering
every layer: HTTP front, batching server and cluster router. A
missing family means a collector silently fell off the page; a parse
error means the exposition format rotted.

Exit status 0 on success, 1 with a failure list otherwise.

Run:  PYTHONPATH=src python benchmarks/check_metrics_endpoint.py
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.serving import AlignmentCluster, AlignmentHTTPServer  # noqa: E402

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


# ----------------------------------------------------------------------
# Exposition parser (this gate and the tests assert by parsing)
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_METRIC_KINDS = ("counter", "gauge", "histogram")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise ValueError(f"malformed label pair at {text[pos:]!r}")
        raw = match.group("value")
        labels[match.group("name")] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pos = match.end()
        if pos < len(text) and text[pos] == ",":
            pos += 1
    return labels


def _parse_sample_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)  # raises ValueError on garbage — the parser's job


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse (and validate) one Prometheus text exposition.

    Returns ``{family_name: {"type", "help", "samples"}}`` where samples
    are ``(metric_name, labels_dict, value)`` tuples. Raises
    :class:`ValueError` on any malformed line, a sample for an
    undeclared family, or a histogram whose cumulative buckets decrease
    or whose ``+Inf`` bucket disagrees with ``_count`` — the structural
    assertions the CI smoke gate relies on instead of grepping.
    """
    families: dict[str, dict[str, Any]] = {}

    def family_of(sample_name: str) -> str | None:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and base in families:
                if families[base]["type"] == "histogram":
                    return base
        return sample_name if sample_name in families else None

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(None, 1)
            if not parts or not _METRIC_NAME_RE.match(parts[0]):
                raise ValueError(f"line {line_number}: malformed HELP {line!r}")
            entry = families.setdefault(
                parts[0], {"type": None, "help": "", "samples": []}
            )
            entry["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2 or parts[1] not in _METRIC_KINDS:
                raise ValueError(f"line {line_number}: malformed TYPE {line!r}")
            entry = families.setdefault(
                parts[0], {"type": None, "help": "", "samples": []}
            )
            if entry["type"] is not None:
                raise ValueError(
                    f"line {line_number}: duplicate TYPE for {parts[0]!r}"
                )
            entry["type"] = parts[1]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        for label_name in labels:
            if not _LABEL_NAME_RE.match(label_name):
                raise ValueError(
                    f"line {line_number}: bad label name {label_name!r}"
                )
        try:
            value = _parse_sample_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {line_number}: bad sample value {line!r}"
            ) from None
        base = family_of(name)
        if base is None:
            raise ValueError(
                f"line {line_number}: sample {name!r} has no TYPE declaration"
            )
        families[base]["samples"].append((name, labels, value))

    for name, entry in families.items():
        if entry["type"] is None:
            raise ValueError(f"family {name!r} has HELP but no TYPE")
        if entry["type"] == "histogram":
            _validate_histogram_family(name, entry["samples"])
    return families


def _validate_histogram_family(
    name: str, samples: list[tuple[str, dict[str, str], float]]
) -> None:
    """Cumulative-bucket and count consistency for one histogram family."""
    series: dict[tuple, dict[str, Any]] = {}
    for sample_name, labels, value in samples:
        key = tuple(
            sorted((k, v) for k, v in labels.items() if k != "le")
        )
        entry = series.setdefault(key, {"buckets": [], "count": None})
        if sample_name == f"{name}_bucket":
            if "le" not in labels:
                raise ValueError(f"{name}: bucket sample without le label")
            entry["buckets"].append(
                (_parse_sample_value(labels["le"]), value)
            )
        elif sample_name == f"{name}_count":
            entry["count"] = value
    for key, entry in series.items():
        buckets = sorted(entry["buckets"])
        if not buckets or buckets[-1][0] != float("inf"):
            raise ValueError(f"{name}{dict(key)}: histogram missing +Inf bucket")
        cumulative = [count for _, count in buckets]
        if any(b > a for a, b in zip(cumulative[1:], cumulative)):
            raise ValueError(
                f"{name}{dict(key)}: bucket counts are not cumulative"
            )
        if entry["count"] is not None and buckets[-1][1] != entry["count"]:
            raise ValueError(
                f"{name}{dict(key)}: +Inf bucket {buckets[-1][1]} != "
                f"_count {entry['count']}"
            )



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
