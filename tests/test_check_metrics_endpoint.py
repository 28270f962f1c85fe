"""Unit tests for the CI ``/metrics`` smoke gate's checks.

One real stack is booted and scraped per module; each test then breaks
one piece of that scrape and asserts the gate names exactly what broke.
"""

import asyncio
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import check_metrics_endpoint as gate  # noqa: E402

REQUIRED = [
    (subsystem, name)
    for subsystem, names in gate.REQUIRED_FAMILIES.items()
    for name in names
]


@pytest.fixture(scope="module")
def scrape():
    """``(metrics text, trace text)`` from one booted stack."""
    return asyncio.run(gate.drive_and_scrape())


@pytest.fixture
def families(scrape):
    # Parsed afresh per test, so a test may delete or empty a family.
    return gate.parse_prometheus_text(scrape[0])


@pytest.fixture
def trace(scrape):
    return json.loads(scrape[1])


def fake_scrape(monkeypatch, metrics_text, trace_text):
    async def drive_and_scrape():
        return metrics_text, trace_text

    monkeypatch.setattr(gate, "drive_and_scrape", drive_and_scrape)


class TestLiveStack:
    def test_real_scrape_passes_every_check(self, families, scrape):
        assert gate.check_families(families) == []
        assert gate.check_trace(scrape[1]) == []

    def test_main_exits_zero_and_names_every_layer(self, capsys):
        assert gate.main() == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        for subsystem in gate.REQUIRED_FAMILIES:
            assert subsystem in out


class TestFamilies:
    @pytest.mark.parametrize(
        "subsystem,name", REQUIRED, ids=[name for _, name in REQUIRED]
    )
    def test_dropped_family_is_named_with_its_layer(
        self, families, subsystem, name
    ):
        del families[name]
        assert gate.check_families(families) == [
            f"{subsystem}: family {name!r} missing"
        ]

    def test_family_without_samples_fails(self, families):
        families["genasm_cluster_replicas"]["samples"] = []
        assert gate.check_families(families) == [
            "cluster router: family 'genasm_cluster_replicas' has no samples"
        ]

    def test_every_missing_family_is_reported_not_just_the_first(self):
        failures = gate.check_families({})
        assert len(failures) == len(REQUIRED)
        assert all(failure.endswith("missing") for failure in failures)

    def test_every_layer_requires_at_least_one_family(self):
        assert set(gate.REQUIRED_FAMILIES) == {
            "http front",
            "batching server",
            "cluster router",
        }
        assert all(gate.REQUIRED_FAMILIES.values())


class TestTrace:
    def test_unparseable_body_fails(self):
        failures = gate.check_trace("not json")
        assert len(failures) == 1
        assert failures[0].startswith("trace lookup: unparseable body")

    def test_incomplete_request_fails(self, trace):
        trace["complete"] = False
        assert gate.check_trace(json.dumps(trace)) == [
            "trace lookup: request not marked complete"
        ]

    def test_breakdown_covering_under_half_the_latency_fails(self, trace):
        trace["accounted_fraction"] = 0.25
        assert gate.check_trace(json.dumps(trace)) == [
            "trace lookup: span breakdown accounts for 0.25 of the latency"
        ]

    def test_no_spans_fails(self, trace):
        trace["spans"] = []
        assert gate.check_trace(json.dumps(trace)) == [
            "trace lookup: no spans recorded"
        ]

    def test_empty_body_fails_every_check(self):
        assert gate.check_trace("{}") == [
            "trace lookup: request not marked complete",
            "trace lookup: span breakdown accounts for None of the latency",
            "trace lookup: no spans recorded",
        ]


class TestMain:
    def test_unparseable_exposition_exits_one(self, monkeypatch, capsys, scrape):
        fake_scrape(monkeypatch, "# TYPE broken\n", scrape[1])
        assert gate.main() == 1
        out = capsys.readouterr().out
        assert "not valid Prometheus text exposition" in out

    def test_failures_are_counted_and_listed(self, monkeypatch, capsys, scrape):
        fake_scrape(monkeypatch, scrape[0], "{}")
        assert gate.main() == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL: 3 /metrics smoke failure(s):"
        assert lines[1:] == [
            "  trace lookup: request not marked complete",
            "  trace lookup: span breakdown accounts for None of the latency",
            "  trace lookup: no spans recorded",
        ]
