"""Checks on the benchmark itself (not part of tier-1's ``testpaths``).

    python -m pytest benchmarks/stack

Runs the whole benchmark twice at ``--smoke`` sizes (about a minute in all)
and checks what a later reader of its numbers relies on: every name in
``BENCHMARK.json`` is emitted with its unit, outputs repeat exactly for a
seed, no op fails, spans nest, and each layer does its work where the README
says it does.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import validate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
IN_PROCESS = ("long_read_align", "short_read_map", "prefilter_pairs")


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run() -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "11"],
        check=True, capture_output=True, cwd=ROOT,
    )
    result = json.loads((HERE / "out" / "result.json").read_text())
    return {(run["workload"], run["trace"]): run for run in result["runs"]}


@pytest.fixture(scope="module")
def runs() -> tuple[dict, dict]:
    return smoke_run(), smoke_run()


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/stack"]
    assert 1 <= contract["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    # 4 + 22 runs per workload, plus set-up and builds, inside 3420 s.
    assert (4 + 22 * len(contract["workloads"])) * (contract["run_seconds"] + 13) < 3420


def test_every_named_metric_is_emitted(contract, runs):
    first, _ = runs
    for workload in (w["name"] for w in contract["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            emitted = first[(workload, trace)]["metrics"]
            assert list(emitted) == [m["name"] for m in contract[section]]
            for metric in contract[section]:
                assert emitted[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(emitted[metric["name"]]["value"], (int, float))
    for workload in (w["name"] for w in contract["workloads"]):
        assert all(m["value"] > 0 for m in first[(workload, 0)]["metrics"].values())


def test_no_op_fails_and_outputs_repeat(runs):
    first, second = runs
    for key, run in first.items():
        again = second[key]
        assert run["ops_failed"] == 0 and run["correct"], run["fail_reasons"]
        assert run["ops_attempted"] >= run["ops_validated"] > 0
        assert run["output_sha256"] == again["output_sha256"]
        if key[0] in IN_PROCESS:  # wire workloads validate every op they time
            assert run["ops_validated"] == again["ops_validated"]
        correct = "correct_share"
        if key[1] == 0:
            assert run["metrics"][correct]["value"] == again["metrics"][correct]["value"]
    assert first[("long_read_align", 0)]["metrics"]["correct_share"]["value"] == 1.0
    assert first[("prefilter_pairs", 0)]["metrics"]["correct_share"]["value"] == 1.0
    for workload in ("short_read_map", "job_stream", "interactive_map"):
        assert first[(workload, 0)]["metrics"]["correct_share"]["value"] >= 0.90


def test_provenance_is_stamped(runs):
    first, _ = runs
    for run in first.values():
        assert run["engine"] == "native" and run["seed"] == 11
        for key in ("repro_version", "python", "platform", "cpu_count", "git_sha"):
            assert key in run
        assert re.fullmatch(r"[0-9a-f]{64}", run["output_sha256"])


def test_spans_nest_and_account_for_the_time(contract, runs):
    first, _ = runs
    for workload in (w["name"] for w in contract["workloads"]):
        trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
        assert trace["spans"], workload
        assert spans.nesting_violations(trace["spans"]) == []
        assert first[(workload, 1)]["violations"] == []
        assert first[(workload, 1)]["metrics"]["attributed_share"]["value"] >= 0.9
    # One trace id per op, shared by both sides of the wire.
    wire = json.loads((HERE / "out" / "trace-interactive_map.json").read_text())["spans"]
    requests = [s["trace"] for s in wire if s["name"] == "http.request"]
    backend = {s["trace"] for s in wire if s["name"] == "cluster.map_read"}
    assert len(requests) == len(set(requests))
    assert set(requests) <= backend


def test_each_layer_works_where_the_readme_says(runs):
    first, _ = runs

    def share(workload: str, layer: str) -> float:
        return first[(workload, 1)]["metrics"][layer]["value"]

    for workload in ("long_read_align", "prefilter_pairs"):
        assert share(workload, "share.core") + share(workload, "share.engine") >= 0.8
    for workload in IN_PROCESS:
        assert share(workload, "share.serving") == 0
        assert share(workload, "serving.overhead_share") == 0
    assert share("long_read_align", "share.mapping") == 0
    assert share("short_read_map", "share.mapping") > 0.1
    assert share("interactive_map", "share.serving") >= 0.5
    # Half a second of smoke job, CPU read in 10 ms ticks: full size gives 0.6-0.7.
    assert share("job_stream", "serving.overhead_share") >= 0.3
    assert share("job_stream", "share.serving") >= 0.3


def test_validators_catch_broken_outputs():
    assert validate.self_check() == []
    assert validate.replay_cigar("3=", "ACG", "ACGT") == "cigar_read_not_consumed"
    assert validate.replay_cigar("2=1D2=", "ACGTA", "ACTA") == (5, 1)
