"""The stack benchmark: five workloads through every layer of the system.

    python3 benchmarks/stack/run.py                 # every workload, both passes
    python3 benchmarks/stack/run.py --smoke         # the same in under 30 s
    python3 benchmarks/stack/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/stack/run.py --calibrate 5   # run-to-run spread -> NOISE.json

With ``--workload`` one pass of one workload runs in this process and the
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Without it
every workload runs in a fresh process, untraced then traced, and the merged
result is printed and written to ``out/result.json``.

The native extension is built in place before anything is measured
(``prepare``); the benchmark refuses to run on any other engine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DEFAULT_SEED = 0x5EED
SMOKE_SECONDS = 0.6

sys.path.insert(0, str(ROOT / "src"))


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        return json.load(handle)


def prepare() -> None:
    """Build the native extension if this checkout has none; verify it loads.

    Runs before, and is no part of, ``setup_s``. Exits non-zero with the
    program's own reason when ``native`` is still unavailable: the benchmark
    never silently measures a different engine.
    """
    core = ROOT / "src" / "repro" / "core"
    if not core.is_dir():
        sys.exit(f"no program to measure: {core} does not exist")
    if not any(core.glob("_native*.so")) and not any(core.glob("_native*.pyd")):
        OUT.mkdir(exist_ok=True)
        with open(OUT / "build.log", "wb") as log:
            subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, check=False,
            )
    from repro.core import kernels

    if not kernels.native_available():
        sys.exit(f"engine 'native' unavailable: {kernels.native_unavailable_reason()}")


def provenance(seed: int) -> dict:
    import repro

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "repro_version": repro.__version__,
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "engine": "native",
    }


# ----------------------------------------------------------------------
# One pass of one workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    contract = load_contract()
    prepare()
    import inputs

    if args.workload in inputs.WIRE:
        from wire import run_wire as run_workload
    else:
        from workloads import run_in_process as run_workload
    OUT.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    tally = result.pop("tally")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    values = result[section]
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit(f"{args.workload}: metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = tally.failed == 0 and not result.get("violations")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        **provenance(args.seed),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "ops_validated": tally.validated,
        "fail_reasons": tally.reasons,
        "latency_samples": result["latency_samples"],
        "output_sha256": result["output_sha256"],
        "violations": result.get("violations", []),
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print_metrics(record)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def print_metrics(record: dict) -> None:
    print(
        f"== {record['workload']} (trace {record['trace']}, seed {record['seed']}): "
        f"ops_attempted {record['ops_attempted']}  ops_failed {record['ops_failed']}  "
        f"ops_validated {record['ops_validated']}  "
        f"latency_samples {record['latency_samples']}"
    )
    for reason, count in record["fail_reasons"].items():
        print(f"   failed: {reason} x{count}")
    for problem in record["violations"][:5]:
        print(f"   span violation: {problem}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    print(f"   output_sha256 {record['output_sha256']}")


# ----------------------------------------------------------------------
# Every workload, each pass in a fresh process
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one pass in a fresh process; returns the record it wrote."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"{workload} (trace {trace}) exited with {done.returncode}")
    contract_line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(OUT / f"result-{workload}-trace{trace}.json") as handle:
        record = json.load(handle)
    record["correct"] = contract_line["correct"]
    return record


WATERFALL = ("core", "engine", "mapping", "sequences", "serving")


def run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    prepare()
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    names = [w["name"] for w in contract["workloads"]]
    records = []
    ok = True
    for workload in names:
        for trace in (0, 1):
            record = spawn(workload, args.seed, seconds, trace, args.smoke)
            print_metrics(record)
            ok = ok and record["correct"]
            records.append(record)
        shares = records[-1]["metrics"]
        print(f"   waterfall ({workload}): " + "  ".join(
            f"{layer} {shares[f'share.{layer}']['value']:.2f}" for layer in WATERFALL
        ))
    with open(OUT / "result.json", "w") as handle:
        json.dump({**provenance(args.seed), "smoke": args.smoke, "runs": records}, handle, indent=1)
    print(f"wrote {OUT / 'result.json'}; spans in {OUT}/trace-<workload>.json")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Run-to-run spread
# ----------------------------------------------------------------------
def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibrate(args: argparse.Namespace) -> int:
    """Two sets of N runs per workload, each run on another seed.

    Fails when an end-to-end metric's spread exceeds its bound, when the
    second set's median is worse than the first's by more than the bound,
    or when the two sets disagree on anything that must repeat exactly.
    """
    contract = load_contract()
    prepare()
    runs = max(5, args.calibrate)
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    report: dict = {**provenance(args.seed), "runs_per_set": runs, "workloads": {}}
    failures = []
    for workload in (w["name"] for w in contract["workloads"]):
        sets = [
            [spawn(workload, args.seed + i, args.seconds, 0, False) for i in range(runs)]
            for _ in range(2)
        ]
        exact = all(
            (a["output_sha256"], a["metrics"]["correct_share"])
            == (b["output_sha256"], b["metrics"]["correct_share"])
            for a, b in zip(*sets)
        )
        if not exact:
            failures.append(f"{workload}: sets disagree on output_sha256 or correct_share")
        rows = {}
        for name, spec in bounds.items():
            values = [[r["metrics"][name]["value"] for r in batch] for batch in sets]
            medians = [statistics.median(v) for v in values]
            drift = (medians[1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                drift = -drift
            row = {
                "unit": spec["unit"],
                "bound": spec["bound"],
                "median": medians,
                "quartiles": [statistics.quantiles(v, n=4) for v in values],
                "min": [min(v) for v in values],
                "max": [max(v) for v in values],
                "spread": [spread(v) for v in values],
                "drift": drift,
            }
            rows[name] = row
            print(
                f"{workload:<16} {name:<15} median {medians[0]:>11.4f} {medians[1]:>11.4f} "
                f"spread {row['spread'][0]:.3f} {row['spread'][1]:.3f} "
                f"drift {drift:+.3f} bound {spec['bound']}"
            )
            if name != "setup_s" and max(row["spread"]) > spec["bound"]:
                failures.append(f"{workload}: {name} spread {max(row['spread']):.3f}")
            if drift > spec["bound"]:
                failures.append(f"{workload}: {name} drifted {drift:+.3f}")
        report["workloads"][workload] = {
            "failed_ops": sum(r["ops_failed"] for batch in sets for r in batch),
            "exact_repeat": exact,
            "metrics": rows,
        }
    report["failures"] = failures
    with open(HERE / "NOISE.json", "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for failure in failures:
        print(f"calibrate: {failure}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="small sizes, short run")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="two sets of N>=5 runs per workload -> NOISE.json")
    args = parser.parse_args()
    if args.workload:
        return run_one(args)
    if args.calibrate:
        return calibrate(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
