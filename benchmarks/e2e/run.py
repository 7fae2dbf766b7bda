"""The benchmark of record: six workloads, end to end and per layer.

One workload, as the driver runs it::

    python3 benchmarks/e2e/run.py --workload warm_exec --seed 7 \\
        --seconds 8 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

All six, both passes, each in a fresh child process::

    python3 benchmarks/e2e/run.py --seed 7 --out A.json

prints every metric by name with its unit and writes ``A.json`` for
``compare.py``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sqlite3
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

# the compiler recurses over deep plans; every entry point of the
# program raises the limit the same way
sys.setrecursionlimit(100_000)

from harness import Samples, Spans, median  # noqa: E402
from layers import LAYER_PASS  # noqa: E402
from workloads import WORKLOADS, Workload, _compiles  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
#: laps per run: each sets the stack up once, so ``setup_s`` is the
#: median of three set-ups
LAPS = 3


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[Samples, dict]:
    """Three laps of (fresh corpus, timed set-up, a third of the
    window; one lap with ``--quick``).  Tracing is off; only
    whole-request timers run."""
    rng = random.Random(seed)
    samples = Samples()
    setups: list[float] = []
    for _ in range(1 if workload.quick else LAPS):
        inputs = workload.inputs(rng)
        start = time.perf_counter()
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - start)
        compiles = _compiles()
        try:
            workload.lap(state, inputs, seconds / LAPS, samples, rng)
        finally:
            workload.close(state)
        if not workload.compiles_allowed and _compiles() != compiles:
            raise SystemExit(
                f"{workload.name}: {_compiles() - compiles:g} compiles inside "
                "the measured window (the window must be all-warm)"
            )
    metrics = samples.end_to_end()
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return samples, metrics


def layer_pass(workload: Workload, seed: int, seconds: float) -> tuple[Samples, dict]:
    """The traced pass: one lap's corpus, spans around the calls into
    each layer, written to ``out/trace-<workload>.json``."""
    rng = random.Random(seed)
    samples = Samples()
    spans = Spans()
    metrics = LAYER_PASS[workload.name](workload, rng, seconds, samples, spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.write(
        os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
        {"workload": workload.name, "seed": seed, **header()},
    )
    return samples, metrics


def header() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload in this process; returns the driver's result
    object."""
    workload = WORKLOADS[name](quick=quick)
    declared = spec()["per_layer" if trace else "end_to_end"]
    samples, measured = (layer_pass if trace else end_to_end)(
        workload, seed, seconds
    )
    if trace:
        measured["failed_share"] = samples.failed / max(1, samples.attempted)
    for why in samples.failures:
        print(f"FAILED {why}", file=sys.stderr)
    return {
        "correct": samples.failed == 0 and samples.attempted > 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            metric["name"]: {
                # a layer a workload does not exercise reads 0
                "value": measured.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def run_all(seed: int, seconds: float, out: str | None, quick: bool) -> int:
    """Every workload, untraced then traced, each in a fresh child
    process; prints every metric with its unit."""
    report = {
        "header": {
            **header(),
            "seed": seed,
            "seconds": seconds,
            "sizes": {
                name: cls(quick=quick).sizes() for name, cls in WORKLOADS.items()
            },
        },
        "workloads": {},
    }
    failed = False
    for name in WORKLOADS:
        row = report["workloads"][name] = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ] + (["--quick"] if quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{name} --trace {trace}: exit {done.returncode}")
                failed = True
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            row["layers" if trace else "end_to_end"] = result
            failed |= not result["correct"]
            print(
                f"== {name} [{'per-layer' if trace else 'end-to-end'}] "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for metric, cell in result["metrics"].items():
                print(f"   {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the all-workloads report here")
    parser.add_argument(
        "--quick", action="store_true", help="smoke sizes (check_smoke.py)"
    )
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.5 if args.quick else spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.out, args.quick)
    result = run_one(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
