"""Compare two all-workloads reports of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, B over A, and
``within`` / ``REGRESSED`` / ``improved`` by the bound ``BENCHMARK.json``
fixes for that metric.  Layer rows follow, for information only.
Exits 1 on any end-to-end regression or any rise in failed requests.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def verdict(a: float, b: float, better: str, bound: float) -> str:
    """B against A: worse by more than ``bound`` of A regresses, better
    by more than ``bound`` improves."""
    if a == 0:
        return "within" if b == 0 else "n/a (base 0)"
    change = (b - a) / abs(a)
    if better == "higher":
        change = -change
    if change > bound:
        return "REGRESSED"
    return "improved" if change < -bound else "within"


def compare(a: dict, b: dict, spec: dict) -> int:
    regressions = 0
    print(f"{'workload':<20}{'metric':<24}{'A':>12}{'B':>12}{'B/A':>8}  verdict")
    for name in a["workloads"]:
        row_a = a["workloads"][name].get("end_to_end")
        row_b = b["workloads"].get(name, {}).get("end_to_end")
        if not row_a or not row_b:
            print(f"{name:<20}missing in one report")
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            va = row_a["metrics"][metric["name"]]["value"]
            vb = row_b["metrics"][metric["name"]]["value"]
            what = verdict(va, vb, metric["better"], metric["bound"])
            regressions += what == "REGRESSED"
            ratio = f"{vb / va:.3f}" if va else "-"
            print(
                f"{name:<20}{metric['name']:<24}{va:>12.3f}{vb:>12.3f}"
                f"{ratio:>8}  {what} (bound {metric['bound']:.0%} of A, "
                f"{metric['unit']}, {metric['better']} is better)"
            )
        fa, fb = (r["failed"] / r["attempted"] for r in (row_a, row_b))
        what = "REGRESSED" if fb > fa else "within"
        regressions += fb > fa
        print(f"{name:<20}{'failed_share':<24}{fa:>12.4f}{fb:>12.4f}{'':>8}  {what}")
    print("\nper-layer (information only; a layer a workload skips reads 0)")
    for name in a["workloads"]:
        layers_a = a["workloads"][name].get("layers", {}).get("metrics", {})
        layers_b = b["workloads"].get(name, {}).get("layers", {}).get("metrics", {})
        for metric, cell in layers_a.items():
            va, vb = cell["value"], layers_b.get(metric, {}).get("value", 0.0)
            if va == 0 and vb == 0:
                continue
            ratio = f"{vb / va:.3f}" if va else "-"
            print(
                f"{name:<20}{metric:<44}{va:>14.4f}{vb:>14.4f}{ratio:>8} "
                f"{cell['unit']}"
            )
    return 1 if regressions else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
        a, b = json.load(fa), json.load(fb)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
