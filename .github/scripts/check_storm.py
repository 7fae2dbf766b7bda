"""Check a fault-storm report (``repro serve-bench --out FILE``).

Usage: ``python .github/scripts/check_storm.py storm-report.json``.
Re-derives every gate from the report's raw numbers instead of
trusting its ``gates`` block, then requires that block to pass too.
"""

import json
import sys

report = json.load(open(sys.argv[1]))
assert report["schema"] == "repro.bench.soak/v3", report["schema"]
assert "lookup" in report["tenants"] and len(report["tenants"]) >= 4
assert report["faults"]["enabled"] is True

answers = report["answers"]
assert answers["wrong"] == [], answers["wrong"]
assert answers["crashes"] == [], answers["crashes"]

executions = 0
for point in report["curve"]:
    multiplier = point["multiplier"]
    faults = point["faults"]
    # the three ledgers agree: the injector, the service, the tenants
    assert (
        faults["injected_total"]
        == faults["handled_total"]
        == sum(t["faults"]["injected"] for t in point["per_tenant"].values())
    ), (multiplier, faults)
    for name, tenant in point["per_tenant"].items():
        ledger = tenant["faults"]
        assert ledger["injected"] == (
            ledger["retried"] + ledger["degraded"] + ledger["surfaced"]
        ), (multiplier, name, ledger)
        assert tenant["offered"] == (
            tenant["ok"] + tenant["rejected_quota"]
            + tenant["rejected_overload"] + sum(tenant["errors"].values())
        ), (multiplier, name)
    executions += point["frontdoor"]["counters"]["service.frontdoor.executions"]

# the flight recorder kept every execution, and the slow log captured
# every degraded and surfaced one with EXPLAIN and trace
counts = {name: summary["count"] for name, summary in report["latency"].items()}
assert sum(counts.values()) == executions, (counts, executions)
slow = report["slow_log"]
assert slow["expected"] == counts["degraded"] + counts["surfaced"], slow
assert slow["complete"] and slow["captured"] == slow["expected"], slow
assert slow["with_diagnostics"] == slow["captured"], slow

# tail-latency sanity at the saturated point: the p99 stays within 50x
# of the median
saturated = report["curve"][-1]
for name, tenant in saturated["per_tenant"].items():
    latency = tenant["latency_ms"]
    if latency["count"]:
        assert latency["p99"] < 50 * max(latency["p50"], 1.0), (name, latency)

assert report["gates"]["passed"], report["gates"]
print(
    f"storm OK: knee {report['knee']['multiplier']}x, "
    f"fairness {report['fairness']['index']:.3f}, "
    f"{answers['checked']} answers checked, "
    f"{sum(p['faults']['injected_total'] for p in report['curve'])} faults "
    f"injected and accounted for, latency counts {counts}, "
    f"surfaced p99 {report['latency']['surfaced']['p99']:.0f} ms"
)
