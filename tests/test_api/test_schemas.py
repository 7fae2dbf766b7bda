"""One validation test per versioned JSON document the project emits.

Every machine-readable artifact carries a ``schema`` stamp
(``repro.<family>/<version>``); these tests pin the stamp and the
structural contract of each document, and check that ``docs/schemas.md``
documents every stamp we emit.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMAS = (
    "repro.obs.metrics/v1",
    "repro.obs.flight/v1",
    "repro.bench.soak/v3",
)

_LATENCY_KEYS = {"count", "mean", "p50", "p90", "p95", "p99", "max"}


def _json_ready(doc) -> None:
    text = json.dumps(doc)
    assert "Infinity" not in text and "NaN" not in text


# -- repro.obs.metrics/v1 --------------------------------------------------


def test_obs_metrics_v1():
    from repro.obs import MetricsRegistry, metrics_json

    metrics = MetricsRegistry()
    metrics.count("pipeline.compiles")
    metrics.observe("sql.run_ns", 1500)
    doc = metrics_json(metrics)
    assert doc["schema"] == "repro.obs.metrics/v1"
    assert doc["counters"]["pipeline.compiles"] == 1
    assert "gauges" in doc
    _json_ready(doc)


# -- repro.obs.flight/v1 ---------------------------------------------------


def test_obs_flight_v1():
    from repro.obs import validate_flight_snapshot
    from repro.obs.flight import FlightContext, FlightRecorder

    recorder = FlightRecorder(capacity=8, slow_capacity=4,
                              slow_threshold_s=0.001)
    for elapsed_ms in (0.1, 5.0):
        context = FlightContext()
        context.note_cache("exact")
        context.add_phase("sql", int(elapsed_ms * 1e6))
        context.note_rows(3)
        recorder.record(
            query_text="//item/name",
            engine="joingraph-sql",
            status="ok",
            context=context,
            elapsed_ns=int(elapsed_ms * 1e6),
        )
    snapshot = recorder.snapshot()
    assert snapshot["schema"] == "repro.obs.flight/v1"
    assert validate_flight_snapshot(snapshot) == []
    assert snapshot["counts"]["recorded"] == 2
    assert snapshot["counts"]["promoted"] == 1
    assert len(snapshot["records"]) == 2
    assert len(snapshot["slow"]) == 1
    _json_ready(snapshot)


def test_obs_flight_v1_live_service():
    import repro

    with repro.connect(slow_threshold_s=0.0) as session:
        session.load("<a><b>x</b></a>", "doc.xml")
        session.execute("//b")
        snapshot = session.service.flight.snapshot()
    from repro.obs import validate_flight_snapshot

    assert validate_flight_snapshot(snapshot) == []
    assert snapshot["counts"]["recorded"] == 1
    # threshold 0 promotes everything: the capture carries diagnostics
    [capture] = snapshot["slow"]
    assert capture["reason"] == "slow"
    assert capture["trace"]
    _json_ready(snapshot)


def test_validate_flight_snapshot_rejects_bad_documents():
    from repro.obs import validate_flight_snapshot

    assert validate_flight_snapshot({}) != []
    assert validate_flight_snapshot({"schema": "nope/v1"}) != []


# -- repro.bench.soak/v3 ---------------------------------------------------


def test_bench_soak_v3():
    from repro.workloads.soak import SoakConfig, run_soak

    report = run_soak(
        SoakConfig(
            duration_s=0.5,
            documents=2,
            factor=0.002,
            load_points=(1.0,),
            fault_rate=0.2,
            deadline_s=0.5,
        )
    )
    assert report["schema"] == "repro.bench.soak/v3"
    metadata = report["metadata"]
    # removed in v3 (one seed; the answer checks replace sampling)
    assert not {"fault_seed", "differential_rate"} & set(metadata)
    assert "executor" not in metadata  # removed in v2
    assert metadata["stall_ms"] == 2_000.0 * metadata["deadline_s"]
    assert len(report["tenants"]) == 4
    for profile in report["tenants"].values():
        assert profile["rate_qps"] > 0
        assert profile["weight"] > 0
        assert profile["templates"]
    [point] = report["curve"]
    assert point["multiplier"] == 1.0
    assert set(point["frontdoor"]) == {"queue", "counters"}
    assert "faults_injected" not in point  # v3: the point's ledgers
    faults = point["faults"]
    assert set(faults) == {
        "injected", "absorbed", "injected_total", "handled",
        "handled_total", "tenants_total", "balanced",
    }
    assert set(faults["handled"]) == {"retry", "degrade", "surface"}
    assert faults["injected_total"] == faults["handled_total"]
    assert faults["injected_total"] == faults["tenants_total"]
    assert point["offered"] >= point["ok"]
    for tenant in point["per_tenant"].values():
        assert set(tenant["latency_ms"]) == _LATENCY_KEYS
        assert set(tenant["faults"]) == {
            "injected", "retried", "degraded", "surfaced",
        }
        assert tenant["ledger_balanced"] is True
    assert set(report["knee"]) == {
        "multiplier", "goodput_qps", "goodput_ratio",
    }
    assert 0.0 < report["fairness"]["index"] <= 1.0
    assert report["faults"]["enabled"] is True
    assert "differential" not in report and "flight" not in report
    answers = report["answers"]
    assert set(answers) == {"checked", "serialized", "wrong", "crashes"}
    assert answers["wrong"] == [] and answers["crashes"] == []
    assert set(report["latency"]) == {"clean", "degraded", "surfaced"}
    for summary in report["latency"].values():
        assert set(summary) == _LATENCY_KEYS
    slow_log = report["slow_log"]
    assert set(slow_log) == {
        "expected", "captured", "with_diagnostics", "complete",
    }
    assert slow_log["captured"] == slow_log["expected"]
    gates = report["gates"]
    assert set(gates) == {
        "no_wrong_answers", "no_crashes", "ledger_balanced",
        "slow_log_complete", "knee_found", "fairness_ok", "passed",
    }
    assert gates["passed"] == all(
        value for name, value in gates.items() if name != "passed"
    )
    _json_ready(report)


# -- the catalog -----------------------------------------------------------


def test_docs_catalog_lists_every_schema():
    catalog = (Path(__file__).parents[2] / "docs" / "schemas.md").read_text()
    for schema in SCHEMAS:
        assert schema in catalog, f"docs/schemas.md must document {schema}"
