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
    "repro.faults.campaign/v5",
    "repro.obs.metrics/v1",
    "repro.obs.flight/v1",
    "repro.bench.soak/v2",
)

_LATENCY_KEYS = {"count", "mean", "p50", "p90", "p95", "p99", "max"}


def _json_ready(doc) -> None:
    text = json.dumps(doc)
    assert "Infinity" not in text and "NaN" not in text


# -- repro.faults.campaign/v5 ----------------------------------------------


def _check_campaign(report: dict) -> None:
    assert report["schema"] == "repro.faults.campaign/v5"
    assert "mode" not in report  # removed in v5
    contract = report["contract"]
    assert contract["holds"] is True
    faults = report["faults"]
    assert faults["injected_total"] == faults["handled_total"]
    assert set(report["latency"]) == {"clean", "degraded", "surfaced"}
    for summary in report["latency"].values():
        assert set(summary) == _LATENCY_KEYS
    total = sum(summary["count"] for summary in report["latency"].values())
    assert total == report["calls"]
    slow_log = report["slow_log"]
    assert slow_log["complete"] is True
    assert slow_log["captured"] == slow_log["expected"]
    assert "executor" not in report["config"]  # removed in v4
    _json_ready(report)


def test_faults_campaign_v5_one_shard():
    from repro.faults.campaign import ChaosConfig, run_chaos_campaign

    report = run_chaos_campaign(
        ChaosConfig(
            seed=3, threads=2, queries_per_thread=3, rate=0.3,
            factor=0.001, stall_ms=100.0, deadline_s=5.0, documents=1,
        )
    )
    assert report["config"]["shards"] == 1
    _check_campaign(report)


def test_faults_campaign_v5_two_shards():
    from repro.faults.campaign import ChaosConfig, run_chaos_campaign

    report = run_chaos_campaign(
        ChaosConfig(
            seed=11, threads=2, queries_per_thread=3, rate=0.25,
            factor=0.001, stall_ms=100.0, deadline_s=5.0,
            shards=2, documents=2,
        )
    )
    assert report["config"]["shards"] == 2
    assert report["outcomes"]["wrong"] == []
    _check_campaign(report)


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


# -- repro.bench.soak/v2 ---------------------------------------------------


def test_bench_soak_v2():
    from repro.workloads.soak import SoakConfig, run_soak

    report = run_soak(
        SoakConfig(
            duration_s=1.0,
            documents=2,
            factor=0.002,
            load_points=(1.0,),
            fault_rate=0.0,
            differential_rate=1.0,
            max_differential_samples=8,
        )
    )
    assert report["schema"] == "repro.bench.soak/v2"
    assert len(report["tenants"]) >= 3
    for profile in report["tenants"].values():
        assert profile["rate_qps"] > 0
        assert profile["weight"] > 0
        assert profile["templates"]
    assert "executor" not in report["metadata"]  # removed in v2
    [point] = report["curve"]
    assert point["multiplier"] == 1.0
    assert set(point["frontdoor"]) == {"queue", "counters"}
    assert point["offered"] >= point["ok"]
    for tenant in point["per_tenant"].values():
        assert set(tenant["latency_ms"]) == _LATENCY_KEYS
        assert set(tenant["faults"]) == {
            "injected", "retried", "degraded", "surfaced",
        }
        assert tenant["ledger_balanced"] is True
        assert tenant["offered"] == (
            tenant["ok"]
            + tenant["rejected_quota"]
            + tenant["rejected_overload"]
            + sum(tenant["errors"].values())
        )
    assert set(report["knee"]) == {
        "multiplier", "goodput_qps", "goodput_ratio",
    }
    fairness = report["fairness"]
    assert 0.0 < fairness["index"] <= 1.0
    assert report["faults"]["enabled"] is False
    differential = report["differential"]
    assert differential["sampled"] >= 1
    assert differential["mismatches"] == []
    gates = report["gates"]
    assert set(gates) >= {
        "knee_found", "fairness_ok", "ledger_balanced",
        "differential_ok", "passed",
    }
    _json_ready(report)


# -- the catalog -----------------------------------------------------------


def test_docs_catalog_lists_every_schema():
    catalog = (Path(__file__).parents[2] / "docs" / "schemas.md").read_text()
    for schema in SCHEMAS:
        assert schema in catalog, f"docs/schemas.md must document {schema}"
