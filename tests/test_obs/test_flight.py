"""The query flight recorder: ring semantics, context plumbing,
slow-log promotion, and end-to-end capture through both services."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.errors import DeadlineExceeded
from repro.obs import validate_flight_snapshot
from repro.obs.flight import (
    FlightContext,
    FlightRecorder,
    adopt_context,
    current_context,
    flight_capture,
    query_hash,
)


def _record(recorder, *, elapsed_ms=1.0, status="ok", context=None, **kw):
    if context is None:
        context = FlightContext()
        context.note_cache("exact")
    return recorder.record(
        query_text="//item/name",
        engine="joingraph-sql",
        status=status,
        context=context,
        elapsed_ns=int(elapsed_ms * 1e6),
        **kw,
    )


# -- the ring --------------------------------------------------------------


def test_ring_retains_newest_and_keeps_counting():
    recorder = FlightRecorder(capacity=3, slow_threshold_s=10.0)
    for _ in range(7):
        _record(recorder)
    counts = recorder.counts()
    assert counts["recorded"] == 7
    assert counts["retained"] == 3
    assert [r.seq for r in recorder.records()] == [5, 6, 7]
    # latency percentiles survive ring eviction
    assert recorder.stats()["latency_ns"]["count"] == 7


def test_sequence_numbers_are_unique_under_contention():
    recorder = FlightRecorder(capacity=4096, slow_threshold_s=10.0)

    def hammer():
        for _ in range(200):
            _record(recorder)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seqs = [record.seq for record in recorder.records()]
    assert len(seqs) == len(set(seqs)) == 1600


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder(slow_capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder(slow_threshold_s=-1.0)


# -- promotion -------------------------------------------------------------


def test_promotion_reasons_rank_surfaced_over_degraded_over_slow():
    recorder = FlightRecorder(slow_threshold_s=0.01)
    _record(recorder, elapsed_ms=1.0)  # fast, clean: not promoted
    _record(recorder, elapsed_ms=50.0)  # over threshold
    degraded = FlightContext()
    degraded.note_degraded()
    _record(recorder, elapsed_ms=50.0, context=degraded)
    _record(recorder, elapsed_ms=1.0, status="error:BackendUnavailable")
    reasons = [capture.reason for capture in recorder.slow()]
    assert reasons == ["slow", "degraded", "surfaced"]
    counts = recorder.counts()
    assert counts["promoted"] == 3
    assert counts["errors"] == 1
    assert counts["degraded"] == 1


def test_detail_callable_only_runs_on_promotion():
    recorder = FlightRecorder(slow_threshold_s=0.01)
    calls = []

    def detail():
        calls.append(1)
        return {"explain": ["SCAN doc"], "trace": []}

    _record(recorder, elapsed_ms=1.0, detail=detail)
    assert calls == []
    _record(recorder, elapsed_ms=50.0, detail=detail)
    assert calls == [1]
    [capture] = recorder.slow()
    assert capture.explain == ["SCAN doc"]
    # no live trace: spans are synthesized from the phase clock
    assert capture.trace == []


def test_failing_detail_never_breaks_recording():
    recorder = FlightRecorder(slow_threshold_s=0.0)

    def detail():
        raise RuntimeError("diagnostics exploded")

    record = _record(recorder, detail=detail)
    assert record.seq == 1
    [capture] = recorder.slow()
    assert any("capture failed" in line for line in capture.explain)


# -- context plumbing ------------------------------------------------------


def test_flight_capture_scopes_context_per_thread():
    assert current_context() is None
    with flight_capture(own=True) as outer:
        assert current_context() is outer
        with flight_capture(own=False) as seen:
            assert seen is outer  # nested boundary annotates the caller
    assert current_context() is None


def test_adopt_context_carries_annotations_across_threads():
    with flight_capture(own=True) as context:
        def worker():
            with adopt_context(context):
                active = current_context()
                assert active is context
                active.note_retry()
                active.add_phase("sql", 500)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert context.retries == 1
        assert context.phases_ns["sql"] == 500


def test_cache_and_scatter_notes_are_set_once():
    context = FlightContext()
    context.note_cache("exact")
    context.note_cache("miss")  # the serving boundary wins
    context.note_scatter("scatter", 4)
    context.note_scatter("serial", 1)
    assert context.cache == "exact"
    assert context.scatter == "scatter"
    assert context.fanout == 4


def test_query_hash_is_stable_and_short():
    assert query_hash("//a") == query_hash("//a")
    assert query_hash("//a") != query_hash("//b")
    assert len(query_hash("//a")) == 16


# -- through the single-backend service ------------------------------------


def test_service_records_one_flight_record_per_query():
    with repro.connect() as session:
        session.load("<a><b>1</b><b>2</b></a>", "doc.xml")
        session.execute("//b")
        session.execute("//b")  # exact cache hit
        recorder = session.service.flight
        records = recorder.records()
    assert [r.seq for r in records] == [1, 2]
    assert records[0].cache == "miss"
    assert records[1].cache == "exact"
    assert records[0].rows == 2
    assert "compile" in records[0].phases_ns
    assert "sql" in records[0].phases_ns
    # the cold compile paid the front-end rewrite, the hit did not
    assert "rewrite" in records[0].phases_ns
    assert "rewrite" not in records[1].phases_ns
    assert validate_flight_snapshot(recorder.snapshot()) == []


def test_service_flight_disabled_records_nothing():
    with repro.connect(flight=False) as session:
        session.load("<a><b>1</b></a>", "doc.xml")
        session.execute("//b")
        assert session.service.flight is None
        assert session.stats()["flight"] is None


def test_surfaced_error_is_recorded_and_promoted():
    with repro.connect(deadline_s=1e-9) as session:
        session.load("<a><b>1</b></a>", "doc.xml")
        with pytest.raises(DeadlineExceeded):
            session.execute("//b")
        recorder = session.service.flight
        [record] = recorder.records()
        assert record.status == "error:DeadlineExceeded"
        assert record.surfaced
        assert record.deadline_consumed == 1.0
        [capture] = recorder.slow()
        assert capture.reason == "surfaced"
        assert capture.trace  # synthesized from phases when untraced
    assert validate_flight_snapshot(recorder.snapshot()) == []


def test_deadline_budget_consumption_recorded():
    with repro.connect(deadline_s=60.0) as session:
        session.load("<a><b>1</b></a>", "doc.xml")
        session.execute("//b")
        [record] = session.service.flight.records()
    assert record.deadline_budget_s == 60.0
    assert record.deadline_consumed is not None
    assert 0.0 < record.deadline_consumed < 0.5


# -- through the sharded service -------------------------------------------


def _sharded_session(shards=2, **kw):
    session = repro.connect(shards=shards, **kw)
    for index in range(4):
        session.service.load(
            f"<doc><item><name>n{index}</name></item></doc>",
            f"doc{index}.xml",
            shard=index % shards,
        )
    return session


def test_sharded_service_records_scatter_decision():
    with _sharded_session() as session:
        session.execute("collection()//item[name]")
        [record] = session.service.flight.records()
    assert record.scatter == "scatter"
    assert record.fanout == 2
    assert record.shards == 2
    assert record.pattern_classified
    assert record.rows == 4
    assert "merge" in record.phases_ns


def test_sharded_shard_services_annotate_not_record():
    """Exactly one record per query: the store executors own no
    recorder and annotate the boundary's context instead."""
    with _sharded_session() as session:
        session.execute("collection()//item[name]")
        service = session.service
        assert not any(hasattr(e, "flight") for e in service._executors)
        assert service.flight.counts()["recorded"] == 1


def test_sharded_single_doc_query_routes():
    with _sharded_session() as session:
        session.execute('doc("doc0.xml")//name')
        [record] = session.service.flight.records()
    assert record.scatter == "route"
    assert record.fanout == 1


def test_sharded_unsafe_query_falls_serial():
    with _sharded_session() as session:
        # a FLWOR result is not scatter-safe: the classifier sends it
        # to the combined serial store
        session.execute("for $x in collection()//item return $x/name")
        [record] = session.service.flight.records()
    assert record.scatter == "serial"
    assert record.fanout == 1


def test_sharded_snapshot_validates():
    with _sharded_session(slow_threshold_s=0.0) as session:
        session.execute("collection()//item[name]")
        snapshot = session.service.flight.snapshot()
    assert validate_flight_snapshot(snapshot) == []
    [capture] = snapshot["slow"]
    assert capture["reason"] == "slow"
    assert capture["explain"]  # EXPLAIN rows from a shard backend


# -- latency epochs (corpus-change invalidation) ---------------------------


def test_mark_epoch_restarts_percentiles_but_not_counts():
    """Regression: ``stats()`` percentiles used to aggregate across
    corpus changes, so ``Session.stats()["flight"]`` reported latencies
    of plans that no longer exist.  An epoch mark restarts the
    percentile population; cumulative counts and the ring survive."""
    recorder = FlightRecorder(capacity=16, slow_threshold_s=10.0)
    for _ in range(5):
        _record(recorder, elapsed_ms=100.0)
    before = recorder.stats()
    assert before["latency_ns"]["count"] == 5
    assert before["epochs"] == 0

    recorder.mark_epoch()
    after = recorder.stats()
    assert after["latency_ns"]["count"] == 0
    assert after["epochs"] == 1
    assert after["recorded"] == 5  # cumulative counts survive
    assert len(recorder.records()) == 5  # the ring survives
    # the full snapshot stays cumulative for offline analysis
    assert recorder.snapshot()["latency_ns"]["count"] == 5

    _record(recorder, elapsed_ms=1.0)
    fresh = recorder.stats()
    assert fresh["latency_ns"]["count"] == 1
    # percentiles now describe only the new epoch: ~1ms, not ~100ms
    assert fresh["latency_ns"]["p99"] < 50e6


def test_session_flight_percentiles_recompute_after_graft():
    """A collection graft invalidates every compiled plan; the serving
    percentiles must roll with it (satellite regression)."""
    with _sharded_session() as session:
        session.execute("collection()//item[name]")
        before = session.stats()["flight"]
        assert before["latency_ns"]["count"] >= 1
        session.load("<doc><item><name>n</name></item></doc>", "late.xml")
        after = session.stats()["flight"]
        assert after["epochs"] == before["epochs"] + 1
        assert after["latency_ns"]["count"] == 0
        assert after["recorded"] == before["recorded"]
        # new executions repopulate the fresh epoch
        session.execute("collection()//item[name]")
        repopulated = session.stats()["flight"]
        assert repopulated["latency_ns"]["count"] == 1
