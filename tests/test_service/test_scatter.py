"""The scatter-gather executor: scatter-safety analysis, sharded vs
serial agreement, routing, deadline propagation, and partial-shard
failure handling."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.engines import Engine
from repro.errors import BackendUnavailable, DeadlineExceeded
from repro.faults import FaultInjector, FaultPlan, injection
from repro.infoset import DocumentStore
from repro.obs import get_metrics, metrics_scope
from repro.pipeline import XQueryProcessor
from repro.service.scatter import ShardedService, scatter_uris
from repro.store import Collection
from tests.genquery import random_document

DOCS = [f"m{i}.xml" for i in range(5)]

COLLECTION_QUERY = "collection()//a/b"

QUERIES = [
    "collection()//a",
    "collection()//a/b",
    'collection("m1*")//b',
    'collection("m*")//a[@id = "1"]',
    'doc("m2.xml")//b/c',
    "for $x in collection()//a where $x/b = 3 return $x/b",
    "(let $c := collection() return $c//a)/b",
    "(let $c := collection() return $c//a[$c//b = 3])/b",
]


def _corpus(seed: int = 9) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [(random_document(rng), uri) for uri in DOCS]


def make_sharded(shards: int = 3, **kwargs) -> ShardedService:
    service = ShardedService(Collection(shards), default_doc=DOCS[0], **kwargs)
    for index, (text, uri) in enumerate(_corpus()):
        service.load(text, uri, shard=index % shards)
    return service


def make_serial() -> XQueryProcessor:
    collection = Collection(1)
    for text, uri in _corpus():
        collection.load(text, uri)
    return XQueryProcessor(
        store=collection.combined_store(),
        default_doc=DOCS[0],
        collections=collection.resolve,
    )


# -- scatter-safety analysis -----------------------------------------------


@pytest.fixture(scope="module")
def compiler():
    return XQueryProcessor(
        store=DocumentStore(),
        default_doc=DOCS[0],
        collections=lambda patterns: tuple(DOCS),
    )


def test_collection_query_is_scatter_safe(compiler):
    core = compiler.compile("collection()//a/b").core
    assert scatter_uris(core) == tuple(DOCS)


def test_single_doc_query_routes(compiler):
    core = compiler.compile('doc("m2.xml")//a').core
    assert scatter_uris(core) == ("m2.xml",)


def test_cross_document_join_is_serial(compiler):
    core = compiler.compile(
        'doc("m0.xml")//a[b = doc("m1.xml")/c]'
    ).core
    assert scatter_uris(core) is None


def test_flwor_result_is_serial(compiler):
    core = compiler.compile(
        "for $x in collection()//a return $x/b"
    ).core
    assert scatter_uris(core) is None


def test_let_shared_collection_is_serial(compiler):
    # one CoreCollection AST node, but two evaluation contexts via $c:
    # the predicate spans all documents, so scattering would evaluate
    # it shard-locally and drop items
    core = compiler.compile(
        "(let $c := collection() return $c//a[$c//b])/c"
    ).core
    assert scatter_uris(core) is None


def test_let_single_reference_collection_is_scatter_safe(compiler):
    # referenced once, the let is equivalent to inlining its binding
    core = compiler.compile("(let $c := collection() return $c//a)/b").core
    assert scatter_uris(core) == tuple(DOCS)


def test_let_shared_doc_routes(compiler):
    # both references name the same document: the whole query lives in
    # one shard, so routing stays exact
    core = compiler.compile(
        '(let $d := doc("m2.xml") return $d//a[$d//b])/c'
    ).core
    assert scatter_uris(core) == ("m2.xml",)


# -- containment-pattern fallback classifier --------------------------------


def test_flwor_where_classifies_via_pattern_fallback(compiler):
    """The structural walk refuses FLWOR shapes, but the containment
    analyzer's canonical pattern proves this one is a plain filtered
    path over a single collection — scatter-safe by construction."""
    query = "for $x in collection()//a where $x/b return $x"
    core = compiler.compile(query).core
    with metrics_scope() as metrics:
        assert scatter_uris(core) == tuple(DOCS)
    counters = metrics.snapshot()["counters"]
    assert counters["service.scatter.pattern_classified"] == 1


def test_pattern_fallback_respects_fragment_limits(compiler):
    # a path off the bound variable is outside the extraction fragment:
    # neither classifier fires, the query stays serial
    core = compiler.compile(
        "for $x in collection()//a return $x/b"
    ).core
    with metrics_scope() as metrics:
        assert scatter_uris(core) is None
    assert "service.scatter.pattern_classified" not in (
        metrics.snapshot()["counters"]
    )


def test_pattern_classified_query_matches_serial():
    query = "for $x in collection()//a where $x/b return $x"
    serial = make_serial()
    expected = serial.execute(query)
    with make_sharded() as service:
        result = service.execute(query)
        assert result.shards > 1
        assert list(result) == list(expected)
        assert service.serialize(result) == serial.serialize(expected)


# -- sharded vs serial agreement -------------------------------------------


@pytest.mark.parametrize("engine", ["joingraph-sql", "stacked-sql"])
def test_sharded_matches_serial_for_every_query_shape(engine):
    serial = make_serial()
    with make_sharded() as service:
        for query in QUERIES:
            expected = serial.execute(query, engine)
            result = service.execute(query, engine)
            assert list(result) == list(expected), query
            assert service.serialize(result) == serial.serialize(expected)


def test_let_shared_collection_differential_regression():
    """A let-bound collection referenced twice has one source AST node
    but two evaluation contexts; scattering would evaluate the
    ``$c//flag`` predicate shard-locally and drop every item whose
    shard doesn't host the flag document.  The query must fall back to
    serial execution and reproduce the single-backend answer."""
    docs = [
        (
            f"<r>{'<flag/>' if i == 2 else ''}<item><n>v{i}</n></item></r>",
            f"f{i}.xml",
        )
        for i in range(4)
    ]
    query = "(let $c := collection() return $c//item[$c//flag])/n"
    collection = Collection(1)
    for text, uri in docs:
        collection.load(text, uri)
    serial = XQueryProcessor(
        store=collection.combined_store(),
        default_doc="f0.xml",
        collections=collection.resolve,
    )
    expected = serial.execute(query, "joingraph-sql")
    assert len(expected) == 4  # one flag document guards *all* items
    with ShardedService(Collection(4), default_doc="f0.xml") as service:
        for index, (text, uri) in enumerate(docs):
            service.load(text, uri, shard=index % 4)
        result = service.execute(query)
        assert result.shards == 1
        assert list(result) == list(expected)
        assert service.serialize(result) == serial.serialize(expected)


def test_unknown_uri_matches_nothing_and_counts():
    with make_sharded() as service:
        with metrics_scope() as metrics:
            result = service.execute('doc("missing.xml")//a')
        assert list(result) == []
        counters = metrics.snapshot()["counters"]
        assert counters["service.scatter.unknown_uris"] == 1


def test_interpreter_engines_run_serially_and_agree():
    serial = make_serial()
    with make_sharded() as service:
        for engine in ("interpreter", "isolated-interpreter"):
            result = service.execute(COLLECTION_QUERY, engine)
            assert result.shards == 1
            assert list(result) == list(serial.execute(COLLECTION_QUERY, engine))


# -- result metadata -------------------------------------------------------


def test_scatter_result_records_fanout_width():
    with make_sharded() as service:
        result = service.execute(COLLECTION_QUERY)
        assert result.shards == 3
        assert result.engine is Engine.JOINGRAPH_SQL
        assert set(result.timings) == {"execute_ns", "merge_ns"}
        assert result.serialize() == service.serialize(result)


def test_routed_result_is_single_shard():
    with make_sharded() as service:
        with metrics_scope() as metrics:
            result = service.execute('doc("m2.xml")//b')
        assert result.shards == 1
        counters = metrics.snapshot()["counters"]
        assert counters["service.scatter.routed"] == 1


def test_run_returns_serialized_with_result_attached():
    with make_sharded() as service:
        serialized = service.run(COLLECTION_QUERY)
        assert serialized == service.serialize(serialized.result)
        assert serialized.result.shards == 3


# -- deadlines -------------------------------------------------------------


def test_exhausted_deadline_raises_typed_error():
    with make_sharded() as service:
        service.execute(COLLECTION_QUERY)  # warm caches
        with pytest.raises(DeadlineExceeded):
            service.execute(COLLECTION_QUERY, deadline_s=1e-9)


def test_generous_deadline_passes_through():
    with make_sharded(deadline_s=60.0) as service:
        assert list(service.execute(COLLECTION_QUERY))


# -- partial-shard failures ------------------------------------------------


def _fail_shard(service: ShardedService, shard: int) -> None:
    def boom(*args, **kwargs):
        raise BackendUnavailable("injected shard outage")

    service._executors[shard].run = boom


def test_shard_failure_without_degradation_surfaces():
    """A shard whose own recovery ended in a typed error (no degraded
    answer) surfaces that error for the whole query — never a partial
    answer, and no serial re-run over the combined store."""
    with make_sharded() as service:
        _fail_shard(service, 1)
        with metrics_scope() as metrics:
            with pytest.raises(BackendUnavailable, match="injected shard outage"):
                service.execute(COLLECTION_QUERY)
        counters = metrics.snapshot()["counters"]
        assert counters["service.scatter.shard_failures"] == 1
        # the failure surfaced before any merge
        assert "service.scatter.queries" not in counters
        assert counters.get("service.scatter.serial_materializations", 0) == 0
        record = service.flight.records()[-1]
        assert record.status == "error:BackendUnavailable"
        assert record.degraded is False


def test_non_service_shard_failure_waits_for_the_other_shard_tasks():
    """A shard failing with something other than a ServiceError (a raw
    non-transient SQLite error, a bug) still waits for or cancels the
    other shard tasks before it propagates: their fault tallies reach
    the caller's metrics scope, and no task outlives the call."""
    with make_sharded(shards=2, workers=2) as service:
        service.execute(COLLECTION_QUERY)  # warm the plan and shard variants
        started, finished = threading.Event(), threading.Event()

        def broken(compiled, engine, deadline):
            started.wait(timeout=5)  # shard 1's task is running
            raise RuntimeError("shard 0 bug")

        def slow(compiled, engine, deadline):
            started.set()
            time.sleep(0.1)
            get_metrics().count("faults.injected.busy")
            finished.set()
            return []

        service._executors[0].run = broken
        service._executors[1].run = slow
        with metrics_scope() as metrics:
            with pytest.raises(RuntimeError, match="shard 0 bug"):
                service.execute(COLLECTION_QUERY)
        assert finished.is_set()
        assert metrics.snapshot()["counters"]["faults.injected.busy"] == 1


def test_spent_deadline_on_one_shard_surfaces_without_serial_fallback():
    """A shard that outlives the query's budget surfaces its
    DeadlineExceeded as it is: the combined store is never
    materialized and the flight record is not marked degraded."""
    with make_sharded(shards=4) as service:
        service.execute(COLLECTION_QUERY)  # warm the plan and shard variants
        slow = service._executors[1]
        run = slow.run

        def sleepy(compiled, engine, deadline):
            time.sleep(0.08)
            return run(compiled, engine, deadline)

        slow.run = sleepy
        with metrics_scope() as metrics:
            with pytest.raises(DeadlineExceeded):
                service.execute(COLLECTION_QUERY, deadline_s=0.05)
        counters = metrics.snapshot()["counters"]
        assert counters.get("service.scatter.serial_materializations", 0) == 0
        assert service.flight.records()[-1].degraded is False


def test_stall_storm_surfaces_deadline_on_time():
    """Four shards, one dispatch thread each, every statement stalled:
    a query whose shard tasks queue behind a stalled long-budget query
    still gets its DeadlineExceeded when its own budget runs out, not
    when the queue ahead of it drains — and every injected stall is
    accounted for."""
    with make_sharded(shards=4, workers=4) as service:
        service.execute(COLLECTION_QUERY)  # warm the plan and shard variants
        injector = FaultInjector(FaultPlan(stall=1.0, stall_ms=5_000.0))
        blocked = threading.Barrier(2)
        surfaced: list[float] = []

        def blocker() -> None:
            blocked.wait()
            with pytest.raises(DeadlineExceeded):
                service.execute(COLLECTION_QUERY, deadline_s=1.0)

        def storm() -> None:
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                service.execute(COLLECTION_QUERY, deadline_s=0.2)
            surfaced.append(time.monotonic() - started)

        with injection(injector):
            first = threading.Thread(target=blocker)
            first.start()
            blocked.wait()
            time.sleep(0.1)  # the blocker's shard tasks hold every thread
            storm_threads = [threading.Thread(target=storm) for _ in range(4)]
            for thread in storm_threads:
                thread.start()
            for thread in [first, *storm_threads]:
                thread.join(timeout=30)
                assert not thread.is_alive()
    assert len(surfaced) == 4
    # queued behind the blocker they used to surface at ~0.9 s
    assert max(surfaced) < 0.5, surfaced
    assert injector.counts.total == sum(service.fault_accounting.values())


def test_injected_shard_fault_is_retried_with_balanced_ledger():
    serial = make_serial()
    with make_sharded() as service:
        expected = list(serial.execute(COLLECTION_QUERY))
        # the three shards' first leases and statements are the first
        # six opportunities, in whatever order their threads reach
        # them: a lease drops its "busy", every first statement gets
        # one, and every retry runs past the exhausted script
        injector = FaultInjector.scripted(["busy"] * 6)
        with injection(injector):
            result = service.execute(COLLECTION_QUERY)
        assert list(result) == expected
        accounting = service.fault_accounting
        assert injector.counts.total == 3
        assert accounting["retry"] == 3
        assert sum(accounting.values()) == 3


def test_stats_aggregate_per_shard_services():
    with make_sharded() as service:
        service.execute(COLLECTION_QUERY)
        stats = service.stats()
        assert stats["collection"]["shards"] == 3
        assert len(stats["per_shard"]) == 3
        assert set(stats["fault_accounting"]) == {"retry", "degrade", "surface"}
        assert sum(p["documents"] for p in stats["per_shard"]) == len(DOCS)


def test_closed_service_rejects_queries():
    service = make_sharded()
    service.close()
    with pytest.raises(RuntimeError):
        service.execute(COLLECTION_QUERY)


# -- compile once ----------------------------------------------------------

SERIAL_QUERY = "(let $c := collection() return $c//a[$c//b = 3])/b"


def _compiles(service: ShardedService, query: str):
    with metrics_scope() as metrics:
        result = service.execute(query)
    return metrics.snapshot()["counters"].get("pipeline.compiles", 0), result


def test_routed_and_serial_sql_queries_compile_once():
    serial = make_serial()
    with make_sharded(shards=4) as service:
        # routed: the collection-level plan runs on its one shard as is
        compiles, result = _compiles(service, 'doc("m2.xml")//b/c')
        assert (compiles, result.shards) == (1, 1)
        assert list(result) == list(serial.execute('doc("m2.xml")//b/c'))
        # serial SQL: the compiled plan names URIs, not ranks, and runs
        # unchanged on the combined store
        compiles, result = _compiles(service, SERIAL_QUERY)
        assert (compiles, result.shards) == (1, 1)
        assert list(result) == list(serial.execute(SERIAL_QUERY))
        # a scatter across k shards compiles one variant per shard
        compiles, result = _compiles(service, COLLECTION_QUERY)
        assert result.shards == 4
        assert compiles == 1 + result.shards
        assert list(result) == list(serial.execute(COLLECTION_QUERY))


def test_checked_service_sanitizes_every_cold_compile(monkeypatch):
    """``checked=True`` covers the plans that actually run: shard
    variants and serial-store variants compile under the sanitizer."""
    steps: list[int] = []
    compile_ = XQueryProcessor.compile

    def counted(self, query):
        sanitizer = self._engine.sanitizer
        before = sanitizer.steps_checked if sanitizer is not None else 0
        compiled = compile_(self, query)
        after = sanitizer.steps_checked if sanitizer is not None else 0
        steps.append(after - before)
        return compiled

    monkeypatch.setattr(XQueryProcessor, "compile", counted)
    with make_sharded(shards=4, checked=True) as service:
        assert service.execute(COLLECTION_QUERY).shards == 4
        service.execute('doc("m2.xml")//b/c')
        service.execute(SERIAL_QUERY)
        service.execute(COLLECTION_QUERY, "interpreter")
    assert all(step > 0 for step in steps), steps
    # scatter 1 + 4, routed 1, serial 1, interpreter variant 1 (the
    # collection-level plan of that query is already cached)
    assert len(steps) == 8
