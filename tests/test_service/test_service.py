"""The serving class on one shard: cache correctness, invalidation,
metrics, and the batch APIs."""

from __future__ import annotations

import pytest

from repro.obs import metrics_scope
from repro.pipeline import XQueryProcessor
from repro.service import ShardedService
from repro.service.core import CacheLadder
from repro.store import Collection

AUCTION_XML = """\
<open_auction id="1">
  <initial>15</initial>
  <bidder>
    <time>18:43</time>
    <increase>4.20</increase>
  </bidder>
</open_auction>
"""

ENGINES = ("interpreter", "isolated-interpreter", "stacked-sql", "joingraph-sql")


@pytest.fixture()
def service():
    with ShardedService(Collection(1), workers=2) as svc:
        svc.load(AUCTION_XML, "auction.xml")
        yield svc


def test_cache_hit_identical_to_cold_compile_across_engines(service):
    query = 'doc("auction.xml")//open_auction[initial = "15"]'
    # cold compile on an independent processor = the reference artifact
    cold = XQueryProcessor(store=service.store, default_doc="auction.xml")
    reference = {
        engine: cold.execute(cold.compile(query), engine=engine)
        for engine in ENGINES
    }
    # first service call fills the cache, the rest must hit; the
    # interpreters run a plan compiled over the store itself (one more
    # miss on the first, a hit on the second), SQL the collection plan
    with metrics_scope() as metrics:
        for engine in ENGINES:
            assert service.execute(query, engine=engine) == reference[engine]
    assert metrics.snapshot()["counters"]["pipeline.compiles"] == 2
    assert service.cache.stats()["misses"] == 2
    assert service.cache.stats()["hits"] == len(ENGINES)
    # and a hit returns the *same* artifact, not a recompile
    assert service.compile(query) is service.compile(query)


def test_cache_invalidates_on_document_load(service):
    query = "//bidder/time"
    assert service.serialize(service.execute(query)) == "<time>18:43</time>"
    version_before = service.store.version
    service.load(
        "<open_auction><bidder><time>09:01</time></bidder></open_auction>",
        "other.xml",
    )
    assert service.store.version == version_before + 1
    assert service.cache.stats()["size"] == 0  # stale entry dropped
    # same text, same answer — but through a fresh compile (a miss)
    assert service.serialize(service.execute(query)) == "<time>18:43</time>"
    assert service.cache.stats()["misses"] == 2
    # and the new document is queryable through the rebuilt pool
    out = service.serialize(service.execute('doc("other.xml")//time'))
    assert out == "<time>09:01</time>"


def test_disabled_rules_get_distinct_cache_entries():
    """The ladder keys plans by its compiler's ``disabled_rules``: an
    ablated front end (the serving class never builds one, the rule
    ablations do) never shares a plan with the full one."""
    collection = Collection(1)
    collection.load(AUCTION_XML, "auction.xml")
    store = collection.combined_store()
    query = "//bidder"

    def ladder(**options) -> CacheLadder:
        processor = XQueryProcessor(
            store=store, default_doc="auction.xml", **options
        )
        return CacheLadder(
            processor, store, lambda pattern, rows: rows, collection="serial"
        )

    plain, ablated = ladder(), ladder(disabled_rules={"17", "18"})
    full = plain.compile(query)
    partial = ablated.compile(query)
    assert plain.compiler.execute(full) == ablated.compiler.execute(partial)
    # differing disabled_rules -> differing cache keys -> distinct
    # artifacts; neither ladder ever serves the other's plan
    assert full is not partial
    assert plain.key(query) != ablated.key(query)
    assert plain.compile(query) is full
    assert ablated.compile(query) is partial


def test_stale_plans_never_served_after_load(service):
    query = "//increase"
    before = service.compile(query)
    service.load("<open_auction><increase>9.99</increase></open_auction>",
                 "late.xml")
    after = service.compile(query)
    assert after is not before
    assert len(service.execute(query)) == 1


def test_run_many_preserves_submission_order(service):
    queries = ["//bidder/time", "//initial", "//bidder/time"]
    results = service.run_many(queries)
    assert results[0] == results[2]
    assert results[1] == service.execute("//initial")


def test_submit_returns_future(service):
    future = service.submit("//bidder/time")
    assert future.result() == service.execute("//bidder/time")


def test_service_metrics_flow_from_workers():
    with metrics_scope() as metrics:
        with ShardedService(Collection(1), workers=2) as svc:
            svc.load(AUCTION_XML, "auction.xml")
            svc.run_many(["//initial"] * 10)
        counters = metrics.snapshot()["counters"]
    assert counters["service.queries"] == 10
    assert counters["service.queries.joingraph-sql"] == 10
    # both workers may miss the cold cache before single-flight compile
    # fills it: misses counts lookups, not compiles
    assert 1 <= counters["service.cache.misses"] <= 2
    assert counters["service.cache.hits"] == 10 - counters["service.cache.misses"]
    histogram = metrics.snapshot()["histograms"]["service.query_ns"]
    assert histogram["count"] == 10

    # the sharded shape counts per *served* query too — not per shard
    # execution, and a view answer (which executes on no shard) counts
    broad, narrow = 'collection("*")//bidder', 'collection("*")//bidder[time]'
    with metrics_scope() as metrics:
        with ShardedService(Collection(4)) as svc:
            svc.views.admit_after = 1
            for shard in range(4):
                svc.load(AUCTION_XML, f"a{shard}.xml", shard=shard)
            assert svc.execute(broad).shards == 4  # admits the view
            assert len(svc.execute(narrow)) == 4
            assert svc.flight.records()[-1].cache == "view"
        snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["service.queries"] == 2
    assert counters["service.queries.joingraph-sql"] == 2
    assert "service.queries.failed" not in counters
    assert snapshot["histograms"]["service.query_ns"]["count"] == 2
    assert counters["service.scatter.queries"] == 1


def test_closed_service_refuses_work(service):
    service.close()
    with pytest.raises(RuntimeError):
        service.execute("//initial")
    with pytest.raises(RuntimeError):
        service.submit("//initial")


def test_stats_snapshot(service):
    service.execute("//initial")
    stats = service.stats()
    assert stats["workers"] == 2
    [shard] = stats["per_shard"]
    assert shard["service"]["store_version"] == service.store.version
    # one compile: the exact-text entry plus its canonical-pattern alias
    assert stats["cache"]["size"] == 2
    assert shard["service"]["pool_connections"] >= 1


def test_unknown_engine_rejected(service):
    with pytest.raises(ValueError):
        service.execute("//initial", engine="db2")  # type: ignore[arg-type]
