"""The materialized-view cache tier: admission by hit frequency,
strictly-contained lookup through the PR 6 decision procedure,
residual re-filtering via the membership oracle, LRU eviction inside
the byte budget, and the never-stale invalidation contract — on the
:class:`ViewManager` in isolation and wired into
:class:`ShardedService` on one shard and on two (what a ``load`` does
to the tier is in ``test_ladder.py``).
"""

from __future__ import annotations

import pytest

from repro.analysis.containment import filter_pattern
from repro.pipeline import XQueryProcessor
from repro.service import ViewManager
from repro.service.scatter import ShardedService
from repro.service.service import canonical_pattern_of
from repro.store import Collection

XML = """\
<site>
  <a id="1"><b>1</b><c>2</c></a>
  <a id="2"><b>4</b></a>
  <a><b>7</b><c>7</c></a>
  <d><a><c>9</c></a></d>
</site>
"""

BROAD = "//a[b]"
NARROW = "//a[b][c]"


def make_service(**kwargs) -> ShardedService:
    svc = ShardedService(Collection(1), workers=1, **kwargs)
    svc.views.admit_after = 2
    svc.load(XML, "site.xml")
    return svc


def make_manager(service: ShardedService, **kwargs) -> ViewManager:
    return ViewManager(service._view_filter, **kwargs)


def pattern_for(service: ShardedService, query: str):
    processor = service.processor
    pattern = canonical_pattern_of(
        query, processor.default_doc, processor.collections
    )
    assert pattern is not None
    return pattern


# -- ViewManager in isolation ----------------------------------------------


def test_admission_waits_for_the_threshold():
    with make_service() as service:
        manager = make_manager(service, admit_after=3)
        compiled = service.compile(BROAD)
        items = service.execute(BROAD)
        version = service.store.version
        assert not manager.observe(compiled.source, compiled.core, version, items)
        assert not manager.observe(compiled.source, compiled.core, version, items)
        assert manager.observe(compiled.source, compiled.core, version, items)
        assert len(manager) == 1
        # an already-resident same-version view is not re-admitted
        assert not manager.observe(compiled.source, compiled.core, version, items)


def test_answer_requires_strict_containment():
    """A view never answers its own (equivalent) pattern — equivalence
    is the canonical plan tier's job — but does answer a strictly
    narrower one, and the rows match a cold execution exactly."""
    with make_service() as service:
        manager = make_manager(service, admit_after=1)
        compiled = service.compile(BROAD)
        items = service.execute(BROAD)
        version = service.store.version
        assert manager.observe(compiled.source, compiled.core, version, items)

        equivalent = pattern_for(service, "//a[b][b]")
        assert manager.answer(equivalent, version) is None

        narrow = pattern_for(service, NARROW)
        rows = manager.answer(narrow, version)
        assert rows == list(service.execute(NARROW))
        assert manager.hits == 1 and manager.lookups == 2


def test_answer_is_memoized():
    with make_service() as service:
        manager = make_manager(service, admit_after=1)
        compiled = service.compile(BROAD)
        items = service.execute(BROAD)
        version = service.store.version
        manager.observe(compiled.source, compiled.core, version, items)
        narrow = pattern_for(service, NARROW)
        first = manager.answer(narrow, version)
        again = manager.answer(narrow, version)
        assert first == again
        assert manager.hits == 2


def test_answer_ignores_other_store_versions():
    with make_service() as service:
        manager = make_manager(service, admit_after=1)
        compiled = service.compile(BROAD)
        items = service.execute(BROAD)
        version = service.store.version
        manager.observe(compiled.source, compiled.core, version, items)
        narrow = pattern_for(service, NARROW)
        assert manager.answer(narrow, version + 1) is None


def test_budget_evicts_lru():
    with make_service() as service:
        compiled_a = service.compile(BROAD)
        rows_a = service.execute(BROAD)
        compiled_c = service.compile("//a[c]")
        rows_c = service.execute("//a[c]")
        version = service.store.version
        one_view = ViewManager(service._view_filter, admit_after=1)
        one_view.observe(compiled_a.source, compiled_a.core, version, rows_a)
        budget = one_view.bytes + 8  # room for one view, not two
        manager = ViewManager(
            service._view_filter,
            admit_after=1,
            budget_bytes=budget,
            max_view_bytes=budget,
        )
        manager.observe(compiled_a.source, compiled_a.core, version, rows_a)
        manager.observe(compiled_c.source, compiled_c.core, version, rows_c)
        assert len(manager) == 1
        assert manager.evictions == 1
        assert manager.bytes <= budget


def test_oversized_view_is_rejected_not_admitted():
    with make_service() as service:
        manager = make_manager(
            service, admit_after=1, budget_bytes=4096, max_view_bytes=1
        )
        compiled = service.compile(BROAD)
        items = service.execute(BROAD)
        assert not manager.observe(
            compiled.source, compiled.core, service.store.version, items
        )
        assert manager.rejected == 1
        assert len(manager) == 0


def test_invalidate_drops_stale_versions():
    with make_service() as service:
        manager = make_manager(service, admit_after=1)
        compiled = service.compile(BROAD)
        items = service.execute(BROAD)
        version = service.store.version
        manager.observe(compiled.source, compiled.core, version, items)
        assert manager.invalidate(store_version=version) == 0
        assert len(manager) == 1
        assert manager.invalidate(store_version=version + 1) == 1
        assert len(manager) == 0
        assert manager.bytes == 0


def test_constructor_validates():
    with pytest.raises(ValueError):
        ViewManager(lambda p, rows: list(rows), budget_bytes=0)
    with pytest.raises(ValueError):
        ViewManager(lambda p, rows: list(rows), admit_after=0)


# -- wired in, on one shard ------------------------------------------------


def test_service_answers_narrowing_from_the_view_tier():
    with make_service() as service:
        reference = None
        for _ in range(2):  # second execution admits the view
            reference = service.execute(BROAD)
        assert len(service.views) == 1
        served = service.execute(NARROW)
        assert service.flight.records()[-1].cache == "view"
        # byte-identical to a full compile on a bare processor
        bare = XQueryProcessor(
            store=service.store, default_doc="site.xml"
        )
        expected = bare.execute(NARROW, engine="joingraph-sql")
        assert list(served) == list(expected)
        assert service.serialize(served) == service.serialize(expected)
        assert set(served) <= set(reference)


def test_view_answer_counts_in_cache_stats():
    with make_service() as service:
        service.execute(BROAD)
        service.execute(BROAD)
        service.execute(NARROW)
        stats = service.cache_stats()
        assert stats.view.hits == 1
        assert stats.to_dict()["tiers"]["view"]["hits"] == 1


def test_views_off_means_no_view_tier():
    """The view tier is off exactly when ``serialize_step`` is on: a
    hot pattern admits nothing, so its narrowing compiles cold."""
    with ShardedService(
        Collection(1), workers=1, serialize_step=True
    ) as service:
        service.load(XML, "site.xml")
        assert service.views is None
        for _ in range(3):
            service.execute(BROAD)
        service.execute(NARROW)
        assert service.flight.records()[-1].cache == "miss"


def test_serialize_step_disables_views():
    """With the serialization step compiled in, results are not pre
    ranks, so the view tier stays off rather than materialize
    something the residual filter cannot re-check."""
    with ShardedService(
        Collection(1), workers=1, serialize_step=True
    ) as service:
        assert service.views is None


# -- wired in, on two shards ------------------------------------------------

DOCS = [
    ("<r><a><b>1</b><c>1</c></a></r>", "u0.xml"),
    ("<r><a><b>2</b></a></r>", "u1.xml"),
    ("<r><a><b>3</b><c>3</c></a><a><c>4</c></a></r>", "u2.xml"),
]


def make_sharded() -> ShardedService:
    svc = ShardedService(Collection(2), workers=2)
    svc.views.admit_after = 2
    for text, uri in DOCS:
        svc.load(text, uri)
    return svc


def test_sharded_view_answers_in_global_ranks():
    broad = 'collection("*")//a[b]'
    narrow = 'collection("*")//a[b][c]'
    with make_sharded() as service:
        service.execute(broad)
        service.execute(broad)
        assert len(service.views) == 1
        served = service.execute(narrow)
        assert service.flight.records()[-1].cache == "view"
        combined = service.collection.combined_store()
        expected = XQueryProcessor(
            store=combined, default_doc=DOCS[0][1]
        ).execute(narrow, engine="joingraph-sql")
        assert list(served) == list(expected)
        assert service.serialize(served) == service.serialize(expected)


def test_sharded_residual_filter_routes_global_ranks():
    with make_sharded() as service:
        broad_rows = list(service.execute('collection("*")//a[b]'))
        pattern = canonical_pattern_of(
            'collection("*")//a[b][c]',
            service.processor.default_doc,
            service.processor.collections,
        )
        assert pattern is not None
        filtered = service._view_filter(pattern, broad_rows)
        combined = service.collection.combined_store()
        assert filtered == filter_pattern(
            pattern, combined.table, broad_rows
        )
