"""Unit tests for the compiled-plan LRU cache."""

from __future__ import annotations

import pytest

from repro.obs import metrics_scope
from repro.service import CacheKey, CacheStats, CompiledQueryCache, TierStats


def key(query: str, version: int = 0, rules: frozenset[str] = frozenset()) -> CacheKey:
    return CacheKey(
        query=query,
        default_doc="auction.xml",
        serialize_step=False,
        disabled_rules=rules,
        store_version=version,
    )


def test_miss_then_hit():
    cache = CompiledQueryCache(capacity=4)
    assert cache.get(key("q1")) is None
    cache.put(key("q1"), "artifact")
    assert cache.get(key("q1")) == "artifact"
    assert cache.stats() == {
        "capacity": 4,
        "size": 1,
        "hits": 1,
        "misses": 1,
        "canonical_hits": 0,
        "evictions": 0,
    }


def test_lru_eviction_order():
    cache = CompiledQueryCache(capacity=2)
    cache.put(key("a"), 1)
    cache.put(key("b"), 2)
    assert cache.get(key("a")) == 1  # refresh a; b is now LRU
    cache.put(key("c"), 3)
    assert cache.get(key("b")) is None
    assert cache.get(key("a")) == 1
    assert cache.get(key("c")) == 3
    assert cache.evictions == 1


def test_peek_counts_nothing_and_keeps_order():
    cache = CompiledQueryCache(capacity=2)
    cache.put(key("a"), 1)
    cache.put(key("b"), 2)
    assert cache.peek(key("a")) == 1  # no LRU refresh
    assert cache.peek(key("missing")) is None
    cache.put(key("c"), 3)  # evicts a (peek did not refresh it)
    assert cache.peek(key("a")) is None
    assert cache.hits == 0 and cache.misses == 0


def test_key_discriminates_every_component():
    base = key("q")
    assert base != key("q2")
    assert base != key("q", version=1)
    assert base != key("q", rules=frozenset({"17"}))
    assert base != base._replace(serialize_step=True)
    assert base != base._replace(default_doc=None)


def test_invalidate_by_version_keeps_current_entries():
    cache = CompiledQueryCache(capacity=8)
    cache.put(key("a", version=1), 1)
    cache.put(key("b", version=2), 2)
    cache.put(key("c", version=2), 3)
    assert cache.invalidate(store_version=2) == 1
    assert len(cache) == 2
    assert cache.peek(key("b", version=2)) == 2
    assert cache.invalidate() == 2
    assert len(cache) == 0


def test_metrics_counters_flow():
    with metrics_scope() as metrics:
        cache = CompiledQueryCache(capacity=1)
        cache.get(key("a"))
        cache.put(key("a"), 1)
        cache.get(key("a"))
        cache.put(key("b"), 2)  # evicts a
        cache.invalidate()
    counters = metrics.snapshot()["counters"]
    assert counters["service.cache.misses"] == 1
    assert counters["service.cache.hits"] == 1
    assert counters["service.cache.evictions"] == 1
    assert counters["service.cache.invalidated"] == 1
    assert metrics.snapshot()["gauges"]["service.cache.size"] == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        CompiledQueryCache(capacity=0)


# -- the typed CacheStats surface -------------------------------------------


def test_cache_stats_to_dict_carries_tiers_and_deprecated_aliases():
    stats = CacheStats(
        capacity=16,
        size=3,
        exact=TierStats(hits=5, misses=2, evictions=1),
        canonical=TierStats(hits=4, misses=0),
        view=TierStats(hits=3, misses=1, bytes=128),
    )
    snapshot = stats.to_dict()
    assert snapshot["capacity"] == 16
    assert snapshot["size"] == 3
    assert snapshot["tiers"]["exact"]["hits"] == 5
    assert snapshot["tiers"]["canonical"]["hits"] == 4
    assert snapshot["tiers"]["view"] == {
        "hits": 3,
        "misses": 1,
        "evictions": 0,
        "bytes": 128,
    }
    # the pre-1.2 flat alias keys were removed in 1.3
    assert set(snapshot) == {"capacity", "size", "tiers"}


def test_cache_stats_is_immutable():
    stats = CacheStats(
        capacity=1,
        size=0,
        exact=TierStats(),
        canonical=TierStats(),
        view=TierStats(),
    )
    with pytest.raises(AttributeError):
        stats.size = 5  # type: ignore[misc]
