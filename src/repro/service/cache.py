"""The compiled-plan cache: an LRU over :class:`CompiledQuery` artifacts.

The paper's economics are compile-once, execute-many: the isolated
join graph is a *stable* artifact of the query text and the store
schema, so recompiling it per call throws away exactly the work the
rewrite engine spent making SQL the workhorse.  This cache keys the
full pipeline artifact — core expression, stacked plan, isolated plan,
and the generated SQL texts — on everything that can change its
content:

``query``            the surface text, lexically normalized by the
                     service (comments stripped, whitespace collapsed
                     via :func:`repro.xquery.text.normalize_query_text`)
                     — or a canonical-pattern alias key (a reserved
                     ``\\x00canonical\\x00`` prefix no real query text
                     can carry, see :class:`repro.service.core.CacheLadder`);
``default_doc``      absolute paths resolve differently per default;
``serialize_step``   changes the compiled shape (Section 4 wrapper);
``disabled_rules``   ablations produce different isolated plans;
``store_version``    the document table's monotonic content version —
                     a load bumps it, so stale plans can never be
                     served (their key no longer matches);
``collection``       the sharded-collection identity (shard count tag)
                     for plans compiled by the scatter-gather service,
                     whose ``collection()`` resolution spans shards —
                     ``None`` for single-store services.

Hit/miss/eviction counts flow into the process metrics registry
(``service.cache.*``, see ``docs/observability.md``) and are kept as
plain attributes for direct inspection.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.obs import get_metrics

if TYPE_CHECKING:  # import cycle: pipeline imports nothing from here,
    from repro.pipeline import CompiledQuery  # but keep runtime clean

__all__ = ["CacheKey", "CacheStats", "CompiledQueryCache", "TierStats"]


@dataclass(frozen=True)
class TierStats:
    """Counters for one cache tier (see :class:`CacheStats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class CacheStats:
    """The typed cache-statistics surface of a query service.

    One snapshot across all three cache tiers — ``exact`` (lexically
    normalized text), ``canonical`` (tree-pattern alias), ``view``
    (materialized-view rewrites, :mod:`repro.service.views`) — as
    returned by ``ShardedService.cache_stats()``.  ``misses`` on the canonical and
    view tiers count lookups that *fell through* that tier; ``bytes``
    is only tracked for the view tier (compiled plans are not sized).
    :meth:`to_dict` is what ``stats()["cache"]`` serves.
    """

    capacity: int = 0
    size: int = 0
    exact: TierStats = field(default_factory=TierStats)
    canonical: TierStats = field(default_factory=TierStats)
    view: TierStats = field(default_factory=TierStats)

    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "size": self.size,
            "tiers": {
                "exact": self.exact.to_dict(),
                "canonical": self.canonical.to_dict(),
                "view": self.view.to_dict(),
            },
        }


class CacheKey(NamedTuple):
    """Everything a compiled artifact's content depends on."""

    query: str
    default_doc: str | None
    serialize_step: bool
    disabled_rules: frozenset[str]
    store_version: int
    collection: str | None = None


class CompiledQueryCache:
    """A thread-safe LRU of compiled queries.

    Entries are treated as immutable once inserted: the service
    pre-materializes the lazy SQL artifacts before :meth:`put`, so a
    cached :class:`CompiledQuery` can be executed from any number of
    threads without synchronization.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.canonical_hits = 0
        self.evictions = 0
        self._entries: OrderedDict[CacheKey, CompiledQuery] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> CompiledQuery | None:
        """The cached artifact for ``key``, refreshed to most-recently
        used — or ``None`` (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                get_metrics().count("service.cache.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            get_metrics().count("service.cache.hits")
            return entry

    def peek(self, key: CacheKey) -> CompiledQuery | None:
        """Uncounted lookup without an LRU refresh — for single-flight
        re-checks after a racing thread may have filled the entry (the
        original :meth:`get` already counted this caller's miss)."""
        with self._lock:
            return self._entries.get(key)

    def get_canonical(self, key: CacheKey) -> CompiledQuery | None:
        """Counted canonical-form lookup: a hit on the canonical alias
        key increments the dedicated ``canonical_hits`` counter and the
        ``service.cache.canonical_hit`` metric — the caller's exact-key
        miss was already counted by :meth:`get`, so a miss here counts
        nothing."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.canonical_hits += 1
            get_metrics().count("service.cache.canonical_hit")
            return entry

    def put(self, key: CacheKey, compiled: CompiledQuery) -> None:
        """Insert (or refresh) ``key``, evicting least-recently-used
        entries beyond capacity."""
        metrics = get_metrics()
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                metrics.count("service.cache.evictions")
            metrics.gauge("service.cache.size", len(self._entries))

    def invalidate(self, store_version: int | None = None) -> int:
        """Drop entries; returns how many were removed.

        With a ``store_version``, only entries compiled against *other*
        versions are dropped (what :meth:`ShardedService.load` calls:
        current-version entries stay hot).  Without one, the cache is
        cleared entirely.
        """
        with self._lock:
            if store_version is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [
                    key
                    for key in self._entries
                    if key.store_version != store_version
                ]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            metrics = get_metrics()
            metrics.count("service.cache.invalidated", dropped)
            metrics.gauge("service.cache.size", len(self._entries))
            return dropped

    def stats(self) -> dict[str, int]:
        """A point-in-time view of the counters (JSON-ready)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "canonical_hits": self.canonical_hits,
                "evictions": self.evictions,
            }
