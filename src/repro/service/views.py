"""The materialized-view tier: answer contained queries from hot results.

The compiled-plan cache (``cache.py``) only pays off when the incoming
text is *identical* (exact tier) or *provably equivalent* (canonical
tier) to something already compiled.  Template traffic is broader than
that: most production queries are narrowings of a few hot shapes —
the same path expression with one more predicate.  Following the
view-rewriting line of work (Cautis et al., *Rewriting XPath Queries
using View Intersections*), this module materializes the **results**
of hot canonical patterns and answers any query whose pattern is
*strictly contained* in a view's pattern without compiling it at all:

1. admission — every normally-executed fragment query heats its
   canonical pattern key; at ``admit_after`` executions the result
   rows are materialized as a view (subject to the per-view and total
   ``budget_bytes`` caps, LRU within the budget);
2. lookup — a query that missed the exact and canonical tiers asks
   :meth:`ViewManager.answer`: views are scanned most-recently-used
   first, and the PR 6 decision procedure
   (:func:`repro.analysis.containment.contains_patterns`) must prove
   ``view ⊇ query`` with an independently re-verified homomorphism
   witness.  Equal canonical keys are *skipped* — equivalence is the
   canonical tier's job (it can reuse the compiled plan, which is
   strictly better than filtering rows); the view tier only handles
   **strict** containment;
3. residual filtering — the view's rows are re-filtered through the
   injected residual filter (the pattern membership oracle,
   :func:`repro.analysis.containment.filter_pattern` over the service's
   table).  Soundness: the engines agree with the oracle on fragment
   queries (the sanitizer's tested invariant), and the witness proves
   ``oracle(query) ⊆ oracle(view)``, so
   ``filter(view_rows, query) = oracle(query)`` — byte-identical to a
   full compile + execution.

Never stale: every view carries the store version it was materialized
against; :meth:`answer` only consults same-version views, and the
service's ``load`` hook calls :meth:`invalidate` alongside the plan
cache, so a ``DocTable.version`` bump (or a collection graft, which
bumps ``Collection.version``) drops every view before the next query.

Metrics: ``service.cache.view_hit`` on every view-tier answer, plus
``service.views.{admitted,rejected,evicted,invalidated}`` counters and
a ``service.views.bytes`` gauge (catalog in ``docs/observability.md``);
the counters are also kept as attributes for direct inspection and
surface through ``ShardedService.cache_stats()``.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.analysis.containment import (
    TreePattern,
    canonicalize,
    contains_patterns,
    extract_pattern,
    pattern_key,
)
from repro.obs import get_metrics
from repro.service.cache import TierStats

__all__ = ["MaterializedView", "ViewManager"]

#: maps a canonical pattern plus candidate rows to the filtered rows —
#: the residual-predicate evaluation, injected by the owning service
#: (single-store services filter local pre ranks, sharded services
#: route global ranks to the owning shard's table first)
ResidualFilter = Callable[[TreePattern, Sequence[int]], "list[int]"]


def _rows_bytes(rows: tuple[int, ...]) -> int:
    """Resident-size estimate of a materialized row tuple."""
    return sys.getsizeof(rows) + 28 * len(rows)


@dataclass
class MaterializedView:
    """One materialized result: the rows a hot canonical pattern
    selected, pinned to the store version they were computed against."""

    key: str
    pattern: TreePattern
    rows: tuple[int, ...]
    store_version: int
    nbytes: int = field(default=0)
    hits: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.nbytes:
            self.nbytes = _rows_bytes(self.rows)


class ViewManager:
    """Thread-safe admission, lookup, and eviction of materialized
    views (see the module docstring for the tier's semantics).

    Parameters
    ----------
    residual_filter:
        The membership oracle used to re-filter a view's rows through
        an incoming query's pattern.
    budget_bytes:
        Total resident-size cap across all views; least-recently-used
        views are evicted to stay under it.
    admit_after:
        Hit-frequency admission threshold: a pattern's rows are
        materialized on its ``admit_after``-th normal execution.
    max_view_bytes:
        Per-view size cap (``None`` = a quarter of the budget): a
        single oversized result is rejected rather than evicting the
        whole working set.
    memo_capacity:
        Bound on the derived-answer memo (repeat variants skip the
        containment search and residual filter entirely).
    """

    def __init__(
        self,
        residual_filter: ResidualFilter,
        *,
        budget_bytes: int = 4 << 20,
        admit_after: int = 3,
        max_view_bytes: int | None = None,
        memo_capacity: int = 512,
    ):
        if budget_bytes <= 0:
            raise ValueError("view budget must be positive")
        if admit_after <= 0:
            raise ValueError("admission threshold must be positive")
        self._filter = residual_filter
        self.budget_bytes = budget_bytes
        self.admit_after = admit_after
        self.max_view_bytes = (
            max_view_bytes if max_view_bytes is not None else budget_bytes // 4
        )
        self._views: OrderedDict[str, MaterializedView] = OrderedDict()
        self._heat: OrderedDict[str, int] = OrderedDict()
        self._patterns: OrderedDict[str, TreePattern | None] = OrderedDict()
        self._memo: OrderedDict[tuple[str, int], tuple[int, ...]] = (
            OrderedDict()
        )
        self._memo_capacity = memo_capacity
        self._bytes = 0
        self.lookups = 0
        self.hits = 0
        self.admitted = 0
        self.rejected = 0
        self.evictions = 0
        self.invalidated = 0
        self._lock = threading.Lock()

    # -- pattern memo ---------------------------------------------------

    def pattern_of(self, source: str, core: Any) -> TreePattern | None:
        """The canonical pattern of a compiled artifact, memoized by
        its (normalized) source text so the per-execution admission
        bookkeeping stays off the hot path's critical nanoseconds."""
        with self._lock:
            if source in self._patterns:
                self._patterns.move_to_end(source)
                return self._patterns[source]
        pattern = extract_pattern(core)
        canonical = canonicalize(pattern) if pattern is not None else None
        with self._lock:
            self._patterns[source] = canonical
            while len(self._patterns) > 1024:
                self._patterns.popitem(last=False)
        return canonical

    # -- admission ------------------------------------------------------

    def observe(
        self,
        source: str,
        core: Any,
        store_version: int,
        items: Sequence[Any],
    ) -> bool:
        """Record one normal execution of a query; materialize its
        rows as a view once the pattern is hot enough.  Returns whether
        a view was admitted by *this* call."""
        pattern = self.pattern_of(source, core)
        if pattern is None or pattern.root is None:
            return False
        key = pattern_key(pattern)
        with self._lock:
            heat = self._heat.get(key, 0) + 1
            self._heat[key] = heat
            self._heat.move_to_end(key)
            while len(self._heat) > 4096:
                self._heat.popitem(last=False)
            existing = self._views.get(key)
            if existing is not None and existing.store_version == store_version:
                return False
            if heat < self.admit_after:
                return False
            if not all(isinstance(item, int) for item in items):
                # non-rank items (serialized values) are not view
                # material; the residual filter speaks pre ranks only
                self.rejected += 1
                get_metrics().count("service.views.rejected")
                return False
            view = MaterializedView(
                key=key,
                pattern=pattern,
                rows=tuple(items),
                store_version=store_version,
            )
            if view.nbytes > min(self.max_view_bytes, self.budget_bytes):
                self.rejected += 1
                get_metrics().count("service.views.rejected")
                return False
            if existing is not None:  # stale-version leftover
                self._drop(key)
            while self._views and self._bytes + view.nbytes > self.budget_bytes:
                self._evict_lru()
            self._views[key] = view
            self._bytes += view.nbytes
            self.admitted += 1
            metrics = get_metrics()
            metrics.count("service.views.admitted")
            metrics.gauge("service.views.bytes", self._bytes)
            return True

    # -- lookup ---------------------------------------------------------

    def answer(
        self, pattern: TreePattern, store_version: int
    ) -> list[int] | None:
        """Rows answering a query with canonical ``pattern`` from a
        strictly-containing view, or ``None`` (fall back to compile).

        Only views materialized at exactly ``store_version`` are
        eligible, and a view whose canonical key *equals* the query's
        is skipped: equivalence belongs to the canonical plan tier."""
        qkey = pattern_key(pattern)
        with self._lock:
            self.lookups += 1
            memo = self._memo.get((qkey, store_version))
            if memo is not None:
                self._memo.move_to_end((qkey, store_version))
                self.hits += 1
                get_metrics().count("service.cache.view_hit")
                return list(memo)
            candidates = [
                view
                for view in reversed(self._views.values())
                if view.store_version == store_version and view.key != qkey
            ]
        for view in candidates:
            if not contains_patterns(view.pattern, pattern).holds:
                continue
            rows = self._filter(pattern, view.rows)
            with self._lock:
                if self._views.get(view.key) is view:
                    view.hits += 1
                    self._views.move_to_end(view.key)
                self._memo[(qkey, store_version)] = tuple(rows)
                while len(self._memo) > self._memo_capacity:
                    self._memo.popitem(last=False)
                self.hits += 1
            get_metrics().count("service.cache.view_hit")
            return rows
        return None

    # -- eviction & invalidation ---------------------------------------

    def _drop(self, key: str) -> None:
        view = self._views.pop(key)
        self._bytes -= view.nbytes

    def _evict_lru(self) -> None:
        self._drop(next(iter(self._views)))
        self.evictions += 1
        metrics = get_metrics()
        metrics.count("service.views.evicted")
        metrics.gauge("service.views.bytes", self._bytes)

    def invalidate(self, store_version: int | None = None) -> int:
        """Drop views (and all derived heat/memo state) that were not
        materialized at ``store_version`` — or everything when ``None``.
        Wired into the service's ``load`` path next to the plan cache's
        invalidation, upholding the never-stale contract."""
        with self._lock:
            stale = [
                key
                for key, view in self._views.items()
                if store_version is None or view.store_version != store_version
            ]
            for key in stale:
                self._drop(key)
            # heat and memos describe the pre-load corpus either way
            self._heat.clear()
            self._memo.clear()
            self.invalidated += len(stale)
            metrics = get_metrics()
            metrics.count("service.views.invalidated", len(stale))
            metrics.gauge("service.views.bytes", self._bytes)
            return len(stale)

    # -- introspection --------------------------------------------------

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def tier_stats(self) -> TierStats:
        """This tier's row in :class:`repro.service.cache.CacheStats`."""
        with self._lock:
            return TierStats(
                hits=self.hits,
                misses=self.lookups - self.hits,
                evictions=self.evictions,
                bytes=self._bytes,
            )

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot (surfaced as ``stats()["views"]``)."""
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "admit_after": self.admit_after,
                "views": len(self._views),
                "bytes": self._bytes,
                "lookups": self.lookups,
                "hits": self.hits,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
            }
