"""Scatter-gather execution over a sharded document collection.

:class:`ShardedService` is the serving layer over a
:class:`repro.store.Collection`: one compiled plan fans out across N
per-shard backends in parallel, per-shard results translate to global
``pre`` ranks and merge back in stable document order (doc rank ⊕ pre).

Why this works
--------------
The join-graph SQL compiled for a ``collection()`` query embeds the
member URIs as a disjunctive literal predicate on the ``doc`` table's
DOC rows — the text references no shard-specific state, so the *same*
statement runs against every shard's schema unchanged; documents a
shard doesn't host simply match nothing.  A query is **scatter-safe**
when

* the normalized Core expression has exactly one *effective* document
  source — one ``collection(...)`` reference (scatter across its
  shards) or ``doc()`` references to a single URI (route to its one
  shard).  Effective means after accounting for variables: a
  ``let``-bound variable denotes its whole binding sequence, so every
  reference re-enters each source inside the binding (two references
  to a ``let``-bound collection are a cross-document self-join); a
  ``for``-bound variable denotes one item of its sequence, so its
  references stay inside the single document that item lives in — and
* the top-level Core expression is ``fs:ddo(...)``, i.e. the result is
  a document-ordered node sequence.

Then every result item belongs to the document (and hence shard) it
was computed on, per-shard sequences are sorted by shard-local ``pre``,
translation to global ranks is monotonic per shard, and a k-way merge
reproduces the serial answer item for item.  Everything else — joins
across two sources, FLWOR-ordered results, boolean results, the
``serialize_step`` wrapper — falls back to *serial* execution against
the lazily materialized combined store, so differential agreement with
a single-backend processor holds universally.

This class is the collection shell around the shared serving core
(:mod:`repro.service.core`): the cache ladder, the serving boundary
and the resilient call are the ones :class:`QueryService` uses.  Each
shard runs under its own :class:`QueryService` (deadline spans the
fan-out via remaining budget, retries/breaker/degrade apply per shard)
or, with ``executor="process"``, on a worker process under the same
resilient call; when a shard still fails with degradation enabled the
whole query falls back to the serial path — partial results are never
returned.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.containment import (
    TreePattern,
    canonicalize,
    extract_pattern,
    pattern_selects,
)
from repro.engines import Engine
from repro.errors import ServiceError
from repro.infoset.encoding import DocumentStore
from repro.obs import get_metrics, get_tracer
from repro.obs.flight import FlightContext, FlightRecorder, current_context
from repro.pipeline import CompiledQuery, XQueryProcessor
from repro.result import Result, Serialized
from repro.service.cache import CacheKey, CacheStats
from repro.service.core import (
    CacheLadder,
    FaultLedger,
    MetricsBridge,
    ServingBoundary,
    resilient_call,
)
from repro.service.procpool import ProcessShardExecutor, ShippedPlan
from repro.service.resilience import Deadline, RetryPolicy
from repro.service.service import QueryService
from repro.store import Collection
from repro.xquery.core import (
    CoreCollection,
    CoreDdo,
    CoreDoc,
    CoreExpr,
    CoreFor,
    CoreLet,
    CoreVar,
)

__all__ = ["ShardedService", "scatter_uris"]


def _remaining(deadline: Deadline | None) -> float | None:
    """The budget to hand a downstream call.  Raises the typed
    :class:`DeadlineExceeded` when the fan-out has already spent the
    deadline — a non-positive budget must never reach a service entry
    point (it would be rejected as a :class:`ValueError`).  The floor
    covers the instant between the check and the reading."""
    if deadline is None:
        return None
    deadline.check()
    return max(deadline.remaining(), 1e-9)


class _FreeVariable(Exception):
    """A Core variable with no visible binding — unanalyzable."""


_Source = CoreDoc | CoreCollection
_Env = dict[str, tuple["_Source", ...]]


def _effective_sources(core: CoreExpr, env: _Env) -> list[_Source]:
    """One entry per *effective* document-source reference in a Core
    tree — syntactic source nodes plus, for every variable reference,
    the sources of its binding.

    Counting AST nodes alone is unsound: ``let $c := collection()``
    has one ``CoreCollection`` node, but each ``$c`` reference
    re-evaluates the whole collection, so ``$c//a[$c//b]`` is a
    cross-document self-join.  ``let``-bound references therefore
    contribute their binding's sources per occurrence.  ``for``-bound
    variables bind one *item* at a time — every reference stays inside
    the single document that item lives in — so they contribute
    nothing beyond the iteration sequence itself (counted once at the
    ``CoreFor``); this keeps desugared predicates (``e[p]`` becomes a
    ``for`` whose variable appears in both branch and result)
    scatterable.
    """
    if isinstance(core, (CoreDoc, CoreCollection)):
        return [core]
    if isinstance(core, CoreVar):
        try:
            return list(env[core.name])
        except KeyError:
            raise _FreeVariable(core.name) from None
    if isinstance(core, CoreFor):
        out = _effective_sources(core.sequence, env)
        out.extend(_effective_sources(core.ret, {**env, core.var: ()}))
        return out
    if isinstance(core, CoreLet):
        bound = tuple(_effective_sources(core.value, env))
        # the binding's sources count only where the variable is
        # referenced: an unused binding contributes no result items
        return _effective_sources(core.ret, {**env, core.var: bound})
    out: list[_Source] = []
    if is_dataclass(core):
        for field in fields(core):
            child = getattr(core, field.name)
            if isinstance(child, CoreExpr):
                out.extend(_effective_sources(child, env))
    return out


def scatter_uris(core: CoreExpr) -> tuple[str, ...] | None:
    """The URI set a compiled query is scatter-safe over, or ``None``.

    ``None`` means the query must run serially; a tuple (possibly
    empty) means every result item lives in one of these documents and
    per-shard execution + ordered merge is exact.

    Two classifiers run in sequence.  The structural one requires a
    top-level ``fs:ddo`` plus a single effective source.  Queries whose
    top level is the desugared-predicate ``for`` shape (``//a[b]`` and
    friends) fail that test even though their results are perfectly
    merge-safe; for those, the containment analyzer's tree-pattern
    extraction takes over — a query *in the pattern fragment* is by
    construction single-source with a document-ordered duplicate-free
    node result, which is exactly the scatter-safety contract.  Pattern
    classifications are counted under
    ``service.scatter.pattern_classified``.
    """
    uris = _structural_scatter_uris(core)
    if uris is not None:
        return uris
    pattern = extract_pattern(core)
    if pattern is None:
        return None
    canonical = canonicalize(pattern)
    get_metrics().count("service.scatter.pattern_classified")
    flight = current_context()
    if flight is not None:
        flight.note_pattern_classified()
    if canonical.root is None:
        # statically empty: scatter over nothing (the merge of zero
        # shards is the correct empty answer)
        return ()
    return canonical.uris


def _structural_scatter_uris(core: CoreExpr) -> tuple[str, ...] | None:
    """The pre-analyzer classifier: top-level ddo + one effective
    document source (see the module docstring)."""
    if not isinstance(core, CoreDdo):
        return None
    try:
        sources = _effective_sources(core, {})
    except _FreeVariable:
        return None
    if not sources:
        return None
    if all(isinstance(s, CoreDoc) for s in sources):
        uris = {s.uri for s in sources}
        # several doc() references are routable only when they all
        # name the same document (the whole query then lives in one
        # shard); distinct URIs may join across shards
        return tuple(uris) if len(uris) == 1 else None
    if len(sources) == 1 and isinstance(sources[0], CoreCollection):
        return sources[0].uris
    return None


class ShardedService:
    """Scatter-gather query service over a sharded collection.

    Parameters
    ----------
    collection:
        The :class:`repro.store.Collection` to serve.
    default_doc, serialize_step, disabled_rules, checked:
        Front-end configuration, as on :class:`XQueryProcessor`.  Note
        ``serialize_step`` forces serial execution (its result shape
        is not merge-safe across shards).
    workers_per_shard:
        Worker threads per shard service; the scatter fan-out runs one
        in-flight plan per shard, so 1 is the natural width.
    parallel_fanout:
        ``True`` dispatches shard plans onto parent-side dispatch
        threads concurrently; ``False`` runs them sequentially in the
        calling thread (still through each shard's full resilience
        stack).  The default ``None`` picks by ``os.cpu_count()``: on a
        single-core host thread fan-out is pure scheduling overhead —
        the per-shard cost reduction (smaller tables, shorter membership
        predicates) is what sharding buys, and it survives serial
        dispatch intact.
    executor:
        ``"thread"`` (default) runs each shard plan on the shard's
        in-process :class:`QueryService`; ``"process"`` dispatches to a
        :class:`~repro.service.procpool.ProcessShardExecutor` — one
        long-lived worker *process* per shard (``workers_per_shard``
        each) holding its own SQLite connection over a zero-copy
        attach of the shard image, executing pre-lowered shipped SQL
        on an independent interpreter.  Threads stay the right choice
        for single-shard stores and tiny corpora where the serialize/
        spawn cost outweighs the GIL win; see
        ``docs/performance.md``.
    cache_capacity, cached_statements, indexes:
        As on :class:`QueryService`; apply to every shard.
    deadline_s, retry, breaker_threshold, breaker_reset_s, degrade:
        Resilience configuration.  The deadline spans the whole
        fan-out: each shard receives the *remaining* budget, and the
        merge re-checks before returning.  With ``degrade`` enabled a
        shard-level failure falls back to full serial execution; with
        it disabled the typed shard error surfaces.
    """

    def __init__(
        self,
        collection: Collection | None = None,
        default_doc: str | None = None,
        serialize_step: bool = False,
        disabled_rules: set[str] | None = None,
        *,
        shards: int | None = None,
        workers_per_shard: int = 1,
        cache_capacity: int = 256,
        cached_statements: int = 512,
        indexes: dict[str, tuple[str, ...]] | None = None,
        checked: bool = False,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 8,
        breaker_reset_s: float = 0.25,
        degrade: bool = True,
        parallel_fanout: bool | None = None,
        executor: str = "thread",
        flight: bool = True,
        flight_recorder: FlightRecorder | None = None,
        slow_threshold_s: float = 0.25,
        views: bool = True,
        view_budget_bytes: int = 4 << 20,
        view_admit_after: int = 3,
    ):
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if collection is None:
            collection = Collection(shards if shards is not None else 1)
        elif shards is not None and shards != collection.shards:
            raise ValueError(
                f"shards={shards} conflicts with the given collection's "
                f"{collection.shards} shards"
            )
        self.collection = collection
        self.serialize_step = serialize_step
        self.deadline_s = deadline_s
        self.degrade_enabled = degrade
        self.executor = executor
        if parallel_fanout is None:
            # process workers sidestep the GIL, so concurrent dispatch
            # pays off whenever the host has cores to run them on;
            # thread fan-out on a single core is pure scheduling cost
            parallel_fanout = (os.cpu_count() or 1) > 1
        self.parallel_fanout = parallel_fanout
        # the compile-side processor: bound to an empty store (compiled
        # SQL never executes against it), resolving collection() globs
        # against the *whole* collection so plans name every member
        # regardless of shard placement
        self._compiler = XQueryProcessor(
            store=DocumentStore(),
            default_doc=default_doc,
            serialize_step=serialize_step,
            disabled_rules=disabled_rules,
            checked=checked,
            collections=collection.resolve,
        )
        # the view tier answers in *global* ranks at this boundary, and
        # exactly one flight record is written per query here: the
        # shard services and the serial fallback run with views and
        # recording off and annotate this service's per-query context
        self._ladder = CacheLadder(
            self._compiler,
            collection,
            self._view_filter,
            capacity=cache_capacity,
            collection=f"shards:{collection.shards}",
            views=views,
            view_budget_bytes=view_budget_bytes,
            view_admit_after=view_admit_after,
        )
        self.cache = self._ladder.cache
        self.views = self._ladder.views
        self._boundary = ServingBoundary(
            self._ladder,
            flight=flight,
            flight_recorder=flight_recorder,
            slow_threshold_s=slow_threshold_s,
            shards=collection.shards,
            serializer=self.serialize,
            explain=self._explain,
            breaker_state=self._breaker_state,
        )
        self.flight = self._boundary.recorder
        self._ledger = FaultLedger()
        self._service_config = dict(
            default_doc=default_doc,
            serialize_step=serialize_step,
            disabled_rules=disabled_rules,
            workers=workers_per_shard,
            cache_capacity=cache_capacity,
            cached_statements=cached_statements,
            indexes=indexes,
            checked=checked,
            deadline_s=None,  # the sharded service owns the deadline
            retry=retry,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            degrade=degrade,
            flight=False,
            views=False,
        )
        self._shard_services: list[QueryService] = [
            self._component(store) for store in collection.stores
        ]
        # per-shard plan specializers, built lazily: same front-end
        # configuration, but collection() resolves to only the member
        # URIs the shard hosts (see _shard_compiled)
        self._shard_compilers: list[XQueryProcessor | None] = [
            None for _ in collection.stores
        ]
        self._serial_service: QueryService | None = None
        self._serial_lock = threading.Lock()
        # fan-out and process-executor state (lazy: a sequential
        # thread-mode service never pays for it).  The parent owns
        # every retry/degrade/surface decision for worker-raised
        # faults, so their ledger lives here, not in the workers.
        self._workers_per_shard = workers_per_shard
        self._indexes = indexes
        self._retry = retry if retry is not None else RetryPolicy()
        self._procpool: ProcessShardExecutor | None = None
        self._procpool_lock = threading.Lock()
        self._dispatch: dict[int, ThreadPoolExecutor] = {}
        self._merge_lock = threading.Lock()
        self._closed = False

    # -- documents -----------------------------------------------------

    @property
    def shards(self) -> int:
        return self.collection.shards

    @property
    def documents(self) -> list[str]:
        """URIs of all loaded documents, in load order."""
        return self.collection.doc_uris

    @property
    def default_doc(self) -> str | None:
        return self._compiler.default_doc

    def load(self, xml_text: str, uri: str, shard: int | None = None) -> None:
        """Load a document into its shard and invalidate compiled
        plans (``shard`` overrides hash placement, as on
        :meth:`Collection.load`).  Shard backends/caches
        self-invalidate off their store versions; the collection-level
        plan cache is versioned on the collection."""
        entry = self.collection.load(xml_text, uri, shard=shard)
        if self._compiler.default_doc is None:
            self._compiler.default_doc = uri
            self._service_config["default_doc"] = uri
            for service in self._shard_services:
                service.processor.default_doc = uri
            with self._serial_lock:
                if self._serial_service is not None:
                    self._serial_service.processor.default_doc = uri
        # a graft shifts global rank offsets and changes results:
        # every plan and materialized view is stale
        self._ladder.invalidate()
        # the shard that received the document must drop its pool;
        # QueryService.load would do this, but the collection already
        # loaded the row — retire explicitly instead
        self._shard_services[entry.shard].cache.invalidate(
            store_version=self.collection.stores[entry.shard].version
        )
        if self.flight is not None:
            # the collection graft invalidated every compiled plan;
            # latency percentiles from the pre-graft corpus would be
            # stale too — roll the flight-recorder epoch
            self.flight.mark_epoch()

    # -- compilation ---------------------------------------------------

    def _view_filter(
        self, pattern: TreePattern, rows: Sequence[int]
    ) -> list[int]:
        """Residual filter for the view tier over *global* ranks: each
        candidate is routed to the shard hosting it and tested against
        that shard's table with the containment membership oracle.
        Per-shard monotonic translation keeps the filtered sequence in
        global document order."""
        out: list[int] = []
        for rank in rows:
            shard, pre = self.collection.to_local(rank)
            table = self.collection.stores[shard].table
            if pattern_selects(pattern, table, pre):
                out.append(rank)
        return out

    def compile(self, query: str) -> CompiledQuery:
        """The compiled artifact for ``query``, resolved against the
        whole collection — from the plan cache when possible (see
        :class:`~repro.service.core.CacheLadder`; the view tier only
        answers on the execution path)."""
        return self._ladder.compile(query)

    def _shard_resolver(self, shard: int):
        def resolve(patterns: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(
                uri
                for uri in self.collection.resolve(patterns)
                if self.collection.entry(uri).shard == shard
            )

        return resolve

    def _shard_key(self, compiled: CompiledQuery, shard: int) -> CacheKey:
        return self._ladder.key(compiled.source)._replace(
            collection=f"shards:{self.collection.shards}:{shard}"
        )

    def _shard_compiled(
        self, compiled: CompiledQuery, shard: int
    ) -> CompiledQuery:
        """The shard-specialized variant of a compiled plan.

        The collection-wide plan names *every* member URI in its
        membership predicate; re-resolving against only the URIs this
        shard hosts yields provably identical rows on the shard
        (foreign URIs match nothing there) but keeps the membership
        list short — on a long list, SQLite flips to driving the join
        from the DOC rows and walks whole document subtrees by rowid
        range, turning indexed point-lookups into per-shard table
        scans.  Variants are cached like any compiled plan.
        """
        key = self._shard_key(compiled, shard)
        variant = self.cache.get(key)
        if variant is not None:
            return variant
        with self._ladder.lock:
            variant = self.cache.peek(key)
            if variant is not None:
                return variant
            compiler = self._shard_compilers[shard]
            if compiler is None:
                compiler = XQueryProcessor(
                    store=DocumentStore(),
                    default_doc=self._compiler.default_doc,
                    serialize_step=self._compiler.serialize_step,
                    disabled_rules=set(self._compiler.disabled_rules),
                    collections=self._shard_resolver(shard),
                )
                self._shard_compilers[shard] = compiler
            compiler.default_doc = self._compiler.default_doc
            variant = compiler.compile(compiled.source)
            _ = (variant.stacked_sql, variant.joingraph_sql)
            self.cache.put(key, variant)
        return variant

    # -- execution -----------------------------------------------------

    def execute(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> Result:
        """Evaluate a query; returns a :class:`repro.Result` whose
        ``shards`` attribute records the fan-out width (1 for routed or
        serial execution).

        Scatter-safe SQL-engine queries fan out across the shards
        hosting their documents; everything else (interpreter engines,
        cross-document joins, FLWOR-ordered results) runs serially
        against the combined store.  Either way the item sequence is
        exactly what a single-backend serial processor would return.
        In particular a ``doc()``/``collection()`` URI naming no
        hosted document matches nothing — the query returns an empty
        :class:`Result`, never an error (serial SQL parity); each such
        URI is counted under ``service.scatter.unknown_uris``.
        """
        if self._closed:
            raise RuntimeError("sharded service is closed")
        budget = self.deadline_s if deadline_s is None else deadline_s
        return self._boundary.serve(query, engine, budget, self._run)

    def _run(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
        flight: FlightContext | None,
    ) -> tuple[list[Any], int, dict[str, int]]:
        """Execute a compiled plan (the boundary's ``run``): classify,
        then scatter across the hosting shards or run serially."""
        metrics = get_metrics()
        uris = None
        if engine in Engine.sql_engines() and not self.serialize_step:
            uris = scatter_uris(compiled.core)
        if uris is None:
            metrics.count("service.scatter.serial")
            if flight is not None:
                flight.note_scatter("serial", 1)
            items = self._serial().execute(
                compiled.source,
                engine,
                deadline_s=_remaining(deadline),
            )
            return items, 1, {}

        known = [uri for uri in uris if uri in self.collection]
        if len(known) != len(uris):
            metrics.count(
                "service.scatter.unknown_uris", len(uris) - len(known)
            )
        shards = self.collection.shards_of(known)
        if flight is not None:
            flight.note_scatter(
                "route" if len(shards) == 1 else "scatter", len(shards)
            )
        merged, merge_ns = self._scatter(compiled, engine, shards, deadline)
        metrics.count("service.scatter.queries")
        metrics.count(f"service.scatter.queries.{engine.value}")
        metrics.observe("service.scatter.fanout", len(shards))
        if flight is not None:
            flight.add_phase("merge", merge_ns)
        return merged, max(1, len(shards)), {"merge_ns": merge_ns}

    def _breaker_state(self) -> str:
        """The worst breaker state across the shard services (open >
        half-open > closed) — the serving boundary's health summary."""
        states = {service._breaker.state for service in self._shard_services}
        with self._serial_lock:
            if self._serial_service is not None:
                states.add(self._serial_service._breaker.state)
        for state in ("open", "half-open"):
            if state in states:
                return state
        return "closed"

    def _explain(self, compiled: CompiledQuery, engine: Engine) -> list[str]:
        """EXPLAIN rows for a slow capture: any shard's schema explains
        the collection-wide SQL; prefer the serial store when built."""
        with self._serial_lock:
            service = self._serial_service
        if service is None:
            service = self._shard_services[0]
        return service._flight_explain(compiled, engine)

    def _scatter(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        shards: Sequence[int],
        deadline: Deadline | None,
    ) -> tuple[list[Any], int]:
        """Fan one compiled plan out across ``shards``; returns the
        merged global-rank sequence and the merge-phase nanoseconds."""
        tracer = get_tracer()
        if not shards:
            return [], 0
        _remaining(deadline)  # a spent budget surfaces before any dispatch
        # what runs one shard is chosen once, from the executor; how
        # the shards are visited (routed, sequential, parallel) is not
        # its concern
        run: Callable[[int], list[int]]
        if self.executor == "process":
            run = partial(self._process_execute, compiled, engine, deadline)
        else:
            # specialized on this thread: a cold variant compiles here,
            # not on a dispatch thread next to its SQLite connection
            variants = {
                shard: self._shard_compiled(compiled, shard) for shard in shards
            }

            def run(shard: int) -> list[int]:
                return self._shard_services[shard].execute(
                    variants[shard], engine, deadline_s=_remaining(deadline)
                )

        with tracer.span(
            "service.scatter", engine=engine.value, shards=len(shards)
        ):
            if len(shards) == 1:
                # routed: the whole query lives in one shard
                get_metrics().count("service.scatter.routed")
                shard = shards[0]
                with tracer.span("service.scatter.shard", shard=shard):
                    items = run(shard)
                started = time.perf_counter_ns()
                merged = self.collection.to_global(shard, items)
                return merged, time.perf_counter_ns() - started

            pending: list[Callable[[], list[int]]]
            if self.parallel_fanout:
                # dispatch threads mostly wait — on SQLite with the GIL
                # released, or on a worker process's pipe
                pending = [
                    self._dispatch_pool(shard)
                    .submit(MetricsBridge(self._merge_lock).run, run, shard)
                    .result
                    for shard in shards
                ]
            else:
                pending = [partial(run, shard) for shard in shards]
            per_shard: list[list[int]] = []
            failure: BaseException | None = None
            for shard, wait in zip(shards, pending):
                try:
                    items = wait()
                except ServiceError as error:
                    get_metrics().count("service.scatter.shard_failures")
                    if failure is None:
                        failure = error
                    continue
                if failure is None:
                    per_shard.append(self.collection.to_global(shard, items))
            if failure is not None:
                if not self.degrade_enabled:
                    raise failure
                # partial answers are never merged: degrade to full
                # serial execution against the combined store
                get_metrics().count("service.scatter.serial_fallbacks")
                flight = current_context()
                if flight is not None:
                    flight.note_degraded()
                with tracer.span("service.scatter.degrade"):
                    items = self._serial().execute(
                        compiled.source,
                        engine,
                        deadline_s=_remaining(deadline),
                    )
                return list(items), 0
            started = time.perf_counter_ns()
            merged = list(heapq.merge(*per_shard))
            merge_ns = time.perf_counter_ns() - started
            if deadline is not None:
                deadline.check()
            return merged, merge_ns

    # -- process executor ----------------------------------------------

    def _process_pool(self) -> ProcessShardExecutor:
        with self._procpool_lock:
            if self._procpool is None:
                self._procpool = ProcessShardExecutor(
                    self.collection.shards,
                    workers_per_shard=self._workers_per_shard,
                    cached_statements=self._service_config[
                        "cached_statements"
                    ],
                )
            return self._procpool

    def _dispatch_pool(self, shard: int) -> ThreadPoolExecutor:
        """The shard's parent-side dispatch threads for a parallel
        fan-out (either executor).  Per shard, so a shard's pooled
        SQLite connections stay with the same few threads."""
        with self._procpool_lock:
            pool = self._dispatch.get(shard)
            if pool is None:
                pool = self._dispatch[shard] = ThreadPoolExecutor(
                    max_workers=self._workers_per_shard,
                    thread_name_prefix=f"repro-dispatch-{shard}",
                )
            return pool

    def _shipped_plan(
        self, compiled: CompiledQuery, engine: Engine, shard: int
    ) -> ShippedPlan:
        """The shard-specialized plan in shippable form, keyed by the
        same canonical cache key the compiled-plan cache uses — the
        worker's plan cache and the parent's stay in lockstep."""
        sql = self._shard_compiled(compiled, shard).sql_for(engine)
        return ShippedPlan(
            key=(self._shard_key(compiled, shard), engine.value),
            sql_text=sql.text,
            item_index=sql.select_aliases.index(sql.item_alias),
        )

    def _process_execute(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
        shard: int,
    ) -> list[int]:
        """One shard execution on the process executor under the
        parent-side resilient call.  No breaker: the worker owns
        exactly one connection and a crash is already handled by
        restart-and-retry.  No last resort here either: exhaustion
        raises :class:`BackendUnavailable` and :meth:`_scatter` answers
        it with the whole-query serial fallback."""
        plan = self._shipped_plan(compiled, engine, shard)
        store = self.collection.stores[shard]
        executor = self._process_pool()

        def attempt() -> list[int]:
            return executor.execute(
                shard,
                plan,
                version=store.version,
                payload=lambda: self.collection.shard_payload(
                    shard, self._indexes
                ),
                budget_s=_remaining(deadline),
            )

        return resilient_call(
            attempt,
            retry=self._retry,
            deadline=deadline,
            ledger=self._ledger,
            caller_degrades=self.degrade_enabled,
            what=f"shard {shard} worker",
        )

    def _serial(self) -> QueryService:
        """The serial fallback service over the combined store, built
        lazily (materializing the combined table) on first use."""
        with self._serial_lock:
            if self._serial_service is None:
                get_metrics().count("service.scatter.serial_materializations")
                self._serial_service = self._component(
                    self.collection.combined_store()
                )
            return self._serial_service

    def _component(self, store: DocumentStore) -> QueryService:
        """A service executing on this one's behalf (a shard, the
        serial fallback): it annotates this service's per-query flight
        context, adds ``service.scatter.*`` and posts to this service's
        fault ledger (the injector it balances against is global); the
        served query is counted and recorded once, here."""
        service = QueryService(store=store, **self._service_config)
        service._boundary.outermost = False
        service._ledger = self._ledger
        return service

    # -- results -------------------------------------------------------

    def serialize(self, items: Sequence[Any]) -> str:
        """Serialize a global-rank node sequence back to XML text."""
        return self.collection.serialize(items)

    def run(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
    ) -> Serialized:
        """Execute and serialize in one step."""
        result = self.execute(query, engine=engine)
        return Serialized(self.serialize(result), result)

    def run_many(
        self,
        queries: Iterable[str | CompiledQuery],
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> list[Result]:
        """Execute a batch; each query fans out across the shards in
        turn (the fan-out itself is the parallelism)."""
        return [
            self.execute(query, engine=engine, deadline_s=deadline_s)
            for query in queries
        ]

    # -- accounting / lifecycle ----------------------------------------

    @property
    def fault_accounting(self) -> dict[str, int]:
        """Injected-fault dispositions across the worker processes,
        every shard service and the serial fallback — the ledger side
        of the ``injected == retried + degraded + surfaced`` invariant."""
        return self._ledger.snapshot()

    def cache_stats(self) -> CacheStats:
        """The typed, tiered cache statistics for the collection-level
        plan cache and view tier."""
        return self._ladder.stats()

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot: collection placement, per-shard
        service and planner-statistics summaries, plan-cache counters."""
        from repro.planner.stats import TableStatistics

        placement = self.collection.stats()
        per_shard = []
        for shard, service in enumerate(self._shard_services):
            table = self.collection.stores[shard].table
            table_stats = TableStatistics.collect(table)
            per_shard.append(
                {
                    "shard": shard,
                    "documents": placement["per_shard"][shard]["documents"],
                    "rows": table_stats.row_count,
                    "distinct_names": len(table_stats.name_frequency),
                    "max_level": table_stats.max_level,
                    "service": service.stats(),
                }
            )
        with self._serial_lock:
            serial = self._serial_service is not None
        with self._procpool_lock:
            procpool = self._procpool
        return {
            "collection": placement,
            "cache": self.cache_stats().to_dict(),
            "views": self.views.stats() if self.views is not None else None,
            "flight": self.flight.stats() if self.flight else None,
            "serial_materialized": serial,
            "fault_accounting": self.fault_accounting,
            "executor": self.executor,
            "procpool": procpool.stats() if procpool is not None else None,
            "per_shard": per_shard,
        }

    def close(self) -> None:
        """Drain the dispatch threads, then close every shard service,
        the serial fallback and the worker processes."""
        self._closed = True
        with self._procpool_lock:
            procpool, self._procpool = self._procpool, None
            dispatch, self._dispatch = self._dispatch, {}
        # threads first, so no connection is closed under a running
        # statement; a thread blocked on a worker's pipe is not waited
        # for — closing the process pool below unblocks it
        for pool in dispatch.values():
            pool.shutdown(wait=self.executor == "thread", cancel_futures=True)
        for service in self._shard_services:
            service.close()
        with self._serial_lock:
            serial, self._serial_service = self._serial_service, None
        if serial is not None:
            serial.close()
        if procpool is not None:
            procpool.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
