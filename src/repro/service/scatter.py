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

This class is the one serving class (``repro.connect()`` builds it for
every shard count): the cache ladder, the serving boundary and the
resilient call come from the serving core (:mod:`repro.service.core`),
and each shard plan runs on that shard's
:class:`~repro.service.service.StoreExecutor` (the query's one
deadline spans the fan-out; retries, breaker and degradation apply per
store).  A shard that still fails surfaces its typed error — partial
results are never merged.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields, is_dataclass
from functools import partial
from typing import Any, Iterable, Sequence

from repro.analysis.containment import (
    TreePattern,
    canonicalize,
    extract_pattern,
    filter_pattern,
)
from repro.engines import Engine
from repro.errors import DeadlineExceeded, ServiceError
from repro.infoset.encoding import DocumentStore
from repro.obs import get_metrics, get_tracer
from repro.obs.flight import FlightContext, FlightRecorder, current_context
from repro.pipeline import CompiledQuery, XQueryProcessor
from repro.result import Result, Serialized
from repro.service.cache import CacheStats
from repro.service.core import (
    CacheLadder,
    FaultLedger,
    MetricsBridge,
    ServingBoundary,
)
from repro.service.resilience import Deadline, wait_within
from repro.service.service import StoreExecutor
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
from repro.xquery.normalize import CollectionResolver

__all__ = ["ShardedService", "scatter_uris"]


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
    """The serving class: one collection, one shard or many.

    :func:`repro.connect` builds one for every shard count — a
    ``Collection(1)`` is the single-store case.  This class holds the
    serving core once (cache ladder, serving boundary, flight recorder,
    fault ledger, worker pool) and runs compiled plans on per-store
    :class:`~repro.service.service.StoreExecutor` objects: one per
    shard, plus the serial executor over the combined store (on one
    shard the combined store *is* the shard's store, so the serial
    executor is the shard executor).

    Parameters
    ----------
    collection:
        The :class:`repro.store.Collection` to serve.
    default_doc, serialize_step, checked:
        Front-end configuration, as on :class:`XQueryProcessor`; every
        store executor compiles with the same settings.  Note
        ``serialize_step`` forces serial execution (its result shape
        is not merge-safe across shards) and turns the view tier off.
    workers:
        Thread-pool width for :meth:`submit` / :meth:`run_many`
        (:meth:`execute` runs on the caller's thread and is safe to
        call from many; :func:`repro.connect` passes 4).  Each shard's
        fan-out dispatch width is ``max(1, workers // shards)``.
    deadline_s:
        The default per-query budget (positive, or ``None`` for none;
        overridable per call).  It spans the whole fan-out: every shard
        runs under the query's one deadline, and the merge re-checks
        before returning.
    flight, flight_recorder, slow_threshold_s:
        The query flight recorder (:mod:`repro.obs.flight`) — on by
        default, one :class:`FlightRecord` per query, with a slow-query
        log promoting queries over ``slow_threshold_s`` seconds (and
        every degraded/surfaced one) to a full capture.  Pass
        ``flight=False`` to disable, or ``flight_recorder=`` to share
        one.

    Everything else is a constant of the classes it lives in
    (``docs/serving.md``): the plan cache and the view tier
    (:class:`~repro.service.core.CacheLadder`), and per store the
    retry policy, circuit breaker and backend pool with the paper's
    Table 6 indexes (:class:`~repro.service.service.StoreExecutor`),
    which retry a failed call, then answer from one last resort, then
    raise a typed error — never a stale or partial result.
    """

    def __init__(
        self,
        collection: Collection,
        default_doc: str | None = None,
        serialize_step: bool = False,
        *,
        checked: bool = False,
        workers: int = 1,
        deadline_s: float | None = None,
        flight: bool = True,
        flight_recorder: FlightRecorder | None = None,
        slow_threshold_s: float = 0.25,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.collection = collection
        self.workers = workers
        self.serialize_step = serialize_step
        self.deadline_s = deadline_s
        self._dispatch_width = max(1, workers // collection.shards)
        # the compile-side processor: bound to an empty store (compiled
        # SQL never executes against it), resolving collection() globs
        # against the *whole* collection so plans name every member
        # regardless of shard placement
        self.processor = XQueryProcessor(
            store=DocumentStore(),
            default_doc=default_doc,
            serialize_step=serialize_step,
            checked=checked,
            collections=collection.resolve,
        )
        # the view tier answers in *global* ranks at this boundary, and
        # exactly one flight record is written per query here; the
        # store executors annotate the query's flight context
        self._ladder = CacheLadder(
            self.processor,
            collection,
            self._view_filter,
            collection=f"shards:{collection.shards}",
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
        # one ledger for every store executor's retry/degrade/surface
        # decisions
        self._ledger = FaultLedger()
        self._executors = [
            self._store_executor(store, self._shard_resolver(shard))
            for shard, store in enumerate(collection.stores)
        ]
        # the serial executor over the combined store, built lazily
        # (materializing the combined table) on first use — except on
        # one shard, where the combined store is the shard's store and
        # local and global ranks coincide: one pool, one SQLite image
        self._serial_executor: StoreExecutor | None = (
            self._executors[0] if collection.shards == 1 else None
        )
        self._serial_lock = threading.Lock()
        # fan-out and worker-pool state, both lazy, under one lock
        self._lifecycle_lock = threading.Lock()
        self._dispatch: dict[int, ThreadPoolExecutor] = {}
        self._worker_pool: ThreadPoolExecutor | None = None
        self._merge_lock = threading.Lock()
        self._closed = False

    def _store_executor(
        self, store: DocumentStore, collections: CollectionResolver
    ) -> StoreExecutor:
        return StoreExecutor(
            store,
            front=self.processor,
            collections=collections,
            ledger=self._ledger,
        )

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
        return self.processor.default_doc

    @property
    def store(self) -> DocumentStore:
        """The combined store — every document in global order (the
        shard's own store on one shard; materialized on first access
        otherwise)."""
        return self.collection.combined_store()

    def load(self, xml_text: str, uri: str, shard: int | None = None) -> None:
        """Load a document into its shard and invalidate (``shard``
        overrides hash placement, as on :meth:`Collection.load`).  A
        graft shifts global rank offsets and changes results, so every
        plan, shard variant and materialized view is stale; each store
        executor retires its backend pool off its store's version at
        the next lease (in-flight queries drain against the old
        snapshot)."""
        self.collection.load(xml_text, uri, shard=shard)
        if self.processor.default_doc is None:
            self.processor.default_doc = uri
        self._ladder.invalidate()
        if self.flight is not None:
            # latency percentiles must describe the corpus now being
            # served, not the pre-load one (FlightRecorder.mark_epoch)
            self.flight.mark_epoch()

    # -- compilation ---------------------------------------------------

    def _view_filter(
        self, pattern: TreePattern, rows: Sequence[int]
    ) -> list[int]:
        """Residual filter for the view tier over *global* ranks: the
        candidates are routed to the shards hosting them and filtered
        against each shard's table with the containment membership
        oracle.  Per-shard monotonic translation and a merge keep the
        filtered sequence in global document order."""
        collection = self.collection
        local: dict[int, list[int]] = {}
        for rank in rows:
            shard, pre = collection.to_local(rank)
            local.setdefault(shard, []).append(pre)
        kept = [
            collection.to_global(
                shard, filter_pattern(pattern, collection.stores[shard].table, pres)
            )
            for shard, pres in local.items()
        ]
        return list(heapq.merge(*kept))

    def compile(self, query: str) -> CompiledQuery:
        """The compiled artifact for ``query``, resolved against the
        whole collection — from the plan cache when possible (see
        :class:`~repro.service.core.CacheLadder`; the view tier only
        answers on the execution path)."""
        return self._ladder.compile(query)

    def _shard_resolver(self, shard: int) -> CollectionResolver:
        def resolve(patterns: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(
                uri
                for uri in self.collection.resolve(patterns)
                if self.collection.entry(uri).shard == shard
            )

        return resolve

    def _variant(
        self, compiled: CompiledQuery, scope: str, executor: StoreExecutor
    ) -> CompiledQuery:
        """The plan of ``compiled`` re-resolved on ``executor``'s store
        (``scope`` names it in the cache key).  Variants
        are cached like any compiled plan and compile single-flight on
        the executor's own processor."""
        key = self._ladder.key(compiled.source)._replace(
            collection=f"shards:{self.collection.shards}:{scope}"
        )
        variant = self.cache.get(key)
        if variant is None:
            with executor.lock:
                variant = self.cache.peek(key)
                if variant is None:
                    variant = executor.compile(compiled.source)
                    self.cache.put(key, variant)
        return variant

    def _shard_plan(
        self, compiled: CompiledQuery, shards: Sequence[int], shard: int
    ) -> CompiledQuery:
        """The plan ``shard`` runs.

        A routed query (one hosting shard) runs the collection-level
        plan as compiled: that shard hosts every URI the plan names,
        so re-resolving against it gives the same plan.  A scatter
        runs shard-specialized variants: the collection-wide plan names
        *every* member URI in its membership predicate, and re-resolving
        against only the URIs a shard hosts yields provably identical
        rows on the shard (foreign URIs match nothing there) but keeps
        the membership list short — on a long list, SQLite flips to
        driving the join from the DOC rows and walks whole document
        subtrees by rowid range, turning indexed point-lookups into
        per-shard table scans.
        """
        if len(shards) == 1:
            return compiled
        return self._variant(compiled, str(shard), self._executors[shard])

    # -- execution -----------------------------------------------------

    def execute(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> Result:
        """Evaluate a query on the caller's thread; returns a
        :class:`repro.Result` whose ``shards`` attribute records the
        fan-out width (1 for routed or serial execution).

        Scatter-safe SQL-engine queries run on the shards hosting their
        documents; everything else (interpreter engines, cross-document
        joins, FLWOR-ordered results) runs serially against the
        combined store.  Either way the item sequence is exactly what a
        single-backend serial processor would return.  In particular a
        ``doc()``/``collection()`` URI naming no hosted document
        matches nothing — the query returns an empty :class:`Result`,
        never an error (serial SQL parity); each such URI is counted
        under ``service.scatter.unknown_uris``.

        ``deadline_s`` overrides the service default for this call; it
        must be positive (``ValueError`` otherwise).  Raises a typed
        :class:`repro.errors.ServiceError` subclass on deadline or
        backend unavailability — never a partial, stale or late result.
        """
        if self._closed:
            raise RuntimeError("query service is closed")
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
        then route or scatter across the hosting shards, or run
        serially."""
        metrics = get_metrics()
        uris = None
        if engine in Engine.sql_engines() and not self.serialize_step:
            uris = scatter_uris(compiled.core)
        if uris is None:
            metrics.count("service.scatter.serial")
            if flight is not None:
                flight.note_scatter("serial", 1)
            return self._run_serial(compiled, engine, deadline), 1, {}

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

    def _run_serial(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
    ) -> list[Any]:
        """Run on the serial executor.  SQL runs the compiled plan as
        is — its text names URIs, not ranks, and runs unchanged on any
        schema; the interpreters run a plan in-process against the
        store it was compiled over, so they run a serial-store
        variant."""
        serial = self._serial()
        if engine not in Engine.sql_engines():
            compiled = self._variant(compiled, "serial", serial)
        return serial.run(compiled, engine, deadline)

    def _breaker_state(self) -> str:
        """The worst breaker state across the store executors (open >
        half-open > closed) — the serving boundary's health summary."""
        states = {executor.breaker.state for executor in self._executors}
        with self._serial_lock:
            if self._serial_executor is not None:
                states.add(self._serial_executor.breaker.state)
        for state in ("open", "half-open"):
            if state in states:
                return state
        return "closed"

    def _explain(self, compiled: CompiledQuery, engine: Engine) -> list[str]:
        """EXPLAIN rows for a slow capture: any shard's schema explains
        the collection-wide SQL; prefer the serial store when built."""
        with self._serial_lock:
            executor = self._serial_executor
        if executor is None:
            executor = self._executors[0]
        return executor.explain(compiled, engine)

    def _scatter(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        shards: Sequence[int],
        deadline: Deadline | None,
    ) -> tuple[list[Any], int]:
        """Run one compiled plan on ``shards``; returns the merged
        global-rank sequence and the merge-phase nanoseconds."""
        tracer = get_tracer()
        if not shards:
            return [], 0
        if deadline is not None:
            deadline.check()  # a spent budget surfaces before any dispatch
        # the plans compile here, on this thread, not on a dispatch
        # thread next to a SQLite connection; a variant's first compile
        # waits on its executor's lock, so the flight record times it
        started = time.perf_counter_ns()
        plans = {
            shard: self._shard_plan(compiled, shards, shard) for shard in shards
        }
        flight = current_context()
        if flight is not None:
            flight.add_phase("compile", time.perf_counter_ns() - started)

        def run(shard: int) -> list[int]:
            return self._executors[shard].run(plans[shard], engine, deadline)

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

            # dispatch threads mostly wait on SQLite with the GIL
            # released; each wait is capped at the query's budget, so a
            # shard task queued behind stalled statements cannot make
            # the DeadlineExceeded late
            futures = [
                self._dispatch_pool(shard).submit(
                    MetricsBridge(self._merge_lock).run, run, shard
                )
                for shard in shards
            ]
            try:
                per_shard: list[list[int]] = []
                failure: ServiceError | None = None
                for shard, future in zip(shards, futures):
                    try:
                        items = wait_within(future, deadline)
                    except ServiceError as error:
                        get_metrics().count("service.scatter.shard_failures")
                        # a spent deadline outranks any other failure
                        if failure is None or isinstance(
                            error, DeadlineExceeded
                        ):
                            failure = error
                        continue
                    if failure is None:
                        per_shard.append(
                            self.collection.to_global(shard, items)
                        )
                if failure is not None:
                    # partial answers are never merged
                    raise failure
            finally:
                # on every exit, a shard task the caller stopped
                # waiting for may still be running; it observes the same
                # deadline (stalls wake every slice, SQLite runs under
                # the progress handler), so cancel it or wait for it:
                # its fault tallies must reach the caller's registry
                # before the call returns
                for future in futures:
                    if not future.cancel():
                        future.exception()
            started = time.perf_counter_ns()
            merged = list(heapq.merge(*per_shard))
            merge_ns = time.perf_counter_ns() - started
            if deadline is not None:
                deadline.check()
            return merged, merge_ns

    def _dispatch_pool(self, shard: int) -> ThreadPoolExecutor:
        """The shard's dispatch threads for a fan-out.  Per
        shard, so a shard's pooled SQLite connections stay with the
        same few threads."""
        with self._lifecycle_lock:
            pool = self._dispatch.get(shard)
            if pool is None:
                pool = self._dispatch[shard] = ThreadPoolExecutor(
                    max_workers=self._dispatch_width,
                    thread_name_prefix=f"repro-dispatch-{shard}",
                )
            return pool

    def _serial(self) -> StoreExecutor:
        """The serial executor over the combined store, built lazily
        (materializing the combined table) on first use."""
        with self._serial_lock:
            if self._serial_executor is None:
                get_metrics().count("service.scatter.serial_materializations")
                self._serial_executor = self._store_executor(
                    self.collection.combined_store(), self.collection.resolve
                )
            return self._serial_executor

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

    # -- concurrent serving --------------------------------------------

    def submit(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> "Future[Result]":
        """Schedule one query on the ``workers``-wide pool; returns its
        future.  The submitting thread's metrics scope and flight
        context travel with it (:class:`MetricsBridge`)."""
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("query service is closed")
            if self._worker_pool is None:
                self._worker_pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-query"
                )
            pool = self._worker_pool
        return pool.submit(
            MetricsBridge(self._merge_lock).run,
            partial(self.execute, query, engine, deadline_s=deadline_s),
        )

    def run_many(
        self,
        queries: Iterable[str | CompiledQuery],
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> list[Result]:
        """Execute a batch concurrently; results in submission order.

        Submission is all-or-nothing: when a mid-batch :meth:`submit`
        fails, the already-submitted futures are cancelled — or drained
        to completion if they are past cancelling — before the error
        propagates, so no query from the batch keeps running
        unobserved.
        """
        futures: list[Future[Result]] = []
        try:
            for query in queries:
                futures.append(
                    self.submit(query, engine=engine, deadline_s=deadline_s)
                )
        except BaseException:
            for future in futures:
                future.cancel()
            for future in futures:
                if not future.cancelled():
                    future.exception()  # drain; the submit error wins
            raise
        return [future.result() for future in futures]

    # -- accounting / lifecycle ----------------------------------------

    @property
    def fault_accounting(self) -> dict[str, int]:
        """Injected-fault dispositions (``retry`` / ``degrade`` /
        ``surface``) across every store executor — the ledger side of
        the ``injected == retried + degraded + surfaced`` invariant."""
        return self._ledger.snapshot()

    def cache_stats(self) -> CacheStats:
        """The typed, tiered cache statistics (exact / canonical /
        view) — the stable API; ``stats()["cache"]`` serves its
        :meth:`~repro.service.cache.CacheStats.to_dict` form."""
        return self._ladder.stats()

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot: collection placement, per-shard
        executor and planner-statistics summaries, plan-cache counters,
        resilience settings."""
        from repro.planner.stats import TableStatistics

        placement = self.collection.stats()
        per_shard = []
        for shard, executor in enumerate(self._executors):
            table_stats = TableStatistics.collect(executor.store.table)
            per_shard.append(
                {
                    "shard": shard,
                    "documents": placement["per_shard"][shard]["documents"],
                    "rows": table_stats.row_count,
                    "distinct_names": len(table_stats.name_frequency),
                    "max_level": table_stats.max_level,
                    "service": executor.stats(),
                }
            )
        with self._serial_lock:
            serial = self._serial_executor is not None
        return {
            "workers": self.workers,
            "collection": placement,
            "cache": self.cache_stats().to_dict(),
            "views": self.views.stats() if self.views is not None else None,
            "flight": self.flight.stats() if self.flight else None,
            "serial_materialized": serial,
            "resilience": {
                "deadline_s": self.deadline_s,
                "max_retries": self._executors[0].retry.max_retries,
                "breaker": self._breaker_state(),
            },
            "fault_accounting": self.fault_accounting,
            "per_shard": per_shard,
        }

    def close(self) -> None:
        """Drain the worker pool and the dispatch threads, then close
        every store executor."""
        with self._lifecycle_lock:
            self._closed = True
            pool, self._worker_pool = self._worker_pool, None
            dispatch, self._dispatch = self._dispatch, {}
        if pool is not None:
            pool.shutdown(wait=True)
        # threads first, so no connection is closed under a running
        # statement
        for threads in dispatch.values():
            threads.shutdown(wait=True, cancel_futures=True)
        with self._serial_lock:
            serial, self._serial_executor = self._serial_executor, None
        for executor in self._executors:
            executor.close()
        if serial is not None:
            serial.close()  # a no-op when it is the one shard's executor

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
