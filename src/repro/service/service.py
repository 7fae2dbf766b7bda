"""The query service: compile-once, execute-many, N workers.

:class:`QueryService` is the production-oriented front door over
:class:`repro.pipeline.XQueryProcessor`: the single-store shell around
the shared serving core (:mod:`repro.service.core` — cache ladder,
resilient call, serving boundary).  What it owns itself:

- the :class:`CompiledQueryCache` (``cache.py``) so repeated query
  texts skip the whole front end — parse, normalize, loop-lift,
  isolate, codegen — and go straight to the stored join-graph SQL;
- the :class:`BackendPool` (``pool.py``) so concurrent queries execute
  against per-thread connections of one shared in-memory SQLite
  instance instead of queueing behind a single connection;
- a :class:`~concurrent.futures.ThreadPoolExecutor` behind
  :meth:`submit` / :meth:`run_many` for callers that want the service
  to own the concurrency.

Metrics (``service.*``, catalog in ``docs/observability.md``) and
flight recording (``repro.obs.flight``, on by default: one structured
:class:`~repro.obs.flight.FlightRecord` per query, slow, degraded or
surfaced ones promoted to a slow-query log with trace spans and
``EXPLAIN`` output) happen at the serving boundary; work submitted to
the worker pool crosses a :class:`~repro.service.core.MetricsBridge`,
so ``metrics_scope`` works transparently across the pool.

Invalidation: :meth:`load` bumps the store's content version, drops
cache entries compiled against older versions and retires the current
backend pool — in-flight queries drain against the old snapshot, new
queries see the new one.

Resilience (see ``docs/robustness.md``): every SQL-engine execution
runs under a per-query deadline with true statement cancellation, a
bounded exponential-backoff retry loop for transient backend errors, a
circuit breaker over repeated failures, and an admission-control cap
that sheds load fast.  When the pooled/cached path cannot answer, the
service *degrades gracefully* — a fresh uncached compile + fresh
single-use backend — rather than ever serving a stale or partial
result.  All recovery actions are observable (``service.retry.*``,
``service.deadline.*``, ``service.breaker.*``, ``service.degrade.*``)
and fault-injection-tested by :mod:`repro.faults`.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Any, Iterable, Sequence

from repro.algebra.interpreter import run_plan
from repro.analysis.containment import TreePattern, filter_pattern
from repro.faults.injector import suppressed
from repro.infoset.encoding import DocumentStore
from repro.obs import get_metrics, get_tracer
from repro.obs.flight import FlightContext, FlightRecorder, current_context
from repro.pipeline import CompiledQuery, Engine, XQueryProcessor
from repro.result import Result, Serialized
from repro.service.cache import CacheStats
from repro.service.core import (
    CacheLadder,
    FaultLedger,
    MetricsBridge,
    ServingBoundary,
    canonical_pattern_of,
    resilient_call,
)
from repro.service.pool import BackendPool
from repro.service.resilience import (
    AdmissionGate,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    cancellation,
    is_connection_death,
)
from repro.sql.backend import SQLiteBackend

__all__ = ["QueryService", "canonical_pattern_of"]


class QueryService:
    """A thread-safe serving layer over one document store.

    Parameters
    ----------
    store, default_doc, serialize_step, disabled_rules:
        Forwarded to the underlying :class:`XQueryProcessor`.
    workers:
        Thread-pool width for :meth:`submit` / :meth:`run_many`.
        Direct :meth:`execute` calls run on the caller's thread (and
        are themselves safe to issue from many threads).
    cache_capacity:
        Compiled-plan LRU size.
    cached_statements:
        Per-connection prepared-statement cache size for the backend
        pool.
    indexes:
        Index set for the SQL backend (``None`` = the paper's Table 6).
    checked:
        Run the plan sanitizer during (cold) compiles, as on
        :class:`XQueryProcessor`.
    deadline_s:
        Default per-query time budget (seconds); must be positive
        (non-positive budgets raise ``ValueError`` at call time) and
        ``None`` disables deadlines.  Overridable per call via
        ``deadline_s=``.
    retry:
        The :class:`RetryPolicy` for transient backend errors
        (default: 2 retries, 5 ms exponential backoff).
    queue_cap:
        Admission-control cap on concurrently admitted queries;
        ``None`` (the default) disables the cap.  When set, calls
        beyond the cap fail fast with
        :class:`repro.errors.ServiceOverloaded`.
    breaker_threshold, breaker_reset_s:
        Circuit breaker: trip open after this many *consecutive*
        backend failures, probe again after this many seconds.
    degrade:
        Graceful degradation: when the pooled/cached path cannot
        answer (retries exhausted, breaker open), fall back to a fresh
        uncached compile + a fresh single-use backend instead of
        failing.  Results are never stale or partial either way; with
        ``degrade=False`` the failure surfaces as a typed error.
    flight, flight_recorder, slow_threshold_s:
        The query flight recorder (:mod:`repro.obs.flight`) — on by
        default, recording one :class:`FlightRecord` per query with a
        slow-query log promoting queries over ``slow_threshold_s``
        seconds (and every degraded/surfaced query) to a full capture.
        Pass ``flight=False`` to disable, or ``flight_recorder=`` to
        share/configure the recorder explicitly.
    views, view_budget_bytes, view_admit_after:
        The materialized-view tier (:mod:`repro.service.views`, see
        ``docs/caching.md``): queries hot for ``view_admit_after``
        executions get their result rows materialized (LRU within
        ``view_budget_bytes``), and later queries whose pattern is
        *strictly contained* in a view's are answered by re-filtering
        the view's rows instead of compiling.  On by default; forced
        off under ``serialize_step`` (items are no longer pre ranks).
    """

    def __init__(
        self,
        store: DocumentStore | None = None,
        default_doc: str | None = None,
        serialize_step: bool = False,
        disabled_rules: set[str] | None = None,
        *,
        workers: int = 4,
        cache_capacity: int = 256,
        cached_statements: int = 512,
        indexes: dict[str, tuple[str, ...]] | None = None,
        checked: bool = False,
        deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        queue_cap: int | None = None,
        breaker_threshold: int = 8,
        breaker_reset_s: float = 0.25,
        degrade: bool = True,
        flight: bool = True,
        flight_recorder: FlightRecorder | None = None,
        slow_threshold_s: float = 0.25,
        views: bool = True,
        view_budget_bytes: int = 4 << 20,
        view_admit_after: int = 3,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.processor = XQueryProcessor(
            store=store,
            default_doc=default_doc,
            serialize_step=serialize_step,
            disabled_rules=disabled_rules,
            checked=checked,
        )
        self.workers = workers
        self._ladder = CacheLadder(
            self.processor,
            self.processor.store,
            self._view_filter,
            capacity=cache_capacity,
            views=views,
            view_budget_bytes=view_budget_bytes,
            view_admit_after=view_admit_after,
        )
        self.cache = self._ladder.cache
        self.views = self._ladder.views
        self._indexes = indexes
        self._cached_statements = cached_statements
        self._pool: BackendPool | None = None
        self._pool_version = -1
        self._pool_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._closed = False
        self.deadline_s = deadline_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.degrade_enabled = degrade
        self._admission = AdmissionGate(queue_cap)
        self._breaker = CircuitBreaker(breaker_threshold, breaker_reset_s)
        self._ledger = FaultLedger()
        self._boundary = ServingBoundary(
            self._ladder,
            flight=flight,
            flight_recorder=flight_recorder,
            slow_threshold_s=slow_threshold_s,
            shards=1,
            serializer=self.serialize,
            explain=self._flight_explain,
            breaker_state=lambda: self._breaker.state,
        )
        self.flight = self._boundary.recorder

    # -- documents -----------------------------------------------------

    @property
    def store(self) -> DocumentStore:
        return self.processor.store

    #: shard partitions served
    shards = 1

    @property
    def documents(self) -> list[str]:
        """URIs of all loaded documents, in load order."""
        return list(self.store.table.doc_uris)

    def load(self, xml_text: str, uri: str) -> None:
        """Load a document and invalidate: stale cache entries are
        dropped and the backend pool is retired (in-flight queries
        drain against the old snapshot)."""
        self.processor.load(xml_text, uri)
        self._ladder.invalidate()
        if self.flight is not None:
            # percentiles must describe the corpus now being served,
            # not the pre-load one (see FlightRecorder.mark_epoch)
            self.flight.mark_epoch()
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_version = -1
        if pool is not None:
            pool.retire()

    # -- compilation ---------------------------------------------------

    def _view_filter(
        self, pattern: TreePattern, rows: Sequence[int]
    ) -> list[int]:
        """Residual filter for the view tier: membership of local pre
        ranks in a pattern, via the containment oracle."""
        return filter_pattern(pattern, self.store.table, rows)

    def compile(self, query: str) -> CompiledQuery:
        """The compiled artifact for ``query`` — from the plan cache
        when possible, compiled (and cached) otherwise (see
        :class:`~repro.service.core.CacheLadder`; the view tier only
        answers on the execution path)."""
        return self._ladder.compile(query)

    # -- execution -----------------------------------------------------

    def _lease_pool(self) -> BackendPool:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("query service is closed")
            pool = self._pool
            if pool is not None and (
                self._pool_version != self.store.version or pool.retired
            ):
                # stale or retired (a mid-flight retirement race):
                # detach it first so a construction failure below never
                # leaves the service pointing at a dead snapshot
                self._pool = None
                pool.retire()
                pool = None
            if pool is None:
                pool = BackendPool(
                    self.store.table,
                    self._indexes,
                    cached_statements=self._cached_statements,
                )
                self._pool = pool
                self._pool_version = self.store.version
            return pool.lease()

    def execute(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> Result:
        """Evaluate a query on the caller's thread; returns a
        :class:`repro.Result` (same contract as
        :meth:`XQueryProcessor.execute`).

        ``deadline_s`` overrides the service default for this call; it
        must be positive (``ValueError`` otherwise — pass ``None`` to
        use the service default).  Raises a typed
        :class:`repro.errors.ServiceError` subclass on overload,
        deadline, or backend unavailability — never a partial or stale
        result.
        """
        with self._admission.slot():
            return self._execute_admitted(query, engine, deadline_s)

    def _execute_admitted(
        self,
        query: str | CompiledQuery,
        engine: Engine | str,
        deadline_s: float | None = None,
    ) -> Result:
        budget = self.deadline_s if deadline_s is None else deadline_s
        return self._boundary.serve(query, engine, budget, self._run)

    def _run(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
        flight: FlightContext | None,
    ) -> tuple[list[Any], int, dict[str, int]]:
        """Execute a compiled plan on ``engine`` (the boundary's
        ``run``): the interpreters in-process, SQL on the pool."""
        sql_start = time.perf_counter_ns()
        if engine is Engine.INTERPRETER:
            items = run_plan(compiled.stacked_plan)
        elif engine is Engine.ISOLATED_INTERPRETER:
            items = run_plan(compiled.isolated_plan)
        else:
            items = self._run_pooled(compiled, engine, deadline)
        if flight is not None:
            flight.add_phase("sql", time.perf_counter_ns() - sql_start)
        return items, 1, {}

    def _flight_explain(
        self, compiled: CompiledQuery, engine: Engine
    ) -> list[str]:
        """EXPLAIN QUERY PLAN rows for a promoted slow capture.  Fault
        injection is suppressed: diagnostics are not chaos targets."""
        with suppressed():
            pool = self._lease_pool()
            try:
                return pool.backend().explain(compiled.sql_for(engine))
            finally:
                pool.release()

    def _run_pooled(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
    ) -> list[Any]:
        """The pooled SQL path under the resilience stack: breaker ->
        lease -> cancellable execution, :meth:`_degraded` as the last
        resort."""
        sql = compiled.sql_for(engine)

        def attempt() -> list[Any]:
            pool = self._lease_pool()
            try:
                backend = pool.backend()
                with cancellation(backend.connection, deadline):
                    return backend.run(sql)
            except sqlite3.Error as error:
                if is_connection_death(error):
                    # this thread's connection is gone; a retry only
                    # helps on a fresh one
                    pool.discard_backend()
                raise
            finally:
                pool.release()

        return resilient_call(
            attempt,
            retry=self.retry,
            deadline=deadline,
            ledger=self._ledger,
            breaker=self._breaker,
            last_resort=(
                partial(self._degraded, compiled, engine, deadline)
                if self.degrade_enabled
                else None
            ),
        )

    def _degraded(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
    ) -> list[Any]:
        """Graceful degradation: a *fresh uncached* compile and a fresh
        single-use backend, bypassing the compiled-plan cache, the
        shared pool, and any state a misbehaving backend could have
        poisoned.  Slower, but the answer is computed from scratch
        against the current store — correct or a typed error, never
        stale.  Fault injection is suppressed here: the fallback of
        last resort is not itself chaos-tested mid-recovery."""
        with suppressed(), get_tracer().span("service.degrade", engine=engine):
            if deadline is not None:
                deadline.check()
            get_metrics().count("service.degrade.queries")
            flight = current_context()
            if flight is not None:
                flight.note_degraded()
            with self._ladder.lock:
                fresh = self.processor.compile(compiled.source)
            backend = SQLiteBackend(self.store.table, self._indexes)
            try:
                with cancellation(backend.connection, deadline):
                    return backend.run(fresh.sql_for(engine))
            finally:
                backend.close()

    @property
    def fault_accounting(self) -> dict[str, int]:
        """Injected-fault dispositions so far (``retry`` / ``degrade``
        / ``surface``) — the service side of the chaos accounting gate."""
        return self._ledger.snapshot()

    def serialize(self, items: Sequence[Any]) -> str:
        """Serialize a node-sequence result back to XML text."""
        return self.processor.serialize(items)

    def run(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
    ) -> Serialized:
        """Execute and serialize in one step."""
        result = self.execute(query, engine=engine)
        return Serialized(self.serialize(result), result)

    # -- concurrent serving --------------------------------------------

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("query service is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-query",
                )
            return self._executor

    def submit(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> "Future[Result]":
        """Schedule one query on the worker pool; returns its future.

        Admission control applies at submission time: with a
        ``queue_cap`` configured, a submission beyond the cap raises
        :class:`repro.errors.ServiceOverloaded` immediately instead of
        queueing work the caller would only time out on.  The slot is
        released when the future reaches *any* terminal state —
        including cancellation while still queued.
        """
        executor = self._ensure_executor()
        self._admission.enter()
        try:
            # the admission slot is NOT released by the task: the
            # done-callback below frees it, which also covers futures
            # cancelled before they ever run
            future = executor.submit(
                MetricsBridge(self._merge_lock).run,
                self._execute_admitted,
                query,
                engine,
                deadline_s,
            )
        except BaseException:
            self._admission.exit()
            raise
        future.add_done_callback(lambda _finished: self._admission.exit())
        return future

    def run_many(
        self,
        queries: Iterable[str | CompiledQuery],
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> list[Result]:
        """Execute a batch concurrently; results in submission order.

        Submission is all-or-nothing: when a mid-batch :meth:`submit`
        fails (e.g. :class:`repro.errors.ServiceOverloaded`), the
        already-submitted futures are cancelled — or drained to
        completion if they are past cancelling — before the error
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

    # -- lifecycle -----------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """The typed, tiered cache statistics (exact / canonical /
        view) — the stable API; ``stats()["cache"]`` serves its
        :meth:`~repro.service.cache.CacheStats.to_dict` form."""
        return self._ladder.stats()

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the service's moving parts."""
        with self._pool_lock:
            pool = self._pool
        return {
            "workers": self.workers,
            "store_version": self.store.version,
            "cache": self.cache_stats().to_dict(),
            "views": self.views.stats() if self.views is not None else None,
            "pool_connections": pool.connection_count if pool else 0,
            "flight": self.flight.stats() if self.flight else None,
            "resilience": {
                "deadline_s": self.deadline_s,
                "max_retries": self.retry.max_retries,
                "queue_cap": self._admission.capacity,
                "inflight": self._admission.inflight,
                "breaker": self._breaker.state,
                "degrade": self.degrade_enabled,
                "fault_accounting": self.fault_accounting,
            },
        }

    def close(self) -> None:
        """Drain the worker pool and close every backend connection."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.retire()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
