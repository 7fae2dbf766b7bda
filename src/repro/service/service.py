"""Per-store execution: where a compiled plan meets one SQLite image.

:class:`StoreExecutor` runs compiled plans against one
:class:`~repro.infoset.encoding.DocumentStore` on behalf of
:class:`~repro.service.ShardedService` — one executor per shard, plus
the serial executor over the combined store (on one shard the serial
store *is* the shard's store, so the two are the same executor).  It
owns what touches that store and nothing else:

- an :class:`XQueryProcessor` over the store, which compiles the plan
  variants that must be resolved against this store (a scatter's shard
  variant, an interpreter engine's in-process plan) and the fresh
  compile of the degraded path;
- the :class:`BackendPool` lease with its version check: a load bumps
  the store's content version, the next lease retires the stale pool
  (in-flight queries drain against the old snapshot) and builds one
  over the new content — on a thread of its own when the query has a
  deadline, so a cold build cannot make its DeadlineExceeded late;
- the :class:`CircuitBreaker` over repeated backend failures;
- the pooled attempt under :func:`~repro.service.core.resilient_call`
  (deadline cancellation, bounded retry), with :meth:`_degraded` — a
  fresh uncached compile on a fresh single-use backend — as the one
  last resort, so an answer is correct or a typed error, never stale.

The retry policy, the breaker, the pool and the degraded backend take
their class defaults (``docs/robustness.md`` states the values).

The cache ladder, the serving boundary, flight recording and the
worker pool live once, on the serving class (see ``docs/serving.md``).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, TypeVar

from repro.algebra.interpreter import run_plan
from repro.faults.injector import suppressed
from repro.infoset.encoding import DocumentStore
from repro.obs import get_metrics, get_tracer
from repro.obs.flight import current_context
from repro.pipeline import CompiledQuery, Engine, XQueryProcessor
from repro.service.core import (
    FaultLedger,
    MetricsBridge,
    canonical_pattern_of,
    resilient_call,
)
from repro.service.pool import BackendPool
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    cancellation,
    deadline_scope,
    is_connection_death,
    wait_within,
)
from repro.sql.backend import SQLiteBackend
from repro.xquery.normalize import CollectionResolver

__all__ = ["StoreExecutor", "canonical_pattern_of"]

T = TypeVar("T")


def _on_thread(fn: Callable[[], T]) -> Future[T]:
    """Run ``fn`` on a new daemon thread, recording into the caller's
    metrics; the returned future is already running, so a caller that
    stops waiting cannot cancel the work."""
    future: Future[T] = Future()
    future.set_running_or_notify_cancel()
    bridge = MetricsBridge()

    def body() -> None:
        try:
            future.set_result(bridge.run(fn))
        except Exception as error:  # handed to the waiter, if any
            future.set_exception(error)

    threading.Thread(target=body, name="repro-pool-build", daemon=True).start()
    return future


class StoreExecutor:
    """Executes compiled plans against one document store.

    ``front`` is the serving class's compile-side processor: this
    executor's own processor copies its ``serialize_step`` and
    ``checked`` settings and reads its ``default_doc`` at every
    compile, so all of them come from one place.  ``collections``
    resolves ``collection()`` globs to the member URIs this store
    hosts.  Injected faults are posted to
    ``ledger``, the serving class's one fault ledger.
    """

    def __init__(
        self,
        store: DocumentStore,
        *,
        front: XQueryProcessor,
        collections: CollectionResolver,
        ledger: FaultLedger,
    ):
        self._front = front
        self.processor = XQueryProcessor(
            store=store,
            serialize_step=front.serialize_step,
            checked=front.checked,
            collections=collections,
        )
        self.retry = RetryPolicy()
        self.breaker = CircuitBreaker()
        self._ledger = ledger
        self._pool: BackendPool | None = None
        self._pool_version = -1
        self._pool_lock = threading.Lock()
        self._closed = False
        # the front end shares mutable rewrite-engine state (the
        # fresh-name counter), so compiles on this processor are
        # single-flight; reentrant so a caller can hold it across a
        # cache re-check and the compile
        self.lock = threading.RLock()

    @property
    def store(self) -> DocumentStore:
        return self.processor.store

    def compile(self, source: str) -> CompiledQuery:
        """A fresh compile of ``source`` against this store, with the
        lazy SQL artifacts materialized (the result may be cached and
        run from any thread)."""
        with self.lock:
            self.processor.default_doc = self._front.default_doc
            compiled = self.processor.compile(source)
            _ = (compiled.stacked_sql, compiled.joingraph_sql)
        return compiled

    # -- execution -----------------------------------------------------

    def _lease_pool(self, deadline: Deadline | None = None) -> BackendPool:
        """Lease the pool over the store's current content.

        With a ``deadline`` a missing or stale pool is built (or waited
        for) on a thread of its own, and the caller waits no longer than
        its budget; a build the caller gives up on still installs the
        pool for the next query."""
        if deadline is not None and not self._pool_is_current():
            wait_within(_on_thread(self._current_pool), deadline)
        with self._pool_lock:
            return self._current_pool_locked().lease()

    def _pool_is_current(self) -> bool:
        """A lock-free hint: is there a pool over the current content?"""
        pool = self._pool
        return (
            pool is not None
            and not pool.retired
            and self._pool_version == self.store.version
        )

    def _current_pool(self) -> BackendPool:
        with self._pool_lock:
            return self._current_pool_locked()

    def _current_pool_locked(self) -> BackendPool:
        """The pool over the store's current content, built when there
        is none or it is stale (``_pool_lock`` held)."""
        if self._closed:
            raise RuntimeError("query service is closed")
        pool = self._pool
        if pool is not None and (
            self._pool_version != self.store.version or pool.retired
        ):
            # stale or retired (a mid-flight retirement race): detach
            # it first so a construction failure below never leaves
            # the executor pointing at a dead snapshot
            self._pool = None
            pool.retire()
            pool = None
        if pool is None:
            pool = BackendPool(self.store.table)
            self._pool = pool
            self._pool_version = self.store.version
        return pool

    def run(
        self,
        compiled: CompiledQuery,
        engine: Engine,
        deadline: Deadline | None,
    ) -> list[Any]:
        """Execute a compiled plan: the interpreters in-process, SQL on
        the pool under the resilience stack."""
        sql_start = time.perf_counter_ns()
        try:
            with deadline_scope(deadline):
                if engine is Engine.INTERPRETER:
                    items = run_plan(compiled.stacked_plan)
                elif engine is Engine.ISOLATED_INTERPRETER:
                    items = run_plan(compiled.isolated_plan)
                else:
                    items = self._run_pooled(compiled, engine, deadline)
        finally:
            # a failed run records its time too: the slow-log capture
            # of a surfaced error then has a phase to show
            flight = current_context()
            if flight is not None:
                flight.add_phase("sql", time.perf_counter_ns() - sql_start)
        return items

    def explain(self, compiled: CompiledQuery, engine: Engine) -> list[str]:
        """EXPLAIN QUERY PLAN rows for a promoted slow capture.  Fault
        injection is suppressed: diagnostics are not chaos targets.
        The capture runs on the caller's thread, so it never waits for
        a pool build: with no pool over the current content it says
        so instead of planning."""
        if not self._pool_is_current():
            return ["no plan: the backend pool over this store is being built"]
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
            pool = self._lease_pool(deadline)
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
            breaker=self.breaker,
            last_resort=lambda: self._degraded(compiled, engine, deadline),
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
            fresh = self.compile(compiled.source)
            backend = SQLiteBackend(self.store.table)
            try:
                with cancellation(backend.connection, deadline):
                    return backend.run(fresh.sql_for(engine))
            finally:
                backend.close()

    # -- lifecycle -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot: store version, pooled connections,
        breaker state."""
        with self._pool_lock:
            pool = self._pool
        return {
            "store_version": self.store.version,
            "pool_connections": pool.connection_count if pool else 0,
            "breaker": self.breaker.state,
        }

    def close(self) -> None:
        """Close every backend connection; later leases fail."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.retire()
