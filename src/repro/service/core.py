"""The serving core of :class:`~repro.service.ShardedService`.

Everything around the execution of a compiled plan is defined here,
once: the :class:`CacheLadder`, the :func:`resilient_call` loop with
its :class:`FaultLedger`, the :class:`ServingBoundary` and the
:class:`MetricsBridge`.  Running a plan on a store's pooled
connections is the store executor's concern.  ``docs/serving.md``
("The serving core") says which decision lives where.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.analysis.containment import (
    TreePattern,
    canonicalize,
    extract_pattern,
    pattern_key,
)
from repro.engines import Engine
from repro.errors import (
    BackendUnavailable,
    CircuitOpenError,
    DeadlineExceeded,
    PoolRetiredError,
    ServiceError,
)
from repro.faults.injector import is_injected
from repro.infoset.encoding import DocumentStore
from repro.obs import MetricsRegistry, get_metrics, get_tracer, set_metrics
from repro.obs.flight import (
    FlightContext,
    FlightRecorder,
    adopt_context,
    current_context,
    flight_capture,
    span_tree,
)
from repro.obs.tracer import Span
from repro.pipeline import CompiledQuery, XQueryProcessor
from repro.result import Result
from repro.service.cache import CacheKey, CacheStats, CompiledQueryCache, TierStats
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    deadline_scope,
    is_transient,
)
from repro.service.views import ResidualFilter, ViewManager
from repro.store import Collection
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_xquery
from repro.xquery.text import normalize_query_text

__all__ = [
    "CacheLadder",
    "FaultLedger",
    "MetricsBridge",
    "ServingBoundary",
    "canonical_pattern_of",
    "resilient_call",
]

T = TypeVar("T")

#: reserved prefix marking canonical-pattern alias keys in the cache —
#: contains NUL, which no parseable query text can
_CANONICAL_NS = "\x00canonical\x00"


def canonical_pattern_of(
    query: str,
    default_doc: str | None,
    collections,
) -> TreePattern | None:
    """The canonical tree pattern of a query text, or ``None``.

    Parses and normalizes ``query`` and canonicalizes its extracted
    pattern.  ``None`` for queries outside the pattern fragment (or
    that fail to parse: the compile path will surface the real error).
    One parse serves both the canonical-alias cache key and the view
    tier's containment lookup.
    """
    try:
        core = normalize(
            parse_xquery(query),
            default_doc=default_doc,
            collections=collections,
        )
        pattern = extract_pattern(core)
    except ServiceError:  # pragma: no cover - not raised by the front end
        raise
    except Exception:
        return None
    if pattern is None:
        return None
    return canonicalize(pattern)


# -- the cache ladder -------------------------------------------------------


class CacheLadder:
    """The cache-tier ladder over one compiler (``docs/caching.md``).

    Cheapest first: (1) exact match on the lexically normalized text;
    (2) the canonical tree-pattern key, under which provably
    equivalent spellings share one compiled plan — a hit back-fills
    the exact key; (3) the **view** tier: rows of a materialized view
    whose pattern *strictly contains* the query's at the current
    version, re-filtered — a soundness decision, stated only here;
    (4) a single-flight cold compile, cached under both keys.

    Parameters
    ----------
    compiler:
        The front end; its ``default_doc`` / ``serialize_step`` /
        ``disabled_rules`` / ``collections`` are read per lookup.
    source:
        Whatever owns the content: its ``version`` (a store's or a
        collection's) is what plans and views are valid for; a load
        bumps it, so stale keys stop matching.
    residual_filter:
        The view tier's membership oracle over the owner's rank space.
    collection:
        The extra key field: the shard layout plans were compiled for.
    views, view_budget_bytes, view_admit_after:
        The view tier; forced off under ``serialize_step`` (items are
        no longer pre ranks).
    """

    def __init__(
        self,
        compiler: XQueryProcessor,
        source: DocumentStore | Collection,
        residual_filter: ResidualFilter,
        *,
        capacity: int,
        collection: str,
        views: bool = True,
        view_budget_bytes: int = 4 << 20,
        view_admit_after: int = 3,
    ):
        self.compiler = compiler
        self._source = source
        self._collection = collection
        self.cache = CompiledQueryCache(capacity)
        self.views: ViewManager | None = None
        if views and not compiler.serialize_step:
            self.views = ViewManager(
                residual_filter,
                budget_bytes=view_budget_bytes,
                admit_after=view_admit_after,
            )
        # the front end shares mutable rewrite-engine state (the
        # fresh-name counter), so cold compiles are single-flight
        self.lock = threading.Lock()

    def key(self, text: str) -> CacheKey:
        """Everything the artifact compiled from ``text`` depends on."""
        compiler = self.compiler
        return CacheKey(
            query=text,
            default_doc=compiler.default_doc,
            serialize_step=compiler.serialize_step,
            disabled_rules=compiler.disabled_rules,
            store_version=self._source.version,
            collection=self._collection,
        )

    def compile(self, query: str) -> CompiledQuery:
        """The compiled artifact for ``query`` — from cache when
        possible, compiled (and cached) otherwise; never a view."""
        compiled, _ = self.resolve(query, allow_view=False)
        assert compiled is not None  # allow_view=False never view-answers
        return compiled

    def resolve(
        self, query: str, allow_view: bool = True
    ) -> tuple[CompiledQuery | None, list[int] | None]:
        """Resolve a query text through the ladder.

        Returns ``(compiled, None)`` when the query must execute, or
        ``(None, rows)`` when a view answered it outright (in the
        owner's rank space: no compilation, no execution).
        """
        text = normalize_query_text(query)
        key = self.key(text)
        flight = current_context()
        compiled = self.cache.get(key)
        if compiled is not None:
            if flight is not None:
                flight.note_cache("exact")
            return compiled, None
        with self.lock:
            # single-flight: a racing thread may have compiled the same
            # key while this one waited for the lock
            compiled = self.cache.peek(key)
            if compiled is not None:
                if flight is not None:
                    flight.note_cache("single-flight-wait")
                return compiled, None
            pattern = canonical_pattern_of(
                text, self.compiler.default_doc, self.compiler.collections
            )
            canonical = (
                key._replace(query=_CANONICAL_NS + pattern_key(pattern))
                if pattern is not None
                else None
            )
            if canonical is not None:
                compiled = self.cache.get_canonical(canonical)
                if compiled is not None:
                    # back-fill the exact key so this spelling hits
                    # tier 1 from now on
                    self.cache.put(key, compiled)
                    if flight is not None:
                        flight.note_cache("canonical")
                    return compiled, None
            if allow_view and self.views is not None and pattern is not None:
                rows = self.views.answer(pattern, key.store_version)
                if rows is not None:
                    if flight is not None:
                        flight.note_cache("view")
                    return None, rows
            rewrite_start = time.perf_counter_ns()
            compiled = self.compiler.compile(text)
            # materialize the lazy SQL artifacts now: cached entries
            # must be immutable so any thread can execute them
            _ = (compiled.stacked_sql, compiled.joingraph_sql)
            if flight is not None:
                flight.note_cache("miss")
                flight.add_phase(
                    "rewrite", time.perf_counter_ns() - rewrite_start
                )
            self.cache.put(key, compiled)
            if canonical is not None:
                self.cache.put(canonical, compiled)
        return compiled, None

    def observe(self, compiled: CompiledQuery, items: Sequence[Any]) -> None:
        """View-admission bookkeeping after a normal execution:
        fragment queries heat their pattern; hot ones materialize."""
        if self.views is not None:
            self.views.observe(
                compiled.source, compiled.core, self._source.version, items
            )

    def invalidate(self) -> None:
        """Drop every plan and view not valid at the current version
        (the owner's ``load`` hook — the never-stale contract)."""
        version = self._source.version
        self.cache.invalidate(store_version=version)
        if self.views is not None:
            self.views.invalidate(store_version=version)

    def stats(self) -> CacheStats:
        """The typed, tiered cache statistics (exact / canonical /
        view) — ``stats()["cache"]`` serves its ``to_dict()`` form."""
        base = self.cache.stats()
        view = (
            self.views.tier_stats() if self.views is not None else TierStats()
        )
        return CacheStats(
            capacity=base["capacity"],
            size=base["size"],
            exact=TierStats(
                hits=base["hits"],
                misses=base["misses"],
                evictions=base["evictions"],
            ),
            canonical=TierStats(
                hits=base["canonical_hits"],
                misses=max(0, base["misses"] - base["canonical_hits"]),
            ),
            view=view,
        )


# -- the resilient call -----------------------------------------------------


class FaultLedger:
    """How *injected* faults were handled: each one is retried,
    degraded or surfaced exactly once, so a chaos run can assert
    ``injected == retried + degraded + surfaced``.  Organic failures
    are recovered identically but stay out of the ledger."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {"retry": 0, "degrade": 0, "surface": 0}

    def note(self, error: BaseException, disposition: str) -> None:
        if not is_injected(error):
            return
        with self._lock:
            self._counts[disposition] += 1
        get_metrics().count(f"service.faults.handled.{disposition}")

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


def resilient_call(
    call: Callable[[], T],
    *,
    retry: RetryPolicy,
    deadline: Deadline | None,
    ledger: FaultLedger,
    breaker: CircuitBreaker | None = None,
    last_resort: Callable[[], T] | None = None,
) -> T:
    """Run one attempt callable, ``call``, under the resilience stack.

    A :class:`DeadlineExceeded` surfaces (no retry or last resort could
    answer in time).  Transient failures (:func:`is_transient`) are
    retried with backoff while the policy and the deadline allow;
    anything else is a real bug and propagates.  On exhaustion
    ``last_resort`` answers instead — it is also taken when
    ``breaker`` refuses the call; with none,
    :class:`BackendUnavailable` is raised.
    """
    metrics = get_metrics()
    attempt = 0
    try:
        while True:
            if breaker is not None and not breaker.allow():
                if last_resort is None:
                    raise CircuitOpenError(
                        "backend circuit breaker is open and degradation "
                        "is disabled"
                    )
                metrics.count("service.degrade.breaker_fastpath")
                return last_resort()
            try:
                result = call()
            except DeadlineExceeded as error:
                metrics.count("service.deadline.exceeded")
                ledger.note(error, "surface")
                raise
            except (sqlite3.Error, PoolRetiredError) as error:
                if not is_transient(error):
                    raise
                if breaker is not None:
                    breaker.record_failure()
                if not retry.allows(attempt, deadline):
                    failure = error
                    break
                ledger.note(error, "retry")
                metrics.count("service.retry.attempts")
                flight = current_context()
                if flight is not None:
                    flight.note_retry()
                with get_tracer().span(
                    "service.retry", attempt=attempt, error=str(error)
                ):
                    metrics.observe(
                        "service.retry.backoff_s", retry.pause(attempt, deadline)
                    )
                attempt += 1
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
        # retries are spent: take the last resort, or surface
        metrics.count("service.retry.exhausted")
        if last_resort is None:
            ledger.note(failure, "surface")
            raise BackendUnavailable(
                f"backend failure persisted through {retry.max_retries} "
                f"retries: {failure}"
            ) from failure
        try:
            result = last_resort()
        except DeadlineExceeded:
            metrics.count("service.deadline.exceeded")
            ledger.note(failure, "surface")
            raise
        except Exception as fallback_error:
            ledger.note(failure, "surface")
            raise BackendUnavailable(
                "backend kept failing and the degraded path failed too"
            ) from fallback_error
        metrics.count("service.degrade.fallbacks")
        ledger.note(failure, "degrade")
        return result
    finally:
        # a half-open probe admitted by allow() that exited without
        # reporting a verdict (deadline miss, non-transient error) must
        # free the probe slot or the breaker wedges; no-op otherwise
        if breaker is not None:
            breaker.release_probe()


# -- the serving boundary ---------------------------------------------------


class ServingBoundary:
    """One served query, from budget to flight record.

    The serving class supplies how a compiled plan executes (``run``,
    per call) and four facts about itself: its ``shards``, its
    ``serializer``, an ``explain(compiled, engine)`` callback for slow
    captures and a ``breaker_state()`` callback.  A boundary with a
    recorder owns a fresh flight context and writes exactly one record
    per query; one without (``flight=False``) annotates the caller's
    context, if any.
    """

    def __init__(
        self,
        ladder: CacheLadder,
        *,
        flight: bool,
        flight_recorder: FlightRecorder | None,
        slow_threshold_s: float,
        shards: int,
        serializer: Callable[[Sequence[Any]], str],
        explain: Callable[[CompiledQuery, Engine], list[str]],
        breaker_state: Callable[[], str],
    ):
        self.ladder = ladder
        self.recorder = flight_recorder
        if flight_recorder is None and flight:
            self.recorder = FlightRecorder(slow_threshold_s=slow_threshold_s)
        self.shards = shards
        self._serializer = serializer
        self._explain = explain
        self._breaker_state = breaker_state

    def serve(
        self,
        query: str | CompiledQuery,
        engine: Engine | str,
        budget: float | None,
        run: Callable[
            [CompiledQuery, Engine, Deadline | None, FlightContext | None],
            tuple[list[Any], int, dict[str, int]],
        ],
    ) -> Result:
        """Answer ``query`` within ``budget`` seconds (``None`` = no
        deadline; non-positive raises ``ValueError``); ``run`` executes
        a compiled plan and returns the items, the fan-out width and
        extra ``Result.timings``.  Raises a typed :class:`ServiceError`
        subclass on deadline or backend unavailability — never a
        partial, stale or late result."""
        engine = Engine.of(engine)
        start = time.perf_counter_ns()
        # `is not None`, not truthiness: a caller passing 0 gets the
        # ValueError from Deadline.after, not a silently unbounded query
        deadline = Deadline.after(budget) if budget is not None else None
        metrics = get_metrics()
        recorder = self.recorder
        compiled = query if isinstance(query, CompiledQuery) else None
        qspan = get_tracer().span(
            "service.query", engine=engine.value, shards=self.shards
        )
        with flight_capture(own=recorder is not None) as flight:

            def record(error: ServiceError | None) -> None:
                """Append this query's flight record."""
                if recorder is None or flight is None:
                    return
                trace = [span_tree(qspan)] if isinstance(qspan, Span) else []

                def detail() -> dict[str, Any]:
                    if compiled is None:
                        return {"trace": trace}
                    return {
                        "trace": trace,
                        "explain": self._explain(compiled, engine),
                    }

                recorder.record(
                    query_text=(
                        compiled.source if compiled is not None else str(query)
                    ),
                    engine=engine.value,
                    status=(
                        "ok" if error is None else f"error:{type(error).__name__}"
                    ),
                    context=flight,
                    elapsed_ns=time.perf_counter_ns() - start,
                    shards=self.shards,
                    breaker=self._breaker_state(),
                    deadline_budget_s=budget,
                    deadline_consumed=(
                        min(1.0, deadline.elapsed() / deadline.budget)
                        if deadline is not None
                        else None
                    ),
                    detail=detail,
                )

            try:
                with qspan, deadline_scope(deadline):
                    rows: list[int] | None = None
                    if isinstance(query, str):
                        resolve_start = time.perf_counter_ns()
                        compiled, rows = self.ladder.resolve(query)
                        if flight is not None:
                            flight.add_phase(
                                "compile", time.perf_counter_ns() - resolve_start
                            )
                    elif flight is not None:
                        flight.note_cache("precompiled")
                    if deadline is not None:
                        deadline.check()
                    width = 1
                    timings: dict[str, int] = {}
                    if rows is not None:
                        # answered from a materialized view: the
                        # residual filter already ran inside the
                        # ladder, so there is nothing to execute
                        items: list[Any] = rows
                    else:
                        assert compiled is not None
                        items, width, timings = run(
                            compiled, engine, deadline, flight
                        )
                    if flight is not None:
                        flight.note_rows(len(items))
                    if deadline is not None:
                        # interpreters and the view filter cannot be
                        # cancelled mid-run; a late answer is still
                        # refused so the deadline contract holds on
                        # every path
                        deadline.check()
            except ServiceError as error:
                metrics.count("service.queries.failed")
                metrics.count(f"service.errors.{type(error).__name__}")
                record(error)
                raise
            if compiled is not None and isinstance(query, str):
                self.ladder.observe(compiled, items)
            elapsed = time.perf_counter_ns() - start
            metrics.count("service.queries")
            metrics.count(f"service.queries.{engine.value}")
            metrics.observe("service.query_ns", elapsed)
            record(None)
            return Result(
                items,
                engine=engine,
                timings={"execute_ns": elapsed, **timings},
                shards=width,
                serializer=self._serializer,
            )


# -- the metrics bridge -----------------------------------------------------


class MetricsBridge:
    """Carry the constructing thread's observability state to wherever
    the work runs.

    Inside :meth:`scope`, recordings go to a private registry that is
    merged into ``into`` (default: the constructing thread's registry)
    on exit, under ``lock`` when bridges share it — counters stay
    exact under contention and a caller-side ``metrics_scope`` sees
    everything its submissions caused.  The constructing thread's
    flight context is adopted too, so a shard's retries and
    degradations land on the top-level record.
    """

    def __init__(
        self,
        lock: threading.Lock | None = None,
        into: MetricsRegistry | None = None,
    ) -> None:
        self._into = into if into is not None else get_metrics()
        self._lock = lock if lock is not None else threading.Lock()
        self._context = current_context()

    @contextmanager
    def scope(self) -> Iterator[MetricsRegistry]:
        """Yields the private registry (readable before the merge)."""
        local = MetricsRegistry()
        previous = get_metrics()
        set_metrics(local)
        try:
            with adopt_context(self._context):
                yield local
        finally:
            set_metrics(previous)
            with self._lock:
                self._into.merge(local)

    def run(self, fn: Callable[..., T], *args: Any) -> T:
        """``fn(*args)`` inside the bridge (the worker-pool task)."""
        with self.scope():
            return fn(*args)
