"""Query flight recorder: one structured record per served query.

The serving layer (:class:`repro.service.ShardedService`) records one
:class:`FlightRecord` per query at the serving boundary into a
bounded ring buffer — query-text hash, engine, cache outcome, scatter
decision, retries/degrades/breaker state, per-phase nanoseconds, row
counts, deadline budget consumed.  The recorder is always on: the ring
is a ``collections.deque`` with ``maxlen`` behind one short lock
acquisition per query, cheap enough for the hot path (the overhead
gate is ``obs.flight_overhead_pct`` of the ``warm_exec`` workload in
``benchmarks/e2e``, held under 3% by CI's ``e2e-bench`` job).

A tail-sampling **slow-query log** promotes any record over a
configurable latency threshold — and *every* degraded or surfaced
(errored) query — to a full capture that additionally holds the
query's trace spans and the backend's ``EXPLAIN QUERY PLAN`` output.

Plumbing: the service pushes a :class:`FlightContext` for the duration
of a query (:func:`flight_capture`); instrumentation points anywhere
below the boundary — the cache tiers in ``compile()``, the retry loop,
the scatter classifier — annotate :func:`current_context` without
needing a reference to the recorder.  Worker threads adopt the
submitting query's context via :func:`adopt_context` so shard-level
retries land on the top-level record.

Snapshots are versioned JSON (``repro.obs.flight/v1``, see
``docs/schemas.md``); :func:`validate_flight_snapshot` is the schema
gate used by ``tests/test_api/test_schemas.py``.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import Histogram
from repro.obs.tracer import Span

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightContext",
    "FlightRecord",
    "FlightRecorder",
    "SlowCapture",
    "adopt_context",
    "current_context",
    "flight_capture",
    "query_hash",
    "span_tree",
    "validate_flight_snapshot",
]

FLIGHT_SCHEMA = "repro.obs.flight/v1"

#: how much of the (normalized) query text each record keeps verbatim;
#: the full text is always identifiable via its hash
QUERY_HEAD_CHARS = 120

_CACHE_OUTCOMES = (
    "exact",
    "canonical",
    "view",
    "miss",
    "single-flight-wait",
    "precompiled",
)
_SCATTER_DECISIONS = ("scatter", "route", "serial")


@functools.lru_cache(maxsize=4096)
def query_hash(text: str) -> str:
    """Stable 64-bit hex digest of a query text (blake2b).

    Cached: a serving workload records the same few query texts over
    and over, and the hash is on the per-query hot path.
    """
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


# -- per-query context ----------------------------------------------------


class FlightContext:
    """Mutable scratchpad one query's instrumentation points write to.

    Cache outcome and scatter decision are *set-once* (the first
    writer, the serving boundary, wins); retries and degradations
    accumulate under a lock because shard workers annotate the same
    context concurrently.
    """

    __slots__ = (
        "_lock",
        "cache",
        "degraded",
        "fanout",
        "pattern_classified",
        "phases_ns",
        "retries",
        "rows",
        "scatter",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.cache: str | None = None
        self.scatter: str | None = None
        self.fanout = 1
        self.pattern_classified = False
        self.retries = 0
        self.degraded = False
        self.phases_ns: dict[str, int] = {}
        self.rows = 0

    def note_cache(self, outcome: str) -> None:
        """Record the compiled-plan cache outcome (first writer wins)."""
        with self._lock:
            if self.cache is None:
                self.cache = outcome

    def note_scatter(self, decision: str, fanout: int) -> None:
        """Record the scatter decision (first writer wins)."""
        with self._lock:
            if self.scatter is None:
                self.scatter = decision
                self.fanout = fanout

    def note_pattern_classified(self) -> None:
        self.pattern_classified = True

    def note_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def note_degraded(self) -> None:
        self.degraded = True

    def add_phase(self, name: str, ns: int) -> None:
        """Accumulate wall-clock nanoseconds into phase ``name``."""
        with self._lock:
            self.phases_ns[name] = self.phases_ns.get(name, 0) + int(ns)

    def note_rows(self, rows: int) -> None:
        self.rows = rows


_state = threading.local()


def current_context() -> FlightContext | None:
    """The active query's flight context on this thread, if any."""
    return getattr(_state, "context", None)


class flight_capture:
    """Scope one query's flight context on the calling thread.

    ``own=True`` pushes a fresh context (the serving boundary);
    ``own=False`` yields whatever context is already active — ``None``
    outside any boundary — so nested services annotate their caller's
    record instead of fabricating their own.

    Class-based rather than ``@contextmanager``: this wraps every
    served query, and a plain object is measurably cheaper than a
    generator frame on the hot path.
    """

    __slots__ = ("_own", "_previous")

    def __init__(self, own: bool = True) -> None:
        self._own = own

    def __enter__(self) -> FlightContext | None:
        if not self._own:
            return current_context()
        self._previous = current_context()
        context = FlightContext()
        _state.context = context
        return context

    def __exit__(self, *exc: object) -> None:
        if self._own:
            _state.context = self._previous


class adopt_context:
    """Install an existing context on this thread (worker-pool tasks
    adopt the submitting query's context so their annotations — shard
    retries, degradations — land on the top-level record)."""

    __slots__ = ("_context", "_previous")

    def __init__(self, context: FlightContext | None) -> None:
        self._context = context

    def __enter__(self) -> None:
        self._previous = current_context()
        _state.context = self._context

    def __exit__(self, *exc: object) -> None:
        _state.context = self._previous


# -- records --------------------------------------------------------------


@dataclass(slots=True)
class FlightRecord:
    """One query's flight data, as captured at the serving boundary.

    Not frozen: a frozen dataclass routes every ``__init__`` field
    through ``object.__setattr__``, and one record is built per served
    query — plain slotted assignment keeps construction off the
    overhead gate's radar.  Treat instances as immutable anyway; only
    the recorder (stamping ``seq``) writes to one after construction.
    """

    seq: int
    ts: float  # wall-clock unix seconds at completion
    query_hash: str
    query_head: str  # first QUERY_HEAD_CHARS of the normalized text
    engine: str
    status: str  # "ok" | "error:<ExceptionType>"
    cache: str  # exact | canonical | view | miss | single-flight-wait | precompiled
    scatter: str | None  # scatter | route | serial | None (unsharded)
    fanout: int
    pattern_classified: bool
    retries: int
    degraded: bool
    breaker: str  # breaker state at completion: closed | open | half-open
    phases_ns: dict[str, int]  # compile / rewrite / sql / merge / ...
    elapsed_ns: int
    rows: int
    shards: int
    deadline_budget_s: float | None
    deadline_consumed: float | None  # fraction of the budget spent

    @property
    def surfaced(self) -> bool:
        return self.status != "ok"

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "query_hash": self.query_hash,
            "query_head": self.query_head,
            "engine": self.engine,
            "status": self.status,
            "cache": self.cache,
            "scatter": self.scatter,
            "fanout": self.fanout,
            "pattern_classified": self.pattern_classified,
            "retries": self.retries,
            "degraded": self.degraded,
            "breaker": self.breaker,
            "phases_ns": dict(self.phases_ns),
            "elapsed_ns": self.elapsed_ns,
            "rows": self.rows,
            "shards": self.shards,
            "deadline_budget_s": self.deadline_budget_s,
            "deadline_consumed": self.deadline_consumed,
        }


@dataclass(frozen=True)
class SlowCapture:
    """A promoted record: the flight data plus full diagnostics."""

    record: FlightRecord
    reason: str  # "slow" | "degraded" | "surfaced"
    explain: list[str] = field(default_factory=list)
    trace: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "record": self.record.to_dict(),
            "reason": self.reason,
            "explain": list(self.explain),
            "trace": list(self.trace),
        }


def span_tree(span: Span, depth: int = 8) -> dict[str, Any]:
    """A JSON-ready tree of one trace span (for slow captures)."""
    node: dict[str, Any] = {
        "name": span.name,
        "duration_ns": span.duration_ns,
        "attributes": {
            key: value
            for key, value in span.attributes.items()
            if isinstance(value, (str, int, float, bool))
        },
    }
    if span.children and depth > 0:
        node["children"] = [
            span_tree(child, depth - 1) for child in span.children
        ]
    return node


# -- the recorder ---------------------------------------------------------


class FlightRecorder:
    """Bounded ring of :class:`FlightRecord` plus the slow-query log.

    ``capacity`` bounds the ring (oldest records fall off);
    ``slow_capacity`` bounds the slow log; ``slow_threshold_s`` is the
    promotion latency — degraded and surfaced queries are promoted
    regardless of latency.  ``latency`` accumulates every recorded
    query's end-to-end nanoseconds into a quantile histogram, so
    percentiles survive ring eviction.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        slow_capacity: int = 64,
        slow_threshold_s: float = 0.25,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if slow_capacity <= 0:
            raise ValueError("slow_capacity must be positive")
        if slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be non-negative")
        self.capacity = capacity
        self.slow_capacity = slow_capacity
        self.slow_threshold_s = slow_threshold_s
        self._lock = threading.Lock()
        self._records: deque[FlightRecord] = deque(maxlen=capacity)
        self._slow: deque[SlowCapture] = deque(maxlen=slow_capacity)
        self._seq = 0
        self._promoted = 0
        self._errors = 0
        self._degraded = 0
        self.latency = Histogram()
        # the epoch histogram is what stats() summarizes: it restarts
        # on mark_epoch() (store/collection invalidation) so percentiles
        # always describe the *current* corpus, while self.latency stays
        # cumulative for the full snapshot()
        self._epoch_latency = Histogram()
        self._epochs = 0

    # -- recording -----------------------------------------------------

    def record(
        self,
        *,
        query_text: str,
        engine: str,
        status: str,
        context: FlightContext,
        elapsed_ns: int,
        shards: int = 1,
        breaker: str = "closed",
        deadline_budget_s: float | None = None,
        deadline_consumed: float | None = None,
        detail: Callable[[], dict[str, Any]] | None = None,
    ) -> FlightRecord:
        """Append one record; promote it to the slow log if warranted.

        ``detail`` is only invoked on promotion — it supplies the
        expensive diagnostics (``explain`` rows, ``trace`` span trees)
        that ordinary records skip.
        """
        record = FlightRecord(
            seq=0,  # stamped under the lock
            ts=time.time(),
            query_hash=query_hash(query_text),
            query_head=query_text[:QUERY_HEAD_CHARS],
            engine=engine,
            status=status,
            cache=context.cache or "miss",
            scatter=context.scatter,
            fanout=context.fanout,
            pattern_classified=context.pattern_classified,
            retries=context.retries,
            degraded=context.degraded,
            breaker=breaker,
            phases_ns=dict(context.phases_ns),
            elapsed_ns=int(elapsed_ns),
            rows=context.rows,
            shards=shards,
            deadline_budget_s=deadline_budget_s,
            deadline_consumed=deadline_consumed,
        )
        reason = self._promotion_reason(record)
        capture: SlowCapture | None = None
        if reason is not None:
            explain: list[str] = []
            trace: list[dict[str, Any]] = []
            if detail is not None:
                try:
                    diagnostics = detail()
                except Exception as error:  # diagnostics must never fail
                    explain = [f"capture failed: {error}"]
                else:
                    explain = list(diagnostics.get("explain", ()))
                    trace = list(diagnostics.get("trace", ()))
            if not trace:
                # no live tracer: synthesize spans from the phase clock
                trace = [
                    {"name": f"phase:{name}", "duration_ns": ns}
                    for name, ns in sorted(record.phases_ns.items())
                ]
            capture = SlowCapture(
                record=record, reason=reason, explain=explain, trace=trace
            )
        with self._lock:
            self._seq += 1
            # the record is still private to this call, so stamping the
            # sequence in place is safe — and far cheaper on the hot
            # path than a dataclasses.replace() 19-field copy
            record.seq = self._seq
            self._records.append(record)
            self.latency.observe(elapsed_ns)
            self._epoch_latency.observe(elapsed_ns)
            if record.surfaced:
                self._errors += 1
            if record.degraded:
                self._degraded += 1
            if capture is not None:
                self._promoted += 1
                self._slow.append(capture)
        return record

    def _promotion_reason(self, record: FlightRecord) -> str | None:
        if record.surfaced:
            return "surfaced"
        if record.degraded:
            return "degraded"
        if record.elapsed_ns >= self.slow_threshold_s * 1e9:
            return "slow"
        return None

    # -- reading -------------------------------------------------------

    def records(self) -> list[FlightRecord]:
        """The retained ring, oldest first."""
        with self._lock:
            return list(self._records)

    def slow(self) -> list[SlowCapture]:
        """The slow-query log, oldest first."""
        with self._lock:
            return list(self._slow)

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {
                "recorded": self._seq,
                "retained": len(self._records),
                "promoted": self._promoted,
                "slow_retained": len(self._slow),
                "errors": self._errors,
                "degraded": self._degraded,
            }

    def mark_epoch(self) -> None:
        """Start a new latency epoch.  The owning service calls this
        when the corpus changes (document load / collection graft
        invalidation): cumulative counts and the retained ring survive,
        but the percentile population behind :meth:`stats` restarts, so
        ``Session.stats()["flight"]`` never reports percentiles from a
        corpus that no longer exists."""
        with self._lock:
            self._epochs += 1
            self._epoch_latency = Histogram()

    def stats(self) -> dict[str, Any]:
        """The small summary ``Session.stats()`` embeds.  The latency
        percentiles are recomputed live from the current corpus epoch
        (:meth:`mark_epoch`); counts stay cumulative."""
        with self._lock:
            latency = self._epoch_latency.summary()
            return {
                "recorded": self._seq,
                "promoted": self._promoted,
                "errors": self._errors,
                "degraded": self._degraded,
                "epochs": self._epochs,
                "latency_ns": latency,
            }

    def snapshot(self) -> dict[str, Any]:
        """The full ``repro.obs.flight/v1`` JSON document."""
        with self._lock:
            return {
                "schema": FLIGHT_SCHEMA,
                "config": {
                    "capacity": self.capacity,
                    "slow_capacity": self.slow_capacity,
                    "slow_threshold_s": self.slow_threshold_s,
                },
                "counts": {
                    "recorded": self._seq,
                    "retained": len(self._records),
                    "promoted": self._promoted,
                    "slow_retained": len(self._slow),
                    "errors": self._errors,
                    "degraded": self._degraded,
                },
                "latency_ns": self.latency.summary(),
                "records": [record.to_dict() for record in self._records],
                "slow": [capture.to_dict() for capture in self._slow],
            }

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._slow.clear()
            self._seq = 0
            self._promoted = 0
            self._errors = 0
            self._degraded = 0
            self.latency = Histogram()
            self._epoch_latency = Histogram()
            self._epochs = 0


# -- schema validation ----------------------------------------------------


def validate_flight_snapshot(snapshot: Any) -> list[str]:
    """Structural problems in a ``repro.obs.flight/v1`` document
    (empty list = valid) — the same problems-list contract as
    :func:`repro.obs.validate_chrome_trace`."""
    problems: list[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not an object"]
    if snapshot.get("schema") != FLIGHT_SCHEMA:
        problems.append(
            f"schema stamp is {snapshot.get('schema')!r}, "
            f"expected {FLIGHT_SCHEMA!r}"
        )
    config = snapshot.get("config")
    if not isinstance(config, dict):
        problems.append("config missing or not an object")
    else:
        for key in ("capacity", "slow_capacity", "slow_threshold_s"):
            if not isinstance(config.get(key), (int, float)):
                problems.append(f"config.{key} missing or not numeric")
    counts = snapshot.get("counts")
    if not isinstance(counts, dict):
        problems.append("counts missing or not an object")
    else:
        for key in ("recorded", "retained", "promoted", "errors", "degraded"):
            value = counts.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"counts.{key} missing or negative")
    latency = snapshot.get("latency_ns")
    if not isinstance(latency, dict):
        problems.append("latency_ns missing or not an object")
    else:
        for key in ("count", "mean", "p50", "p95", "p99", "max"):
            if not isinstance(latency.get(key), (int, float)):
                problems.append(f"latency_ns.{key} missing or not numeric")
    records = snapshot.get("records")
    if not isinstance(records, list):
        problems.append("records missing or not a list")
        records = []
    slow = snapshot.get("slow")
    if not isinstance(slow, list):
        problems.append("slow missing or not a list")
        slow = []
    for where, record in [("records", r) for r in records] + [
        ("slow", c.get("record") if isinstance(c, dict) else None)
        for c in slow
    ]:
        problems.extend(_validate_record(where, record))
    for index, capture in enumerate(slow):
        if not isinstance(capture, dict):
            continue
        if capture.get("reason") not in ("slow", "degraded", "surfaced"):
            problems.append(f"slow[{index}].reason invalid")
        for key in ("explain", "trace"):
            if not isinstance(capture.get(key), list):
                problems.append(f"slow[{index}].{key} missing or not a list")
    return problems


def _validate_record(where: str, record: Any) -> list[str]:
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"{where}: record is not an object"]
    label = f"{where}[seq={record.get('seq')}]"
    for key, kinds in (
        ("seq", int),
        ("ts", (int, float)),
        ("query_hash", str),
        ("query_head", str),
        ("engine", str),
        ("status", str),
        ("fanout", int),
        ("pattern_classified", bool),
        ("retries", int),
        ("degraded", bool),
        ("breaker", str),
        ("elapsed_ns", int),
        ("rows", int),
        ("shards", int),
    ):
        if not isinstance(record.get(key), kinds):
            problems.append(f"{label}.{key} missing or mistyped")
    if record.get("cache") not in _CACHE_OUTCOMES:
        problems.append(f"{label}.cache invalid: {record.get('cache')!r}")
    scatter = record.get("scatter")
    if scatter is not None and scatter not in _SCATTER_DECISIONS:
        problems.append(f"{label}.scatter invalid: {scatter!r}")
    phases = record.get("phases_ns")
    if not isinstance(phases, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in phases.items()
    ):
        problems.append(f"{label}.phases_ns missing or mistyped")
    for key in ("deadline_budget_s", "deadline_consumed"):
        value = record.get(key)
        if value is not None and not isinstance(value, (int, float)):
            problems.append(f"{label}.{key} mistyped")
    return problems
