"""Process-parallel shard execution with zero-copy shard attach.

:class:`ProcessShardExecutor` owns one long-lived worker *process* per
shard (``workers_per_shard`` of them for wider dispatch), breaking the
GIL wall the thread fan-out hits: every worker holds its own SQLite
connection and executes compiled SQL on its own interpreter, so shard
plans genuinely run concurrently on multi-core hosts.

Zero-copy attach
----------------
A worker never parses XML and never re-inserts rows.  The parent
serializes the shard's fully loaded, fully indexed database exactly
once per store version (:meth:`repro.store.Collection.shard_payload`,
built on ``sqlite3.Connection.serialize``) and ships the bytes down the
pipe; the worker adopts them via ``Connection.deserialize`` — SQLite
treats the byte image as the database file, indexes and ANALYZE
statistics included.

Plan shipping
-------------
Workers execute *pre-lowered* SQL, never the XQuery front-end.  Each
request is keyed by the shard-specialized plan's canonical cache key
(the same key the parent's :class:`CompiledQueryCache` uses); the SQL
text travels only the first time a worker sees a key, and the worker
caches it so repeated queries ship a tuple of a few dozen bytes.

Lossless marshalling
--------------------
Result rows, the worker's per-request :class:`MetricsRegistry`
recordings (:meth:`~repro.obs.metrics.MetricsRegistry.state`), flight
phase timings, and injected-fault tallies all come back over the pipe
and merge into the calling thread's registry / flight context / the
parent injector's ledger — bucket-for-bucket what a single in-process
recorder would have seen, so the PR 7 histograms and the chaos gate's
``injected == retried + degraded + surfaced`` invariant hold verbatim
across the process boundary.

Failure model
-------------
Typed errors are marshalled as (kind, class name, message, injected)
and rebuilt parent-side, so the *parent* owns every retry / degrade /
surface decision and the fault ledger stays in one place.  A worker
that dies mid-query (crash, kill -9) is detected on the pipe, restarted
from the cached payload, and the query is retried through the normal
transient-failure path — :class:`WorkerCrash` is transient but never
``injected``, so organic crashes stay out of the chaos ledger.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import sqlite3
import threading
import time
from dataclasses import replace
from typing import Any, Callable, NamedTuple

from repro import errors as _errors
from repro.errors import DeadlineExceeded, ServiceError, WorkerCrash
from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    InjectedOperationalError,
    active,
    install,
    is_injected,
    uninstall,
)
from repro.obs import get_metrics
from repro.obs.flight import current_context
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.service.resilience import (
    Deadline,
    cancellation,
    is_connection_death,
)

__all__ = ["ProcessShardExecutor", "ShippedPlan"]

#: seed spacing between derived per-worker fault plans — each worker
#: draws an independent, reproducible fault sequence
_WORKER_SEED_STRIDE = 7919


class ShippedPlan(NamedTuple):
    """One engine's executable rendering of a shard-specialized plan."""

    #: hashable plan identity — the shard variant's cache key + engine
    key: tuple
    #: the pre-lowered SQL text (shipped once per worker per key)
    sql_text: str
    #: index of the item column in the SELECT list
    item_index: int


# -- worker side -----------------------------------------------------------


def _worker_main(
    conn: multiprocessing.connection.Connection, cached_statements: int
) -> None:
    """The worker process loop: attach a shard image, cache shipped
    plans, execute on request.  One request in flight at a time (the
    parent serializes per-worker traffic), so plain locals suffice."""
    # a fork-started worker would inherit the parent's installed
    # injector; start clean either way — faults arrive by message
    uninstall()
    payload: bytes | None = None
    backend: Any = None
    plans: dict[tuple, tuple[str, int]] = {}
    injector: FaultInjector | None = None

    def drop_backend() -> None:
        nonlocal backend
        if backend is not None:
            try:
                backend.close()
            except Exception:
                pass
            backend = None

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "stop":
            break
        if op == "attach":
            payload = message[1]
            drop_backend()
            plans.clear()
            conn.send(("ok", None))
            continue
        if op == "faults":
            plan = message[1]
            uninstall()
            injector = None
            if plan is not None:
                injector = FaultInjector(plan)
                install(injector)
            conn.send(("ok", None))
            continue
        # op == "exec"
        _, key, sql_text, item_index, budget = message
        if sql_text is not None:
            plans[key] = (sql_text, item_index)
        local = MetricsRegistry()
        set_metrics(local)
        before = _fault_tally(injector)
        reply: tuple[str, dict[str, Any]]
        try:
            plan_entry = plans.get(key)
            if plan_entry is None:
                raise ServiceError(f"worker has no plan for key {key!r}")
            if backend is None:
                if payload is None:
                    raise ServiceError("worker has no shard payload attached")
                # zero-copy attach: adopt the serialized image, no
                # XML re-parse, no row inserts, no index rebuild
                from repro.sql.backend import SQLiteBackend

                backend = SQLiteBackend.from_serialized(
                    payload, cached_statements=cached_statements
                )
                local.count("service.procpool.attach")
            deadline = Deadline.after(budget) if budget is not None else None
            started = time.perf_counter_ns()
            with cancellation(backend.connection, deadline):
                items = backend.run_shipped(*plans[key])
            reply = (
                "ok",
                {
                    "items": items,
                    "sql_ns": time.perf_counter_ns() - started,
                },
            )
        except BaseException as error:  # marshalled, never silently lost
            if isinstance(error, sqlite3.Error) and is_connection_death(error):
                # this connection is gone (injected disconnect or a
                # genuine close); rebuild from the payload on retry
                drop_backend()
            reply = ("err", _marshal_error(error))
        finally:
            set_metrics(None)
        body = reply[1]
        body["metrics"] = local.state()
        body["faults"] = _fault_delta(before, _fault_tally(injector))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _fault_tally(
    injector: FaultInjector | None,
) -> tuple[dict[str, int], dict[str, int]]:
    if injector is None:
        return {}, {}
    return injector.counts.snapshot(), injector.counts.absorbed_snapshot()


def _fault_delta(
    before: tuple[dict[str, int], dict[str, int]],
    after: tuple[dict[str, int], dict[str, int]],
) -> tuple[dict[str, int], dict[str, int]] | None:
    by_kind = {
        kind: count - before[0].get(kind, 0)
        for kind, count in after[0].items()
        if count != before[0].get(kind, 0)
    }
    absorbed = {
        kind: count - before[1].get(kind, 0)
        for kind, count in after[1].items()
        if count != before[1].get(kind, 0)
    }
    if not by_kind and not absorbed:
        return None
    return by_kind, absorbed


def _marshal_error(error: BaseException) -> dict[str, Any]:
    """A typed error as plain builtins — enough for the parent to
    rebuild an instance the resilience stack classifies identically."""
    info: dict[str, Any] = {
        "name": type(error).__name__,
        "message": str(error),
        "injected": is_injected(error),
    }
    if isinstance(error, DeadlineExceeded):
        info["kind"] = "deadline"
        info["budget"] = error.budget
        info["elapsed"] = error.elapsed
    elif isinstance(error, sqlite3.Error):
        info["kind"] = "sqlite"
    elif isinstance(error, _errors.ReproError):
        info["kind"] = "repro"
    else:
        info["kind"] = "other"
    return info


def _rebuild_error(info: dict[str, Any]) -> BaseException:
    """The parent-side inverse of :func:`_marshal_error`."""
    kind = info["kind"]
    error: BaseException
    if kind == "deadline":
        # re-raising with the worker's budget/elapsed would re-append
        # the suffix _marshal_error already baked into the message
        error = DeadlineExceeded(info["message"])
        error.budget = info.get("budget")  # type: ignore[attr-defined]
        error.elapsed = info.get("elapsed")  # type: ignore[attr-defined]
    elif kind == "sqlite":
        if info["injected"]:
            error = InjectedOperationalError(info["message"])
        else:
            cls = getattr(sqlite3, info["name"], sqlite3.OperationalError)
            error = cls(info["message"])
    elif kind == "repro":
        cls = getattr(_errors, info["name"], ServiceError)
        try:
            error = cls(info["message"])
        except TypeError:  # subclass with a mandatory extra argument
            error = ServiceError(info["message"])
    else:
        error = ServiceError(
            f"shard worker failed: {info['name']}: {info['message']}"
        )
    if info["injected"]:
        error.injected = True  # type: ignore[attr-defined]
    return error


# -- parent side -----------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker process: the pipe, what has
    been shipped to it, and its lifetime counters.  All traffic to the
    process is serialized under :attr:`lock`."""

    def __init__(self, shard: int, index: int, uid: int):
        self.shard = shard
        self.index = index
        self.uid = uid
        self.name = f"s{shard}w{index}"
        self.lock = threading.Lock()
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: multiprocessing.connection.Connection | None = None
        self.attached_version: int | None = None
        self.shipped: set[tuple] = set()
        self.fault_plan: FaultPlan | None = None
        self.restarts = 0
        self.requests = 0
        self.merges = 0


class ProcessShardExecutor:
    """A pool of long-lived worker processes, ``workers_per_shard`` per
    shard, with per-shard round-robin dispatch.

    ``payload`` / ``version`` are supplied per call so the executor
    stays decoupled from the store: when the shard's store version
    moves, the next request re-attaches the new image in place (the
    worker process survives; only its database and plan cache turn
    over).
    """

    def __init__(
        self,
        shards: int,
        *,
        workers_per_shard: int = 1,
        cached_statements: int = 512,
        start_method: str = "spawn",
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if workers_per_shard < 1:
            raise ValueError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.cached_statements = cached_statements
        self.workers_per_shard = workers_per_shard
        self._workers: list[list[_Worker]] = []
        uid = 0
        for shard in range(shards):
            row = []
            for index in range(workers_per_shard):
                row.append(_Worker(shard, index, uid))
                uid += 1
            self._workers.append(row)
        self._rr = [0] * shards
        self._rr_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _start(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.cached_statements),
            name=f"repro-shard-{worker.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.attached_version = None
        worker.shipped = set()
        worker.fault_plan = None

    def _restart(self, worker: _Worker) -> None:
        self._reap(worker)
        worker.restarts += 1
        get_metrics().count("service.procpool.worker_restarts")
        self._start(worker)

    def _reap(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        process = worker.process
        worker.process = None
        if process is not None:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)

    def close(self) -> None:
        """Stop every worker process (idempotent)."""
        self._closed = True
        for row in self._workers:
            for worker in row:
                with worker.lock:
                    if worker.conn is not None:
                        try:
                            worker.conn.send(("stop",))
                        except (BrokenPipeError, OSError):
                            pass
                    self._reap(worker)

    def retire_shard(self, shard: int) -> int:
        """Stop the shard's worker processes (working-set eviction:
        their attached database images are the per-shard RAM cost).
        Returns how many live workers were retired.  The pool stays
        usable — the next request to the shard restarts a worker and
        re-attaches the current image on demand (:meth:`_sync`)."""
        if not 0 <= shard < len(self._workers):
            raise ValueError(
                f"shard {shard} out of range for {len(self._workers)} shards"
            )
        retired = 0
        for worker in self._workers[shard]:
            with worker.lock:
                if worker.process is None:
                    continue
                if worker.conn is not None:
                    try:
                        worker.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
                self._reap(worker)
                retired += 1
        if retired:
            get_metrics().count(
                "service.procpool.workers_retired", retired
            )
        return retired

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------

    def _pick(self, shard: int) -> _Worker:
        row = self._workers[shard]
        if len(row) == 1:
            return row[0]
        with self._rr_lock:
            index = self._rr[shard]
            self._rr[shard] = (index + 1) % len(row)
        return row[index]

    def _request(self, worker: _Worker, message: tuple) -> tuple:
        """One send/recv round-trip; a dead worker is restarted and the
        failure reported as a transient :class:`WorkerCrash`."""
        conn = worker.conn
        assert conn is not None
        try:
            conn.send(message)
            return conn.recv()
        except (EOFError, BrokenPipeError, OSError) as cause:
            self._restart(worker)
            raise WorkerCrash(
                f"shard worker {worker.name} died mid-request "
                f"({type(cause).__name__}); restarted"
            ) from cause

    def _sync(self, worker: _Worker, version: int, payload: Callable[[], bytes]) -> None:
        """Bring a (possibly fresh) worker up to date: process alive,
        current shard image attached, fault plan matching the parent's
        active injector."""
        if worker.process is None or not worker.process.is_alive():
            if worker.process is not None:
                self._restart(worker)
            else:
                self._start(worker)
        if worker.attached_version != version:
            reply = self._request(worker, ("attach", payload()))
            if reply[0] != "ok":  # pragma: no cover - protocol guard
                raise ServiceError(f"shard attach failed: {reply[1]}")
            worker.attached_version = version
            worker.shipped = set()
        plan = _shippable_plan()
        if plan != worker.fault_plan:
            derived = (
                None
                if plan is None
                else replace(
                    plan, seed=plan.seed + _WORKER_SEED_STRIDE * (worker.uid + 1)
                )
            )
            reply = self._request(worker, ("faults", derived))
            if reply[0] != "ok":  # pragma: no cover - protocol guard
                raise ServiceError(f"fault-plan shipping failed: {reply[1]}")
            worker.fault_plan = plan

    def execute(
        self,
        shard: int,
        plan: ShippedPlan,
        *,
        version: int,
        payload: Callable[[], bytes],
        budget_s: float | None = None,
    ) -> list[Any]:
        """Run one shipped plan on a worker of ``shard``; returns the
        shard-local item sequence.

        Raises the worker's failure rebuilt as its original type (so
        the caller's retry/degrade classification is unchanged), or
        :class:`WorkerCrash` when the process died mid-request.
        """
        if self._closed:
            raise RuntimeError("process shard executor is closed")
        worker = self._pick(shard)
        with worker.lock:
            self._sync(worker, version, payload)
            sql_text: str | None = plan.sql_text
            if plan.key in worker.shipped:
                sql_text = None  # the worker already caches this plan
            reply = self._request(
                worker, ("exec", plan.key, sql_text, plan.item_index, budget_s)
            )
            worker.shipped.add(plan.key)
            worker.requests += 1
            worker.merges += 1
        self._merge(worker, reply[1])
        if reply[0] == "err":
            raise _rebuild_error(reply[1])
        flight = current_context()
        if flight is not None:
            flight.add_phase("sql", reply[1]["sql_ns"])
        return reply[1]["items"]

    def _merge(self, worker: _Worker, body: dict[str, Any]) -> None:
        """Fold the worker's per-request recordings into the calling
        thread's registry and the parent injector's ledger — the
        lossless half of the process-boundary contract."""
        metrics = get_metrics()
        metrics.merge_state(body["metrics"])
        metrics.count("service.procpool.requests")
        metrics.count(f"service.procpool.merges.{worker.name}")
        delta = body.get("faults")
        if delta is not None:
            injector = active()
            if injector is not None:
                injector.counts.absorb(*delta)

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-ready per-worker lifetime counters (the ``repro obs``
        merge-count report reads these)."""
        workers = []
        for row in self._workers:
            for worker in row:
                # snapshot the process reference once: a concurrent
                # restart/reap may null worker.process between reads,
                # and the report must describe a worker mid-restart
                # (pid None, alive False) instead of crashing
                process = worker.process
                workers.append(
                    {
                        "worker": worker.name,
                        "shard": worker.shard,
                        "pid": (
                            process.pid if process is not None else None
                        ),
                        "alive": (
                            process is not None and process.is_alive()
                        ),
                        "requests": worker.requests,
                        "merges": worker.merges,
                        "restarts": worker.restarts,
                        "plans_shipped": len(worker.shipped),
                    }
                )
        return {
            "executor": "process",
            "workers_per_shard": self.workers_per_shard,
            "workers": workers,
        }


def _shippable_plan() -> FaultPlan | None:
    """The parent's active fault plan, when it can be shipped: scripted
    injectors replay an exact parent-side sequence and stay local."""
    injector = active()
    if injector is None or injector._script is not None:
        return None
    plan = injector.plan
    if all(getattr(plan, kind) == 0.0 for kind in ("busy", "stall", "disconnect", "retire")):
        return None
    return plan
