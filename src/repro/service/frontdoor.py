"""The asyncio multi-tenant front door over the serving stack.

:class:`FrontDoor` is the admission boundary a production deployment
puts in front of a :class:`~repro.service.ShardedService` (one shard or
many).  It layers three things on the service's resilience
primitives, in admission order:

1. **Per-tenant quotas** — every tenant (:class:`~repro.service.
   tenancy.TenantSpec`) owns a token bucket; an exhausted bucket
   answers a typed :class:`~repro.errors.QuotaExceeded` carrying a
   ``retry_after_s`` hint, without touching the backend.
2. **Weighted-fair scheduling** — admitted queries wait in per-tenant
   lanes drained in deficit-round-robin order
   (:class:`~repro.service.tenancy.WeightedFairQueue`), so a flooding
   tenant cannot starve the others; a lane at its backlog cap answers
   a typed :class:`~repro.errors.ServiceOverloaded`.
3. **Opportunistic batching with canonical coalescing** — the
   dispatcher waits for a free execution slot
   (``max_concurrent_batches``), then drains whatever the fair queue
   holds, up to :data:`BATCH_MAX`, into one batch: batches grow with
   the backlog and no timer holds a request back.  Each distinct
   query compiles through the service's canonical plan cache, and
   requests whose texts resolve to the *same cached plan* (identical
   canonical-cache keys — template respellings included) under the
   same engine and deadline budget form one execution whose
   :class:`~repro.Result` every waiter shares.  A batch runs through
   the underlying service on a worker thread.

A batch records through one :class:`~repro.service.core.MetricsBridge`
(the same lossless merge the worker pools use) into
:attr:`FrontDoor.metrics`: the compile phase and every coalesced
execution each record into a private registry that merges when the
step ends.  That is what makes the
**per-tenant fault ledger** possible: the injected / retried /
degraded / surfaced delta an execution leaves on its registry is
attributed to the tenant that triggered it, so
``injected == retried + degraded + surfaced`` can be asserted per
tenant, not just globally (``docs/serving.md``).

Metric families: ``service.frontdoor.*`` (admission, batching and
coalescing counters) and ``service.tenant.<name>.*``
(per-tenant admission and outcome counters).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engines import Engine
from repro.errors import (
    QuotaExceeded,
    ReproError,
    ServiceError,
    ServiceOverloaded,
)
from repro.obs import Histogram, latency_summary_ms
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import CompiledQuery
from repro.result import Result
from repro.service.core import MetricsBridge
from repro.service.scatter import ShardedService
from repro.service.tenancy import TenantSpec, TokenBucket, WeightedFairQueue

__all__ = ["FrontDoor", "TenantSpec"]

#: the fault-disposition keys of the per-tenant ledger; the invariant
#: ``injected == retried + degraded + surfaced`` is asserted over them
LEDGER_KEYS = ("injected", "retried", "degraded", "surfaced")

#: the most queued requests one batch drains; a batch takes whatever
#: is queued up to this when an execution slot frees
BATCH_MAX = 16


@dataclass
class _Request:
    """One admitted query waiting for its execution."""

    tenant: str
    query: str
    engine: Engine
    deadline_s: float | None
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop
    start_ns: int


@dataclass
class _Group:
    """Requests coalesced onto one cached plan — one execution."""

    compiled: CompiledQuery
    engine: Engine
    requests: list[_Request] = field(default_factory=list)


class _TenantState:
    """Runtime half of a :class:`TenantSpec`: bucket, counters, the
    fault ledger, and the per-tenant latency histogram."""

    def __init__(self, spec: TenantSpec, clock) -> None:
        self.spec = spec
        self.bucket = TokenBucket(spec.rate_qps, spec.burst, clock=clock)
        self.lock = threading.Lock()
        self.offered = 0
        self.admitted = 0
        self.rejected_quota = 0
        self.rejected_overload = 0
        self.ok = 0
        self.errors: dict[str, int] = {}
        self.latency = Histogram()
        self.faults = dict.fromkeys(LEDGER_KEYS, 0)

    def _balanced(self) -> bool:
        faults = self.faults
        return faults["injected"] == (
            faults["retried"] + faults["degraded"] + faults["surfaced"]
        )

    def ledger_balanced(self) -> bool:
        with self.lock:
            return self._balanced()

    def stats(self) -> dict[str, Any]:
        with self.lock:
            return {
                "weight": self.spec.weight,
                "rate_qps": self.spec.rate_qps,
                "burst": self.spec.burst,
                "offered": self.offered,
                "admitted": self.admitted,
                "rejected_quota": self.rejected_quota,
                "rejected_overload": self.rejected_overload,
                "ok": self.ok,
                "errors": dict(self.errors),
                "latency_ms": latency_summary_ms(self.latency),
                "faults": dict(self.faults),
                "ledger_balanced": self._balanced(),
            }


class FrontDoor:
    """Async multi-tenant admission layer over a serving stack.

    Parameters
    ----------
    service:
        The backend :class:`ShardedService`.  The front door does not
        own it; close it separately.
    tenants:
        The tenant contracts.  Submissions for unknown tenants raise
        ``ValueError`` (misconfiguration, not backpressure).
    max_concurrent_batches:
        Parallel batch executions (each runs on one worker thread over
        the service, which fans out internally) — the door's one
        concurrency bound.  A batch forms when a slot frees and takes
        whatever is queued, up to :data:`BATCH_MAX`.
    deadline_s:
        Default per-query deadline forwarded to the service.
    clock:
        Token-bucket clock (injectable for deterministic tests).
    """

    def __init__(
        self,
        service: ShardedService,
        tenants: Sequence[TenantSpec],
        *,
        max_concurrent_batches: int = 4,
        deadline_s: float | None = None,
        clock=time.monotonic,
    ):
        if not tenants:
            raise ValueError("at least one tenant is required")
        if max_concurrent_batches < 1:
            raise ValueError("max_concurrent_batches must be >= 1")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.service = service
        self.max_concurrent_batches = max_concurrent_batches
        self.deadline_s = deadline_s
        self.metrics = MetricsRegistry()
        self._merge_lock = threading.Lock()
        self._queue_lock = threading.Lock()
        self._wfq = WeightedFairQueue()
        self._tenants: dict[str, _TenantState] = {}
        for spec in tenants:
            self._tenants[spec.name] = _TenantState(spec, clock)
            self._wfq.register(
                spec.name, weight=spec.weight, max_backlog=spec.max_backlog
            )
        self._started = False
        self._closing = False
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._batch_sem: asyncio.Semaphore | None = None
        self._batches: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "FrontDoor":
        """Start the dispatcher on the running event loop."""
        if self._started:
            return self
        self._started = True
        self._closing = False
        self._wake = asyncio.Event()
        self._batch_sem = asyncio.Semaphore(self.max_concurrent_batches)
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-frontdoor-dispatch"
        )
        return self

    async def close(self) -> None:
        """Drain the backlog, finish in-flight batches, stop the
        dispatcher.  New submissions are rejected immediately."""
        if not self._started:
            return
        self._closing = True
        assert self._wake is not None
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._batches:
            await asyncio.gather(*self._batches, return_exceptions=True)
        self._started = False

    async def __aenter__(self) -> "FrontDoor":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- submission ----------------------------------------------------

    async def submit(
        self,
        tenant: str,
        query: str,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> Result:
        """Admit and execute one query for ``tenant``.

        Raises :class:`QuotaExceeded` when the tenant's token bucket
        is empty, :class:`ServiceOverloaded` when its fair-queue lane
        is at capacity, and whatever typed :class:`ServiceError` the
        execution surfaced otherwise.
        """
        if not self._started or self._wake is None:
            raise ServiceError("front door is not started")
        try:
            state = self._tenants[tenant]
        except KeyError:
            raise ValueError(f"unknown tenant {tenant!r}") from None
        engine = Engine.of(engine)
        with state.lock:
            state.offered += 1
        self._count(f"service.tenant.{tenant}.offered")
        if self._closing:
            raise ServiceError("front door is closing")
        if not state.bucket.try_acquire():
            with state.lock:
                state.rejected_quota += 1
            self._count("service.frontdoor.rejected.quota")
            self._count(f"service.tenant.{tenant}.rejected.quota")
            raise QuotaExceeded(
                tenant=tenant,
                retry_after_s=state.bucket.retry_after_s(),
            )
        loop = asyncio.get_running_loop()
        request = _Request(
            tenant=tenant,
            query=query,
            engine=engine,
            deadline_s=deadline_s if deadline_s is not None else self.deadline_s,
            future=loop.create_future(),
            loop=loop,
            start_ns=time.perf_counter_ns(),
        )
        with self._queue_lock:
            accepted = self._wfq.offer(tenant, request)
        if not accepted:
            with state.lock:
                state.rejected_overload += 1
            self._count("service.frontdoor.rejected.overload")
            self._count(f"service.tenant.{tenant}.rejected.overload")
            raise ServiceOverloaded(
                f"tenant {tenant!r} backlog full "
                f"({state.spec.max_backlog} queries waiting)"
            )
        with state.lock:
            state.admitted += 1
        self._count("service.frontdoor.admitted")
        self._count(f"service.tenant.{tenant}.admitted")
        self._wake.set()
        return await request.future

    # -- dispatch ------------------------------------------------------

    def _drain(self, limit: int) -> list[_Request]:
        batch: list[_Request] = []
        with self._queue_lock:
            while len(batch) < limit:
                taken = self._wfq.take()
                if taken is None:
                    break
                batch.append(taken[1])
        return batch

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None and self._batch_sem is not None
        while True:
            with self._queue_lock:
                backlog = len(self._wfq)
            if backlog == 0:
                if self._closing:
                    return
                self._wake.clear()
                # re-check under the new event state: a submit between
                # the len() and the clear() would otherwise be lost
                with self._queue_lock:
                    if len(self._wfq):
                        continue
                await self._wake.wait()
                continue
            # slot first, then drain: whatever queued while every slot
            # was busy joins this batch, so batches grow with the
            # backlog and nothing waits on a timer (only this loop
            # takes from the queue, so the drain is never empty)
            await self._batch_sem.acquire()
            batch = self._drain(BATCH_MAX)
            task = asyncio.create_task(self._run_batch(batch))
            self._batches.add(task)
            task.add_done_callback(self._batch_done)

    def _batch_done(self, task: asyncio.Task) -> None:
        self._batches.discard(task)
        assert self._batch_sem is not None
        self._batch_sem.release()

    async def _run_batch(self, batch: list[_Request]) -> None:
        try:
            await asyncio.to_thread(self._execute_batch, batch)
        except BaseException as error:  # noqa: BLE001 - fail the waiters
            failure = ServiceError(f"front door batch failed: {error}")
            for request in batch:
                if not request.future.done():
                    self._resolve(request, error=failure)

    # -- execution (worker threads) ------------------------------------

    def _execute_batch(self, batch: list[_Request]) -> None:
        bridge = MetricsBridge(self._merge_lock, into=self.metrics)
        with bridge.scope() as metrics:
            metrics.count("service.frontdoor.batches")
            metrics.count("service.frontdoor.batched", len(batch))
            groups = self._coalesce(batch, metrics)
        for group in groups:
            with bridge.scope() as local:
                self._execute_group(group, local)

    def _coalesce(
        self, batch: list[_Request], metrics: MetricsRegistry
    ) -> list[_Group]:
        """Compile every request through the canonical plan cache and
        group the ones that resolved to the same cached plan under the
        same engine and deadline budget: identical canonical-cache keys
        hand back the *same* compiled object, so object identity is
        exactly key identity.  The budget is part of the key so that no
        waiter fails on, or is answered past, another's deadline."""
        groups: dict[tuple[int, str, float | None], _Group] = {}
        order: list[tuple[int, str, float | None]] = []
        for request in batch:
            try:
                compiled = self.service.compile(request.query)
            except ReproError as error:
                self._resolve(request, error=error)
                continue
            key = (id(compiled), request.engine.value, request.deadline_s)
            group = groups.get(key)
            if group is None:
                groups[key] = group = _Group(
                    compiled=compiled, engine=request.engine
                )
                order.append(key)
            else:
                metrics.count("service.frontdoor.coalesced")
            group.requests.append(request)
        return [groups[key] for key in order]

    def _execute_group(self, group: _Group, local: MetricsRegistry) -> None:
        """One coalesced execution recording into its private registry
        ``local``; the fault ledger delta is attributed to the leading
        tenant."""
        leader = group.requests[0]
        result: Result | None = None
        error: BaseException | None = None
        try:
            result = self.service.execute(
                group.compiled,
                group.engine,
                deadline_s=leader.deadline_s,
            )
        except Exception as exc:
            # typed ServiceErrors and surfaced injected backend
            # faults alike belong to every coalesced waiter
            error = exc
        self._attribute(leader.tenant, local)
        local.count("service.frontdoor.executions")
        for request in group.requests:
            self._resolve(request, result=result, error=error)

    def _attribute(self, tenant: str, local: MetricsRegistry) -> None:
        """Read the execution's fault tallies off its private registry
        into the tenant's ledger — injection and handling both count on
        the executing thread, so the attribution is lossless."""
        counters = local.snapshot()["counters"]
        injected = sum(
            int(value)
            for name, value in counters.items()
            if name.startswith("faults.injected.")
        )
        retried = int(counters.get("service.faults.handled.retry", 0))
        degraded = int(counters.get("service.faults.handled.degrade", 0))
        surfaced = int(counters.get("service.faults.handled.surface", 0))
        if not (injected or retried or degraded or surfaced):
            return
        state = self._tenants[tenant]
        with state.lock:
            state.faults["injected"] += injected
            state.faults["retried"] += retried
            state.faults["degraded"] += degraded
            state.faults["surfaced"] += surfaced
        for name, value in (
            ("injected", injected),
            ("retried", retried),
            ("degraded", degraded),
            ("surfaced", surfaced),
        ):
            if value:
                local.count(f"service.tenant.{tenant}.faults.{name}", value)

    def _resolve(
        self,
        request: _Request,
        result: Result | None = None,
        error: BaseException | None = None,
    ) -> None:
        state = self._tenants[request.tenant]
        elapsed_ns = time.perf_counter_ns() - request.start_ns
        with state.lock:
            if error is None:
                state.ok += 1
                state.latency.observe(elapsed_ns)
            else:
                name = type(error).__name__
                state.errors[name] = state.errors.get(name, 0) + 1

        def deliver() -> None:
            if request.future.done():
                return
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(result)

        request.loop.call_soon_threadsafe(deliver)

    # -- introspection -------------------------------------------------

    def _count(self, name: str) -> None:
        with self._merge_lock:
            self.metrics.count(name)

    def fault_ledger(self) -> dict[str, dict[str, int]]:
        """Per-tenant injected/retried/degraded/surfaced tallies (the
        per-tenant half of the chaos accounting invariant)."""
        ledger = {}
        for name, state in self._tenants.items():
            with state.lock:
                ledger[name] = dict(state.faults)
        return ledger

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the admission boundary."""
        with self._queue_lock:
            queue = self._wfq.stats()
        with self._merge_lock:
            counters = dict(self.metrics.snapshot()["counters"])
        return {
            "tenants": {
                name: state.stats() for name, state in self._tenants.items()
            },
            "queue": queue,
            "inflight_batches": len(self._batches),
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith(("service.frontdoor.", "service.tenant."))
            },
        }
