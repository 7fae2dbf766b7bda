"""Front-door behavior: typed backpressure, canonical coalescing,
batching, and per-tenant accounting."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import (
    DeadlineExceeded,
    QuotaExceeded,
    ServiceError,
    ServiceOverloaded,
)
from repro.faults import FaultPlan, injection
from repro.service import FrontDoor, ShardedService, TenantSpec
from repro.store import Collection

DOCS = [
    ("<site><a>1</a><b>x</b></site>", "doc0.xml"),
    ("<site><a>2</a><b>y</b></site>", "doc1.xml"),
    ("<site><a>3</a><b>z</b></site>", "doc2.xml"),
    ("<site><a>4</a><b>w</b></site>", "doc3.xml"),
]


def make_service(**kwargs) -> ShardedService:
    service = ShardedService(Collection(2), **kwargs)
    for index, (text, uri) in enumerate(DOCS):
        service.load(text, uri, shard=index % 2)
    return service


def generous(name: str, **kwargs) -> TenantSpec:
    defaults = dict(rate_qps=10_000.0, burst=1_000.0)
    defaults.update(kwargs)
    return TenantSpec(name, **defaults)


def test_submit_requires_known_tenant_and_started_door():
    service = make_service()
    try:
        door = FrontDoor(service, [generous("alpha")])

        async def check():
            with pytest.raises(ServiceError, match="not started"):
                await door.submit("alpha", "collection()//a")
            async with door:
                with pytest.raises(ValueError, match="unknown tenant"):
                    await door.submit("ghost", "collection()//a")

        asyncio.run(check())
    finally:
        service.close()


def test_quota_exhaustion_is_typed_and_carries_retry_hint():
    service = make_service()
    try:

        async def scenario():
            specs = [
                generous("alpha"),
                TenantSpec("tiny", rate_qps=0.01, burst=2.0),
            ]
            async with FrontDoor(service, specs) as door:
                await door.submit("tiny", "collection()//a")
                await door.submit("tiny", "collection()//a")
                with pytest.raises(QuotaExceeded) as info:
                    await door.submit("tiny", "collection()//a")
                assert info.value.tenant == "tiny"
                assert info.value.retry_after_s > 0
                # the untouched tenant is unaffected
                result = await door.submit("alpha", "collection()//a")
                assert len(result) == 4
                stats = door.stats()
            tiny = stats["tenants"]["tiny"]
            assert tiny["rejected_quota"] == 1
            assert tiny["offered"] == 3 and tiny["admitted"] == 2
            assert (
                stats["counters"]["service.tenant.tiny.rejected.quota"] == 1
            )

        asyncio.run(scenario())
    finally:
        service.close()


def gate_first_execution(service: ShardedService):
    """Make the service's first execution block until released; returns
    ``(entered, release)`` events.  With one batch slot, everything
    submitted while the gated execution holds the slot stays queued and
    forms the next batch."""
    entered = threading.Event()
    release = threading.Event()
    original_execute = service.execute

    def gated_execute(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            assert release.wait(10), "test gate never released"
        return original_execute(*args, **kwargs)

    service.execute = gated_execute  # type: ignore[method-assign]
    return entered, release


async def wait_queued(door: FrontDoor, count: int) -> None:
    for _ in range(400):
        if len(door._wfq) == count:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"{len(door._wfq)} queued, expected {count}")


def test_backlog_overflow_surfaces_service_overloaded():
    service = make_service()
    entered, release = gate_first_execution(service)
    try:

        async def scenario():
            specs = [generous("alpha", max_backlog=2)]
            async with FrontDoor(
                service, specs, max_concurrent_batches=1
            ) as door:
                # one request executes behind the gate, holding the
                # only slot; the next two wait in the lane at its cap
                tasks = [
                    asyncio.create_task(
                        door.submit("alpha", "collection()//a")
                    )
                ]
                await asyncio.to_thread(entered.wait, 10)
                tasks += [
                    asyncio.create_task(
                        door.submit("alpha", "collection()//a")
                    )
                    for _ in range(2)
                ]
                await wait_queued(door, 2)
                with pytest.raises(ServiceOverloaded, match="backlog full"):
                    await door.submit("alpha", "collection()//a")
                release.set()
                results = await asyncio.gather(*tasks)
                assert all(len(r) == 4 for r in results)
                stats = door.stats()
            assert stats["tenants"]["alpha"]["rejected_overload"] == 1
            assert stats["tenants"]["alpha"]["ok"] == 3

        asyncio.run(scenario())
    finally:
        release.set()
        service.close()


def test_identical_canonical_keys_coalesce_into_one_execution():
    service = make_service()
    entered, release = gate_first_execution(service)
    try:

        async def scenario():
            specs = [generous("alpha"), generous("beta")]
            async with FrontDoor(
                service, specs, max_concurrent_batches=1
            ) as door:
                # the gated execution holds the only slot, so the four
                # submissions below queue up and drain as one batch
                gate = asyncio.create_task(
                    door.submit("alpha", "collection()//site")
                )
                await asyncio.to_thread(entered.wait, 10)
                same = "collection()//a"
                respelled = "  collection()//a  "  # same canonical key
                other = "collection()//b"
                tasks = [
                    asyncio.create_task(door.submit("alpha", same)),
                    asyncio.create_task(door.submit("beta", same)),
                    asyncio.create_task(door.submit("alpha", respelled)),
                    asyncio.create_task(door.submit("beta", other)),
                ]
                await wait_queued(door, 4)
                release.set()
                results = await asyncio.gather(*tasks)
                await gate
            # the three equivalent spellings share one Result object
            assert results[0] is results[1] is results[2]
            assert results[3] is not results[0]
            counters = door.stats()["counters"]
            assert counters["service.frontdoor.batches"] == 2
            assert counters["service.frontdoor.batched"] == 5
            assert counters["service.frontdoor.executions"] == 3
            assert counters["service.frontdoor.coalesced"] == 2

        asyncio.run(scenario())
    finally:
        release.set()
        service.close()


def test_coalescing_never_shares_a_deadline():
    """The same query under two budgets in one batch runs as two
    executions: a tight-deadline request must not fail a waiter that has
    no deadline (nor hand a tight waiter an answer past its budget)."""
    service = make_service()
    entered, release = gate_first_execution(service)
    try:

        async def scenario():
            async with FrontDoor(
                service, [generous("alpha")], max_concurrent_batches=1
            ) as door:
                gate = asyncio.create_task(
                    door.submit("alpha", "collection()//site")
                )
                await asyncio.to_thread(entered.wait, 10)
                tight = asyncio.create_task(
                    door.submit("alpha", "collection()//a", deadline_s=1e-6)
                )
                loose = asyncio.create_task(
                    door.submit("alpha", "collection()//a")
                )
                await wait_queued(door, 2)
                release.set()
                with pytest.raises(DeadlineExceeded):
                    await tight
                assert len(await loose) == 4
                await gate
            counters = door.stats()["counters"]
            assert counters["service.frontdoor.batches"] == 2
            assert counters.get("service.frontdoor.coalesced", 0) == 0

        asyncio.run(scenario())
    finally:
        release.set()
        service.close()


def test_compile_errors_resolve_only_the_bad_request():
    service = make_service()
    try:

        async def scenario():
            async with FrontDoor(service, [generous("alpha")]) as door:
                good = asyncio.create_task(
                    door.submit("alpha", "collection()//a")
                )
                with pytest.raises(Exception):  # noqa: B017 - any typed compile error
                    await door.submit("alpha", "collection()//a[[[")
                assert len(await good) == 4
                stats = door.stats()
            assert stats["tenants"]["alpha"]["ok"] == 1
            assert sum(stats["tenants"]["alpha"]["errors"].values()) == 1

        asyncio.run(scenario())
    finally:
        service.close()


def test_per_tenant_latency_and_counters_accumulate():
    service = make_service()
    try:

        async def scenario():
            async with FrontDoor(service, [generous("alpha")]) as door:
                for _ in range(5):
                    await door.submit("alpha", "collection()//a")
                stats = door.stats()
            alpha = stats["tenants"]["alpha"]
            assert alpha["ok"] == 5
            assert alpha["latency_ms"]["count"] == 5
            assert alpha["latency_ms"]["p50"] > 0
            assert alpha["ledger_balanced"]
            assert stats["queue"]["alpha"]["served"] == 5

        asyncio.run(scenario())
    finally:
        service.close()


def test_scatter_deadline_attributes_every_shard_fault_to_the_tenant():
    """A stall on every shard outlives the caller's deadline wait; the
    shard tasks still count their stall and its surfacing, and the
    tenant ledger must hold both before the front door reads it."""
    service = make_service(deadline_s=0.3)
    try:
        service.parallel_fanout = True  # the fan-out waits on dispatch threads

        async def scenario():
            async with FrontDoor(service, [generous("alpha")]) as door:
                with pytest.raises(DeadlineExceeded):
                    await door.submit("alpha", "collection()//a")
                return door.fault_ledger()["alpha"]

        before = sum(service.fault_accounting.values())
        with injection(FaultPlan(stall=1.0, stall_ms=4_000.0)) as injector:
            tenant = asyncio.run(scenario())
        handled = sum(service.fault_accounting.values()) - before
    finally:
        service.close()
    assert injector.counts.total == 2
    assert handled == 2
    assert tenant == {"injected": 2, "retried": 0, "degraded": 0, "surfaced": 2}
