"""Deadline enforcement through the full service stack: a stalled
backend query surfaces :class:`DeadlineExceeded` promptly (not after
the stall), poisons no cached state, and leaks no pool lease."""

from __future__ import annotations

import time

import pytest

import repro
from repro.errors import DeadlineExceeded
from repro.faults import FaultInjector, injection
from repro.obs import metrics_scope
from repro.service import ShardedService
from repro.service.pool import BackendPool
from repro.store import Collection

AUCTION_XML = """\
<open_auction id="1">
  <initial>15</initial>
  <bidder>
    <time>18:43</time>
    <increase>4.20</increase>
  </bidder>
</open_auction>
"""

QUERY = 'doc("auction.xml")//bidder/increase'

#: the injected stall is 10x the deadline: without real cancellation
#: the call would take the full stall
STALL_MS = 500.0
DEADLINE_S = 0.05


@pytest.fixture()
def service():
    with ShardedService(Collection(1), workers=2) as svc:
        svc.load(AUCTION_XML, "auction.xml")
        yield svc


def _pool(service: ShardedService) -> BackendPool | None:
    """The one shard's backend pool."""
    return service._executors[0]._pool


def test_stalled_query_misses_its_deadline_promptly(service):
    expected = service.execute(QUERY)  # warm cache + pool, no faults
    injector = FaultInjector.scripted([None, "stall"], stall_ms=STALL_MS)
    started = time.monotonic()
    with injection(injector):
        with metrics_scope() as metrics:
            with pytest.raises(DeadlineExceeded) as excinfo:
                service.execute(QUERY, deadline_s=DEADLINE_S)
    elapsed = time.monotonic() - started
    # returned once the budget ran out, far before the stall finished
    assert elapsed < STALL_MS / 1000.0 * 0.8
    assert elapsed >= DEADLINE_S
    assert excinfo.value.injected  # type: ignore[attr-defined]
    counters = metrics.snapshot()["counters"]
    assert counters["service.deadline.exceeded"] == 1
    assert counters["service.queries.failed"] == 1
    # the deadline miss is a *surfaced* injected fault in the ledger
    assert service.fault_accounting == {
        "retry": 0,
        "degrade": 0,
        "surface": 1,
    }
    # no leaked lease: a retired pool would otherwise never drain
    pool_before = _pool(service)
    assert pool_before is not None and pool_before.leases == 0
    # no poisoned state: the same cached plan answers correctly, from
    # the same pool, on the very next call
    assert service.execute(QUERY, deadline_s=5.0) == expected
    assert _pool(service) is pool_before
    # one compile: the exact-text entry plus its canonical-pattern alias
    assert service.cache.stats()["size"] == 2


def test_per_call_deadline_overrides_service_default(service):
    service.execute(QUERY)
    injector = FaultInjector.scripted([None, "stall"], stall_ms=STALL_MS)
    with injection(injector):
        # service has no default deadline; the per-call budget governs
        with pytest.raises(DeadlineExceeded):
            service.execute(QUERY, deadline_s=DEADLINE_S)


def test_service_default_deadline_applies(service):
    expected = service.execute(QUERY)
    with ShardedService(Collection(1), deadline_s=DEADLINE_S) as governed:
        governed.load(AUCTION_XML, "auction.xml")
        assert governed.execute(QUERY) == expected  # fast query fits
        injector = FaultInjector.scripted([None, "stall"], stall_ms=STALL_MS)
        with injection(injector):
            with pytest.raises(DeadlineExceeded):
                governed.execute(QUERY)


def test_deadline_error_reports_budget_and_elapsed(service):
    service.execute(QUERY)
    injector = FaultInjector.scripted([None, "stall"], stall_ms=STALL_MS)
    with injection(injector):
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.execute(QUERY, deadline_s=DEADLINE_S)
    message = str(excinfo.value)
    assert "0.05" in message  # the budget
    assert excinfo.value.budget == pytest.approx(DEADLINE_S)
    assert excinfo.value.elapsed >= DEADLINE_S


def test_spent_budget_refuses_even_a_cold_compile(service):
    # a budget far below compile time: the post-compile check refuses
    # before any backend work happens — organic, so the ledger is empty
    with pytest.raises(DeadlineExceeded):
        service.execute(QUERY, deadline_s=0.0005)
    assert service.fault_accounting["surface"] == 0
    assert service.execute(QUERY) != []


def test_non_positive_deadline_is_rejected_not_silently_disabled(service):
    # deadline_s=0 must not fall through truthiness into "no deadline"
    with pytest.raises(ValueError):
        service.execute(QUERY, deadline_s=0)
    with pytest.raises(ValueError):
        service.execute(QUERY, deadline_s=-1.0)
    assert service.execute(QUERY) != []


def test_absorbed_stall_stays_out_of_the_injected_ledger(service):
    expected = service.execute(QUERY)
    injector = FaultInjector.scripted([None, "stall"], stall_ms=20.0)
    with injection(injector):
        # no deadline anywhere: the stall completes and the query
        # succeeds — there is no failure for the service to handle
        assert service.execute(QUERY) == expected
    assert injector.counts.snapshot()["stall"] == 0
    assert injector.counts.total == 0
    assert injector.counts.absorbed_snapshot()["stall"] == 1
    # injected (0) == retried + degraded + surfaced (0): balanced
    assert sum(service.fault_accounting.values()) == 0


def test_stall_within_budget_is_absorbed_too(service):
    expected = service.execute(QUERY)
    injector = FaultInjector.scripted([None, "stall"], stall_ms=20.0)
    with injection(injector):
        # a roomy deadline: the stall fits and never raises
        assert service.execute(QUERY, deadline_s=30.0) == expected
    assert injector.counts.total == 0
    assert injector.counts.absorbed_snapshot()["stall"] == 1
    assert sum(service.fault_accounting.values()) == 0


def test_deadline_exceeded_through_the_worker_pool(service):
    service.execute(QUERY)
    injector = FaultInjector.scripted([None, "stall"], stall_ms=STALL_MS)
    with injection(injector):
        future = service.submit(QUERY, deadline_s=DEADLINE_S)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30)
    pool = _pool(service)
    assert pool is not None and pool.leases == 0


def test_cold_pool_build_does_not_make_the_deadline_late(service, monkeypatch):
    """A query that finds no pool waits for the build no longer than
    its budget; the build it gave up on still lands and serves the next
    query."""
    expected = service.execute(QUERY)
    service._executors[0]._pool.retire()  # the next SQL lease rebuilds
    builds: list[BackendPool] = []

    class SlowPool(BackendPool):
        def __init__(self, *args, **kwargs):
            time.sleep(0.5)
            super().__init__(*args, **kwargs)
            builds.append(self)

    monkeypatch.setattr("repro.service.service.BackendPool", SlowPool)
    started = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        service.execute(QUERY, deadline_s=DEADLINE_S)
    assert time.monotonic() - started < 0.4
    # the slow capture does not wait for the build either
    assert service.flight.slow()[-1].explain[0].startswith("no plan")
    assert service.execute(QUERY, deadline_s=5.0) == expected
    assert len(builds) == 1 and _pool(service) is builds[0]


@pytest.mark.parametrize("shards", [1, 2])
def test_late_view_answer_is_refused(shards, monkeypatch):
    """The view rung cannot be cancelled mid-filter, so its answer is
    re-checked against the deadline — on either deployment shape."""
    broad, narrow = "//bidder", "//bidder[time]"
    with repro.connect(shards=shards, view_admit_after=1) as session:
        session.load(AUCTION_XML, "auction.xml")
        session.execute(broad)  # admits the view
        views = session.service.views
        answer = views.answer

        def slow_answer(pattern, version):
            time.sleep(DEADLINE_S)
            return answer(pattern, version)

        monkeypatch.setattr(views, "answer", slow_answer)
        with metrics_scope() as metrics:
            with pytest.raises(DeadlineExceeded):
                session.execute(narrow, deadline_s=DEADLINE_S / 2)
        record = session.service.flight.records()[-1]
        assert record.cache == "view"
        assert record.status == "error:DeadlineExceeded"
        counters = metrics.snapshot()["counters"]
        assert counters["service.queries.failed"] == 1
        assert "service.queries" not in counters
        # organic: nothing was injected, so the ledger stays empty
        assert sum(session.service.fault_accounting.values()) == 0
        # with room in the budget the same view answers
        served = session.execute(narrow, deadline_s=5.0)
        assert session.service.flight.records()[-1].cache == "view"
        assert session.serialize(served) == session.run(broad)
