"""The hardened serving stack on one shard against scripted faults:
retry, connection recovery, pool-retirement races, degradation,
breaker, and the batch APIs under failure.

Scripted injectors replay one entry per injection *opportunity*; on the
pooled path each execute is a lease opportunity followed by an execute
opportunity, so scripts interleave ``None`` placeholders accordingly.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    BackendUnavailable,
    CircuitOpenError,
    DeadlineExceeded,
    ServiceOverloaded,
)
from repro.faults import FaultInjector, injection
from repro.obs import metrics_scope
from repro.pipeline import XQueryProcessor
from repro.service import ShardedService
from repro.service.pool import BackendPool
from repro.service.resilience import RetryPolicy
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


def make_service(workers: int = 2, **kwargs) -> ShardedService:
    service = ShardedService(Collection(1), workers=workers, **kwargs)
    service.load(AUCTION_XML, "auction.xml")
    return service


def _pool(service: ShardedService) -> BackendPool | None:
    """The one shard's backend pool."""
    return service._executors[0]._pool


def _breaker_state(service: ShardedService) -> str:
    return service._executors[0].breaker.state


@pytest.fixture()
def expected():
    """The reference answer: a bare processor, no service."""
    bare = XQueryProcessor()
    bare.load(AUCTION_XML, "auction.xml")
    return bare.execute(QUERY, engine="interpreter")


def test_busy_fault_is_retried_to_success(expected):
    with make_service() as service:
        # lease ok, first statement busy; the retry round is clean
        with injection(FaultInjector.scripted([None, "busy"])):
            with metrics_scope() as metrics:
                assert service.execute(QUERY) == expected
        counters = metrics.snapshot()["counters"]
        assert counters["service.retry.attempts"] == 1
        assert counters["faults.injected.busy"] == 1
        assert service.fault_accounting == {
            "retry": 1,
            "degrade": 0,
            "surface": 0,
        }
        pool = _pool(service)
        assert pool is not None and pool.leases == 0


def test_connection_death_discards_and_retries_on_fresh_connection(expected):
    with make_service() as service:
        with injection(FaultInjector.scripted([None, "disconnect"])):
            with metrics_scope() as metrics:
                assert service.execute(QUERY) == expected
        counters = metrics.snapshot()["counters"]
        assert counters["service.pool.discarded_connections"] == 1
        assert counters["service.retry.attempts"] == 1
        assert service.fault_accounting["retry"] == 1


def test_injected_retirement_race_rebuilds_the_pool(expected):
    with make_service() as service:
        assert service.execute(QUERY) == expected  # build the first pool
        first_pool = _pool(service)
        with injection(FaultInjector.scripted(["retire"])):
            assert service.execute(QUERY) == expected
        assert _pool(service) is not first_pool
        assert first_pool.retired
        assert service.fault_accounting["retry"] == 1


def test_exhausted_retries_degrade_to_fresh_uncached_answer(expected):
    with make_service(retry=RetryPolicy(max_retries=1, base=0.001)) as service:
        script = [None, "busy", None, "busy"]  # both attempts fail
        with injection(FaultInjector.scripted(script)):
            with metrics_scope() as metrics:
                assert service.execute(QUERY) == expected
        counters = metrics.snapshot()["counters"]
        assert counters["service.retry.exhausted"] == 1
        assert counters["service.degrade.fallbacks"] == 1
        assert counters["service.degrade.queries"] == 1
        assert service.fault_accounting == {
            "retry": 1,
            "degrade": 1,
            "surface": 0,
        }


def test_degrade_disabled_surfaces_backend_unavailable(expected):
    with make_service(
        retry=RetryPolicy(max_retries=0), degrade=False
    ) as service:
        with injection(FaultInjector.scripted([None, "busy"])):
            with pytest.raises(BackendUnavailable):
                service.execute(QUERY)
        assert service.fault_accounting == {
            "retry": 0,
            "degrade": 0,
            "surface": 1,
        }
        # the failure was contained: the very next call answers
        assert service.execute(QUERY) == expected
        assert _pool(service).leases == 0


def test_open_breaker_fastpaths_to_degraded_answers(expected):
    with make_service(
        retry=RetryPolicy(max_retries=0), breaker_threshold=1
    ) as service:
        with injection(FaultInjector.scripted([None, "busy"])):
            with metrics_scope() as metrics:
                assert service.execute(QUERY) == expected  # trips the breaker
                assert _breaker_state(service) == "open"
                assert service.execute(QUERY) == expected  # short-circuited
        counters = metrics.snapshot()["counters"]
        assert counters["service.degrade.breaker_fastpath"] == 1
        assert counters["service.breaker.opened"] == 1
        # the fastpath consumed no injection: the ledger holds one fault
        assert sum(service.fault_accounting.values()) == 1


def test_open_breaker_without_degradation_raises_circuit_open(expected):
    with make_service(
        retry=RetryPolicy(max_retries=0),
        breaker_threshold=1,
        breaker_reset_s=30.0,
        degrade=False,
    ) as service:
        with injection(FaultInjector.scripted([None, "busy"])):
            with pytest.raises(BackendUnavailable):
                service.execute(QUERY)
            with pytest.raises(CircuitOpenError):
                service.execute(QUERY)


def test_breaker_recovers_through_half_open_probe(expected):
    with make_service(
        retry=RetryPolicy(max_retries=0), breaker_threshold=1,
        breaker_reset_s=0.0, degrade=False,
    ) as service:
        with injection(FaultInjector.scripted([None, "busy"])):
            with pytest.raises(BackendUnavailable):
                service.execute(QUERY)
        # reset window (0 s) elapsed: the next call is the probe, the
        # injector script is exhausted, so it succeeds and closes
        assert service.execute(QUERY) == expected
        assert _breaker_state(service) == "closed"


def test_probe_deadline_miss_does_not_wedge_the_breaker(expected):
    with make_service(
        retry=RetryPolicy(max_retries=0), breaker_threshold=1,
        breaker_reset_s=0.0, degrade=False,
    ) as service:
        # trip the breaker, then let the half-open probe stall past its
        # deadline: the probe dies with DeadlineExceeded, never calling
        # record_success/record_failure
        script = [None, "busy", None, "stall"]
        with injection(FaultInjector.scripted(script, stall_ms=500.0)):
            with pytest.raises(BackendUnavailable):
                service.execute(QUERY)
            with pytest.raises(DeadlineExceeded):
                service.execute(QUERY, deadline_s=0.05)
        # the probe slot was released on the way out: the next call is
        # admitted as a fresh probe, succeeds, and closes the breaker —
        # a leaked slot would refuse every call here forever
        assert service.execute(QUERY) == expected
        assert _breaker_state(service) == "closed"


def test_run_many_drains_submitted_work_when_a_submit_overloads(expected):
    with make_service(workers=1) as service:
        assert service.submit(QUERY).result(timeout=30) == expected
        unblock = threading.Event()
        # wedge the only worker: the first batch entry queues, the
        # second submission overloads mid-batch
        service._worker_pool.submit(unblock.wait)
        submitted = []
        submit = service.submit

        def overloading_submit(query, **kwargs):
            if submitted:
                raise ServiceOverloaded("backlog full")
            submitted.append(submit(query, **kwargs))
            return submitted[-1]

        service.submit = overloading_submit
        try:
            with pytest.raises(ServiceOverloaded):
                service.run_many([QUERY, QUERY])
            # the already-submitted future was cancelled, not abandoned
            [queued] = submitted
            assert queued.cancelled()
        finally:
            del service.submit
            unblock.set()
        assert service.run_many([QUERY]) == [expected]


def test_submit_path_recovers_from_faults_too(expected):
    with make_service() as service:
        with injection(FaultInjector.scripted([None, "busy"])):
            future = service.submit(QUERY)
            assert future.result(timeout=30) == expected


def test_stats_expose_the_resilience_block(expected):
    with make_service(deadline_s=5.0) as service:
        service.execute(QUERY)
        stats = service.stats()
        resilience = stats["resilience"]
        assert resilience["deadline_s"] == 5.0
        assert resilience["breaker"] == "closed"
        assert resilience["degrade"] is True
        assert stats["fault_accounting"] == {
            "retry": 0,
            "degrade": 0,
            "surface": 0,
        }


def test_organic_faults_recover_but_stay_off_the_ledger(expected):
    with make_service() as service:
        assert service.execute(QUERY) == expected
        # an *organic* retirement (no injector): the service must
        # recover identically but account nothing
        _pool(service).retire()
        assert service.execute(QUERY) == expected
        assert service.fault_accounting == {
            "retry": 0,
            "degrade": 0,
            "surface": 0,
        }
