"""Resilience primitives in isolation: deadlines, cancellation,
error classification, retry policy, circuit breaker, admission gate."""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    PoolRetiredError,
)
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    cancellation,
    current_deadline,
    deadline_scope,
    is_connection_death,
    is_transient,
)

# -- Deadline -------------------------------------------------------------


def test_deadline_budget_must_be_positive():
    with pytest.raises(ValueError):
        Deadline.after(0)


def test_deadline_accounting():
    deadline = Deadline.after(60.0)
    assert not deadline.expired
    assert 0.0 < deadline.remaining() <= 60.0
    deadline.check()  # plenty of budget: no raise


def test_deadline_expiry_raises_with_budget_and_elapsed():
    deadline = Deadline.after(0.001)
    time.sleep(0.005)
    assert deadline.expired
    assert deadline.remaining() == 0.0
    with pytest.raises(DeadlineExceeded) as excinfo:
        deadline.check()
    assert "0.001" in str(excinfo.value)
    assert not getattr(excinfo.value, "injected", False)


def test_deadline_check_can_mark_injected():
    deadline = Deadline.after(0.001)
    time.sleep(0.005)
    with pytest.raises(DeadlineExceeded) as excinfo:
        deadline.check(injected=True)
    assert excinfo.value.injected  # type: ignore[attr-defined]


def test_deadline_scope_publishes_and_restores():
    assert current_deadline() is None
    outer = Deadline.after(10.0)
    inner = Deadline.after(5.0)
    with deadline_scope(outer):
        assert current_deadline() is outer
        with deadline_scope(inner):
            assert current_deadline() is inner
        with deadline_scope(None):
            # None keeps the enclosing deadline visible
            assert current_deadline() is outer
        assert current_deadline() is outer
    assert current_deadline() is None


# -- cancellation ---------------------------------------------------------


def slow_query(connection: sqlite3.Connection, n: int = 5_000_000) -> None:
    """A CPU-bound recursive CTE that takes long enough to interrupt."""
    connection.execute(
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        f"WHERE x < {n}) SELECT max(x) FROM c"
    ).fetchone()


def test_cancellation_interrupts_inflight_statement():
    connection = sqlite3.connect(":memory:")
    deadline = Deadline.after(0.05)
    started = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        with cancellation(connection, deadline):
            slow_query(connection)
    elapsed = time.monotonic() - started
    assert elapsed < 2.0  # interrupted, not run to completion
    # the connection survives and works afterwards
    assert connection.execute("SELECT 41 + 1").fetchone() == (42,)
    connection.close()


def test_cancellation_none_deadline_is_inert():
    connection = sqlite3.connect(":memory:")
    with cancellation(connection, None):
        assert connection.execute("SELECT 1").fetchone() == (1,)
    connection.close()


def test_cancellation_checks_before_running():
    connection = sqlite3.connect(":memory:")
    deadline = Deadline.after(0.001)
    time.sleep(0.005)
    with pytest.raises(DeadlineExceeded):
        with cancellation(connection, deadline):
            raise AssertionError("body must not run on a spent deadline")
    connection.close()


def test_cancellation_disarms_handler_on_exit():
    connection = sqlite3.connect(":memory:")
    with cancellation(connection, Deadline.after(30.0)):
        pass
    # were the handler still armed with a stale expired deadline, this
    # long statement would be interrupted
    slow_query(connection, n=50_000)
    connection.close()


def test_cancellation_survives_connection_death_in_flight():
    connection = sqlite3.connect(":memory:")
    with pytest.raises(sqlite3.ProgrammingError):
        with cancellation(connection, Deadline.after(30.0)):
            connection.close()
            connection.execute("SELECT 1")


def test_cancellation_propagates_unrelated_operational_errors():
    connection = sqlite3.connect(":memory:")
    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        with cancellation(connection, Deadline.after(30.0)):
            connection.execute("SELECT * FROM missing")
    connection.close()


# -- error classification -------------------------------------------------


@pytest.mark.parametrize(
    "error, transient",
    [
        (sqlite3.OperationalError("database is locked"), True),
        (sqlite3.OperationalError("database table is locked: t"), True),
        (sqlite3.OperationalError("connection died [injected]"), True),
        (sqlite3.ProgrammingError("Cannot operate on a closed database."), True),
        (PoolRetiredError("pool retired"), True),
        (sqlite3.OperationalError("no such table: accel"), False),
        (sqlite3.ProgrammingError("Incorrect number of bindings"), False),
        (ValueError("not a backend error at all"), False),
    ],
)
def test_is_transient(error, transient):
    assert is_transient(error) is transient


def test_is_connection_death():
    assert is_connection_death(sqlite3.OperationalError("connection died"))
    assert is_connection_death(
        sqlite3.ProgrammingError("Cannot operate on a closed database.")
    )
    assert not is_connection_death(
        sqlite3.OperationalError("database is locked")
    )


# -- RetryPolicy ----------------------------------------------------------


def test_retry_policy_validates_parameters():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(max_retries=10, base=0.01, multiplier=2.0, max_backoff=0.05)
    assert policy.backoff(0) == pytest.approx(0.01)
    assert policy.backoff(1) == pytest.approx(0.02)
    assert policy.backoff(2) == pytest.approx(0.04)
    assert policy.backoff(3) == pytest.approx(0.05)  # capped
    assert policy.backoff(9) == pytest.approx(0.05)


def test_allows_is_bounded_by_max_retries():
    policy = RetryPolicy(max_retries=2)
    assert policy.allows(0, None)
    assert policy.allows(1, None)
    assert not policy.allows(2, None)


def test_allows_refuses_when_deadline_cannot_cover_backoff():
    policy = RetryPolicy(max_retries=5, base=10.0, max_backoff=10.0)
    deadline = Deadline.after(0.05)
    assert not policy.allows(0, deadline)
    roomy = Deadline.after(60.0)
    assert policy.allows(0, roomy)


def test_pause_sleeps_backoff_via_injected_sleeper():
    slept: list[float] = []
    policy = RetryPolicy(
        max_retries=3, base=0.01, multiplier=2.0, sleeper=slept.append
    )
    assert policy.pause(1, None) == pytest.approx(0.02)
    assert slept == [pytest.approx(0.02)]


def test_pause_is_capped_by_remaining_deadline():
    slept: list[float] = []
    policy = RetryPolicy(max_retries=3, base=5.0, sleeper=slept.append)
    deadline = Deadline.after(0.05)
    pause = policy.pause(0, deadline)
    assert pause <= 0.05
    assert slept and slept[0] <= 0.05


# -- CircuitBreaker -------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_breaker_opens_after_threshold_consecutive_failures():
    clock = Clock()
    breaker = CircuitBreaker(threshold=3, reset_after=1.0, clock=clock)
    assert breaker.state == CircuitBreaker.CLOSED
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    with pytest.raises(CircuitOpenError):
        breaker.require()


def test_success_resets_the_consecutive_count():
    breaker = CircuitBreaker(threshold=3, clock=Clock())
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


def test_half_open_admits_exactly_one_probe():
    clock = Clock()
    breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=clock)
    breaker.record_failure()
    assert not breaker.allow()
    clock.advance(1.5)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()  # the probe
    assert not breaker.allow()  # everyone else still refused
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_failed_probe_reopens_for_a_full_window():
    clock = Clock()
    breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()
    breaker.record_failure()  # probe failed
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    clock.advance(1.5)
    assert breaker.state == CircuitBreaker.HALF_OPEN


def test_breaker_threshold_must_be_positive():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)


def test_release_probe_frees_the_half_open_slot():
    clock = Clock()
    breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()  # the probe
    assert not breaker.allow()
    # the probe exits without a verdict (e.g. a deadline miss): the
    # slot frees, the breaker stays half-open, the next caller probes
    breaker.release_probe()
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED


def test_release_probe_after_a_verdict_is_a_noop():
    clock = Clock()
    breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()
    breaker.record_failure()  # the probe reported: re-open
    breaker.release_probe()  # late release must not disturb the state
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()


def test_release_probe_ignores_non_owner_threads():
    clock = Clock()
    breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=clock)
    breaker.record_failure()
    clock.advance(1.5)
    assert breaker.allow()  # this thread owns the probe
    observed: list[bool] = []

    def bystander() -> None:
        breaker.release_probe()  # not the probe: must be a no-op
        observed.append(breaker.allow())

    thread = threading.Thread(target=bystander)
    thread.start()
    thread.join()
    assert observed == [False]  # the probe slot was not stolen
    breaker.release_probe()  # the owner frees it
    assert breaker.allow()
