"""The one resilient-call loop, driven by a fake attempt callable — no
SQLite, no pool, no worker: retry, exhaustion, last resort, deadline
surface, breaker hygiene and the fault-ledger invariant."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import BackendUnavailable, DeadlineExceeded, PoolRetiredError
from repro.faults.injector import InjectedOperationalError
from repro.obs import metrics_scope
from repro.service.core import FaultLedger, resilient_call
from repro.service.resilience import CircuitBreaker, Deadline, RetryPolicy


class Script:
    """An attempt callable replaying a script: exceptions are raised,
    anything else is returned; counts the injected faults it raised."""

    def __init__(self, *steps):
        self.steps = list(steps)
        self.calls = 0
        self.injected = 0

    def __call__(self):
        self.calls += 1
        step = self.steps.pop(0)
        if isinstance(step, BaseException):
            self.injected += bool(getattr(step, "injected", False))
            raise step
        return step


def busy() -> InjectedOperationalError:
    return InjectedOperationalError("database is locked")


def injected_deadline() -> DeadlineExceeded:
    error = DeadlineExceeded(budget=0.01, elapsed=0.02)
    error.injected = True  # type: ignore[attr-defined]
    return error


def unreachable():
    pytest.fail("the last resort was taken")


class Harness:
    def __init__(self, max_retries: int = 2, breaker: CircuitBreaker | None = None):
        self.ledger = FaultLedger()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.options = dict(
            retry=RetryPolicy(max_retries=max_retries, sleeper=lambda _s: None),
            deadline=None,
            ledger=self.ledger,
            breaker=self.breaker,
            last_resort=unreachable,
        )

    def call(self, script: Script, **overrides):
        return resilient_call(script, **{**self.options, **overrides})

    def assert_balanced(self, script: Script, **expected: int) -> None:
        counts = self.ledger.snapshot()
        assert script.injected == sum(counts.values())
        assert counts == {"retry": 0, "degrade": 0, "surface": 0, **expected}


def test_retry_then_success():
    harness = Harness(breaker=CircuitBreaker(threshold=8))
    script = Script(busy(), busy(), [1, 2])
    with metrics_scope() as metrics:
        assert harness.call(script) == [1, 2]
    assert script.calls == 3
    assert metrics.snapshot()["counters"]["service.retry.attempts"] == 2
    assert harness.breaker.state == "closed"
    harness.assert_balanced(script, retry=2)


def test_exhaustion_takes_the_last_resort():
    harness = Harness(max_retries=1)
    script = Script(busy(), busy())
    with metrics_scope() as metrics:
        assert harness.call(script, last_resort=lambda: ["fallback"]) == ["fallback"]
    counters = metrics.snapshot()["counters"]
    assert counters["service.retry.exhausted"] == 1
    assert counters["service.degrade.fallbacks"] == 1
    harness.assert_balanced(script, retry=1, degrade=1)


def test_failing_last_resort_surfaces():
    harness = Harness(max_retries=0)
    script = Script(busy())

    def broken():
        raise RuntimeError("fresh backend failed too")

    with pytest.raises(BackendUnavailable) as excinfo:
        harness.call(script, last_resort=broken)
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    harness.assert_balanced(script, surface=1)


def test_deadline_surfaces_without_retry_or_last_resort():
    harness = Harness()
    script = Script(injected_deadline(), "never reached")
    with metrics_scope() as metrics:
        with pytest.raises(DeadlineExceeded):
            harness.call(script, last_resort=lambda: "never taken")
    assert script.calls == 1
    assert metrics.snapshot()["counters"]["service.deadline.exceeded"] == 1
    harness.assert_balanced(script, surface=1)


def test_spent_budget_bounds_the_retries():
    harness = Harness(max_retries=5)
    script = Script(busy(), "never reached")
    deadline = Deadline.after(1e-6)  # cannot cover any backoff
    assert harness.call(
        script, deadline=deadline, last_resort=lambda: "fallback"
    ) == "fallback"
    assert script.calls == 1
    harness.assert_balanced(script, degrade=1)


def test_organic_failures_recover_but_stay_out_of_the_ledger():
    harness = Harness()
    script = Script(
        PoolRetiredError("pool retired"),
        sqlite3.OperationalError("database is locked"),
        "answer",
    )
    assert harness.call(script) == "answer"
    harness.assert_balanced(script)


def test_non_transient_errors_propagate_untouched():
    harness = Harness()
    script = Script(sqlite3.OperationalError("no such table: doc"), "unused")
    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        harness.call(script, last_resort=lambda: "never taken")
    assert script.calls == 1
    harness.assert_balanced(script)


@pytest.mark.parametrize(
    "step",
    [injected_deadline(), sqlite3.OperationalError("no such table: doc"), "ok"],
    ids=["deadline", "non-transient", "success"],
)
def test_half_open_probe_is_always_released(step):
    """However a probe ends — deadline, bug, or success — the next
    caller is not refused by a wedged half-open breaker."""
    now = [0.0]
    breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=lambda: now[0])
    breaker.record_failure()
    assert breaker.state == "open"
    now[0] = 2.0  # half-open: exactly one probe is admitted
    harness = Harness(breaker=breaker)
    script = Script(step)
    try:
        harness.call(script)
    except (DeadlineExceeded, sqlite3.OperationalError):
        pass
    assert breaker.allow()  # the slot was freed (or the breaker closed)
    breaker.release_probe()
    harness.assert_balanced(script, **({"surface": 1} if script.injected else {}))


def test_open_breaker_short_circuits():
    breaker = CircuitBreaker(threshold=1, reset_after=60.0)
    breaker.record_failure()
    harness = Harness(breaker=breaker)
    script = Script("never attempted")
    with metrics_scope() as metrics:
        assert harness.call(script, last_resort=lambda: "fallback") == "fallback"
    assert script.calls == 0
    counters = metrics.snapshot()["counters"]
    assert counters["service.degrade.breaker_fastpath"] == 1
    assert "service.degrade.fallbacks" not in counters
    harness.assert_balanced(script)


def test_open_breaker_with_a_failing_last_resort_surfaces_typed():
    """The breaker's short circuit ends like exhaustion does: the last
    resort's failure surfaces as :class:`BackendUnavailable`, never as
    the raw error."""
    breaker = CircuitBreaker(threshold=1, reset_after=60.0)
    breaker.record_failure()
    harness = Harness(breaker=breaker)

    def broken():
        raise sqlite3.OperationalError("disk I/O error")

    with pytest.raises(BackendUnavailable) as excinfo:
        harness.call(Script(), last_resort=broken)
    assert isinstance(excinfo.value.__cause__, sqlite3.OperationalError)


def test_retries_trip_the_default_breaker_into_the_last_resort():
    """Under the serving constants (2 retries, an 8-failure breaker)
    three calls of three busy attempts each trip the breaker on the
    third call's second attempt: that call short-circuits to the last
    resort, and every injected fault is still accounted once."""
    harness = Harness()
    script = Script(*[busy() for _ in range(8)])
    for _ in range(2):
        assert harness.call(script, last_resort=lambda: "fallback") == "fallback"
    with metrics_scope() as metrics:
        assert harness.call(script, last_resort=lambda: "fallback") == "fallback"
    assert harness.breaker.state == "open"
    assert script.calls == 8
    counters = metrics.snapshot()["counters"]
    assert counters["service.degrade.breaker_fastpath"] == 1
    assert counters["service.breaker.opened"] == 1
    harness.assert_balanced(script, retry=6, degrade=2)
