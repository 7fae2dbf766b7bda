"""Resilience primitives for the query service.

The serving bet of the paper — hand the heavy lifting to an
off-the-shelf RDBMS — only holds in production if the service stays
*correct and available* when that RDBMS misbehaves mid-flight.  This
module is the toolbox the hardened serving stack
(:class:`repro.service.ShardedService`) is built from:

:class:`Deadline`
    A monotonic per-query time budget.  The active deadline is kept in
    a thread-local so deep layers (the SQLite progress handler, the
    fault injector's stall simulation) can honor it without threading
    it through every signature.
:func:`wait_within`
    Wait for a future no longer than a deadline allows, so work queued
    or built on another thread cannot make a typed error late.
:func:`cancellation`
    Context manager that arms true query cancellation on a SQLite
    connection: a progress handler aborts the in-flight statement once
    the deadline passes, and the resulting ``interrupted`` error is
    translated into :class:`repro.errors.DeadlineExceeded`.
:class:`RetryPolicy`
    Bounded retry with exponential backoff, capped by the deadline.
:class:`CircuitBreaker`
    Classic closed → open → half-open breaker over consecutive backend
    failures, with ``service.breaker.*`` metrics.

Error classification (:func:`is_transient`, :func:`is_connection_death`)
decides which ``sqlite3`` failures are worth retrying.  Semantics and
the failure model are documented in ``docs/robustness.md``.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Iterator, TypeVar

from contextlib import contextmanager

from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    PoolRetiredError,
)
from repro.obs import get_metrics

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "cancellation",
    "current_deadline",
    "deadline_scope",
    "is_connection_death",
    "is_transient",
    "wait_within",
]

T = TypeVar("T")


# -- deadlines ------------------------------------------------------------

_state = threading.local()


class Deadline:
    """A monotonic time budget for one query.

    Constructed via :meth:`after`; all arithmetic is on
    ``time.monotonic`` so wall-clock adjustments cannot extend or
    shrink a budget.
    """

    __slots__ = ("budget", "expires_at", "started_at")

    def __init__(self, started_at: float, budget: float):
        self.started_at = started_at
        self.budget = budget
        self.expires_at = started_at + budget

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        if seconds <= 0:
            raise ValueError("deadline budget must be positive")
        return cls(time.monotonic(), seconds)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def check(self, *, injected: bool = False) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is gone.

        ``injected`` marks the raised error as caused by an injected
        fault (the chaos accounting gate distinguishes injected from
        organic deadline misses).
        """
        if self.expired:
            error = DeadlineExceeded(
                budget=self.budget, elapsed=self.elapsed()
            )
            error.injected = injected  # type: ignore[attr-defined]
            raise error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget:.3f}s, remaining={self.remaining():.3f}s)"


def current_deadline() -> Deadline | None:
    """The deadline governing this thread's in-flight query, if any."""
    return getattr(_state, "deadline", None)


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Publish ``deadline`` as this thread's active deadline for the
    duration (``None`` is allowed and publishes nothing new)."""
    previous = current_deadline()
    _state.deadline = deadline if deadline is not None else previous
    try:
        yield deadline
    finally:
        _state.deadline = previous


#: statements between progress-handler invocations — small enough that
#: cancellation latency is dominated by the check interval, large
#: enough that the handler is invisible on fast queries
_PROGRESS_OPCODES = 2_000


def wait_within(future: Future[T], deadline: Deadline | None) -> T:
    """``future``'s result, waited for no longer than ``deadline``
    allows; :class:`DeadlineExceeded` when the budget runs out first.

    A future that has not started by then is cancelled; one already
    running finishes on its own time."""
    if deadline is None:
        return future.result()
    try:
        return future.result(timeout=deadline.remaining())
    except FutureTimeout:
        if future.done():  # finished as the wait ran out, or raised
            return future.result()
        future.cancel()
        raise DeadlineExceeded(
            budget=deadline.budget, elapsed=deadline.elapsed()
        ) from None


@contextmanager
def cancellation(
    connection: sqlite3.Connection, deadline: Deadline | None
) -> Iterator[None]:
    """Arm deadline cancellation on ``connection`` for the duration.

    While active, SQLite calls back every ``_PROGRESS_OPCODES`` VM
    opcodes; once the deadline passes the handler returns nonzero and
    SQLite aborts the in-flight statement with an ``interrupted``
    :class:`sqlite3.OperationalError`, which is re-raised here as
    :class:`DeadlineExceeded`.  The connection (and its prepared
    statements) remains fully usable afterwards.

    With ``deadline=None`` this only publishes the (absent) deadline —
    the hot path installs no handler and adds no per-opcode work.
    """
    if deadline is None:
        yield
        return
    metrics = get_metrics()

    def interrupt_when_expired() -> int:
        if deadline.expired:
            metrics.count("service.deadline.interrupts")
            return 1
        return 0

    connection.set_progress_handler(interrupt_when_expired, _PROGRESS_OPCODES)
    try:
        with deadline_scope(deadline):
            deadline.check()
            yield
    except sqlite3.OperationalError as error:
        if "interrupt" in str(error).lower():
            raise DeadlineExceeded(
                budget=deadline.budget, elapsed=deadline.elapsed()
            ) from error
        raise
    finally:
        try:
            connection.set_progress_handler(None, 0)
        except sqlite3.ProgrammingError:
            pass  # the connection died mid-flight; nothing to disarm


# -- error classification -------------------------------------------------

#: substrings of sqlite3 error messages that indicate a *transient*
#: condition: retrying against the same (or a fresh) connection can
#: legitimately succeed.  Anything else is a real bug and surfaces.
_TRANSIENT_MARKERS = (
    "database is locked",
    "database is busy",
    "database table is locked",
    "connection died",
    "closed database",
)

#: markers meaning this thread's connection itself is gone — retrying
#: requires discarding it and opening a fresh one.
_CONNECTION_DEATH_MARKERS = ("connection died", "closed database")


def is_transient(error: BaseException) -> bool:
    """Is ``error`` worth retrying (bounded, with backoff)?  A retired
    pool is rebuilt before the retry."""
    if isinstance(error, PoolRetiredError):
        return True
    if isinstance(error, (sqlite3.OperationalError, sqlite3.ProgrammingError)):
        message = str(error).lower()
        return any(marker in message for marker in _TRANSIENT_MARKERS)
    return False


def is_connection_death(error: BaseException) -> bool:
    """Does ``error`` mean the per-thread connection is dead and must
    be discarded before a retry can succeed?"""
    message = str(error).lower()
    return any(marker in message for marker in _CONNECTION_DEATH_MARKERS)


# -- retry ----------------------------------------------------------------


class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_retries`` counts *re*-tries: a query may execute at most
    ``max_retries + 1`` times.  Backoff for attempt ``n`` (0-based) is
    ``base * multiplier**n``, capped at ``max_backoff`` and always
    capped by the remaining deadline.
    """

    __slots__ = ("base", "max_backoff", "max_retries", "multiplier", "sleeper")

    def __init__(
        self,
        max_retries: int = 2,
        base: float = 0.005,
        multiplier: float = 2.0,
        max_backoff: float = 0.25,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if base < 0 or multiplier < 1 or max_backoff < 0:
            raise ValueError("invalid backoff parameters")
        self.max_retries = max_retries
        self.base = base
        self.multiplier = multiplier
        self.max_backoff = max_backoff
        self.sleeper = sleeper

    def backoff(self, attempt: int) -> float:
        """The planned pause before retry ``attempt`` (0-based)."""
        return min(self.base * (self.multiplier**attempt), self.max_backoff)

    def allows(self, attempt: int, deadline: Deadline | None) -> bool:
        """May retry number ``attempt`` (0-based) still be attempted?

        A retry is pointless when the budget cannot even cover its
        backoff pause, so the deadline bounds the retry count too.
        """
        if attempt >= self.max_retries:
            return False
        if deadline is not None and deadline.remaining() <= self.backoff(attempt):
            return False
        return True

    def pause(self, attempt: int, deadline: Deadline | None) -> float:
        """Sleep the backoff for ``attempt``; returns seconds slept."""
        pause = self.backoff(attempt)
        if deadline is not None:
            pause = min(pause, deadline.remaining())
        if pause > 0:
            self.sleeper(pause)
        return pause


# -- circuit breaker ------------------------------------------------------


class CircuitBreaker:
    """Trip open after ``threshold`` consecutive backend failures.

    States: *closed* (all calls pass), *open* (calls are refused for
    ``reset_after`` seconds), *half-open* (one probe call is let
    through; success closes the breaker, failure re-opens it).  A
    probe that ends without a backend verdict — a deadline miss, a
    non-transient query bug — must call :meth:`release_probe` so the
    slot frees and the next caller can probe; the service wraps every
    admitted attempt in a ``finally`` doing exactly that.  All
    transitions are counted (``service.breaker.opened`` /
    ``.reopened`` / ``.closed``) and the current state is exported as
    the gauge ``service.breaker.state`` (0 closed, 1 open, 0.5
    half-open).  Thread-safe; the clock is injectable for tests.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        threshold: int = 8,
        reset_after: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold <= 0:
            raise ValueError("breaker threshold must be positive")
        self.threshold = threshold
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probing = False
        self._probe_owner: int | None = None

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.reset_after
        ):
            return self.HALF_OPEN
        return self._state

    def _export_state(self) -> None:
        value = {self.CLOSED: 0.0, self.OPEN: 1.0, self.HALF_OPEN: 0.5}
        get_metrics().gauge("service.breaker.state", value[self._peek_state()])

    def allow(self) -> bool:
        """May a backend call proceed right now?

        In half-open state exactly one caller is admitted as the probe;
        everyone else keeps getting refused until the probe reports.
        """
        with self._lock:
            state = self._peek_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probing:
                self._probing = True
                self._probe_owner = threading.get_ident()
                get_metrics().count("service.breaker.half_open")
                return True
            get_metrics().count("service.breaker.short_circuited")
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state != self.CLOSED:
                get_metrics().count("service.breaker.closed")
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False
            self._probe_owner = None
            self._export_state()

    def record_failure(self) -> None:
        metrics = get_metrics()
        with self._lock:
            self._failures += 1
            state = self._peek_state()
            if state == self.HALF_OPEN and self._probing:
                # the probe failed: re-open for another full window
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False
                self._probe_owner = None
                metrics.count("service.breaker.reopened")
            elif state == self.CLOSED and self._failures >= self.threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()
                metrics.count("service.breaker.opened")
            self._export_state()

    def release_probe(self) -> None:
        """Free the half-open probe slot without recording a verdict.

        A probe admitted by :meth:`allow` normally reports back through
        :meth:`record_success` or :meth:`record_failure`; a probe that
        exits any other way (deadline miss, non-transient query bug,
        unexpected exception) would hold the slot forever and wedge the
        breaker half-open, refusing every call.  Only the thread that
        was admitted as the probe can release it, and a probe that has
        already reported is a no-op — callers may invoke this
        unconditionally in a ``finally``.
        """
        with self._lock:
            if self._probing and self._probe_owner == threading.get_ident():
                self._probing = False
                self._probe_owner = None
                get_metrics().count("service.breaker.probe_released")
                self._export_state()

    def require(self) -> None:
        """:meth:`allow` or raise :class:`CircuitOpenError`."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker is {self.state} after "
                f"{self._failures} consecutive backend failures"
            )

