"""Deterministic, seedable fault injection for the serving stack.

The injector simulates the ways an off-the-shelf RDBMS misbehaves
under production load, at the two seams the service depends on:

``sql.execute`` (hooked in :meth:`repro.sql.backend.SQLiteBackend._execute_timed`)
    ``busy``        a transient ``sqlite3.OperationalError`` ("database
                    is locked"), the classic contended-backend failure;
    ``stall``       a slow-query stall: the statement hangs for
                    ``stall_ms`` before running — deadline-aware, so a
                    governed query observes :class:`DeadlineExceeded`
                    promptly instead of after the full stall.  A stall
                    enters the injected tally only when it converts
                    into a :class:`DeadlineExceeded`; a stall the query
                    absorbs (no active deadline, or it fit the
                    remaining budget) produces no failure and therefore
                    no disposition, so it is tallied separately
                    (``faults.absorbed.stall``) and stays out of the
                    accounting ledger;
    ``disconnect``  connection death: the thread's connection is
                    *actually closed* and the statement fails — the
                    next use of that connection fails too, exactly like
                    a dropped server socket.

``pool.lease`` (hooked in :meth:`repro.service.pool.BackendPool.lease`)
    ``retire``      a retirement race: the pool is retired *while* a
                    caller is acquiring a lease, as a concurrent
                    document reload would do, and the lease fails with
                    :class:`PoolRetiredError`.

Determinism: one seeded :class:`random.Random` drives all draws (under
a lock — the fault *sequence* is reproducible from the seed; which
thread observes each fault depends on scheduling, which is why the
fault storm asserts invariants rather than exact schedules).  For
exact unit tests, :meth:`FaultInjector.scripted` replays an explicit
fault sequence instead of drawing randomly.

Every injected exception carries ``injected = True`` so the service's
recovery accounting can distinguish injected faults from organic ones
— the storm gate asserts ``injected == retried + degraded + surfaced``
(see ``docs/robustness.md``).

Installation is process-global (:func:`install` / :func:`uninstall` /
the :func:`injection` context manager) with a thread-local
:func:`suppressed` guard: the service's *degraded* path runs suppressed
so the fallback of last resort is not itself chaos-tested mid-recovery.
When nothing is installed the hooks are a single ``is None`` check.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import DeadlineExceeded, PoolRetiredError
from repro.obs import get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the
    from repro.service.pool import BackendPool  # backend->faults->pool cycle

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "InjectedOperationalError",
    "injection",
    "install",
    "is_injected",
    "on_execute",
    "on_lease",
    "suppressed",
    "uninstall",
]

FAULT_KINDS = ("busy", "stall", "disconnect", "retire")

#: stall sleep granularity — the injected stall wakes this often to
#: honor the thread's active deadline
_STALL_SLICE_S = 0.005


class InjectedOperationalError(sqlite3.OperationalError):
    """An injected backend failure; indistinguishable from the real
    thing for classification purposes but marked for accounting."""

    injected = True


def is_injected(error: BaseException) -> bool:
    """Was ``error`` produced (directly or by translation) by the
    installed fault injector?"""
    return bool(getattr(error, "injected", False))


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind injection probabilities (independent draws per site).

    Rates are probabilities per *opportunity*: each executed statement
    is one ``busy``/``stall``/``disconnect`` opportunity, each pool
    lease one ``retire`` opportunity.
    """

    seed: int = 0
    busy: float = 0.0
    stall: float = 0.0
    disconnect: float = 0.0
    retire: float = 0.0
    stall_ms: float = 50.0

    @classmethod
    def uniform(
        cls, rate: float, seed: int = 0, stall_ms: float = 50.0
    ) -> "FaultPlan":
        """An overall error ``rate`` split across the fault kinds the
        way production incidents skew: mostly contention, some
        connection loss, some pool churn, a few stalls."""
        return cls(
            seed=seed,
            busy=rate * 0.5,
            stall=rate * 0.1,
            disconnect=rate * 0.2,
            retire=rate * 0.2,
            stall_ms=stall_ms,
        )

    def validate(self) -> None:
        for kind in FAULT_KINDS:
            value = getattr(self, kind)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"fault rate {kind}={value} outside [0, 1]")
        if self.stall_ms < 0:
            raise ValueError("stall_ms must be >= 0")


@dataclass
class FaultCounts:
    """Thread-safe per-kind injection tally.

    ``by_kind`` counts faults *delivered* as an observable failure —
    exactly the population the chaos ledger must balance against
    (``injected == retried + degraded + surfaced``).  ``absorbed``
    counts opportunities that fired but produced no failure (a stall
    with no active deadline, or one that fit the remaining budget):
    they have no disposition, so they are kept out of ``by_kind`` and
    out of :attr:`total`.
    """

    _lock: threading.Lock = field(default_factory=threading.Lock)
    by_kind: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FAULT_KINDS, 0)
    )
    absorbed: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FAULT_KINDS, 0)
    )

    def record(self, kind: str) -> None:
        with self._lock:
            self.by_kind[kind] += 1
        get_metrics().count(f"faults.injected.{kind}")

    def record_absorbed(self, kind: str) -> None:
        with self._lock:
            self.absorbed[kind] += 1
        get_metrics().count(f"faults.absorbed.{kind}")

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self.by_kind.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.by_kind)

    def absorbed_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.absorbed)


class FaultInjector:
    """Draws faults from a :class:`FaultPlan` (or replays a script) and
    delivers them at the hook sites."""

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.plan.validate()
        self.counts = FaultCounts()
        self._rng = random.Random(self.plan.seed)
        self._rng_lock = threading.Lock()
        self._script: list[str | None] | None = None
        self._script_index = 0

    @classmethod
    def scripted(
        cls, kinds: Iterable[str | None], stall_ms: float = 50.0
    ) -> "FaultInjector":
        """An injector that replays ``kinds`` verbatim, one entry per
        opportunity (``None`` = no fault), then stops injecting.  For
        deterministic unit tests."""
        injector = cls(FaultPlan(stall_ms=stall_ms))
        script = list(kinds)
        for kind in script:
            if kind is not None and kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        injector._script = script
        return injector

    # -- decision -------------------------------------------------------

    def _next_scripted(self, site_kinds: Sequence[str]) -> str | None:
        assert self._script is not None
        with self._rng_lock:
            if self._script_index >= len(self._script):
                return None
            kind = self._script[self._script_index]
            self._script_index += 1
        if kind is not None and kind not in site_kinds:
            return None
        return kind

    def _draw(self, site_kinds: Sequence[str]) -> str | None:
        if self._script is not None:
            return self._next_scripted(site_kinds)
        with self._rng_lock:
            roll = self._rng.random()
        threshold = 0.0
        for kind in site_kinds:
            threshold += getattr(self.plan, kind)
            if roll < threshold:
                return kind
        return None

    # -- delivery -------------------------------------------------------

    def fire_execute(self, connection: sqlite3.Connection) -> None:
        """Statement-execution site: may raise, stall, or kill the
        connection."""
        kind = self._draw(("busy", "stall", "disconnect"))
        if kind is None:
            return
        if kind == "stall":
            # _stall does its own accounting: the stall counts as
            # injected only when it converts into a DeadlineExceeded
            self._stall()
            return
        self.counts.record(kind)
        if kind == "busy":
            raise InjectedOperationalError(
                "database is locked [injected busy]"
            )
        connection.close()
        raise InjectedOperationalError(
            "connection died [injected disconnect]"
        )

    def fire_lease(self, pool: "BackendPool") -> None:
        """Pool-lease site: may retire the pool mid-acquisition."""
        kind = self._draw(("retire",))
        if kind is None:
            return
        self.counts.record(kind)
        pool.retire()
        error = PoolRetiredError(
            f"backend pool {pool.name} retired [injected retirement race]"
        )
        error.injected = True  # type: ignore[attr-defined]
        raise error

    def _stall(self) -> None:
        """Sleep ``stall_ms``, waking every slice to honor the active
        deadline — a governed query sees :class:`DeadlineExceeded`
        promptly, an ungoverned one simply runs slow.

        Only a stall that actually raises counts as injected; a stall
        that runs to completion caused no failure for the service to
        handle and is tallied as absorbed instead, keeping the chaos
        ledger balanced for services without deadlines."""
        # lazy import: repro.sql.backend imports this module at load
        # time, and repro.service.resilience sits behind the
        # repro.service package __init__ — resolving it here (runtime,
        # everything loaded) avoids the import cycle
        from repro.service.resilience import current_deadline

        remaining = self.plan.stall_ms / 1000.0
        deadline = current_deadline()
        try:
            while remaining > 0:
                if deadline is not None:
                    deadline.check(injected=True)
                step = min(_STALL_SLICE_S, remaining)
                time.sleep(step)
                remaining -= step
            if deadline is not None:
                deadline.check(injected=True)
        except DeadlineExceeded:
            self.counts.record("stall")
            raise
        self.counts.record_absorbed("stall")

    def snapshot(self) -> dict[str, object]:
        """JSON-ready report: the plan and what was actually injected."""
        return {
            "seed": self.plan.seed,
            "rates": {kind: getattr(self.plan, kind) for kind in FAULT_KINDS},
            "stall_ms": self.plan.stall_ms,
            "injected": self.counts.snapshot(),
            "absorbed": self.counts.absorbed_snapshot(),
            "total": self.counts.total,
        }


# -- process-global installation ------------------------------------------

_active: FaultInjector | None = None
_install_lock = threading.Lock()
_suppression = threading.local()


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError("a fault injector is already installed")
        _active = injector
    return injector


def uninstall() -> None:
    global _active
    with _install_lock:
        _active = None


def active() -> FaultInjector | None:
    return _active


@contextmanager
def injection(plan_or_injector: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Install an injector for the duration of the block."""
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


@contextmanager
def suppressed() -> Iterator[None]:
    """Disable injection on this thread for the duration — used by the
    service's degraded path so the fallback of last resort is not
    itself fault-injected."""
    depth = getattr(_suppression, "depth", 0)
    _suppression.depth = depth + 1
    try:
        yield
    finally:
        _suppression.depth = depth


def _suppressed_here() -> bool:
    return getattr(_suppression, "depth", 0) > 0


# -- the hooks production code calls --------------------------------------


def on_execute(connection: sqlite3.Connection) -> None:
    """Called by the SQL backend before executing a statement."""
    injector = _active
    if injector is not None and not _suppressed_here():
        injector.fire_execute(connection)


def on_lease(pool: "BackendPool") -> None:
    """Called by the backend pool while acquiring a lease."""
    injector = _active
    if injector is not None and not _suppressed_here():
        injector.fire_lease(pool)
