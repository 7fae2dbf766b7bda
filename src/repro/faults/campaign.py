"""The randomized differential chaos campaign.

This is the proof behind ``docs/robustness.md``: hammer the
:class:`repro.service.ShardedService` from many threads while the fault
injector (:mod:`repro.faults.injector`) delivers backend misbehavior at
a configured error rate, and hold the service to its contract:

* every call returns either a **correct** answer (bit-identical to an
  uncached oracle computed on the reference interpreter before the
  storm) or a **clean typed error** (:class:`repro.errors.ServiceError`
  subclass) — never a wrong, partial, or stale result, and never an
  untyped crash;
* every injected fault is **accounted for**: the injector's tally must
  equal the service's recovery ledger,
  ``injected == retried + degraded + surfaced``.

The campaign is reproducible from its config: the injector draws from
``seed``, and each worker thread's query order is derived from
``seed + thread index``.  ``repro serve-bench --faults`` runs exactly
this campaign from the command line and prints/saves the report (CI
uploads it as the chaos seed artifact).

The storm target is a service over ``documents`` XMark documents on a
``Collection(shards)`` — one shard or many, the same serving stack.
The query mix draws XMark queries (routed to the first, default
document) and scatter-safe ``collection()`` queries, so on several
shards injected faults land *inside* the scatter fan-out — a failing
shard triggers the service's full-serial fallback, never a partial
merge.  The oracle is the reference interpreter over the combined
store, and the recovery ledger balances across every shard executor
plus the serial fallback.

The storm service carries a full-size **flight recorder** (every call
retained, promotion by degradation/surfacing only), so the report
separates latency percentiles for *clean* calls, *degraded* calls
(served correct answers through the fallback path) and *surfaced*
errors — the degraded-tail cost of resilience — and verifies that the
slow-query log captured full diagnostics for every degraded and
surfaced call.  The report schema is ``repro.faults.campaign/v5``
(see ``docs/schemas.md``).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Any

from repro.errors import ServiceError
from repro.faults.injector import FaultInjector, FaultPlan, injection
from repro.obs import (
    Histogram,
    MetricsRegistry,
    latency_summary_ms,
    set_metrics,
)
from repro.obs.flight import FlightRecorder
from repro.pipeline import XQueryProcessor
from repro.service.resilience import RetryPolicy
from repro.service.scatter import ShardedService
from repro.store import Collection
from repro.workloads import XMARK_QUERIES
from repro.workloads.corpus import CorpusConfig, xmark_corpus
from repro.workloads.queries import COLLECTION_QUERIES

__all__ = ["ChaosConfig", "format_chaos_report", "run_chaos_campaign"]

SCHEMA = "repro.faults.campaign/v5"

#: service-level typed errors a chaos run is allowed to surface
_ALLOWED_ERRORS = ServiceError

#: every name a query mix may draw: XMark queries (routed to the
#: default document) and scatter-safe ``collection()`` queries
_QUERIES: dict[str, str] = {
    **{name: query.text for name, query in XMARK_QUERIES.items()},
    **COLLECTION_QUERIES,
}


@dataclass(frozen=True)
class ChaosConfig:
    """Everything needed to reproduce one campaign run."""

    seed: int = 0
    threads: int = 8
    queries_per_thread: int = 25
    rate: float = 0.12
    factor: float = 0.002
    deadline_s: float = 2.0
    #: stalls are sized to always overrun the deadline, so every stall
    #: has a deterministic disposition (surfaced as DeadlineExceeded);
    #: a stall that fit the budget would count as absorbed, not
    #: injected, so the accounting gate holds either way
    stall_ms: float = 4_000.0
    max_retries: int = 3
    breaker_threshold: int = 6
    breaker_reset_s: float = 0.05
    query_mix: tuple[str, ...] = (
        "X1", "X5", "X13", "X17", "X19", "CX1", "CX2", "CX3", "CX4",
    )
    engines: tuple[str, ...] = ("joingraph-sql", "stacked-sql")
    shards: int = 1
    documents: int = 4

    def __post_init__(self) -> None:
        unknown = sorted(set(self.query_mix) - set(_QUERIES))
        if unknown:
            raise ValueError(
                f"unknown query_mix name(s) {unknown}; "
                f"known: {sorted(_QUERIES)}"
            )

    def plan(self) -> FaultPlan:
        return FaultPlan.uniform(
            self.rate, seed=self.seed, stall_ms=self.stall_ms
        )

    @property
    def calls(self) -> int:
        return self.threads * self.queries_per_thread

    def recorder(self) -> FlightRecorder:
        """A storm-sized flight recorder: every call retained (no ring
        eviction over the campaign), promotion by degradation or
        surfacing only — the latency threshold is parked effectively
        at infinity (but finite: the snapshot must stay JSON-clean)."""
        return FlightRecorder(
            capacity=self.calls,
            slow_capacity=self.calls,
            slow_threshold_s=1e9,
        )


@dataclass
class _Outcomes:
    """Thread-safe tally of per-call outcomes."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    ok: int = 0
    typed_errors: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    crashes: list[str] = field(default_factory=list)

    def record_ok(self) -> None:
        with self.lock:
            self.ok += 1

    def record_error(self, error: BaseException) -> None:
        name = type(error).__name__
        with self.lock:
            self.typed_errors[name] = self.typed_errors.get(name, 0) + 1

    def record_wrong(self, detail: str) -> None:
        with self.lock:
            self.wrong.append(detail)

    def record_crash(self, detail: str) -> None:
        with self.lock:
            self.crashes.append(detail)


def _target(config: ChaosConfig):
    """The storm target: ``documents`` XMark documents dealt round-robin
    over a ``Collection(shards)``, the first one the default document."""
    collection = Collection(config.shards)
    corpus = xmark_corpus(
        CorpusConfig(documents=config.documents, factor=config.factor)
    )
    for index, tree in enumerate(corpus):
        collection.load_tree(tree, shard=index % config.shards)
    texts = {name: _QUERIES[name] for name in config.query_mix}

    # the uncached oracle: a bare processor on the reference
    # interpreter over the combined store, computed before any fault is
    # ever injected
    oracle_processor = XQueryProcessor(
        store=collection.combined_store(),
        default_doc=corpus[0].uri,
        collections=collection.resolve,
    )
    oracle = {
        name: oracle_processor.execute(text, engine="interpreter")
        for name, text in texts.items()
    }

    service = ShardedService(
        collection,
        default_doc=corpus[0].uri,
        workers=config.threads,
        deadline_s=config.deadline_s,
        retry=RetryPolicy(max_retries=config.max_retries),
        breaker_threshold=config.breaker_threshold,
        breaker_reset_s=config.breaker_reset_s,
        degrade=True,
        flight_recorder=config.recorder(),
    )
    return service, texts, oracle


def run_chaos_campaign(config: ChaosConfig = ChaosConfig()) -> dict[str, Any]:
    """Run one full campaign; returns the JSON-ready report.

    The report's ``contract`` section is the acceptance gate: it must
    show zero wrong results, zero crashes, and balanced accounting.
    """
    service, texts, oracle = _target(config)
    outcomes = _Outcomes()
    campaign_metrics = MetricsRegistry()
    merge_lock = threading.Lock()
    barrier = threading.Barrier(config.threads)
    names = sorted(texts)

    def worker(index: int) -> None:
        rng = Random(config.seed + index)
        local = MetricsRegistry()
        previous = set_metrics(local)
        try:
            barrier.wait()
            for _ in range(config.queries_per_thread):
                name = rng.choice(names)
                engine = rng.choice(config.engines)
                try:
                    items = service.execute(texts[name], engine=engine)
                except _ALLOWED_ERRORS as error:
                    outcomes.record_error(error)
                except Exception as error:  # noqa: BLE001 - the contract
                    outcomes.record_crash(
                        f"{name}/{engine}: {type(error).__name__}: {error}"
                    )
                else:
                    if items == oracle[name]:
                        outcomes.record_ok()
                    else:
                        outcomes.record_wrong(f"{name}/{engine}")
        finally:
            set_metrics(previous)
            with merge_lock:
                campaign_metrics.merge(local)

    injector = FaultInjector(config.plan())
    try:
        with injection(injector):
            threads = [
                threading.Thread(target=worker, args=(n,), name=f"chaos-{n}")
                for n in range(config.threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        service.close()

    handled = service.fault_accounting
    injected = injector.counts.total
    accounted = sum(handled.values())
    calls = config.calls
    counters = campaign_metrics.snapshot()["counters"]
    latency, slow_log = _flight_analysis(service.flight)
    return {
        "schema": SCHEMA,
        "config": asdict(config),
        "calls": calls,
        "outcomes": {
            "ok": outcomes.ok,
            "typed_errors": dict(sorted(outcomes.typed_errors.items())),
            "wrong": list(outcomes.wrong),
            "crashes": list(outcomes.crashes),
        },
        "faults": {
            "injected": injector.counts.snapshot(),
            "absorbed": injector.counts.absorbed_snapshot(),
            "injected_total": injected,
            "handled": handled,
            "handled_total": accounted,
        },
        "contract": {
            "no_wrong_results": not outcomes.wrong,
            "no_crashes": not outcomes.crashes,
            "accounting_balanced": injected == accounted,
            "holds": (
                not outcomes.wrong
                and not outcomes.crashes
                and injected == accounted
            ),
        },
        "latency": latency,
        "slow_log": slow_log,
        "counters": {
            name: value
            for name, value in counters.items()
            if name.startswith(("service.", "faults."))
        },
    }


def _flight_analysis(
    recorder: FlightRecorder | None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Classify the storm's flight records into clean / degraded /
    surfaced latency populations, and check the slow-query log
    captured full diagnostics for every degraded and surfaced call."""
    if recorder is None:  # pragma: no cover - campaign always records
        return {}, {}
    populations = {
        "clean": Histogram(),
        "degraded": Histogram(),
        "surfaced": Histogram(),
    }
    expected: set[int] = set()
    for record in recorder.records():
        if record.surfaced:
            populations["surfaced"].observe(record.elapsed_ns)
            expected.add(record.seq)
        elif record.degraded:
            populations["degraded"].observe(record.elapsed_ns)
            expected.add(record.seq)
        else:
            populations["clean"].observe(record.elapsed_ns)
    captures = recorder.slow()
    captured = {capture.record.seq for capture in captures}
    with_diagnostics = sum(
        1 for capture in captures if capture.explain and capture.trace
    )
    latency = {
        name: latency_summary_ms(histogram)
        for name, histogram in populations.items()
    }
    slow_log = {
        "expected": len(expected),
        "captured": len(captured & expected),
        "with_diagnostics": with_diagnostics,
        "complete": expected <= captured,
    }
    return latency, slow_log


def format_chaos_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of a campaign report."""
    config = report["config"]
    outcomes = report["outcomes"]
    faults = report["faults"]
    contract = report["contract"]
    lines = [
        f"chaos campaign — seed {config['seed']}, {config['threads']} threads "
        f"x {config['queries_per_thread']} queries, "
        f"{config['rate']:.0%} fault rate (xmark factor {config['factor']})",
        f"  collection        : {config['documents']} document(s) on "
        f"{config['shards']} shard(s)",
        f"  calls             : {report['calls']}",
        f"  correct answers   : {outcomes['ok']}",
        "  typed errors      : "
        + (
            ", ".join(
                f"{name} x{count}"
                for name, count in outcomes["typed_errors"].items()
            )
            or "none"
        ),
        f"  wrong results     : {len(outcomes['wrong'])}",
        f"  crashes           : {len(outcomes['crashes'])}",
        "  injected          : "
        + ", ".join(
            f"{kind} x{count}"
            for kind, count in faults["injected"].items()
            if count
        )
        + f" (total {faults['injected_total']})",
        f"  handled           : retry {faults['handled']['retry']}, "
        f"degrade {faults['handled']['degrade']}, "
        f"surface {faults['handled']['surface']} "
        f"(total {faults['handled_total']})",
        f"  contract          : "
        f"{'HOLDS' if contract['holds'] else 'VIOLATED'} "
        f"(wrong={not contract['no_wrong_results']}, "
        f"crashes={not contract['no_crashes']}, "
        f"accounting={'balanced' if contract['accounting_balanced'] else 'UNBALANCED'})",
    ]
    latency = report.get("latency") or {}
    for population in ("clean", "degraded", "surfaced"):
        summary = latency.get(population)
        if not summary or not summary["count"]:
            continue
        lines.append(
            f"  {population + ' latency':<18}: "
            f"p50 {summary['p50']:.2f} / p95 {summary['p95']:.2f} / "
            f"p99 {summary['p99']:.2f} ms over {summary['count']} call(s)"
        )
    slow_log = report.get("slow_log")
    if slow_log:
        lines.append(
            f"  slow-query log    : {slow_log['captured']}/"
            f"{slow_log['expected']} degraded+surfaced calls captured "
            f"({slow_log['with_diagnostics']} with explain+trace) — "
            f"{'complete' if slow_log['complete'] else 'INCOMPLETE'}"
        )
    return "\n".join(lines)
