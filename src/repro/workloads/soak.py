"""The fault storm: open-loop multi-tenant load through the front door,
every answer checked, every injected fault accounted for.

A closed loop measures how fast N workers can drain a queue; the
storm asks the production question instead: with tenants submitting
on **open-loop Poisson clocks** (arrivals do not wait for completions
— the real shape of independent clients) while the fault injector
(:mod:`repro.faults.injector`) delivers backend misbehavior, does the
serving stack keep its contract?

The storm drives a :class:`~repro.service.FrontDoor` over a
:class:`~repro.service.ShardedService` holding ``documents`` XMark
documents dealt round-robin over a ``Collection(shards)``.  Its
tenants (:data:`STORM_TENANTS`) are the three production personas of
:data:`DEFAULT_TENANTS` — interactive point lookups, analytics
predicate scans, reporting path sweeps, all ``collection()`` queries
scattered over the shards — plus a ``lookup`` persona that sends
XMark queries to the default document (routed to one shard).  Each
arrival draws a template of its tenant's mix and one of the two SQL
engines.  Offered load sweeps a multiplier curve (default ``0.5x, 1x,
2x`` of each tenant's contracted rate), so the **knee** — the last
point where goodput still tracks offered load — and the post-knee
fairness regime are both visible in one report.  The knee is where
the **contract** ends, not where the stack runs out: past it the token
buckets refuse what the tenants did not pay for.  How much the stack
can carry is a question for the ``frontdoor_open`` workload of
``benchmarks/e2e`` (``slo_rate_qps``, ``latency_p95_ms``), not for
this report.

The report's gates (``repro.bench.soak/v3``, ``docs/schemas.md``):

* **no wrong answer** — every OK answer equals an oracle computed on
  the reference interpreter over the combined store before any fault
  is injected, and the first OK answer per (query, engine) also
  serializes byte for byte like the oracle's;
* **no crash** — every failure is a typed
  :class:`~repro.errors.ServiceError`;
* **balanced ledger** — at every load point the injector's total
  equals the service's recovery ledger and the sum of the per-tenant
  ledgers, and each tenant's ledger balances on its own:
  ``injected == retried + degraded + surfaced``;
* **complete slow log** — a flight recorder sized to the precomputed
  arrival count captures every degraded and surfaced call, each with
  EXPLAIN and trace diagnostics (it also splits latency into clean,
  degraded and surfaced calls);
* **knee found** and **fairness** (Jain's index over weight-normalized
  goodput at the highest load point) ``>= 0.9``.

Stalls are sized to overrun the deadline (twice the budget), so every
stall has a deterministic disposition: surfaced as
:class:`~repro.errors.DeadlineExceeded`.  ``fault_rate=0`` runs the
same storm without faults.  The storm is reproducible from ``seed``:
the corpus, the arrival plans and the fault sequence all derive from
it (which thread observes each fault still depends on scheduling,
which is why the gates are invariants, not schedules).  The CLI entry
is ``repro serve-bench``.
"""

from __future__ import annotations

import asyncio
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.engines import Engine
from repro.errors import QuotaExceeded, ServiceError, ServiceOverloaded
from repro.faults import FaultPlan, injection
from repro.obs import Histogram, latency_summary_ms
from repro.obs.flight import FlightRecorder
from repro.pipeline import XQueryProcessor
from repro.service.frontdoor import FrontDoor
from repro.service.scatter import ShardedService
from repro.service.tenancy import TenantSpec
from repro.store import Collection
from repro.workloads.corpus import CorpusConfig, xmark_corpus
from repro.workloads.queries import COLLECTION_QUERIES
from repro.workloads.xmark_queries import XMARK_QUERIES

__all__ = [
    "DEFAULT_TENANTS",
    "STORM_TENANTS",
    "SoakConfig",
    "TenantProfile",
    "format_soak_report",
    "run_soak",
]

SCHEMA = "repro.bench.soak/v3"

#: batches the storm's front door executes at once
_BATCHES = 4


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's contract plus its query-template mix."""

    name: str
    #: template name -> XQuery text; arrivals draw uniformly
    queries: Mapping[str, str]
    #: contracted sustained rate (the token-bucket refill rate); the
    #: soak offers ``multiplier * rate_qps``
    rate_qps: float = 20.0
    #: token-bucket burst capacity
    burst: float = 10.0
    #: weighted-fair share
    weight: float = 1.0
    max_backlog: int = 512

    def spec(self) -> TenantSpec:
        return TenantSpec(
            name=self.name,
            rate_qps=self.rate_qps,
            burst=self.burst,
            weight=self.weight,
            max_backlog=self.max_backlog,
        )


#: Three distinct production personas over the XMark corpus.  Rates
#: are proportional to weights so the post-knee fairness index over
#: ``goodput / weight`` has a meaningful target of 1.0.
DEFAULT_TENANTS: tuple[TenantProfile, ...] = (
    TenantProfile(
        name="interactive",
        queries={
            "PT1": COLLECTION_QUERIES["CX1"],
            "PT2": COLLECTION_QUERIES["CX2"],
        },
        rate_qps=40.0,
        burst=20.0,
        weight=2.0,
    ),
    TenantProfile(
        name="analytics",
        queries={
            "AN1": COLLECTION_QUERIES["CX3"],
            "AN2": COLLECTION_QUERIES["CX4"],
        },
        rate_qps=20.0,
        burst=10.0,
        weight=1.0,
    ),
    TenantProfile(
        name="reporting",
        queries={
            "RP1": "collection()//item/name",
            "RP2": "collection()//open_auction/seller",
        },
        rate_qps=20.0,
        burst=10.0,
        weight=1.0,
    ),
)

#: The storm's tenants: the three personas plus XMark queries routed
#: to the default document, so faults land on routed and on scattered
#: executions alike.
STORM_TENANTS: tuple[TenantProfile, ...] = (
    *DEFAULT_TENANTS,
    TenantProfile(
        name="lookup",
        queries={
            name: XMARK_QUERIES[name].text
            for name in ("X1", "X5", "X13", "X17", "X19")
        },
        rate_qps=20.0,
        burst=10.0,
        weight=1.0,
    ),
)


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one storm (deterministic in ``seed`` up to thread
    scheduling: the corpus, the arrival clocks, the template and engine
    draws and the fault sequence are seeded)."""

    seed: int = 42
    #: wall-clock seconds per load point
    duration_s: float = 5.0
    #: offered-load multipliers over each tenant's contracted rate
    load_points: tuple[float, ...] = (0.5, 1.0, 2.0)
    shards: int = 2
    documents: int = 4
    factor: float = 0.005
    #: overall injected error rate (:meth:`FaultPlan.uniform`); 0 is
    #: the same storm without faults
    fault_rate: float = 0.12
    deadline_s: float = 2.0
    tenants: tuple[TenantProfile, ...] = STORM_TENANTS

    def __post_init__(self) -> None:
        if len(self.tenants) < 2:
            raise ValueError("a soak needs at least two tenants")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.load_points:
            raise ValueError("load_points must be non-empty")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    @property
    def stall_ms(self) -> float:
        """Injected stalls last twice the deadline: every stall
        overruns the budget and surfaces as ``DeadlineExceeded``."""
        return 2_000.0 * self.deadline_s

    def quick(self) -> "SoakConfig":
        """CI-smoke size: tiny corpus, short points."""
        return replace(
            self,
            duration_s=min(self.duration_s, 2.0),
            documents=min(self.documents, 2),
            factor=min(self.factor, 0.002),
            load_points=tuple(self.load_points[:2] or (1.0,)),
        )


@dataclass
class _TenantDrive:
    """Outcome tally of one tenant at one load point (event-loop
    thread only — no locking needed)."""

    offered: int = 0
    ok: int = 0
    rejected_quota: int = 0
    rejected_overload: int = 0
    errors: dict[str, int] = field(default_factory=dict)


@dataclass
class _Answers:
    """Every OK answer checked against the oracle; failures that are
    not typed service errors (event-loop thread only)."""

    #: query text -> the reference interpreter's items
    oracle: dict[str, list[Any]]
    checked: int = 0
    wrong: list[str] = field(default_factory=list)
    crashes: list[str] = field(default_factory=list)
    #: the first OK answer per (query, engine), serialized after the storm
    first: dict[tuple[str, Engine], tuple[str, Any]] = field(
        default_factory=dict
    )

    def check(self, label: str, query: str, engine: Engine, items: Any) -> None:
        self.checked += 1
        if items != self.oracle[query]:
            self.wrong.append(label)
        self.first.setdefault((query, engine), (label, items))


def _schedule(
    profile: TenantProfile,
    multiplier: float,
    duration_s: float,
    rng: random.Random,
) -> list[tuple[float, str, Engine]]:
    """The tenant's precomputed open-loop arrival plan: Poisson
    inter-arrival gaps at ``multiplier * rate_qps``, each arrival
    drawing one template and one SQL engine uniformly."""
    rate = profile.rate_qps * multiplier
    names = sorted(profile.queries)
    arrivals: list[tuple[float, str, Engine]] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration_s:
            return arrivals
        arrivals.append((t, rng.choice(names), rng.choice(Engine.sql_engines())))


async def _drive_tenant(
    door: FrontDoor,
    profile: TenantProfile,
    arrivals: Sequence[tuple[float, str, Engine]],
    drive: _TenantDrive,
    answers: _Answers,
) -> None:
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    inflight: set[asyncio.Task] = set()

    async def one(template: str, engine: Engine) -> None:
        drive.offered += 1
        query = profile.queries[template]
        label = f"{profile.name}/{template}/{engine}"
        try:
            result = await door.submit(profile.name, query, engine)
        except QuotaExceeded:
            drive.rejected_quota += 1
        except ServiceOverloaded:
            drive.rejected_overload += 1
        except Exception as error:
            # deadline misses and surfaced faults are tallied, not
            # re-raised: an open-loop driver keeps arriving
            name = type(error).__name__
            drive.errors[name] = drive.errors.get(name, 0) + 1
            if not isinstance(error, ServiceError):
                answers.crashes.append(f"{label}: {name}: {error}")
        else:
            drive.ok += 1
            answers.check(label, query, engine, result)

    # open loop: arrivals fire on the Poisson clock regardless of how
    # many submissions are still in flight
    for when, template, engine in arrivals:
        delay = when - (loop.time() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(one(template, engine))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
    if inflight:
        await asyncio.gather(*inflight, return_exceptions=True)


async def _run_point(
    service: ShardedService,
    config: SoakConfig,
    multiplier: float,
    schedules: Sequence[list[tuple[float, str, Engine]]],
    answers: _Answers,
) -> dict[str, Any]:
    drives = {profile.name: _TenantDrive() for profile in config.tenants}
    started = time.perf_counter()
    async with FrontDoor(
        service,
        [profile.spec() for profile in config.tenants],
        max_concurrent_batches=_BATCHES,
        deadline_s=config.deadline_s,
    ) as door:
        await asyncio.gather(
            *(
                _drive_tenant(
                    door, profile, arrivals, drives[profile.name], answers
                )
                for profile, arrivals in zip(config.tenants, schedules)
            )
        )
        elapsed_s = time.perf_counter() - started
    # read after the door closed: every batch has merged its counters
    door_stats = door.stats()
    ledger = door.fault_ledger()
    per_tenant: dict[str, Any] = {}
    for profile in config.tenants:
        drive = drives[profile.name]
        tenant_stats = door_stats["tenants"][profile.name]
        per_tenant[profile.name] = {
            "offered": drive.offered,
            "offered_qps": drive.offered / elapsed_s,
            "ok": drive.ok,
            "goodput_qps": drive.ok / elapsed_s,
            "rejected_quota": drive.rejected_quota,
            "rejected_overload": drive.rejected_overload,
            "errors": drive.errors,
            "latency_ms": tenant_stats["latency_ms"],
            "faults": ledger[profile.name],
            "ledger_balanced": tenant_stats["ledger_balanced"],
        }
    offered_total = sum(t["offered"] for t in per_tenant.values())
    ok_total = sum(t["ok"] for t in per_tenant.values())
    return {
        "multiplier": multiplier,
        "elapsed_s": elapsed_s,
        "offered": offered_total,
        "offered_qps": offered_total / elapsed_s,
        "ok": ok_total,
        "goodput_qps": ok_total / elapsed_s,
        "goodput_ratio": (ok_total / offered_total) if offered_total else 1.0,
        "per_tenant": per_tenant,
        "frontdoor": {
            "queue": door_stats["queue"],
            "counters": door_stats["counters"],
        },
    }


def _fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 when every tenant gets the same
    weight-normalized goodput, 1/n when one tenant takes everything."""
    if not values:
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(value * value for value in values)
    if sum_of_squares == 0:
        return 1.0
    return square_of_sum / (len(values) * sum_of_squares)


def _find_knee(curve: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """The last load point — scanning the curve in offered order —
    where goodput still tracks offered load within 10%; past it the
    admission boundary is shedding by design."""
    knee = None
    for point in curve:
        if point["goodput_ratio"] >= 0.9:
            knee = point
        else:
            break
    return {
        "multiplier": knee["multiplier"] if knee else None,
        "goodput_qps": knee["goodput_qps"] if knee else None,
        "goodput_ratio": knee["goodput_ratio"] if knee else None,
    }


def _point_ledger(
    injected: dict[str, int],
    absorbed: dict[str, int],
    handled: dict[str, int],
    per_tenant: Mapping[str, Any],
) -> dict[str, Any]:
    """One load point's three ledgers: what the injector delivered,
    what the service handled, and what the tenants were charged."""
    injected_total = sum(injected.values())
    handled_total = sum(handled.values())
    tenants_total = sum(
        tenant["faults"]["injected"] for tenant in per_tenant.values()
    )
    return {
        "injected": injected,
        "absorbed": absorbed,
        "injected_total": injected_total,
        "handled": handled,
        "handled_total": handled_total,
        "tenants_total": tenants_total,
        "balanced": (
            injected_total == handled_total == tenants_total
            and all(t["ledger_balanced"] for t in per_tenant.values())
        ),
    }


def _flight_analysis(
    recorder: FlightRecorder,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Classify the storm's flight records into clean / degraded /
    surfaced latency populations, and check that the slow-query log
    captured every degraded and surfaced call with diagnostics."""
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
        "complete": expected <= captured
        and with_diagnostics == len(captures),
    }
    return latency, slow_log


def _target(
    config: SoakConfig, arrivals: int
) -> tuple[ShardedService, dict[str, list[Any]], dict[str, str]]:
    """The storm target, and the oracle's items and serialization per
    query text, computed on the reference interpreter over the combined
    store before any fault is injected."""
    collection = Collection(config.shards)
    corpus = xmark_corpus(
        CorpusConfig(
            documents=config.documents, factor=config.factor, seed=config.seed
        )
    )
    for index, tree in enumerate(corpus):
        collection.load_tree(tree, shard=index % config.shards)
    reference = XQueryProcessor(
        store=collection.combined_store(),
        default_doc=corpus[0].uri,
        collections=collection.resolve,
    )
    oracle: dict[str, list[Any]] = {}
    texts: dict[str, str] = {}
    for profile in config.tenants:
        for query in profile.queries.values():
            if query not in oracle:
                items = reference.execute(query, engine="interpreter")
                oracle[query] = items
                texts[query] = reference.serialize(items)
    service = ShardedService(
        collection,
        default_doc=corpus[0].uri,
        # one dispatch thread per shard for each batch the front door
        # runs at once: a stalled shard task holds up its own call only
        workers=_BATCHES * config.shards,
        deadline_s=config.deadline_s,
        # every call retained, promotion by degradation or surfacing
        # only: the latency threshold is parked effectively at
        # infinity (finite, so the snapshot stays JSON-clean)
        flight_recorder=FlightRecorder(
            capacity=max(1, arrivals),
            slow_capacity=max(1, arrivals),
            slow_threshold_s=1e9,
        ),
    )
    return service, oracle, texts


def run_soak(config: SoakConfig | None = None) -> dict[str, Any]:
    """Run the storm; returns the ``repro.bench.soak/v3`` report."""
    cfg = config or SoakConfig()
    multipliers = sorted(cfg.load_points)
    schedules = [
        [
            _schedule(
                profile,
                multiplier,
                cfg.duration_s,
                random.Random(
                    cfg.seed * 1_000_003 + point_index * 101 + tenant_index
                ),
            )
            for tenant_index, profile in enumerate(cfg.tenants)
        ]
        for point_index, multiplier in enumerate(multipliers)
    ]
    service, oracle, texts = _target(
        cfg, sum(len(plan) for point in schedules for plan in point)
    )
    answers = _Answers(oracle)
    faults_on = cfg.fault_rate > 0
    curve: list[dict[str, Any]] = []
    with service:
        for point_index, (multiplier, point_schedules) in enumerate(
            zip(multipliers, schedules)
        ):
            plan = FaultPlan.uniform(
                cfg.fault_rate, seed=cfg.seed + point_index,
                stall_ms=cfg.stall_ms,
            )
            before = service.fault_accounting
            with injection(plan) if faults_on else nullcontext() as injector:
                point = asyncio.run(
                    _run_point(
                        service, cfg, multiplier, point_schedules, answers
                    )
                )
            after = service.fault_accounting
            point["faults"] = _point_ledger(
                injector.counts.snapshot() if injector else {},
                injector.counts.absorbed_snapshot() if injector else {},
                {kind: after[kind] - before[kind] for kind in after},
                point["per_tenant"],
            )
            curve.append(point)
        for (query, _), (label, items) in sorted(answers.first.items()):
            if service.serialize(items) != texts[query]:
                answers.wrong.append(f"{label} (serialized)")
        latency, slow_log = _flight_analysis(service.flight)
    saturated = curve[-1]
    fairness_values = [
        saturated["per_tenant"][profile.name]["goodput_qps"] / profile.weight
        for profile in cfg.tenants
    ]
    fairness = _fairness_index(fairness_values)
    ledger_balanced = all(point["faults"]["balanced"] for point in curve)
    knee = _find_knee(curve)
    report = {
        "schema": SCHEMA,
        "metadata": {
            "seed": cfg.seed,
            "duration_s": cfg.duration_s,
            "load_points": multipliers,
            "shards": cfg.shards,
            "documents": cfg.documents,
            "factor": cfg.factor,
            "deadline_s": cfg.deadline_s,
            "fault_rate": cfg.fault_rate,
            "stall_ms": cfg.stall_ms,
        },
        "tenants": {
            profile.name: {
                "rate_qps": profile.rate_qps,
                "burst": profile.burst,
                "weight": profile.weight,
                "templates": sorted(profile.queries),
            }
            for profile in cfg.tenants
        },
        "curve": curve,
        "knee": knee,
        "fairness": {
            "index": fairness,
            "at_multiplier": saturated["multiplier"],
            "per_tenant_goodput_per_weight": {
                profile.name: value
                for profile, value in zip(cfg.tenants, fairness_values)
            },
        },
        "faults": {
            "enabled": faults_on,
            "rate": cfg.fault_rate,
            "ledger_balanced": ledger_balanced,
        },
        "answers": {
            "checked": answers.checked,
            "serialized": len(answers.first),
            "wrong": answers.wrong,
            "crashes": answers.crashes,
        },
        "latency": latency,
        "slow_log": slow_log,
        "gates": {
            "no_wrong_answers": not answers.wrong,
            "no_crashes": not answers.crashes,
            "ledger_balanced": ledger_balanced,
            "slow_log_complete": slow_log["complete"],
            "knee_found": knee["multiplier"] is not None,
            "fairness_ok": fairness >= 0.9,
        },
    }
    report["gates"]["passed"] = all(report["gates"].values())
    return report


def format_soak_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of a storm report."""
    metadata = report["metadata"]
    answers = report["answers"]
    lines = [
        f"storm [{report['schema']}] — seed {metadata['seed']}, "
        f"{len(report['tenants'])} tenants, {metadata['documents']} "
        f"document(s) on {metadata['shards']} shard(s), faults "
        + (
            f"at {metadata['fault_rate']:.0%}"
            if report["faults"]["enabled"]
            else "off"
        ),
        f"{'mult':>6} {'offered/s':>10} {'goodput/s':>10} {'ratio':>6} "
        f"{'injected/handled/tenants':>25}  per-tenant p99 (ms)",
    ]
    for point in report["curve"]:
        faults = point["faults"]
        p99s = ", ".join(
            f"{name}={stats['latency_ms']['p99']:.1f}"
            for name, stats in sorted(point["per_tenant"].items())
        )
        ledger = (
            f"{faults['injected_total']}/{faults['handled_total']}/"
            f"{faults['tenants_total']}"
        )
        lines.append(
            f"{point['multiplier']:>6.2f} "
            f"{point['offered_qps']:>10.1f} "
            f"{point['goodput_qps']:>10.1f} "
            f"{point['goodput_ratio']:>6.2f} {ledger:>25}  {p99s}"
        )
    knee = report["knee"]
    lines.append(
        f"knee: {knee['multiplier']}x (goodput ratio "
        f"{knee['goodput_ratio'] if knee['goodput_ratio'] is None else round(knee['goodput_ratio'], 3)})"
    )
    lines.append(
        f"fairness (Jain, goodput/weight) at "
        f"{report['fairness']['at_multiplier']}x: "
        f"{report['fairness']['index']:.3f}"
    )
    lines.append(
        f"answers: {answers['checked']} checked against the oracle, "
        f"{answers['serialized']} serialized; {len(answers['wrong'])} "
        f"wrong, {len(answers['crashes'])} crashes"
    )
    for population, summary in report["latency"].items():
        if summary["count"]:
            lines.append(
                f"{population + ' latency':<17}: p50 {summary['p50']:.2f} / "
                f"p95 {summary['p95']:.2f} / p99 {summary['p99']:.2f} ms "
                f"over {summary['count']} call(s)"
            )
    slow_log = report["slow_log"]
    lines.append(
        f"slow-query log   : {slow_log['captured']}/{slow_log['expected']} "
        f"degraded+surfaced calls captured ({slow_log['with_diagnostics']} "
        f"with explain+trace)"
    )
    lines.append(
        "gates: "
        + ", ".join(
            f"{name}={'PASS' if ok else 'FAIL'}"
            for name, ok in report["gates"].items()
            if name != "passed"
        )
    )
    return "\n".join(lines)
