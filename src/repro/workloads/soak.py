"""Open-loop multi-tenant soak harness for the front door.

A closed loop measures how fast N workers can drain a queue; a *soak*
answers the production question instead: with tenants submitting on
**open-loop Poisson clocks** (arrivals do not wait for completions —
the real shape of independent clients), does the admission boundary
keep per-tenant latency, fairness, and the fault ledger honest as
offered load sweeps past each tenant's contract?

The harness drives a :class:`~repro.service.FrontDoor` over a sharded
XMark corpus with ``N >= 3`` tenants, each with a distinct query-
template mix (interactive point lookups, analytics predicate scans,
reporting path sweeps) and a quota/weight contract.  Offered load
sweeps a multiplier curve (default ``0.5x, 1x, 2x`` of each tenant's
contracted rate) so the **knee** — the last point where goodput still
tracks offered load — and the post-knee fairness regime are both
visible in one report.  The knee is where the **contract** ends, not
where the stack runs out: past it the token buckets refuse what the
tenants did not pay for (76 q/s of goodput under the default quotas,
which refill at 80 q/s in total; with quotas lifted the same front
door holds its latency limit up to ``slo_rate_qps`` 360).  How much
the stack can carry is a question for the ``frontdoor_open`` workload
of ``benchmarks/e2e`` (``slo_rate_qps``, ``latency_p95_ms``), not for
this report.

With ``fault_rate > 0`` the whole soak runs under chaos injection
(:func:`repro.faults.injection`), and the report carries the
**per-tenant fault ledger**: for every tenant,
``injected == retried + degraded + surfaced`` must hold exactly
(lossless per-tenant attribution is what the front door's per-group
metric registries buy; see ``docs/serving.md``).

A **differential gate** samples ~1% of OK responses during the storm,
then — faults off — re-executes each sampled query on a bare serial
:class:`~repro.pipeline.XQueryProcessor` over the same corpus and
asserts byte-identical serialization.  Chaos may slow answers;
it must never change them.

Emits ``repro.bench.soak/v2`` (``docs/schemas.md``); the CLI entry is
``repro serve-bench --soak``.
"""

from __future__ import annotations

import asyncio
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.errors import QuotaExceeded, ServiceOverloaded
from repro.faults import FaultPlan, injection
from repro.pipeline import XQueryProcessor
from repro.service.frontdoor import FrontDoor
from repro.service.scatter import ShardedService
from repro.service.tenancy import TenantSpec
from repro.store import Collection
from repro.workloads.corpus import CorpusConfig, xmark_corpus
from repro.workloads.queries import COLLECTION_QUERIES
from repro.xmltree.serializer import serialize

__all__ = [
    "DEFAULT_TENANTS",
    "SoakConfig",
    "TenantProfile",
    "format_soak_report",
    "run_soak",
]

SCHEMA = "repro.bench.soak/v2"


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


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run (deterministic in ``seed`` up to async
    scheduling: arrival clocks and template draws are seeded)."""

    seed: int = 42
    #: wall-clock seconds per load point
    duration_s: float = 5.0
    #: offered-load multipliers over each tenant's contracted rate
    load_points: tuple[float, ...] = (0.5, 1.0, 2.0)
    shards: int = 2
    documents: int = 4
    factor: float = 0.005
    #: overall chaos rate (:meth:`FaultPlan.uniform`); 0 disables
    fault_rate: float = 0.0
    fault_seed: int = 0
    deadline_s: float = 2.0
    #: fraction of OK responses sampled for the differential gate
    differential_rate: float = 0.01
    max_differential_samples: int = 64
    tenants: tuple[TenantProfile, ...] = DEFAULT_TENANTS

    def __post_init__(self) -> None:
        if len(self.tenants) < 2:
            raise ValueError("a soak needs at least two tenants")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.load_points:
            raise ValueError("load_points must be non-empty")
        if not 0.0 <= self.differential_rate <= 1.0:
            raise ValueError("differential_rate must be in [0, 1]")

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
class _Sample:
    """One differentially-checked response."""

    tenant: str
    template: str
    query: str
    text: str
    multiplier: float


@dataclass
class _TenantDrive:
    """Outcome tally of one tenant at one load point (event-loop
    thread only — no locking needed)."""

    offered: int = 0
    ok: int = 0
    rejected_quota: int = 0
    rejected_overload: int = 0
    errors: dict[str, int] = field(default_factory=dict)


def _schedule(
    profile: TenantProfile,
    multiplier: float,
    duration_s: float,
    rng: random.Random,
) -> list[tuple[float, str]]:
    """The tenant's precomputed open-loop arrival plan: Poisson
    inter-arrival gaps at ``multiplier * rate_qps``, each arrival
    drawing one template uniformly."""
    rate = profile.rate_qps * multiplier
    names = sorted(profile.queries)
    arrivals: list[tuple[float, str]] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration_s:
            return arrivals
        arrivals.append((t, rng.choice(names)))


async def _drive_tenant(
    door: FrontDoor,
    service: ShardedService,
    profile: TenantProfile,
    arrivals: Sequence[tuple[float, str]],
    drive: _TenantDrive,
    sampler: random.Random,
    samples: list[_Sample],
    config: SoakConfig,
    multiplier: float,
) -> None:
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    inflight: set[asyncio.Task] = set()

    async def one(template: str) -> None:
        drive.offered += 1
        try:
            result = await door.submit(
                profile.name, profile.queries[template]
            )
        except QuotaExceeded:
            drive.rejected_quota += 1
        except ServiceOverloaded:
            drive.rejected_overload += 1
        except Exception as error:
            # deadline misses and surfaced injected faults — tallied,
            # not re-raised: an open-loop driver keeps arriving
            name = type(error).__name__
            drive.errors[name] = drive.errors.get(name, 0) + 1
        else:
            drive.ok += 1
            if (
                len(samples) < config.max_differential_samples
                and sampler.random() < config.differential_rate
            ):
                samples.append(
                    _Sample(
                        tenant=profile.name,
                        template=template,
                        query=profile.queries[template],
                        text=service.serialize(result),
                        multiplier=multiplier,
                    )
                )

    # open loop: arrivals fire on the Poisson clock regardless of how
    # many submissions are still in flight
    for when, template in arrivals:
        delay = when - (loop.time() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        task = asyncio.create_task(one(template))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
    if inflight:
        await asyncio.gather(*inflight, return_exceptions=True)


async def _run_point(
    service: ShardedService,
    config: SoakConfig,
    multiplier: float,
    point_index: int,
    samples: list[_Sample],
) -> dict[str, Any]:
    drives = {profile.name: _TenantDrive() for profile in config.tenants}
    sampler = random.Random(config.seed * 7919 + point_index)
    started = time.perf_counter()
    async with FrontDoor(
        service,
        [profile.spec() for profile in config.tenants],
        deadline_s=config.deadline_s,
    ) as door:
        await asyncio.gather(
            *(
                _drive_tenant(
                    door,
                    service,
                    profile,
                    _schedule(
                        profile,
                        multiplier,
                        config.duration_s,
                        random.Random(
                            config.seed * 1_000_003
                            + point_index * 101
                            + tenant_index
                        ),
                    ),
                    drives[profile.name],
                    sampler,
                    samples,
                    config,
                    multiplier,
                )
                for tenant_index, profile in enumerate(config.tenants)
            )
        )
        elapsed_s = time.perf_counter() - started
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


def _differential_check(
    samples: Sequence[_Sample],
    texts: Sequence[tuple[str, str]],
) -> dict[str, Any]:
    """Re-execute every sampled query on a bare serial processor —
    faults are off by now — and demand byte-identical serialization."""
    if not samples:
        return {"sampled": 0, "checked": 0, "mismatches": []}
    processor = XQueryProcessor()
    for text, uri in texts:
        processor.load(text, uri)
    reference: dict[str, str] = {}
    mismatches: list[dict[str, Any]] = []
    for sample in samples:
        expected = reference.get(sample.query)
        if expected is None:
            items = processor.execute(sample.query)
            expected = reference[sample.query] = processor.serialize(items)
        if sample.text != expected:
            mismatches.append(
                {
                    "tenant": sample.tenant,
                    "template": sample.template,
                    "multiplier": sample.multiplier,
                    "got_bytes": len(sample.text),
                    "expected_bytes": len(expected),
                }
            )
    return {
        "sampled": len(samples),
        "checked": len(samples),
        "mismatches": mismatches,
    }


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


def run_soak(config: SoakConfig | None = None) -> dict[str, Any]:
    """Run the soak curve; returns the ``repro.bench.soak/v2`` report."""
    cfg = config or SoakConfig()
    corpus = CorpusConfig(
        documents=cfg.documents, factor=cfg.factor, seed=cfg.seed
    )
    texts = [(serialize(tree), tree.uri) for tree in xmark_corpus(corpus)]
    samples: list[_Sample] = []
    curve: list[dict[str, Any]] = []
    with ShardedService(
        Collection(cfg.shards),
        deadline_s=cfg.deadline_s,
    ) as service:
        for text, uri in texts:
            service.load(text, uri)
        faults_on = cfg.fault_rate > 0
        plan = (
            FaultPlan.uniform(cfg.fault_rate, seed=cfg.fault_seed)
            if faults_on
            else None
        )
        for point_index, multiplier in enumerate(
            sorted(cfg.load_points)
        ):
            scope = injection(plan) if plan is not None else nullcontext()
            with scope as injector:
                point = asyncio.run(
                    _run_point(service, cfg, multiplier, point_index, samples)
                )
                point["faults_injected"] = (
                    injector.counts.snapshot() if injector is not None else {}
                )
            curve.append(point)
        flight = service.stats().get("flight")
    differential = _differential_check(samples, texts)
    saturated = curve[-1]
    fairness_values = [
        saturated["per_tenant"][profile.name]["goodput_qps"] / profile.weight
        for profile in cfg.tenants
    ]
    fairness = _fairness_index(fairness_values)
    ledger_balanced = all(
        tenant["ledger_balanced"]
        for point in curve
        for tenant in point["per_tenant"].values()
    )
    knee = _find_knee(curve)
    report = {
        "schema": SCHEMA,
        "metadata": {
            "seed": cfg.seed,
            "duration_s": cfg.duration_s,
            "load_points": sorted(cfg.load_points),
            "shards": cfg.shards,
            "documents": cfg.documents,
            "factor": cfg.factor,
            "deadline_s": cfg.deadline_s,
            "fault_rate": cfg.fault_rate,
            "fault_seed": cfg.fault_seed,
            "differential_rate": cfg.differential_rate,
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
        "differential": differential,
        "flight": flight,
        "gates": {
            "knee_found": knee["multiplier"] is not None,
            "fairness_ok": fairness >= 0.9,
            "ledger_balanced": ledger_balanced,
            "differential_ok": not differential["mismatches"],
        },
    }
    report["gates"]["passed"] = all(report["gates"].values())
    return report


def format_soak_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of a soak report."""
    lines = [
        f"soak [{report['schema']}] — "
        f"{len(report['tenants'])} tenants, "
        f"faults {'on' if report['faults']['enabled'] else 'off'}"
    ]
    header = (
        f"{'mult':>6} {'offered/s':>10} {'goodput/s':>10} "
        f"{'ratio':>6}  per-tenant p99 (ms)"
    )
    lines.append(header)
    for point in report["curve"]:
        p99s = ", ".join(
            f"{name}={stats['latency_ms']['p99']:.1f}"
            for name, stats in sorted(point["per_tenant"].items())
        )
        lines.append(
            f"{point['multiplier']:>6.2f} "
            f"{point['offered_qps']:>10.1f} "
            f"{point['goodput_qps']:>10.1f} "
            f"{point['goodput_ratio']:>6.2f}  {p99s}"
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
        f"fault ledger balanced: {report['faults']['ledger_balanced']}; "
        f"differential: {report['differential']['sampled']} sampled, "
        f"{len(report['differential']['mismatches'])} mismatches"
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
