"""The six workloads: inputs, set-up and the measured lap of each.

Every stack is built with ``repro.connect(...)`` / ``XQueryProcessor()``
**defaults**; only ``shards`` and ``default_doc`` are set, so a later
change of a default is measured, not masked.  The sizes below are the
frozen op counts; ``--quick`` shrinks them for the smoke check.

A run is a sequence of *laps*.  Each lap draws a fresh corpus from the
run's seed, sets the stack up (timed: ``setup_s``), then measures a
third of the window on it.  Three corpora per run keep one unlucky
back-end plan from deciding a per-template median.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import repro
from repro.errors import QuotaExceeded
from repro.obs import get_metrics
from repro.pipeline import XQueryProcessor
from repro.service import FrontDoor, TenantSpec
from repro.workloads.corpus import CorpusConfig, xmark_corpus
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.soak import DEFAULT_TENANTS
from repro.workloads.xmark import XMarkConfig, generate_xmark
from repro.workloads.xmark_queries import XMARK_QUERIES
from repro.xmltree.serializer import serialize

from harness import Samples
from oracle import JOINS, Answer, Oracle

URI = "auction.xml"

#: the 12 catalog templates: XMark X1…X19 plus the paper's Q1, Q2, Q4
CATALOG: dict[str, str] = {
    **{name: query.text for name, query in XMARK_QUERIES.items()},
    **{name: PAPER_QUERIES[name].text for name in ("Q1", "Q2", "Q4")},
}


@dataclass
class Request:
    template: str
    query: str
    answer: Answer


@dataclass
class Inputs:
    """What one lap runs on: generated from the seed, handed to the
    program only as XML text and query text."""

    texts: list[tuple[str, str]]
    oracle: Oracle
    requests: list[Request]
    extra: dict[str, Any] = field(default_factory=dict)


def _corpus(rng: random.Random, factor: float, documents: int = 1) -> Inputs:
    seed = rng.randrange(1 << 30)
    if documents == 1:
        trees = [generate_xmark(XMarkConfig(factor=factor, seed=seed), uri=URI)]
    else:
        trees = xmark_corpus(
            CorpusConfig(documents=documents, factor=factor, seed=seed)
        )
    return Inputs(
        texts=[(serialize(tree), tree.uri) for tree in trees],
        oracle=Oracle(trees),
        requests=[],
    )


def _catalog(quick: bool) -> dict[str, str]:
    """``--quick`` leaves out the two templates that take a second
    each to compile."""
    if not quick:
        return CATALOG
    return {n: q for n, q in CATALOG.items() if n not in ("X9", "Q2")}


def _requests(oracle: Oracle, templates: dict[str, str]) -> list[Request]:
    return [
        Request(name, query, oracle.answer(query, name if name in JOINS else None))
        for name, query in templates.items()
    ]


def timed_request(
    call: Callable[[str], Any], request: Request, samples: Samples
) -> float:
    """One closed-loop request: query text in, serialized XML ``str``
    out.  The oracle comparison runs after the timer stops."""
    start = time.perf_counter()
    try:
        out = call(request.query)
    except Exception as error:  # a failed request is counted, not fatal
        elapsed = time.perf_counter() - start
        samples.add(request.template, elapsed, False, repr(error))
        return elapsed
    elapsed = time.perf_counter() - start
    ok = request.answer.matches(out.result, out)
    samples.add(request.template, elapsed, ok, "answer differs from oracle")
    return elapsed


def closed_loop(
    rounds: Iterator[Sequence[Request]],
    call: Callable[[str], Any],
    seconds: float,
    samples: Samples,
) -> None:
    """One client, next request only after the previous completed.
    Whole rounds run until ``seconds`` of request time have passed, so
    every template keeps its share of the mix."""
    busy = 0.0
    while busy < seconds:
        for request in next(rounds):
            busy += timed_request(call, request, samples)
    samples.window_s += busy


def _compiles() -> float:
    return get_metrics().counters.get("pipeline.compiles", 0)


class Workload:
    name = ""
    why = ""
    #: window-shape guard: compiles allowed inside the measured window
    compiles_allowed = True

    def __init__(self, quick: bool = False):
        self.quick = quick

    def inputs(self, rng: random.Random) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def lap(
        self,
        state: Any,
        inputs: Inputs,
        seconds: float,
        samples: Samples,
        rng: random.Random,
    ) -> None:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        state.close()

    def sizes(self) -> dict[str, Any]:
        """The frozen op counts, for the output header."""
        return {
            key: value
            for key, value in vars(type(self)).items()
            if key.isupper()
        }


def _load_session(inputs: Inputs, **connect: Any) -> repro.Session:
    session = repro.connect(**connect)
    for text, uri in inputs.texts:
        session.load(text, uri)
    return session


class ColdCatalog(Workload):
    name = "cold_catalog"
    why = (
        "bare XQueryProcessor.run, no caches: join-graph isolation (~80%) and "
        "SQL codegen (~16%) do the work; serving-layer changes must show "
        "nothing here"
    )
    FACTOR = 0.01

    def inputs(self, rng: random.Random) -> Inputs:
        inputs = _corpus(rng, 0.002 if self.quick else self.FACTOR)
        inputs.requests = _requests(inputs.oracle, _catalog(self.quick))
        return inputs

    def setup(self, inputs: Inputs) -> XQueryProcessor:
        processor = XQueryProcessor()
        for text, uri in inputs.texts:
            processor.load(text, uri)
        processor.backend  # build the SQLite image before the window
        processor.run(CATALOG["X13"])
        return processor

    def lap(self, state, inputs, seconds, samples, rng) -> None:
        closed_loop(itertools.repeat(inputs.requests), state.run, seconds, samples)

    def close(self, state: XQueryProcessor) -> None:
        state.backend.close()


class WarmExec(Workload):
    name = "warm_exec"
    why = (
        "12 compiled templates at a size where SQLite and serialization "
        "do the work; rewrite changes must not move it"
    )
    compiles_allowed = False
    FACTOR = 0.03

    def inputs(self, rng: random.Random) -> Inputs:
        inputs = _corpus(rng, 0.002 if self.quick else self.FACTOR)
        inputs.requests = _requests(inputs.oracle, _catalog(self.quick))
        return inputs

    def setup(self, inputs: Inputs) -> repro.Session:
        session = _load_session(inputs, default_doc=URI)
        for request in inputs.requests:
            session.run(request.query)
        return session

    def lap(self, state, inputs, seconds, samples, rng) -> None:
        closed_loop(itertools.repeat(inputs.requests), state.run, seconds, samples)


# -- template_mix ---------------------------------------------------------

#: entity -> child elements usable as an existence predicate (the
#: vocabulary of the pattern pool)
VOCABULARY: dict[str, tuple[str, ...]] = {
    "item": ("location", "quantity", "payment", "description", "incategory"),
    "open_auction": ("initial", "bidder", "current", "seller", "type"),
    "person": ("emailaddress", "phone", "address"),
    "closed_auction": ("seller", "buyer", "itemref", "date", "annotation"),
}
#: the step every pattern of an entity ends in: small answers, so the
#: ladder and not serialization is what a request costs.  Never a
#: predicate child: ``//e[t]/t`` minimizes to ``//e/t``, and a variant
#: would silently equal its base.
TAILS: dict[str, str] = {
    "item": "name",
    "open_auction": "itemref",
    "person": "name",
    "closed_auction": "price",
}
#: numeric children usable in a threshold predicate
NUMERIC: dict[str, tuple[str, tuple[int, ...]]] = {
    "item": ("quantity", (1, 2, 3)),
    "open_auction": ("initial", (50, 100, 200)),
}


@dataclass
class Pattern:
    """One pool entry: a spelling of ``//entity[p1][p2]…/tail``."""

    name: str
    entity: str
    predicates: tuple[str, ...]
    style: int
    query: str = ""

    @property
    def is_base(self) -> bool:
        return len(self.predicates) == 1 and self.style == 0

    def spell(self, tag: int) -> None:
        """Styles: 0 plain, 1 predicates reversed, 2 explicit child
        axes, 3 a leading comment, 4 padded whitespace."""
        entity, tail = self.entity, TAILS[self.entity]
        predicates = self.predicates[::-1] if self.style == 1 else self.predicates
        if self.style == 2:
            body = "".join(f"[child::{p}]" for p in predicates)
            self.query = f"//child::{entity}{body}/child::{tail}"
        elif self.style == 4:
            body = " ".join(f"[ {p} ]" for p in predicates)
            self.query = f"//{entity} {body} / {tail}"
        else:
            body = "".join(f"[{p}]" for p in predicates)
            comment = f"(: t{tag} :) " if self.style == 3 else ""
            self.query = f"{comment}//{entity}{body}/{tail}"


def pattern_pool(
    rng: random.Random, bases_per_entity: int, variants: int
) -> list[Pattern]:
    """The seeded pool, already in Zipf rank order.

    Per (entity, base child) one *group*: each strictly contained
    variant (extra predicates, value thresholds) in three spellings,
    and the base ``//e[c]/tail`` (admitted as a view in warm-up) in
    three.  Ranks go position by position across the groups, entities
    taking turns, so every seed draws the same share of requests from
    each cache tier; the seed picks which children, predicates,
    thresholds and spellings fill the positions."""
    groups: list[list[Pattern]] = []
    entities = rng.sample(sorted(VOCABULARY), len(VOCABULARY))
    chosen = {e: rng.sample(VOCABULARY[e], bases_per_entity) for e in entities}
    for j in range(bases_per_entity):
        for entity in entities:
            base_child = chosen[entity][j]
            base = f"{entity}.{base_child}"
            others = [c for c in VOCABULARY[entity] if c != base_child]
            group: list[Pattern] = []
            for v in range(variants):
                extra = rng.sample(others, rng.randint(1, 2))
                if entity in NUMERIC and rng.random() < 0.3:
                    child, thresholds = NUMERIC[entity]
                    extra.append(f"{child} > {rng.choice(thresholds)}")
                for style in (0, *rng.sample((1, 2, 3, 4), 2)):
                    group.append(
                        Pattern(f"{base}+{v}~{style}", entity, (base_child, *extra), style)
                    )
            # the base's three spellings go third in the group: the
            # SQL-backed share of draws (~7%) stays clear of the 95th
            # percentile, which would otherwise flip between tiers
            group[6:6] = [
                Pattern(f"{base}~{style}", entity, (base_child,), style)
                for style in (0, 2, 3)
            ]
            groups.append(group)
    pool = [group[i] for i in range(len(groups[0])) for group in groups]
    for tag, pattern in enumerate(pool):
        pattern.spell(tag)
    return pool


class TemplateMix(Workload):
    name = "template_mix"
    why = (
        "Zipf draws over ~180 respelled and contained path patterns: the "
        "cache ladder, containment and the view filter do the work"
    )
    compiles_allowed = False
    FACTOR = 0.02
    BASES_PER_ENTITY = 3
    VARIANTS = 4
    ROUND = 200

    def inputs(self, rng: random.Random) -> Inputs:
        inputs = _corpus(rng, 0.002 if self.quick else self.FACTOR)
        pool = pattern_pool(
            rng, 2 if self.quick else self.BASES_PER_ENTITY, self.VARIANTS
        )
        inputs.requests = [
            Request(
                p.name,
                p.query,
                inputs.oracle.answer(
                    p.query, pattern=(p.entity, p.predicates, TAILS[p.entity])
                ),
            )
            for p in pool
        ]
        inputs.extra["pool"] = pool
        inputs.extra["groups"] = sum(p.is_base for p in pool)
        # Zipf(1.0) over the pool's rank order
        inputs.extra["weights"] = [1.0 / (rank + 1) for rank in range(len(pool))]
        return inputs

    def setup(self, inputs: Inputs) -> repro.Session:
        session = _load_session(inputs)
        for pattern in inputs.extra["pool"]:
            if pattern.is_base:
                for _ in range(3):  # the third execution admits the view
                    session.run(pattern.query)
        return session

    def rounds(self, inputs: Inputs, rng: random.Random) -> Iterator[Sequence[Request]]:
        """Rounds of Zipf(1.0) draws over the pool's rank order.  Between
        rounds popularity drifts by one group — the head of the
        distribution moves to the next (entity, base) group, positions
        (and so cache tiers) keep their ranks — so a window averages
        over which pattern happens to be hottest."""
        groups = inputs.extra["groups"]
        requests = inputs.requests
        shift = rng.randrange(groups)
        while True:
            ranked = [
                requests[i - i % groups + (i + shift) % groups]
                for i in range(len(requests))
            ]
            yield rng.choices(
                ranked,
                weights=inputs.extra["weights"],
                k=50 if self.quick else self.ROUND,
            )
            shift += 1

    def lap(self, state, inputs, seconds, samples, rng) -> None:
        closed_loop(self.rounds(inputs, rng), state.run, seconds, samples)


# -- collection_scatter ---------------------------------------------------

#: the six collection() templates of the soak tenants
SOAK_TEMPLATES: dict[str, str] = {
    name: query
    for profile in DEFAULT_TENANTS
    for name, query in profile.queries.items()
}


class CollectionScatter(Workload):
    name = "collection_scatter"
    why = (
        "six collection() templates over 8 documents on 4 shards: "
        "fan-out, per-shard SQLite, to_global merge, multi-shard "
        "serialization; planner and scatter work shows only here"
    )
    compiles_allowed = False
    FACTOR = 0.01
    DOCUMENTS = 8
    SHARDS = 4

    def inputs(self, rng: random.Random) -> Inputs:
        inputs = _corpus(
            rng,
            0.002 if self.quick else self.FACTOR,
            3 if self.quick else self.DOCUMENTS,
        )
        inputs.requests = _requests(inputs.oracle, SOAK_TEMPLATES)
        return inputs

    def setup(self, inputs: Inputs) -> repro.Session:
        session = _load_session(inputs, shards=self.SHARDS)
        for request in inputs.requests:
            session.run(request.query)
        return session

    def lap(self, state, inputs, seconds, samples, rng) -> None:
        closed_loop(itertools.repeat(inputs.requests), state.run, seconds, samples)


# -- graft_churn ----------------------------------------------------------

GRAFT_TEMPLATES: dict[str, str] = {
    name: SOAK_TEMPLATES[name] for name in ("PT2", "AN2", "RP2")
}


class GraftChurn(Workload):
    name = "graft_churn"
    why = (
        "writes beside reads: every load invalidates plan, view and "
        "pool tiers and rebuilds SQLite; read-side gains bought with "
        "heavier indexes or precomputation show their cost here"
    )
    BASE_DOCUMENTS = 4
    BASE_FACTOR = 0.005
    GRAFT_FACTOR = 0.002
    #: cycles per lap — fixed, so the corpus a cycle sees does not
    #: depend on how fast the earlier cycles ran
    CYCLES = 6

    def inputs(self, rng: random.Random) -> Inputs:
        inputs = _corpus(
            rng,
            0.002 if self.quick else self.BASE_FACTOR,
            2 if self.quick else self.BASE_DOCUMENTS,
        )
        seed = rng.randrange(1 << 30)
        inputs.extra["grafts"] = [
            generate_xmark(
                XMarkConfig(factor=self.GRAFT_FACTOR, seed=seed + i),
                uri=f"graft{i}.xml",
            )
            for i in range(2 if self.quick else self.CYCLES)
        ]
        return inputs

    def setup(self, inputs: Inputs) -> repro.Session:
        session = _load_session(inputs)
        for query in GRAFT_TEMPLATES.values():
            session.run(query)
        return session

    def lap(self, state, inputs, seconds, samples, rng) -> None:
        """``CYCLES`` cycles regardless of ``seconds``: load one new
        document, then the three templates twice — the first pass is
        the re-query (invalidation + back-end rebuild + recompile), the
        second is warm."""
        busy = 0.0
        for tree in inputs.extra["grafts"]:
            text = serialize(tree)
            start = time.perf_counter()
            try:
                state.load(text, tree.uri)
                why = ""
            except Exception as error:
                why = repr(error)
            elapsed = time.perf_counter() - start
            samples.add("load", elapsed, not why, why)
            busy += elapsed
            inputs.oracle.add(tree)
            requests = _requests(inputs.oracle, GRAFT_TEMPLATES)
            for phase in ("requery", "warm"):
                for request in requests:
                    tagged = Request(
                        f"{phase}:{request.template}", request.query, request.answer
                    )
                    busy += timed_request(state.run, tagged, samples)
        samples.window_s += busy


# -- frontdoor_open -------------------------------------------------------

#: tenant -> weighted-fair share, also its share of the arrivals
TENANT_WEIGHTS: dict[str, float] = {
    profile.name: profile.weight for profile in DEFAULT_TENANTS
}


def frontdoor_pool(rng: random.Random, instances: int) -> dict[str, dict[str, str]]:
    """tenant -> template -> query: the six soak templates plus id- and
    threshold-parametrised instances of the interactive and analytics
    ones, so requests coalesce as often as real templated traffic."""
    pool = {
        profile.name: dict(profile.queries) for profile in DEFAULT_TENANTS
    }
    for i in range(instances):
        pool["interactive"][f"PT1.{i}"] = (
            "collection()//closed_auction"
            f'[itemref/@item = "item{rng.randrange(40)}"]/price'
        )
        pool["analytics"][f"AN1.{i}"] = (
            "collection()//open_auction"
            f"[bidder/increase > {rng.randrange(20, 29)}]/seller"
        )
        pool["analytics"][f"AN2.{i}"] = (
            f"collection()//closed_auction[price > {rng.randrange(400, 600, 25)}]/itemref"
        )
    return pool


def poisson_schedule(
    rng: random.Random,
    rate: float,
    seconds: float,
    pool: dict[str, dict[str, str]],
    paced: bool = False,
) -> list[tuple[float, str, str]]:
    """Open-loop arrivals ``(due_s, tenant, template)``: exactly
    ``rate * seconds`` arrivals at sorted uniform times — a Poisson
    process conditioned on its count, so every run offers the same
    load.  Tenants draw 2:1:1 (the soak weights)."""
    count = max(1, round(rate * seconds))
    if paced:
        times = [(i + rng.random()) / rate for i in range(count)]
    else:
        times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    tenants = rng.choices(
        list(TENANT_WEIGHTS), weights=list(TENANT_WEIGHTS.values()), k=count
    )
    return [
        (when, tenant, rng.choice(sorted(pool[tenant])))
        for when, tenant in zip(times, tenants)
    ]


@dataclass
class OpenLoopResult:
    late_s: list[float] = field(default_factory=list)
    #: seconds from the last arrival's due time to the last completion
    drain_s: float = 0.0
    door_stats: dict[str, Any] = field(default_factory=dict)


async def drive_open_loop(
    service: Any,
    schedule: Sequence[tuple[float, str, str]],
    answers: dict[tuple[str, str], Request],
    tenants: Sequence[TenantSpec],
    samples: Samples,
) -> OpenLoopResult:
    """Submit on the schedule regardless of completions; each request
    is timed from its **due** time to its serialized answer."""
    outcome = OpenLoopResult()
    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []
    refusals: list[str] = []

    async def one(door: FrontDoor, due: float, request: Request, tenant: str):
        try:
            result = await door.submit(tenant, request.query)
            text = await loop.run_in_executor(None, result.serialize)
        except Exception as error:  # a refusal counts as failed
            if isinstance(error, QuotaExceeded):
                refusals.append(tenant)
            samples.add(request.template, 0.0, False, repr(error))
            return
        sojourn = loop.time() - due
        ok = request.answer.matches(result, text)
        samples.add(request.template, sojourn, ok, "answer differs from oracle")

    async with FrontDoor(service, tenants) as door:
        origin = loop.time()
        for when, tenant, template in schedule:
            due = origin + when
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.late_s.append(max(0.0, loop.time() - due))
            tasks.append(
                asyncio.create_task(
                    one(door, due, answers[tenant, template], tenant)
                )
            )
        await asyncio.gather(*tasks)
        finished = loop.time()
        outcome.door_stats = door.stats()
        compiles = door.metrics.counters.get("pipeline.compiles", 0)
    # window-shape guards: quotas are lifted and every template was
    # compiled in warm-up, so neither may happen inside the window
    if refusals or compiles:
        raise SystemExit(
            f"frontdoor_open: {len(refusals)} quota refusals and "
            f"{compiles:g} compiles inside the measured window"
        )
    outcome.drain_s = finished - (origin + schedule[-1][0])
    samples.window_s += finished - (origin + schedule[0][0])
    return outcome


class FrontdoorOpen(Workload):
    name = "frontdoor_open"
    why = (
        "open-loop arrivals through FrontDoor over 2 shards: the only "
        "workload with queueing, batching and coalescing; quotas are "
        "lifted so capacity, not the token bucket, decides"
    )
    compiles_allowed = False
    FACTOR = 0.005
    DOCUMENTS = 4
    SHARDS = 2
    INSTANCES = 2
    #: fixed rate ladder (q/s); the end-to-end window runs at REFERENCE
    LADDER = (120, 240, 360, 600)
    REFERENCE = 120

    def inputs(self, rng: random.Random) -> Inputs:
        inputs = _corpus(
            rng,
            0.002 if self.quick else self.FACTOR,
            2 if self.quick else self.DOCUMENTS,
        )
        pool = frontdoor_pool(rng, 1 if self.quick else self.INSTANCES)
        inputs.extra["pool"] = pool
        inputs.extra["answers"] = {
            (tenant, request.template): request
            for tenant, templates in pool.items()
            for request in _requests(inputs.oracle, templates)
        }
        inputs.requests = list(inputs.extra["answers"].values())
        return inputs

    def tenants(self) -> list[TenantSpec]:
        """Quotas and backlogs 10x above the top rung: a refusal is a
        failure of the stack, never the bucket doing its job."""
        lifted = 10.0 * max(self.LADDER)
        return [
            TenantSpec(
                name=name,
                rate_qps=lifted,
                burst=lifted,
                weight=weight,
                max_backlog=int(lifted),
            )
            for name, weight in TENANT_WEIGHTS.items()
        ]

    def setup(self, inputs: Inputs) -> repro.Session:
        # One CPU for this workload's process (threads started from here
        # inherit it).  With two, the GIL hand-offs between the loop
        # thread, the batch threads and the serializing executor migrate
        # across CPUs, and the same code and seed vary by +-10% from one
        # process to the next (p95 by +-25%); on one CPU it repeats
        # within +-1.5% at the same latency — the path is GIL-bound.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        session = _load_session(inputs, shards=self.SHARDS)
        for request in inputs.requests:
            session.run(request.query)
        return session

    def lap(self, state, inputs, seconds, samples, rng) -> OpenLoopResult:
        schedule = poisson_schedule(
            rng, self.REFERENCE, seconds, inputs.extra["pool"], paced=True
        )
        return asyncio.run(
            drive_open_loop(
                state.service,
                schedule,
                inputs.extra["answers"],
                self.tenants(),
                samples,
            )
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        ColdCatalog,
        WarmExec,
        TemplateMix,
        CollectionScatter,
        GraftChurn,
        FrontdoorOpen,
    )
}
