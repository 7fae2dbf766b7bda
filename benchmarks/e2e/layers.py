"""The traced pass: per-layer metrics of each workload.

Spans are recorded **from the benchmark's own files**, around calls
into each layer's public functions; nothing inside ``src/`` is
patched.  A cold request is re-enacted stage by stage
(:func:`staged_request`) — ``trace.coverage`` says how much of the real
request those stages account for, so a stage added to the pipeline
later shows up as lost coverage, not as silence.  Warm requests are
split at the public boundary (``Session.execute`` / ``Result.serialize``)
and the back-end time of the same cached plan is timed separately.

Aggregation: a layer time is the **mean over the workload's templates
of each template's median** — the expected cost per request of a
round-robin mix — so layer times add up to the request time.  Counts
read off returned objects are exact and must repeat run to run.  A
layer a workload does not exercise is simply absent here and reads 0
in the output.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Sequence

import repro
from repro.algebra.dagutils import clone_plan, count_ops, parents_map
from repro.algebra.properties import infer_properties
from repro.analysis.containment import contains_patterns, filter_pattern
from repro.compiler.looplift import LoopLiftingCompiler
from repro.infoset.encoding import DocumentStore
from repro.infoset.serialize import serialize_sequence
from repro.pipeline import XQueryProcessor, store_resolver
from repro.rewrite.engine import PHASE_NAMES, IsolationEngine
from repro.service.service import canonical_pattern_of
from repro.sql.backend import SQLiteBackend
from repro.sql.codegen import generate_join_graph_sql
from repro.xmltree.parser import parse_document
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_xquery

from harness import Samples, Spans, geomean, mean, median, percentile
from workloads import (
    GRAFT_TEMPLATES,
    Inputs,
    Request,
    _compiles,
    _load_session,
    _requests,
    drive_open_loop,
    poisson_schedule,
    timed_request,
)

#: p95 sojourn limit of the open-loop service-level objective
SLO_P95_MS = 100.0

#: the stages of a cold request re-enacted by :func:`staged_request`
STAGES = (
    "xquery.parse",
    "xquery.normalize",
    "compiler.looplift",
    "rewrite.isolate",
    "sql.codegen",
    "sql.backend.run",
    "infoset.serialize",
)
#: counts read off the artifacts of one staged request; summed over the
#: workload's templates, they must repeat exactly run to run
COUNTS = (
    "compiler.plan_ops",
    "rewrite.steps",
    "rewrite.cycles_broken",
    "rewrite.ops_before",
    "rewrite.ops_after",
    "sql.sql_chars",
    "sql.doc_instances",
    "sql.backend.rows",
)

Medians = dict[str, float]


def _timed(call: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def _medians(spans: Spans, name: str) -> Medians:
    """Median duration (ms) of the spans called ``name``, per template
    (a span's own ``template``, else that of its request span)."""
    templates = {
        row["id"]: row["template"] for row in spans.rows if row["name"] == "request"
    }
    grouped: dict[str, list[float]] = {}
    for row in spans.rows:
        template = row.get("template") or templates.get(row["request"])
        if row["name"] == name and template is not None:
            grouped.setdefault(template, []).append(
                (row["end_ns"] - row["start_ns"]) / 1e6
            )
    return {template: median(values) for template, values in grouped.items()}


def _mix(medians: Medians) -> float:
    """Mean over templates: the expected cost of one request of a
    round-robin mix."""
    return mean(list(medians.values()))


def _overhead_pct(with_: Medians, without: Medians) -> float:
    """``with_`` over ``without``, geometric mean over the templates
    both saw, as a percentage above 1."""
    ratios = [with_[t] / without[t] for t in with_ if without.get(t)]
    return (geomean(ratios) - 1.0) * 100.0 if ratios else 0.0


def unit_costs(inputs: Inputs) -> dict[str, float]:
    """Loading costs per unit of input, one direct call each on the
    lap's first document: parse, shred, SQLite image build."""
    text, uri = inputs.texts[0]
    parse_s, tree = _timed(lambda: parse_document(text, uri=uri))
    store = DocumentStore()
    shred_s, _ = _timed(lambda: store.load_tree(tree))
    build_s, backend = _timed(lambda: SQLiteBackend(store.table))
    backend.close()
    knodes = len(store.table) / 1e3
    return {
        "xmltree.parse_ms_per_mb": parse_s * 1e3 / (len(text.encode()) / 1e6),
        "infoset.shred_ms_per_knode": shred_s * 1e3 / knodes,
        "sql.backend.build_ms_per_knode": build_s * 1e3 / knodes,
    }


def _untraced(call, requests: Sequence[Request], rounds: int) -> Samples:
    """Whole-request timers only — the base the traced numbers are
    compared with."""
    samples = Samples()
    for _ in range(rounds):
        for request in requests:
            timed_request(call, request, samples)
    return samples


# -- the staged cold request ----------------------------------------------


def staged_request(
    spans: Spans,
    request: Request,
    store: DocumentStore,
    backend: SQLiteBackend,
    samples: Samples,
) -> dict[str, Any]:
    """One cold request, stage by stage, a span around each public
    call.  Returns the counts read off the artifacts."""
    with spans.span("request", template=request.template) as row:
        spans.request = row["request"] = row["id"]
        with spans.span("xquery.parse"):
            surface = parse_xquery(request.query)
        with spans.span("xquery.normalize"):
            # what XQueryProcessor defaults to: bare paths resolve
            # against the first loaded document
            core = normalize(
                surface,
                default_doc=store.table.doc_uris[0],
                collections=store_resolver(store),
            )
        with spans.span("compiler.looplift"):
            stacked = LoopLiftingCompiler(store).compile(core)
            plan = clone_plan(stacked)
        with spans.span("rewrite.isolate"):
            isolated, stats = IsolationEngine().isolate(plan)
        with spans.span("sql.codegen"):
            sql = generate_join_graph_sql(isolated)
        with spans.span("sql.backend.run"):
            items = backend.run(sql)
        with spans.span("infoset.serialize"):
            text = serialize_sequence(store.table, items)
    spans.request = None
    samples.check(
        request.template,
        request.answer.matches(items, text),
        "staged answer differs from oracle",
    )
    # the unit cost the rewrite engine pays per rule application today
    infer_s, _ = _timed(lambda: infer_properties(stacked))
    parents_s, _ = _timed(lambda: parents_map(stacked))
    return {
        "compiler.plan_ops": sum(count_ops(stacked).values()),
        "rewrite.steps": stats.steps,
        "rewrite.cycles_broken": stats.cycles_broken,
        "rewrite.ops_before": stats.nodes_before,
        "rewrite.ops_after": stats.nodes_after,
        "sql.sql_chars": len(sql.text),
        "sql.doc_instances": sql.doc_instances,
        "sql.backend.rows": len(items),
        "sql.text": sql.text,
        "serialized_bytes": len(text.encode()),
        "algebra.infer_properties_ms": infer_s * 1e3,
        "algebra.parents_map_ms": parents_s * 1e3,
        **{
            f"rewrite.phase_ms.{phase}": stats.phase_ns.get(phase, 0) / 1e6
            for phase in PHASE_NAMES
        },
    }


def staged_metrics(
    spans: Spans, inputs: Inputs, requests: Sequence[Request], samples: Samples
) -> dict[str, float]:
    """Every template through :func:`staged_request`, twice, on a store
    the benchmark loads with the lap's documents.  Fails if a template's
    step count or SQL text differs between the two compiles: counts
    carry a claim only if the compiler is deterministic."""
    store = DocumentStore()
    for tree in inputs.oracle.trees:
        store.load_tree(tree)
    backend = SQLiteBackend(store.table)
    first: dict[str, dict[str, Any]] = {}
    try:
        for _ in range(2):
            for request in requests:
                got = staged_request(spans, request, store, backend, samples)
                seen = first.setdefault(request.template, got)
                for key in ("rewrite.steps", "sql.sql_chars", "sql.text"):
                    if seen[key] != got[key]:
                        raise SystemExit(
                            f"{request.template}: {key} differs between two "
                            "compiles of the same query"
                        )
    finally:
        backend.close()
    rows = list(first.values())
    stage = {name: _mix(_medians(spans, name)) for name in STAGES}
    metrics = {key: float(sum(row[key] for row in rows)) for key in COUNTS}
    for key in rows[0]:
        if "_ms" in key:  # per-request costs: the mix's mean
            metrics[key] = mean([row[key] for row in rows])
    serialize_s = stage["infoset.serialize"] * len(rows) / 1e3
    metrics.update(
        {
            "xquery.parse_us": stage["xquery.parse"] * 1e3,
            "xquery.normalize_us": stage["xquery.normalize"] * 1e3,
            "compiler.looplift_ms": stage["compiler.looplift"],
            "rewrite.isolate_ms": stage["rewrite.isolate"],
            "rewrite.ms_per_step": stage["rewrite.isolate"]
            * len(rows)
            / max(1.0, metrics["rewrite.steps"]),
            "sql.codegen_ms": stage["sql.codegen"],
            "sql.backend.run_ms": stage["sql.backend.run"],
            "infoset.serialize_ms": stage["infoset.serialize"],
            "infoset.serialize_mb_per_s": sum(r["serialized_bytes"] for r in rows)
            / 1e6
            / serialize_s,
        }
    )
    return metrics


# -- warm requests at the public boundary ---------------------------------


def traced_requests(
    spans: Spans,
    session: repro.Session,
    requests: Sequence[Request],
    samples: Samples,
) -> list[Any]:
    """Closed-loop requests split at the public boundary: a span around
    ``Session.execute`` and one around ``Result.serialize``."""
    results = []
    for request in requests:
        with spans.span("request", template=request.template) as row:
            spans.request = row["request"] = row["id"]
            with spans.span("service.execute"):
                result = session.execute(request.query)
            with spans.span("infoset.serialize") as serialize:
                text = result.serialize()
            serialize["bytes"] = len(text)
        results.append(result)
        samples.check(
            request.template,
            request.answer.matches(result, text),
            "traced answer differs from oracle",
        )
    spans.request = None
    return results


def paired_rounds(
    spans: Spans,
    session: repro.Session,
    rounds: Sequence[Sequence[Request]],
    samples: Samples,
) -> tuple[Samples, list[Any]]:
    """Untraced and traced rounds in turn, so machine drift hits both
    alike; returns the untraced window and the traced results."""
    untraced = Samples()
    results: list[Any] = []
    for requests in rounds:
        for request in requests:
            timed_request(session.run, request, untraced)
        results += traced_requests(spans, session, requests, samples)
    samples.fold(untraced)
    return untraced, results


def serialize_metrics(spans: Spans) -> dict[str, float]:
    rows = [row for row in spans.rows if row["name"] == "infoset.serialize"]
    seconds = sum(row["end_ns"] - row["start_ns"] for row in rows) / 1e9
    return {
        "infoset.serialize_ms": _mix(_medians(spans, "infoset.serialize")),
        "infoset.serialize_mb_per_s": sum(row["bytes"] for row in rows)
        / 1e6
        / seconds,
    }


def cache_shares(before: Any, after: Any) -> dict[str, float]:
    """Which tier answered, as shares of the window's cache lookups
    (deltas of ``Session.cache_stats()``)."""
    exact = after.exact.hits - before.exact.hits
    canonical = after.canonical.hits - before.canonical.hits
    view = after.view.hits - before.view.hits
    lookups = exact + after.exact.misses - before.exact.misses
    return {
        "service.cache.exact_share": exact / lookups,
        "service.cache.canonical_share": canonical / lookups,
        "service.cache.view_share": view / lookups,
        "service.cache.miss_share": (lookups - exact - canonical - view) / lookups,
    }


def backend_runs(
    spans: Spans,
    compile_: Callable[[str], Any],
    backend: SQLiteBackend,
    requests: Sequence[Request],
    **attrs: Any,
) -> tuple[Medians, list[list[int]]]:
    """``SQLiteBackend.run`` on each compiled plan's SQL, three times,
    on a back-end the benchmark owns.  Returns per-template medians
    (ms) and each template's items."""
    medians: Medians = {}
    answers = []
    for request in requests:
        sql = compile_(request.query).joingraph_sql
        times = []
        for _ in range(3):
            with spans.span(
                "sql.backend.run", template=request.template, **attrs
            ) as row:
                items = backend.run(sql)
            times.append((row["end_ns"] - row["start_ns"]) / 1e6)
        medians[request.template] = median(times)
        answers.append(items)
    return medians, answers


def _no_compiles_since(mark: float, name: str) -> None:
    if _compiles() != mark:
        raise SystemExit(f"{name}: compiles inside the traced window")


# -- per-workload layer passes --------------------------------------------


def cold_catalog(workload, rng, seconds, samples, spans):
    inputs = workload.inputs(rng)
    processor = workload.setup(inputs)
    try:
        # one unrecorded round first: a process's first compile of each
        # template is 20-30% slower (cold interpreter paths), which a
        # measured window only pays in its very first round
        _untraced(processor.run, inputs.requests, 1)
        untraced = _untraced(processor.run, inputs.requests, 1)
    finally:
        workload.close(processor)
    samples.fold(untraced)
    base = untraced.template_medians_ms()
    metrics = staged_metrics(spans, inputs, inputs.requests, samples)
    metrics["trace.coverage"] = sum(
        _mix(_medians(spans, stage)) for stage in STAGES
    ) / _mix(base)
    metrics["trace.overhead_pct"] = _overhead_pct(_medians(spans, "request"), base)
    metrics.update({f"latency_ms.{name}": ms for name, ms in base.items()})
    return {**metrics, **unit_costs(inputs)}


def warm_exec(workload, rng, seconds, samples, spans):
    inputs = workload.inputs(rng)
    requests = inputs.requests
    session = workload.setup(inputs)
    # the same stack with the flight recorder off, for its overhead
    plain = _load_session(
        inputs, default_doc=session.service.processor.default_doc, flight=False
    )
    backend = SQLiteBackend(session.service.store.table)
    try:
        for request in requests:
            plain.run(request.query)
        mark = _compiles()
        before = session.cache_stats()
        untraced, _ = paired_rounds(spans, session, [requests] * 2, samples)
        shares = cache_shares(before, session.cache_stats())
        recorded, bare = Samples(), Samples()
        for _ in range(3):  # interleaved, so drift hits both alike
            for request in requests:
                timed_request(plain.run, request, bare)
                timed_request(session.run, request, recorded)
        _no_compiles_since(mark, workload.name)
        runs, answers = backend_runs(spans, session.service.compile, backend, requests)
    finally:
        backend.close()
        session.close()
        plain.close()
    samples.fold(recorded, bare)
    base = untraced.template_medians_ms()
    execute = _medians(spans, "service.execute")
    metrics = {
        "sql.backend.run_ms": _mix(runs),
        "sql.backend.rows": float(sum(len(items) for items in answers)),
        # ladder + pool lease + resilience + flight: what Session.execute
        # costs beyond the plan's own SQL (median over templates: the
        # difference is small against Q2's run-to-run noise)
        "service.self_us": median([execute[t] - runs[t] for t in runs]) * 1e3,
        "obs.flight_overhead_pct": _overhead_pct(
            recorded.template_medians_ms(), bare.template_medians_ms()
        ),
        "trace.overhead_pct": _overhead_pct(_medians(spans, "request"), base),
        **serialize_metrics(spans),
        **shares,
        **{f"latency_ms.{name}": ms for name, ms in base.items()},
    }
    return {**metrics, **unit_costs(inputs)}


def template_mix(workload, rng, seconds, samples, spans):
    inputs = workload.inputs(rng)
    pool = inputs.extra["pool"]
    session = workload.setup(inputs)
    service = session.service
    rounds = workload.rounds(inputs, rng)
    backend = SQLiteBackend(service.store.table)
    try:
        # first touches (containment search + residual filter, once per
        # pattern) would all land in the untraced half; take them out of
        # the comparison and time those steps directly below
        mark = _compiles()
        before = session.cache_stats()
        for request in inputs.requests:
            session.run(request.query)
        untraced, _ = paired_rounds(
            spans, session, [next(rounds) for _ in range(8)], samples
        )
        shares = cache_shares(before, session.cache_stats())
        _no_compiles_since(mark, workload.name)
        # unit costs of the ladder's steps, one direct call per pattern
        processor = service.processor
        answer_of = {r.template: r.answer.items for r in inputs.requests}
        canonical = {}
        canonical_us = []
        for p in pool:
            took, canonical[p.name] = _timed(
                lambda: canonical_pattern_of(
                    p.query, processor.default_doc, processor.collections
                )
            )
            canonical_us.append(took * 1e6)
        views = {
            (p.entity, p.predicates[0]): (canonical[p.name], answer_of[p.name])
            for p in pool
            if p.is_base
        }
        hom_us, filter_us, answer_us = [], [], []
        for p in pool:
            if len(p.predicates) == 1:
                continue  # a spelling of the base itself: no view involved
            view, rows = views[p.entity, p.predicates[0]]
            took, verdict = _timed(lambda: contains_patterns(view, canonical[p.name]))
            hom_us.append(took * 1e6)
            took, kept = _timed(
                lambda: filter_pattern(canonical[p.name], service.store.table, rows)
            )
            filter_us.append(took * 1e6 / len(rows))
            samples.check(
                p.name,
                verdict.holds and tuple(kept) == answer_of[p.name],
                "containment not shown, or filter_pattern differs from oracle",
            )
            took, _ = _timed(
                lambda: service.views.answer(canonical[p.name], service.store.version)
            )
            answer_us.append(took * 1e6)
        bases = [r for r, p in zip(inputs.requests, pool) if p.is_base]
        runs, answers = backend_runs(spans, service.compile, backend, bases)
    finally:
        backend.close()
        session.close()
    execute = _medians(spans, "service.execute")
    metrics = {
        "analysis.containment.canonical_us": median(canonical_us),
        "analysis.containment.hom_us": median(hom_us),
        "analysis.containment.filter_us_per_row": median(filter_us),
        "service.views.answer_us": median(answer_us),
        # a view-answered request runs no SQL: all of it is the service
        "service.self_us": mean([ms - runs.get(t, 0.0) for t, ms in execute.items()])
        * 1e3,
        "sql.backend.run_ms": _mix(runs),
        "sql.backend.rows": float(sum(len(items) for items in answers)),
        "trace.overhead_pct": _overhead_pct(
            _medians(spans, "request"), untraced.template_medians_ms()
        ),
        # the one closed loop whose window has the >= 200 requests a
        # p95 needs (raw samples, nearest rank)
        "latency_p95_ms": percentile(untraced.latencies, 95) * 1e3,
        **serialize_metrics(spans),
        **shares,
    }
    return {**metrics, **unit_costs(inputs)}


def collection_scatter(workload, rng, seconds, samples, spans):
    inputs = workload.inputs(rng)
    requests = inputs.requests
    session = workload.setup(inputs)
    control = _load_session(inputs)  # shards=1 over the same documents
    collection = session.service.collection
    # each shard's own plan, on a processor the benchmark builds over
    # that shard's store
    shards = [
        (shard, XQueryProcessor(store=store))
        for shard, store in enumerate(collection.stores)
        if len(store.table)
    ]
    try:
        for request in requests:
            control.run(request.query)
        mark = _compiles()
        before = session.cache_stats()
        untraced, results = paired_rounds(spans, session, [requests] * 5, samples)
        shares = cache_shares(before, session.cache_stats())
        serial = _untraced(control.run, requests, 5)
        _no_compiles_since(mark, workload.name)
        per_shard: list[Medians] = []
        to_global_us: list[float] = []
        rows = 0
        for shard, processor in shards:
            runs, answers = backend_runs(
                spans, processor.compile, processor.backend, requests, shard=shard
            )
            per_shard.append(runs)
            for items in answers:
                rows += len(items)
                with spans.span("store.to_global", shard=shard) as row:
                    collection.to_global(shard, items)
                to_global_us.append((row["end_ns"] - row["start_ns"]) / 1e3)
    finally:
        for _, processor in shards:
            processor.backend.close()
        session.close()
        control.close()
    samples.fold(serial)
    base = untraced.template_medians_ms()
    slowest = {t: max(runs[t] for runs in per_shard) for t in per_shard[0]}
    metrics = {
        "service.scatter.fanout": mean([result.shards for result in results]),
        # fan-out, merge and the service around them: the sharded
        # execute span minus its slowest shard's own SQL time
        "service.scatter.self_ms": _mix(_medians(spans, "service.execute"))
        - _mix(slowest),
        "service.scatter.serial_ratio": sum(serial.template_medians_ms().values())
        / sum(base.values()),
        "store.to_global_us": median(to_global_us),
        "sql.backend.run_ms": _mix(slowest),
        "sql.backend.rows": float(rows),
        "trace.overhead_pct": _overhead_pct(_medians(spans, "request"), base),
        **serialize_metrics(spans),
        **shares,
    }
    return {**metrics, **unit_costs(inputs)}


def graft_churn(workload, rng, seconds, samples, spans):
    inputs = workload.inputs(rng)
    session = workload.setup(inputs)
    try:
        workload.lap(session, inputs, seconds, samples, rng)
    finally:
        session.close()
    for name, values in samples.by_template.items():
        for value in values:
            spans.add(name.split(":")[0], 0, int(value * 1e9), template=name)
    requery = [
        value
        for name, values in samples.by_template.items()
        if name.startswith("requery:")
        for value in values
    ]
    # the recompile a re-query pays, stage by stage on the final corpus
    staged = staged_metrics(
        spans, inputs, _requests(inputs.oracle, GRAFT_TEMPLATES), samples
    )
    metrics = {
        "load_p50_ms": median(samples.by_template["load"]) * 1e3,
        "requery_p50_ms": median(requery) * 1e3,
    }
    return {**staged, **metrics, **unit_costs(inputs)}


def frontdoor_open(workload, rng, seconds, samples, spans):
    inputs = workload.inputs(rng)
    session = workload.setup(inputs)
    metrics: dict[str, float] = {}
    met: list[int] = []
    late_s: list[float] = []
    try:
        closed = _untraced(session.run, inputs.requests, 3)
        closed_ms = closed.template_medians_ms()
        for rate in workload.LADDER:
            rung = Samples()
            outcome = asyncio.run(
                drive_open_loop(
                    session.service,
                    poisson_schedule(
                        rng,
                        rate,
                        seconds / len(workload.LADDER),
                        inputs.extra["pool"],
                    ),
                    inputs.extra["answers"],
                    workload.tenants(),
                    rung,
                )
            )
            for name, values in rung.by_template.items():
                for value in values:
                    spans.add(
                        "frontdoor.request", 0, int(value * 1e9),
                        template=name, rate=rate,
                    )
            sojourn_ms = [s * 1e3 for s in rung.latencies]
            p95 = percentile(sojourn_ms, 95)
            metrics[f"service.frontdoor.sojourn_p50_ms.r{rate}"] = median(sojourn_ms)
            metrics[f"service.frontdoor.sojourn_p95_ms.r{rate}"] = p95
            if (
                p95 <= SLO_P95_MS
                and rung.failed <= 0.01 * rung.attempted
                and outcome.drain_s <= 1.0  # no growing backlog
            ):
                met.append(rate)
                late_s += outcome.late_s
            if rate == workload.REFERENCE:
                metrics["latency_p95_ms"] = p95
                counters = outcome.door_stats["counters"]
                batched = counters.get("service.frontdoor.batched", 0)
                metrics["service.frontdoor.queue_wait_ms"] = mean(
                    [
                        ms - closed_ms[name]
                        for name, ms in rung.template_medians_ms().items()
                    ]
                )
                metrics["service.frontdoor.coalesced_share"] = (
                    counters.get("service.frontdoor.coalesced", 0) / batched
                )
                metrics["service.frontdoor.mean_batch"] = (
                    batched / counters["service.frontdoor.batches"]
                )
            samples.fold(rung)
    finally:
        session.close()
    samples.fold(closed)
    metrics["slo_rate_qps"] = float(max(met, default=0))
    metrics["loadgen.late_ms_p99"] = percentile(late_s, 99) * 1e3
    return {**metrics, **unit_costs(inputs)}


LAYER_PASS = {
    "cold_catalog": cold_catalog,
    "warm_exec": warm_exec,
    "template_mix": template_mix,
    "collection_scatter": collection_scatter,
    "graft_churn": graft_churn,
    "frontdoor_open": frontdoor_open,
}
