"""Command-line interface: ``python -m repro``.

Examples
--------
Run a query against a document::

    python -m repro 'doc("auction.xml")//open_auction[bidder]' \\
        --doc auction.xml

Every query path serves through one ``ShardedService``; ``--shards N``
spreads the documents over N shards and changes no output::

    python -m repro 'collection()//person/name' --doc a.xml --doc b.xml \\
        --shards 4

Show the generated single-block SQL instead of executing::

    python -m repro '//closed_auction[price > 500]' --doc auction.xml --sql

Explain the physical plan our optimizer would choose::

    python -m repro '//closed_auction[price > 500]' --doc auction.xml --explain

Generate a built-in benchmark document::

    python -m repro --generate xmark --factor 0.01 > auction.xml

Statically analyze a query (or the whole built-in workload corpus)
with the plan sanitizer, deep invariant checker and SQL linter::

    python -m repro lint '//closed_auction[price > 500]' --doc auction.xml
    python -m repro lint --workloads

Decide query containment / equivalence statically over the tree-pattern
fragment (see ``docs/containment.md``); exit status 0 = holds,
1 = not shown, 2 = outside the fragment::

    python -m repro analyze --contains '//b' '/a/b' --default-doc d.xml
    python -m repro analyze --equivalent '//a[b][c]' '//a[c][b]' \\
        --default-doc d.xml
    python -m repro analyze --canonical '//a[c][b]' --default-doc d.xml

Observability (see ``docs/observability.md``): ``--trace FILE`` writes
a Chrome trace-event JSON file (load in ``about://tracing`` or
Perfetto) with nested spans for every pipeline phase — parse,
normalize, loop-lift, isolation (with one instant event per
rewrite-rule application), codegen, and SQL execution.  ``--metrics
[FILE]`` dumps the metrics registry (rule-fire counters, SQL statement
stats, per-operator planner q-error) as JSON to FILE, or to stdout
when no FILE is given.  The ``obs`` subcommand runs a query under full
instrumentation and prints the composed summary — span tree, hot
rewrite rules, SQL stats, the planner estimate-vs-actual q-error
table, and analysis health::

    python -m repro '//person[name]' --doc auction.xml \\
        --trace trace.json --metrics metrics.json
    python -m repro obs '//person[name]' --doc auction.xml --checked

Fault storm (see ``docs/robustness.md``): open-loop multi-tenant
arrivals through the front door while backend faults are injected;
every answer is checked against the reference interpreter, every
injected fault must be accounted for per tenant, and the knee and
fairness gates must hold (``--fault-rate 0`` runs it without faults)::

    python -m repro serve-bench --quick
    python -m repro serve-bench --fault-rate 0.12 --seed 7 --out storm.json

Throughput, latency and overhead numbers come from
``python3 benchmarks/e2e/run.py`` (``docs/performance.md``), not from
this program.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from repro.algebra.dagutils import plan_to_text
from repro.engines import Engine
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    metrics_json,
    set_metrics,
    set_tracer,
    write_chrome_trace,
)
from repro.pipeline import XQueryProcessor


def _add_doc_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="FILE[=URI]",
        help="XML document to load; URI defaults to the file name. "
        "May be given several times.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A relational XQuery processor (EDBT 2010 reproduction): "
        "compiles the XQuery workhorse fragment into join graph SQL.",
    )
    parser.add_argument("query", nargs="?", help="XQuery expression")
    _add_doc_option(parser)
    parser.add_argument(
        "--engine",
        default=Engine.JOINGRAPH_SQL.value,
        choices=[engine.value for engine in Engine] + ["planner"],
        help="execution engine (default: the isolated single SQL block)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="serve the documents from an N-shard collection with "
        "scatter-gather execution (default: 1, a single backend)",
    )
    parser.add_argument(
        "--sql", action="store_true", help="print the join graph SQL and exit"
    )
    parser.add_argument(
        "--stacked-sql",
        action="store_true",
        help="print the pre-isolation CTE chain and exit",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the cost-based physical plan and exit",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="print the isolated algebra plan and exit",
    )
    parser.add_argument(
        "--items",
        action="store_true",
        help="print result pre ranks instead of serialized XML",
    )
    parser.add_argument(
        "--time", action="store_true", help="report execution wall-clock"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON file of the whole run "
        "(open in about://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        metavar="FILE",
        help="dump the metrics registry (rule fires, SQL stats, planner "
        "q-error) as JSON to FILE, or to stdout when FILE is omitted",
    )
    parser.add_argument(
        "--serialize-step",
        action="store_true",
        help="make the serialization point explicit "
        "(append /descendant-or-self::node(), as in the paper's Section 4)",
    )
    parser.add_argument(
        "--generate",
        choices=["xmark", "dblp"],
        help="emit a benchmark document to stdout instead of querying",
    )
    parser.add_argument(
        "--factor", type=float, default=0.01, help="generator scale factor"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="generator random seed"
    )
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis: compile with the per-step rewrite "
        "sanitizer, deep-check plan invariants, lint the generated SQL, "
        "and differentially execute all engines.  Reports JGI diagnostic "
        "codes (see docs/analysis.md); exit status 1 on any error.",
    )
    parser.add_argument("query", nargs="?", help="XQuery expression to lint")
    _add_doc_option(parser)
    parser.add_argument(
        "--workloads",
        action="store_true",
        help="sweep the complete built-in query corpus (paper Q1-Q6, "
        "XMark, TPoX) over freshly generated documents",
    )
    parser.add_argument(
        "--interpret",
        action="store_true",
        help="also re-interpret the plan after every rewrite step and "
        "compare against the pre-isolation reference (slow)",
    )
    parser.add_argument(
        "--data",
        action="store_true",
        help="verify inferred const/key/set properties against actual "
        "interpreted rows at every operator (slow)",
    )
    parser.add_argument(
        "--no-execute",
        action="store_true",
        help="skip the differential execution across engines",
    )
    parser.add_argument(
        "--factor", type=float, default=0.002,
        help="XMark scale factor for --workloads (default: 0.002)",
    )
    return parser


def lint_main(argv: list[str]) -> int:
    parser = build_lint_parser()
    args = parser.parse_args(argv)
    sys.setrecursionlimit(100_000)

    from repro.analysis import lint_query, lint_workloads
    from repro.analysis.diagnostics import DiagnosticReport

    if args.workloads:
        if args.query or args.doc:
            parser.error("--workloads does not take a query or --doc")
        report = lint_workloads(
            xmark_factor=args.factor,
            interpret=args.interpret,
            data=args.data,
            execute=not args.no_execute,
        )
    else:
        if not args.query:
            parser.error("a query is required (or use --workloads)")
        if not args.doc:
            parser.error("at least one --doc FILE is required")
        processor = XQueryProcessor(
            checked=True, check_interpret=args.interpret
        )
        try:
            _load_documents(processor, args.doc)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        result = lint_query(
            processor,
            args.query,
            data=args.data,
            execute=not args.no_execute,
        )
        report = DiagnosticReport()
        report.add(result.name, result.diagnostics)

    print(report.render())
    return 1 if report.error_count else 0


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Static containment / equivalence analysis over the "
        "workhorse tree-pattern fragment (see docs/containment.md).  "
        "Verdicts are sound: 'contains'/'equivalent' ships a re-checked "
        "homomorphism witness; 'not-shown' means not proven, and "
        "'outside-fragment' means no claim.  Exit status: 0 when the "
        "property holds, 1 when not shown, 2 when outside the fragment.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--contains",
        nargs=2,
        metavar=("P", "Q"),
        help="decide whether P's result contains Q's on every store",
    )
    group.add_argument(
        "--equivalent",
        nargs=2,
        metavar=("P", "Q"),
        help="decide whether P and Q are result-identical on every store",
    )
    group.add_argument(
        "--canonical",
        metavar="Q",
        help="print Q's canonical tree-pattern cache key",
    )
    parser.add_argument(
        "--default-doc",
        metavar="URI",
        default="doc.xml",
        help="URI that absolute paths (/a/b) resolve against; the "
        "analysis is static, so both queries sharing this synthetic "
        "default is sound (default: doc.xml)",
    )
    parser.add_argument(
        "--collection",
        action="append",
        default=[],
        metavar="URI",
        help="declare a collection() member URI (repeatable); "
        "collection() globs resolve against these",
    )
    return parser


def analyze_main(argv: list[str]) -> int:
    parser = build_analyze_parser()
    args = parser.parse_args(argv)
    sys.setrecursionlimit(100_000)

    from fnmatch import fnmatchcase

    from repro.analysis.containment import (
        CONTAINS,
        EQUIVALENT,
        OUTSIDE_FRAGMENT,
        canonicalize,
        contains,
        equivalent,
        extract_pattern,
        pattern_key,
    )
    from repro.xquery.normalize import normalize
    from repro.xquery.parser import parse_xquery

    members = tuple(args.collection)

    def resolve(patterns: tuple[str, ...]) -> tuple[str, ...]:
        if not patterns:
            return members
        return tuple(
            uri
            for uri in members
            if any(fnmatchcase(uri, pattern) for pattern in patterns)
        )

    def core_of(query: str):
        return normalize(
            parse_xquery(query),
            default_doc=args.default_doc,
            collections=resolve,
        )

    try:
        if args.canonical is not None:
            pattern = extract_pattern(core_of(args.canonical))
            if pattern is None:
                print("outside-fragment")
                return 2
            print(pattern_key(canonicalize(pattern)))
            return 0
        if args.contains is not None:
            result = contains(core_of(args.contains[0]), core_of(args.contains[1]))
            print(result.verdict)
            if result.witness is not None:
                witness = " ".join(f"{p}->{q}" for p, q in result.witness)
                print(f"witness: {witness or '(empty pattern)'}")
            if result.verdict == CONTAINS:
                return 0
            return 2 if result.verdict == OUTSIDE_FRAGMENT else 1
        result = equivalent(
            core_of(args.equivalent[0]), core_of(args.equivalent[1])
        )
        print(result.verdict)
        for direction, part in (
            ("forward", result.forward),
            ("backward", result.backward),
        ):
            if part.witness is not None:
                witness = " ".join(f"{p}->{q}" for p, q in part.witness)
                print(f"{direction} witness: {witness or '(empty pattern)'}")
        if result.verdict == EQUIVALENT:
            return 0
        return 2 if result.verdict == OUTSIDE_FRAGMENT else 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Run one query under full instrumentation and print "
        "the observability summary: span tree (per-phase time), rewrite-"
        "rule fire counts, SQL back-end stats, the planner estimate-vs-"
        "actual q-error table, and analysis health.  See "
        "docs/observability.md.",
    )
    parser.add_argument("query", help="XQuery expression")
    _add_doc_option(parser)
    parser.add_argument(
        "--engine",
        default=Engine.JOINGRAPH_SQL.value,
        choices=[engine.value for engine in Engine],
        help="execution engine to run (the planner is always audited)",
    )
    parser.add_argument(
        "--checked",
        action="store_true",
        help="also run the static-analysis suite (per-step sanitizer, "
        "plan checker, SQL linter) and fold its findings into the "
        "analysis-health section",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a collection of this many shards "
        "(documents place by URI hash; default: 1)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", help="also write the Chrome trace JSON"
    )
    parser.add_argument(
        "--metrics", metavar="FILE", help="also write the metrics JSON"
    )
    parser.add_argument(
        "--flight",
        metavar="FILE",
        help="also write the flight-recorder snapshot "
        "(repro.obs.flight/v1 JSON; '-' for stdout)",
    )
    parser.add_argument(
        "--slow",
        action="store_true",
        help="also print the slow-query log (promoted captures with "
        "trace spans and EXPLAIN output)",
    )
    parser.add_argument(
        "--prometheus",
        nargs="?",
        const="-",
        metavar="FILE",
        help="also emit the Prometheus text exposition of every counter "
        "and histogram ('-'/no value for stdout)",
    )
    parser.add_argument(
        "--slow-threshold",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="flight-recorder slow-query promotion threshold "
        "(default: 0.25s; degraded/surfaced queries always promote)",
    )
    return parser


def obs_main(argv: list[str]) -> int:
    parser = build_obs_parser()
    args = parser.parse_args(argv)
    sys.setrecursionlimit(100_000)

    from repro.obs import audit_plan, record_diagnostics, summary_report

    with _observed(True) as (tracer, metrics), _serving(
        parser, args, checked=args.checked, slow_threshold_s=args.slow_threshold
    ) as service:
        try:
            _load_documents(service, args.doc)
            # serve the query twice: the first call compiles (cache
            # miss), the second hits the compiled-plan cache — both show
            # up in the service-layer section
            items = service.execute(args.query, engine=args.engine)
            service.execute(args.query, engine=args.engine)
            compiled = service.compile(args.query)
            service.serialize(items)
            _, audits = audit_plan(_planner_plan(service, compiled))
            if args.checked:
                from repro.analysis import lint_compiled

                record_diagnostics(lint_compiled(compiled))

            if args.trace:
                write_chrome_trace(tracer, args.trace)
            if args.metrics:
                _write_output(args.metrics, metrics_json(metrics))
            if args.flight:
                _write_output(args.flight, service.flight.snapshot())
            if args.prometheus:
                from repro.obs import prometheus_text

                _write_output(
                    args.prometheus,
                    prometheus_text(metrics, flight=service.flight),
                )
            print(f"-- {len(items)} item(s) [{args.engine}]\n")
            print(summary_report(tracer, metrics, audits))
            if args.slow:
                print()
                print(_slow_log_report(service.flight))
            return 0
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1


def _slow_log_report(recorder) -> str:
    """Human-readable slow-query log (``repro obs --slow``)."""
    captures = recorder.slow()
    lines = [
        f"== slow-query log ({len(captures)} capture(s), "
        f"threshold {recorder.slow_threshold_s:g}s) =="
    ]
    if not captures:
        lines.append("  (no promoted queries)")
    for capture in captures:
        record = capture.record
        lines.append(
            f"  #{record.seq} [{capture.reason}] {record.engine} "
            f"{record.elapsed_ns / 1e6:.3f} ms cache={record.cache} "
            f"retries={record.retries} degraded={record.degraded} "
            f"rows={record.rows}"
        )
        lines.append(f"    query: {record.query_head}")
        for phase, ns in sorted(record.phases_ns.items()):
            lines.append(f"    phase {phase}: {ns / 1e6:.3f} ms")
        for row in capture.explain:
            lines.append(f"    explain: {row}")
    return "\n".join(lines)


def build_serve_bench_parser() -> argparse.ArgumentParser:
    from repro.workloads.soak import STORM_TENANTS

    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description="The fault storm against the serving stack: "
        "open-loop tenants through the front door over a sharded XMark "
        "corpus, faults injected at --fault-rate, every answer checked "
        "against the reference interpreter.  Writes the "
        "repro.bench.soak/v3 report; exit status 1 when a gate (wrong "
        "answer, crash, fault ledger, slow log, knee, fairness) fails.  "
        "The throughput benchmark is benchmarks/e2e/run.py (see "
        "docs/performance.md).",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test size: tiny corpus, short load points",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="storm seed: corpus, arrivals and fault sequence (default: 42)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.12,
        help="overall injected error rate; 0 turns faults off "
        "(default: 0.12)",
    )
    parser.add_argument(
        "--deadline", type=float, default=2.0,
        help="per-query deadline in seconds; injected stalls last twice "
        "as long (default: 2.0)",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="shards the corpus spreads over (default: 2)",
    )
    parser.add_argument(
        "--documents", type=int, default=4,
        help="XMark documents in the corpus (default: 4)",
    )
    parser.add_argument("--factor", type=float, default=0.01,
                        help="XMark scale factor (default: 0.01)")
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds per load point (default: 5.0)",
    )
    parser.add_argument(
        "--tenants", type=int, default=len(STORM_TENANTS),
        help="tenant count; profiles cycle through the interactive/"
        "analytics/reporting/lookup personas (default: 4)",
    )
    parser.add_argument(
        "--load-points", default="0.5,1.0,2.0",
        help="comma-separated offered-load multipliers over each "
        "tenant's contracted rate (default: 0.5,1.0,2.0)",
    )
    return parser


def serve_bench_main(argv: list[str]) -> int:
    from repro.workloads.soak import (
        STORM_TENANTS,
        SoakConfig,
        format_soak_report,
        run_soak,
    )

    parser = build_serve_bench_parser()
    args = parser.parse_args(argv)
    sys.setrecursionlimit(100_000)
    if args.tenants < 2:
        parser.error("--tenants must be at least 2")
    personas = len(STORM_TENANTS)
    profiles = []
    for i in range(args.tenants):
        base = STORM_TENANTS[i % personas]
        if i >= personas:
            base = replace(base, name=f"{base.name}{i // personas + 1}")
        profiles.append(base)
    config = SoakConfig(
        seed=args.seed,
        duration_s=args.duration,
        load_points=tuple(float(m) for m in args.load_points.split(",")),
        shards=args.shards,
        documents=args.documents,
        factor=args.factor,
        fault_rate=args.fault_rate,
        deadline_s=args.deadline,
        tenants=tuple(profiles),
    )
    if args.quick:
        config = config.quick()
    report = run_soak(config)
    print(format_soak_report(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"-- wrote {args.out}")
    return 0 if report["gates"]["passed"] else 1


def _generate(kind: str, factor: float, seed: int) -> str:
    from repro.workloads import (
        DBLPConfig,
        XMarkConfig,
        generate_dblp,
        generate_xmark,
    )
    from repro.xmltree import serialize

    if kind == "xmark":
        return serialize(generate_xmark(XMarkConfig(factor=factor, seed=seed)))
    return serialize(generate_dblp(DBLPConfig(factor=factor, seed=seed)))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "analyze":
        return analyze_main(argv[1:])
    if argv and argv[0] == "obs":
        return obs_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        return serve_bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    sys.setrecursionlimit(100_000)

    if args.generate:
        sys.stdout.write(_generate(args.generate, args.factor, args.seed))
        return 0

    if not args.query:
        parser.error("a query is required (or use --generate)")

    observing = bool(args.trace or args.metrics is not None)
    with _observed(observing) as (tracer, metrics), _serving(
        parser, args, serialize_step=args.serialize_step
    ) as service:
        try:
            _load_documents(service, args.doc)
            compiled = service.compile(args.query)

            if args.plan:
                print(plan_to_text(compiled.isolated_plan))
                return 0
            if args.sql:
                print(compiled.joingraph_sql.text)
                return 0
            if args.stacked_sql:
                print(compiled.stacked_sql.text)
                return 0
            if args.explain:
                from repro.planner import explain_plan

                print(explain_plan(_planner_plan(service, compiled)))
                return 0

            start = time.perf_counter()
            if args.engine == "planner":
                items = _planner_plan(service, compiled).execute()
            else:
                items = service.execute(compiled, engine=args.engine)
            elapsed = time.perf_counter() - start

            if args.items:
                print(" ".join(str(i) for i in items))
            else:
                print(service.serialize(items))
            if args.time:
                print(
                    f"-- {len(items)} item(s) in {elapsed * 1000:.2f} ms "
                    f"[{args.engine}]",
                    file=sys.stderr,
                )
            if args.metrics is not None:
                from repro.obs import audit_plan

                # the estimate-quality half of the dump: planner.qerror.*
                audit_plan(_planner_plan(service, compiled))
            if args.trace:
                write_chrome_trace(tracer, args.trace)
            if args.metrics is not None:
                _write_output(args.metrics, metrics_json(metrics))
            return 0
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1


def _serving(
    parser: argparse.ArgumentParser, args: argparse.Namespace, **options
):
    """The serving stack of every query tool, for every shard count: one
    ``ShardedService`` over a ``Collection(args.shards)``."""
    if not args.doc:
        parser.error("at least one --doc FILE is required")
    if args.shards < 1:
        parser.error("--shards must be at least 1")

    from repro.service import ShardedService
    from repro.store import Collection

    return ShardedService(Collection(args.shards), **options)


def _load_documents(target, specs: list[str]) -> None:
    """Load every ``--doc FILE[=URI]`` into a service or processor; the
    URI defaults to the file name."""
    for spec in specs:
        path, _, uri = spec.partition("=")
        target.load(Path(path).read_text(), uri or Path(path).name)


@contextmanager
def _observed(
    enabled: bool,
) -> Iterator[tuple[Tracer | None, MetricsRegistry | None]]:
    """Run under a fresh tracer and metrics registry when ``enabled``
    (yielding them), restoring the previous ones afterwards."""
    if not enabled:
        yield None, None
        return
    previous_tracer, previous_metrics = get_tracer(), get_metrics()
    try:
        yield set_tracer(Tracer()), set_metrics(MetricsRegistry())
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)


def _planner_plan(service, compiled):
    """Our cost-based planner's physical plan for ``compiled`` over the
    combined store (``--explain``, ``--engine planner`` and the
    ``planner.qerror.*`` audit)."""
    from repro.planner import JoinGraphPlanner
    from repro.sql import flatten_query

    planner = JoinGraphPlanner(service.store.table)
    return planner.plan(flatten_query(compiled.isolated_plan))


def _write_output(destination: str, output: str | dict) -> None:
    """Write ``output`` (a JSON document when not text) to a file, or to
    stdout for ``-``."""
    if not isinstance(output, str):
        output = json.dumps(output, indent=1) + "\n"
    if destination == "-":
        print(output, end="")
    else:
        Path(destination).write_text(output)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
