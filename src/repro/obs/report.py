"""Composed observability summary — what ``repro obs`` prints.

One :func:`summary_report` call renders, in order: the span tree
(where did the time go), the rewrite-rule fire counts (which of the 19
isolation rules are hot), SQL back-end statistics, the planner
q-error table (estimate quality), and analysis health (JGI diagnostic
counts from the sanitizer/linter, when a checked run recorded any).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.obs.export import tree_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.audit import OperatorAudit

__all__ = ["phase_profile", "qerror_table", "summary_report"]


def phase_profile(tracer: Tracer) -> dict[str, float]:
    """Total seconds per span name, aggregated over the whole forest —
    the flat per-phase breakdown the bench harness embeds in its JSON
    output.  Nested spans contribute to their own bucket only, so the
    buckets are *inclusive* times per phase name."""
    totals: dict[str, float] = {}
    for span in tracer.walk():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_ns / 1e9
    return totals


def qerror_table(audits: Sequence["OperatorAudit"]) -> str:
    """Render the estimate-vs-actual audit as an aligned table."""
    if not audits:
        return "(no planner steps audited)"
    header = (
        f"{'#':>2} {'alias':<6} {'step':<7} {'estimated':>12} "
        f"{'actual':>9} {'q-error':>9}  operator"
    )
    lines = [header, "-" * len(header)]
    for audit in audits:
        direction = "under" if audit.underestimated else "over"
        q = audit.q
        flag = "" if q < 10 else f"  !{direction}"
        lines.append(
            f"{audit.position + 1:>2} {audit.alias:<6} {audit.kind:<7} "
            f"{audit.estimated:>12.1f} {audit.actual:>9} {q:>9.2f}"
            f"  {audit.operator}{flag}"
        )
    worst = max(audits, key=lambda a: a.q)
    lines.append(
        f"-- worst q-error {worst.q:.2f} at {worst.alias} "
        f"({'under' if worst.underestimated else 'over'}-estimated)"
    )
    return "\n".join(lines)


def _counter_section(
    title: str, counters: dict[str, float], unit: str = ""
) -> list[str]:
    if not counters:
        return []
    lines = [title]
    width = max(len(k) for k in counters)
    for name, value in sorted(counters.items(), key=lambda kv: (-kv[1], kv[0])):
        rendered = f"{value:g}{unit}"
        lines.append(f"  {name:<{width}}  {rendered:>10}")
    return lines


def summary_report(
    tracer: Tracer,
    metrics: MetricsRegistry,
    audits: Sequence["OperatorAudit"] | None = None,
) -> str:
    """The full human-readable observability summary."""
    sections: list[str] = []

    sections.append("== spans (where the time went) ==")
    sections.append(tree_report(tracer))

    rule_ns = metrics.prefixed("rewrite.rule_ns")
    if rule_ns:
        fires = metrics.prefixed("rewrite.rule_fired")
        attempts = metrics.prefixed("rewrite.rule_attempts")
        sections.append("")
        sections.append("== rewrite rules (ranked by cost) ==")
        sections.append(
            f"  {'rule':<10}{'ms':>10}{'attempts':>10}{'fires':>8}{'us/attempt':>12}"
        )
        for name, elapsed in sorted(rule_ns.items(), key=lambda kv: (-kv[1], kv[0])):
            offered = attempts.get(name, 0)
            per_attempt = elapsed / 1e3 / offered if offered else 0.0
            sections.append(
                f"  {f'rule ({name})':<10}{elapsed / 1e6:>10.3f}{offered:>10g}"
                f"{fires.get(name, 0):>8g}{per_attempt:>12.2f}"
            )
    shrink = metrics.gauges.get("rewrite.nodes_removed")
    if shrink is not None:
        before = metrics.gauges.get("rewrite.nodes_before", 0)
        after = metrics.gauges.get("rewrite.nodes_after", 0)
        sections.append(
            f"  plan size {before:g} -> {after:g} operators "
            f"({shrink:g} removed)"
        )

    sql_stats = {
        name: value
        for name, value in metrics.counters.items()
        if name.startswith("sql.")
    }
    if sql_stats:
        sections.append("")
        sections.extend(_counter_section("== sql back-end ==", sql_stats))
        run_ns = metrics.histograms.get("sql.run_ns")
        if run_ns is not None and run_ns.count:
            sections.append(
                f"  statement time: mean {run_ns.mean / 1e6:.3f} ms, "
                f"p95 {run_ns.quantile(0.95) / 1e6:.3f} ms, "
                f"max {run_ns.maximum / 1e6:.3f} ms over {run_ns.count} stmt(s)"
            )

    service_stats = {
        name: value
        for name, value in metrics.counters.items()
        if name.startswith("service.")
    }
    if service_stats:
        sections.append("")
        sections.extend(
            _counter_section(
                "== service layer (compiled-plan cache + pool) ==",
                service_stats,
            )
        )
        exact_hits = metrics.counters.get("service.cache.hits", 0)
        canonical_hits = metrics.counters.get("service.cache.canonical_hit", 0)
        view_hits = metrics.counters.get("service.cache.view_hit", 0)
        misses = metrics.counters.get("service.cache.misses", 0)
        if exact_hits or canonical_hits or view_hits or misses:
            sections.append(
                f"  cache outcomes: {exact_hits:g} exact hit(s), "
                f"{canonical_hits:g} canonical hit(s), "
                f"{view_hits:g} view hit(s), "
                f"{misses:g} miss(es)"
            )
        query_ns = metrics.histograms.get("service.query_ns")
        if query_ns is not None and query_ns.count:
            sections.append(
                f"  query latency: mean {query_ns.mean / 1e6:.3f} ms, "
                f"p50 {query_ns.quantile(0.50) / 1e6:.3f} ms, "
                f"p95 {query_ns.quantile(0.95) / 1e6:.3f} ms, "
                f"p99 {query_ns.quantile(0.99) / 1e6:.3f} ms, "
                f"max {query_ns.maximum / 1e6:.3f} ms over "
                f"{query_ns.count} query(ies)"
            )

    if audits:
        sections.append("")
        sections.append("== planner estimate audit (q-error) ==")
        sections.append(qerror_table(audits))

    findings = metrics.prefixed("analysis.diagnostics")
    sections.append("")
    if findings:
        sections.extend(
            _counter_section("== analysis health (JGI findings) ==", findings)
        )
    else:
        sections.append("== analysis health ==")
        sections.append("  no diagnostics recorded")

    return "\n".join(sections)
