"""Shared measuring kit: samples, summary statistics, the span recorder.

Nothing here knows a workload; :mod:`workloads` drives it.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (no buckets)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Samples:
    """Latency samples of one measured window, grouped by template,
    plus the attempted / failed tally the oracle check feeds."""

    def __init__(self) -> None:
        self.by_template: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        #: seconds the client spent inside requests (closed loop) or
        #: from first due time to last completion (open loop)
        self.window_s = 0.0
        self.failures: list[str] = []
        #: every latency sample in completion order
        self.latencies: list[float] = []

    def check(self, template: str, ok: bool, why: str = "") -> bool:
        """Count one attempted request and whether its answer held."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(f"{template}: {why}")
        return ok

    def add(self, template: str, seconds: float, ok: bool, why: str = "") -> None:
        """One attempted request; a failed one (exception, refusal,
        answer != oracle) contributes no latency sample."""
        if self.check(template, ok, why):
            self.by_template.setdefault(template, []).append(seconds)
            self.latencies.append(seconds)

    def fold(self, *others: "Samples") -> None:
        """Take over the tallies (not the latencies) of other windows."""
        for other in others:
            self.attempted += other.attempted
            self.failed += other.failed
            self.failures += other.failures

    def template_medians_ms(self) -> dict[str, float]:
        return {
            name: median(samples) * 1e3
            for name, samples in sorted(self.by_template.items())
        }

    def end_to_end(self) -> dict[str, float]:
        """The window's user-visible metrics (``setup_s`` and
        ``peak_rss_mb`` are added by the runner)."""
        ok = self.attempted - self.failed
        return {
            "throughput_qps": ok / self.window_s if self.window_s else 0.0,
            "latency_geomean_ms": geomean(
                list(self.template_medians_ms().values())
            ),
        }


class Spans:
    """Benchmark-owned span recorder: one row per call into a layer's
    public function, made from outside that layer.

    Spans nest on a stack (the load generator is single-threaded);
    :meth:`add` records an interval measured elsewhere (open-loop
    requests overlap, so they cannot use the stack).  Rows stay in
    memory until :meth:`write`.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start_ns": 0,
            "end_ns": 0,
            **attrs,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        row["start_ns"] = time.perf_counter_ns()
        try:
            yield row
        finally:
            row["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, **attrs: Any) -> None:
        self.rows.append(
            {
                "id": len(self.rows),
                "name": name,
                "parent": None,
                "request": self.request,
                "start_ns": start_ns,
                "end_ns": end_ns,
                **attrs,
            }
        )

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Dump every span with its self time (duration minus the part
        its children cover)."""
        covered = [0] * len(self.rows)
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] += row["end_ns"] - row["start_ns"]
        spans = [
            {**row, "self_ns": row["end_ns"] - row["start_ns"] - covered[i]}
            for i, row in enumerate(self.rows)
        ]
        with open(path, "w") as handle:
            json.dump({"header": header, "spans": spans}, handle)
