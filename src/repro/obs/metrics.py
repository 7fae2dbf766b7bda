"""Process-global metrics: counters, gauges, histograms.

Metric names are dotted paths; dynamic dimensions (rule name,
diagnostic code, join-graph alias) are appended as the last path
component, e.g. ``rewrite.rule_fired.17`` or
``analysis.diagnostics.JGI031``.  The full name catalog lives in
``docs/observability.md``.

Unlike the tracer, the registry has no disabled mode: recording a
metric is one dict operation, cheap enough for every call site that
wants it.  Hot loops (the rewrite engine's rule search) accumulate
locally and flush once per run instead.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "latency_summary_ms",
    "metrics_scope",
    "record_diagnostics",
    "set_metrics",
]

# Log-bucket base: bucket i covers (GAMMA**(i-1), GAMMA**i], so any
# positive sample is reported within a factor of sqrt(GAMMA) of its
# true value — a relative quantile error bound of ~4.9%.
_GAMMA = 1.1
_LOG_GAMMA = math.log(_GAMMA)
_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


class Histogram:
    """Mergeable log-bucketed quantile histogram.

    Samples land in sparse exponential buckets (index
    ``ceil(log(v) / log(GAMMA))``); each bucket is reported by its
    geometric midpoint ``GAMMA**(i - 0.5)``, so every quantile of a
    positive-valued distribution is answered within a relative error
    of ``sqrt(GAMMA) - 1`` (< 5%).  Non-positive samples collapse into
    one underflow bucket and are reported as the observed minimum.

    ``merge`` adds bucket counts, so it is lossless, associative and
    commutative — worker- and shard-registry merges produce exactly
    the histogram a single registry would have recorded.
    """

    __slots__ = ("buckets", "count", "maximum", "minimum", "total", "underflow")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets: dict[int, int] = {}
        self.underflow = 0  # samples <= 0 (rare: deltas, clock skew)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            index = math.ceil(math.log(value) / _LOG_GAMMA)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.underflow += 1

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.underflow += other.underflow
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, clamped into [min, max]."""
        if not self.count:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        if rank <= self.underflow:
            return min(self.minimum, 0.0)
        seen = self.underflow
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                representative = _GAMMA ** (index - 0.5)
                return min(self.maximum, max(self.minimum, representative))
        return self.maximum

    def percentiles(self) -> dict[str, float]:
        return {name: self.quantile(q) for name, q in _QUANTILES}

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {
                "count": 0,
                "total": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                **{name: 0.0 for name, _ in _QUANTILES},
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            **self.percentiles(),
        }


def latency_summary_ms(histogram: "Histogram | None") -> dict[str, float]:
    """Millisecond latency summary (count + mean/p50/p90/p95/p99/max)
    of a *nanosecond* histogram — the shape every benchmark and chaos
    report embeds; all-zero when nothing was observed."""
    if histogram is None or not histogram.count:
        return {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p90": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
    return {
        "count": histogram.count,
        "mean": histogram.mean / 1e6,
        **{name: ns / 1e6 for name, ns in histogram.percentiles().items()},
        "max": histogram.maximum / 1e6,
    }


class MetricsRegistry:
    """A bag of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- aggregation ----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry: counters add, gauges take
        the other side's latest value, histograms merge."""
        for name, value in other.counters.items():
            self.count(name, value)
        self.gauges.update(other.gauges)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(histogram)

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, JSON-ready view of every metric."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def prefixed(self, prefix: str) -> dict[str, float]:
        """Counters under ``prefix.`` keyed by their last component
        (e.g. ``prefixed("rewrite.rule_fired")`` -> rule -> fires)."""
        cut = len(prefix) + 1
        return {
            name[cut:]: value
            for name, value in self.counters.items()
            if name.startswith(prefix + ".")
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


# -- process-global registry ---------------------------------------------

_state = threading.local()
_DEFAULT_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry instrumented code records into."""
    return getattr(_state, "metrics", _DEFAULT_METRICS)


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` globally (``None`` restores the process
    default); returns the now-active registry."""
    if registry is None:
        registry = _DEFAULT_METRICS
    _state.metrics = registry
    return registry


class metrics_scope:
    """Context manager: route recordings into a fresh registry for the
    duration (the previous registry is restored, unmodified)::

        with metrics_scope() as metrics:
            processor.execute(query)
        print(metrics.snapshot())
    """

    def __enter__(self) -> MetricsRegistry:
        self._previous = get_metrics()
        return set_metrics(MetricsRegistry())

    def __exit__(self, *exc: object) -> None:
        set_metrics(self._previous)


def record_diagnostics(diagnostics: Iterable[Any]) -> None:
    """Count analysis findings (``repro.analysis`` diagnostics) into
    the registry, one counter per JGI code plus per-severity totals —
    the bridge that lets ``repro obs`` report analysis health next to
    performance numbers."""
    metrics = get_metrics()
    for diagnostic in diagnostics:
        metrics.count(f"analysis.diagnostics.{diagnostic.code}")
        metrics.count(f"analysis.{diagnostic.severity}s")
