"""Benchmark harness: one place that wires every engine to the paper's
workloads so the ``benchmarks/`` suite can regenerate each table and
figure of the evaluation section."""

from repro.bench.harness import BenchHarness, EngineRun, format_table9

__all__ = ["BenchHarness", "EngineRun", "format_table9"]
