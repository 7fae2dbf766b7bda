"""Benchmark harness tests (tiny factors so they run quickly)."""

import pytest

from repro.bench import BenchHarness
from repro.bench.harness import ENGINES, format_table9


@pytest.fixture(scope="module")
def harness():
    return BenchHarness(xmark_factor=0.002, dblp_factor=0.0005)


def test_engines_enumerated(harness):
    assert set(ENGINES) >= {
        "stacked-sql",
        "joingraph-sql",
        "planner",
        "purexml-whole",
        "purexml-segmented",
    }


@pytest.mark.parametrize(
    "engine",
    ["stacked-sql", "joingraph-sql", "planner", "purexml-whole",
     "purexml-segmented", "interpreter"],
)
def test_every_engine_runs_q1(harness, engine):
    run = harness.run("Q1", engine)
    assert run.correct, engine
    assert run.seconds >= 0


def test_reference_is_interpreter(harness):
    query = harness.query("Q1")
    assert harness.reference(query) == harness.execute("Q1", "interpreter")


def test_tuple_query_supported(harness):
    run = harness.run("Q6", "joingraph-sql")
    assert run.correct


def test_format_table9(harness):
    runs = [harness.run("Q1", "joingraph-sql"), harness.run("Q1", "planner")]
    text = format_table9(runs)
    assert "Q1" in text and "joingraph-sql" in text and "planner" in text


def test_unknown_engine_rejected(harness):
    with pytest.raises(ValueError):
        harness.execute("Q1", "quantum")


def test_run_carries_phase_breakdown(harness):
    run = harness.run("Q2", "joingraph-sql")
    assert run.phases, "expected a per-phase span profile"
    # the execution side is always traced; compile-side spans appear
    # only on cache-cold runs
    assert "execute" in run.phases
    assert all(seconds >= 0 for seconds in run.phases.values())


def test_run_leaves_global_tracer_untouched(harness):
    from repro.obs import get_tracer

    before = get_tracer()
    harness.run("Q1", "interpreter")
    assert get_tracer() is before
