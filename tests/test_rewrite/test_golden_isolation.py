"""Golden snapshot of join-graph isolation: plan text, SQL text, step
count and per-rule application counts for the 12 benchmark catalog
templates and 200 ``tests/genquery.py`` seeds.

Rule *selection order* decides the fresh column names, hence plan and
SQL text; the snapshot pins it byte for byte, so an engine change that
reorders applications (or any ``PYTHONHASHSEED`` dependence of the
rules and the property inference) shows up as a diff here.

Regenerate (only when an intended change of the rules moves it)::

    PYTHONPATH=src python -m tests.test_rewrite.test_golden_isolation --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algebra.dagutils import plan_to_text
from repro.infoset import DocumentStore
from repro.pipeline import XQueryProcessor
from repro.workloads import XMarkConfig, generate_xmark
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.xmark_queries import XMARK_QUERIES
from tests.genquery import DEFAULT_URI, random_document, random_query

GOLDEN = Path(__file__).with_name("golden_isolation.json")
GENQUERY_SEEDS = 200
#: what the hash-seed subprocesses recompute (the full catalog rides
#: along; X9 and Q2 are its slow members)
HASHSEED_GENQUERY_SEEDS = 40

#: the templates of ``benchmarks/e2e`` ``cold_catalog``
CATALOG = {
    **{name: query.text for name, query in XMARK_QUERIES.items()},
    **{name: PAPER_QUERIES[name].text for name in ("Q1", "Q2", "Q4")},
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _entry(processor: XQueryProcessor, query: str) -> dict:
    compiled = processor.compile(query)
    stats = compiled.isolation_stats
    return {
        "plan": _digest(plan_to_text(compiled.isolated_plan)),
        "sql": _digest(compiled.joingraph_sql.text),
        "steps": stats.steps,
        "applications": dict(sorted(stats.applications.items())),
    }


def catalog_snapshot() -> dict[str, dict]:
    store = DocumentStore()
    store.load_tree(generate_xmark(XMarkConfig(factor=0.001)))
    processor = XQueryProcessor(store, default_doc="auction.xml")
    return {
        f"catalog:{name}": _entry(processor, query)
        for name, query in CATALOG.items()
    }


def genquery_snapshot(seeds: int) -> dict[str, dict]:
    out = {}
    for seed in range(seeds):
        rng = random.Random(seed)
        xml = random_document(rng)
        query = random_query(rng)
        store = DocumentStore()
        store.load(xml, DEFAULT_URI)
        processor = XQueryProcessor(store, default_doc=DEFAULT_URI)
        out[f"genquery:{seed}"] = _entry(processor, query)
    return out


def snapshot(seeds: int) -> dict[str, dict]:
    return {**catalog_snapshot(), **genquery_snapshot(seeds)}


def _differences(actual: dict, golden: dict) -> list[str]:
    return sorted(key for key in actual if actual[key] != golden.get(key))


def test_isolation_matches_golden_snapshot():
    golden = json.loads(GOLDEN.read_text())
    actual = snapshot(GENQUERY_SEEDS)
    assert sorted(actual) == sorted(golden)
    assert _differences(actual, golden) == []


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_snapshot_is_independent_of_the_hash_seed(hashseed):
    """Frozenset iteration order must not pick keys, columns or rule
    applications: the same snapshot under two fixed hash seeds."""
    golden = json.loads(GOLDEN.read_text())
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-m", "tests.test_rewrite.test_golden_isolation"],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    actual = json.loads(done.stdout)
    assert len(actual) == len(CATALOG) + HASHSEED_GENQUERY_SEEDS
    assert _differences(actual, golden) == []


if __name__ == "__main__":
    sys.setrecursionlimit(100_000)
    if "--write" in sys.argv:
        rows = ",\n".join(
            f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
            for key, entry in snapshot(GENQUERY_SEEDS).items()
        )
        GOLDEN.write_text("{\n" + rows + "\n}\n")
    else:
        json.dump(snapshot(HASHSEED_GENQUERY_SEEDS), sys.stdout)
