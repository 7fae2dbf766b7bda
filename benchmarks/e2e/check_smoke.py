"""Smoke check of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/check_smoke.py

Runs every workload and the traced pass at ``--quick`` sizes, checks
that every metric ``BENCHMARK.json`` names comes back with its unit,
and cross-checks the hand-written oracles against the native engine.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
sys.setrecursionlimit(100_000)

from oracle import JOINS, Oracle  # noqa: E402
from repro.purexml import PureXMLEngine  # noqa: E402
from repro.workloads.xmark import XMarkConfig, generate_xmark  # noqa: E402
from workloads import CATALOG, TAILS, WORKLOADS, pattern_pool  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(scope="module")
def document():
    return generate_xmark(XMarkConfig(factor=0.002, seed=11), uri="auction.xml")


@pytest.mark.parametrize("name", sorted(JOINS))
def test_join_oracle_matches_native_engine(document, name):
    native = PureXMLEngine({document.uri: document}).run(CATALOG[name])
    assert native, "the generator must give the join witnesses"
    assert [id(n) for n in JOINS[name](document)] == [id(n) for n in native]


def test_pattern_oracle_matches_native_engine(document):
    oracle = Oracle([document])
    for p in pattern_pool(random.Random(5), 2, 3):
        by_filter = oracle.answer(
            p.query, pattern=(p.entity, p.predicates, TAILS[p.entity])
        )
        assert by_filter == oracle.answer(p.query), p.query


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_reports_every_metric(name, trace):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--quick",
            "--workload", name, "--seed", "3", "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: cell["unit"] for name, cell in result["metrics"].items()
    }
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
