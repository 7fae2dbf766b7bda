"""The isolation engine's maintained plan state, step by step.

The engine derives the parents map and the Tables 2–5 properties once
per run and repairs them on the dirty cone of each rewrite.  With a
:class:`PlanSanitizer` attached, after *every* rule application the
maintained state is compared with ``parents_map(root)`` and
``infer_properties(root)`` computed from scratch (``JGI032``), and every
rule that was offered the plan without firing must have left
``plan_to_text(root)`` unchanged (``JGI033``).  The sweeps below run
that check over the benchmark catalog and a ``tests/genquery.py``
sample; the last tests show the check is not vacuous.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import (
    Attach,
    Comparison,
    Distinct,
    Join,
    LitTable,
    Project,
    Select,
    Serialize,
    col,
    lit,
)
from repro.algebra.dagutils import all_nodes, parents_map, splice
from repro.algebra.properties import PlanProperties, infer_properties
from repro.analysis.rulecheck import maintained_state_drift
from repro.errors import SanitizerError
from repro.infoset import DocumentStore
from repro.pipeline import XQueryProcessor
from repro.rewrite import engine as engine_mod
from repro.rewrite.rules import RewriteContext, matches
from repro.workloads import XMarkConfig, generate_xmark
from tests.genquery import DEFAULT_URI, random_document, random_query
from tests.test_rewrite.test_golden_isolation import CATALOG

GENQUERY_SEEDS = 60


def _checked_compile(store: DocumentStore, uri: str, query: str) -> None:
    processor = XQueryProcessor(store, default_doc=uri, checked=True)
    compiled = processor.compile(query)
    sanitizer = processor._engine.sanitizer
    assert sanitizer.steps_checked == compiled.isolation_stats.steps > 0


@pytest.fixture(scope="module")
def xmark() -> DocumentStore:
    store = DocumentStore()
    store.load_tree(generate_xmark(XMarkConfig(factor=0.001)))
    return store


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_state_is_exact_after_every_step(xmark, name):
    _checked_compile(xmark, "auction.xml", CATALOG[name])


def test_genquery_state_is_exact_after_every_step():
    for seed in range(GENQUERY_SEEDS):
        rng = random.Random(seed)
        xml = random_document(rng)
        query = random_query(rng)
        store = DocumentStore()
        store.load(xml, DEFAULT_URI)
        _checked_compile(store, DEFAULT_URI, query)


# -- the edge surgery -----------------------------------------------------------


def _shared_plan():
    base = LitTable(("a", "b"), [(1, 2), (3, 4)])
    left = Project(base, [("x", "a")])
    right = Project(base, [("y", "b")])
    join = Join(left, right, Comparison("=", col("x"), col("y")))
    tagged = Attach(join, "c", 7)
    root = Serialize(Project(tagged, [("item", "x"), ("pos", "y")]))
    return root, base, left, right, join, tagged


def _same_multisets(parents, root) -> bool:
    fresh = parents_map(root)
    return set(parents) == set(fresh) and all(
        sorted(map(id, parents[node])) == sorted(map(id, fresh[node]))
        for node in fresh
    )


def test_splice_to_own_child_drops_only_the_replaced_node():
    root, base, left, right, join, tagged = _shared_plan()
    parents = parents_map(root)
    added, dropped = splice(parents, tagged, join)  # rule (4) shape
    assert added == [] and dropped == [tagged]
    assert _same_multisets(parents, root)


def test_splice_keeps_a_replaced_node_the_replacement_wraps():
    root, base, left, right, join, tagged = _shared_plan()
    parents = parents_map(root)
    wrapped = Distinct(Project.keep(join, ["x", "y"]))  # rule (16) shape
    added, dropped = splice(parents, join, wrapped)
    assert added == [wrapped.child, wrapped] and dropped == []
    assert parents[join] == [wrapped.child]
    assert _same_multisets(parents, root)


def test_splice_drop_cascades_but_spares_shared_operators():
    root, base, left, right, join, tagged = _shared_plan()
    parents = parents_map(root)
    replacement = Project(left, [("x", "x"), ("y", "x")])
    added, dropped = splice(parents, join, replacement)
    assert added == [replacement]
    assert set(dropped) == {join, right}  # base lives on below `left`
    assert parents[base] == [left]
    assert _same_multisets(parents, root)


def test_splice_counts_a_self_join_once_per_slot():
    base = LitTable(("a",), [(1,)])
    shared = Project(base, [("a", "a")])
    root = Serialize(
        Project(
            Join(shared, Project(shared, [("b", "a")]), Comparison("=", col("a"), col("b"))),
            [("item", "a"), ("pos", "b")],
        )
    )
    parents = parents_map(root)
    assert len(parents[shared]) == 2
    splice(parents, shared, base)  # rule (2b) shape on a shared node
    assert len(parents[base]) == 2
    assert _same_multisets(parents, root)


def test_replace_repairs_properties_around_a_widened_projection():
    """What rules (20)/(21) do: widen a shared projection in place,
    report it, replace an operator above it."""
    root, base, left, right, join, tagged = _shared_plan()
    parents = parents_map(root)
    ctx = RewriteContext(
        root=root, props=infer_properties(root, parents), parents=parents
    )
    left.cols = left.cols + (("b_r1", "b"),)
    ctx.touched.append(left)
    ctx.replace(tagged, Select(join, Comparison("=", col("b_r1"), lit(2))))
    assert ctx.touched == []
    fresh_parents = parents_map(root)
    fresh = infer_properties(root, fresh_parents)
    assert maintained_state_drift(ctx, fresh_parents, fresh) == []
    assert "b_r1" in ctx.props.icols(left)
    assert set(ctx.parents) == set(all_nodes(root))


# -- the check is not vacuous -----------------------------------------------------


def test_skipped_top_down_repair_is_reported(monkeypatch, fig2_store):
    repair = PlanProperties.repair

    def bottom_up_only(self, root, parents, up, down):
        if self._icols:  # the initial whole-plan inference stays intact
            down = ()
        repair(self, root, parents, up, down)

    monkeypatch.setattr(PlanProperties, "repair", bottom_up_only)
    processor = XQueryProcessor(fig2_store, default_doc="auction.xml", checked=True)
    with pytest.raises(SanitizerError) as excinfo:
        processor.compile("//bidder[time]/increase")
    assert excinfo.value.code == "JGI032"


def test_rule_mutating_the_plan_on_a_miss_is_reported(monkeypatch, fig2_store):
    @matches(Project)
    def widen_and_fail(node, ctx):
        child = node.child
        if isinstance(child, Project) and child.cols:
            child.cols = child.cols[:1] + child.cols  # in-place edit …
        return None  # … without firing

    table = tuple(
        (name, widen_and_fail if name == "2b" else rule)
        for name, rule in engine_mod.HOUSE_CLEANING
    )
    monkeypatch.setattr(engine_mod, "HOUSE_CLEANING", table)
    processor = XQueryProcessor(fig2_store, default_doc="auction.xml", checked=True)
    with pytest.raises(SanitizerError) as excinfo:
        processor.compile("//bidder[time]/increase")
    assert excinfo.value.code == "JGI033"
    assert excinfo.value.rule == "2b"
