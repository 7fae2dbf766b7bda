"""DAG utility tests: traversal, replacement, fingerprints, validation."""

import pytest

from repro.algebra import (
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
from repro.algebra.dagutils import (
    all_nodes,
    count_ops,
    parents_map,
    plan_fingerprint,
    plan_to_text,
    reachable,
    replace_node,
    validate_plan,
)
from repro.errors import RewriteError


def small_plan():
    base = LitTable(("item", "pos"), [(1, 1)])
    left = Project(base, [("a", "item")])
    right = Project(base, [("b", "item")])
    join = Join(left, right, Comparison("=", col("a"), col("b")))
    return Serialize(Project(join, [("item", "a"), ("pos", "b")])), base, join


def test_all_nodes_visits_shared_once():
    root, base, _ = small_plan()
    nodes = all_nodes(root)
    assert sum(1 for n in nodes if n is base) == 1
    assert nodes[-1] is root  # post-order: root last


def test_parents_map_counts_per_slot():
    root, base, _ = small_plan()
    parents = parents_map(root)
    assert len(parents[base]) == 2  # shared by both projections


def test_reachability():
    root, base, join = small_plan()
    assert reachable(root, base)
    assert reachable(join, base)
    assert not reachable(base, join)


def test_replace_node_keeps_sharing():
    root, base, _ = small_plan()
    new_base = LitTable(("item", "pos"), [(2, 1)])
    root = replace_node(root, base, new_base)
    nodes = all_nodes(root)
    assert not any(n is base for n in nodes)
    assert sum(1 for n in nodes if n is new_base) == 1
    parents = parents_map(root)
    assert len(parents[new_base]) == 2


def test_replace_root():
    root, base, _ = small_plan()
    other = Serialize(base)
    assert replace_node(root, root, other) is other


def test_fingerprint_is_structural():
    r1, _, _ = small_plan()
    r2, _, _ = small_plan()
    assert plan_fingerprint(r1) == plan_fingerprint(r2)
    r3, base3, _ = small_plan()
    # labels carry shape, not literal row values: a different row count
    # changes the fingerprint (a different value alone would not)
    replace_node(r3, base3, LitTable(("item", "pos"), [(9, 9), (8, 8)]))
    assert plan_fingerprint(r3) != plan_fingerprint(r1)


def test_fingerprint_sensitive_to_sharing():
    base = LitTable(("item", "pos"), [(1, 1)])
    shared = Serialize(
        Project(
            Join(
                Project(base, [("a", "item")]),
                Project(base, [("b", "item")]),
                Comparison("=", col("a"), col("b")),
            ),
            [("item", "a"), ("pos", "b")],
        )
    )
    base2 = LitTable(("item", "pos"), [(1, 1)])
    unshared = Serialize(
        Project(
            Join(
                Project(base, [("a", "item")]),
                Project(base2, [("b", "item")]),
                Comparison("=", col("a"), col("b")),
            ),
            [("item", "a"), ("pos", "b")],
        )
    )
    assert plan_fingerprint(shared) != plan_fingerprint(unshared)


def test_count_ops():
    root, _, _ = small_plan()
    ops = count_ops(root)
    assert ops["Project"] == 3 and ops["Join"] == 1 and ops["LitTable"] == 1


def test_plan_to_text_marks_shared_nodes():
    root, _, _ = small_plan()
    text = plan_to_text(root)
    assert "(=1)" in text and "*1" in text


def test_validate_plan_catches_missing_columns():
    base = LitTable(("a",), [(1,)])
    select = Select(base, Comparison("=", col("a"), lit(1)))
    # sabotage: swap the child for one lacking column a
    select.children[0] = LitTable(("b",), [(1,)])
    with pytest.raises(RewriteError):
        validate_plan(select)


def test_validate_plan_catches_join_overlap():
    left = LitTable(("a",), [(1,)])
    right = LitTable(("b",), [(1,)])
    join = Join(left, right, Comparison("=", col("a"), col("b")))
    join.children[1] = LitTable(("a",), [(1,)])  # overlap after mutation
    with pytest.raises(RewriteError):
        validate_plan(join)


def test_validate_plan_accepts_consistent_plans():
    root, _, _ = small_plan()
    validate_plan(root)  # no exception


def test_distinct_over_join_shapes():
    root, _, join = small_plan()
    replaced = replace_node(root, join, Distinct(join))
    assert count_ops(replaced)["Distinct"] == 1
    validate_plan(replaced)
