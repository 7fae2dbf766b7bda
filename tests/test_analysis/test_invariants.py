"""Deep plan checker: structural contracts, the independent property
re-derivation, and the data-backed layer — each exercised both on
healthy plans (no diagnostics) and on deliberately corrupted ones
(the right ``JGI`` code comes out)."""

from __future__ import annotations

from repro.algebra import (
    Attach,
    Comparison,
    Cross,
    Distinct,
    Join,
    LitTable,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
    col,
    lit,
    run_plan,
)
from repro.algebra.dagutils import clone_plan, find_cycle, structural_violations
from repro.algebra.properties import infer_properties
from repro.analysis import (
    check_plan,
    data_diagnostics,
    errors,
    property_diagnostics,
    structural_diagnostics,
)
from repro.analysis.invariants import prune_dead_refs
from repro.compiler import compile_core
from repro.xquery import normalize, parse_xquery


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


def small_plan() -> Serialize:
    """item/pos over a literal base — structurally rich enough for the
    corruption tests (join + project + generators)."""
    left = LitTable(("a", "v"), [(1, 10), (2, 20)])
    right = LitTable(("b",), [(1,), (2,)])
    join = Join(left, right, Comparison("=", col("a"), col("b")))
    project = Project(join, [("item", "v"), ("pos", "b")])
    return Serialize(project)


# -- healthy plans -----------------------------------------------------------


def test_clean_plan_has_no_diagnostics():
    assert check_plan(small_plan(), data=True) == []


def test_compiled_plans_check_clean(fig2_store):
    core = normalize(
        parse_xquery('doc("auction.xml")//bidder/increase'),
        default_doc="auction.xml",
    )
    plan = compile_core(core, fig2_store)
    assert check_plan(plan, data=True) == []


# -- layer 1: structural corruptions -----------------------------------------


def test_cycle_detected_first_and_alone():
    root = small_plan()
    project = root.child
    join = project.child
    join.children[1] = project  # close a cycle through the projection
    assert find_cycle(root) is not None
    assert codes(structural_diagnostics(root)) == ["JGI001"]
    # check_plan must not recurse into the non-terminating layers
    assert codes(check_plan(root, data=True)) == ["JGI001"]


def test_arity_violation():
    root = small_plan()
    root.child.child.children.append(LitTable(("z",), []))
    assert "JGI002" in codes(structural_diagnostics(root))


def test_join_overlap_detected():
    root = small_plan()
    join = root.child.child
    join.children[1] = LitTable(("a",), [(1,)])  # clashes with left 'a'
    assert "JGI003" in codes(structural_diagnostics(root))


def test_missing_column_detected():
    root = small_plan()
    root.child.cols = (("item", "nonexistent"), ("pos", "b"))
    assert "JGI004" in codes(structural_diagnostics(root))


def test_duplicate_project_output_detected():
    root = small_plan()
    root.child.cols = (("item", "v"), ("item", "b"))
    diagnostics = structural_diagnostics(root)
    assert "JGI005" in codes(diagnostics)


def test_generated_column_collision_detected():
    base = LitTable(("item", "pos"), [(1, 1)])
    attach = Attach(base, "extra", 7)
    root = Serialize(attach)
    attach.col = "item"  # now collides with the input schema
    assert "JGI006" in codes(structural_diagnostics(root))


def test_empty_rank_order_detected():
    base = LitTable(("item",), [(1,)])
    rank = RowRank(base, "pos", ("item",))
    root = Serialize(rank)
    rank.order = ()
    assert "JGI006" in codes(structural_diagnostics(root))


def test_littable_row_arity_detected():
    base = LitTable(("item", "pos"), [(1, 1)])
    base.rows = [(1, 1), (2,)]
    assert "JGI007" in codes(structural_diagnostics(Serialize(base)))


def test_serialize_contract_detected():
    root = small_plan()
    root.child.cols = (("item2", "v"), ("pos", "b"))
    assert "JGI008" in codes(structural_diagnostics(root))


def test_shared_node_mutation_hazard():
    base = Project(LitTable(("x", "y"), [(1, 2)]), [("k", "x")])
    left = Project(base, [("a", "k")])
    right = Project(base, [("b", "k")])
    join = Join(left, right, Comparison("=", col("a"), col("b")))
    root = Serialize(Project(join, [("item", "a"), ("pos", "b")]))
    # in-place widening of the *shared* node breaks a constructor
    # invariant (duplicate outputs) -> flagged as a mutation hazard
    base.cols = (("k", "x"), ("k", "y"))
    assert "JGI009" in codes(structural_diagnostics(root))


def test_inner_serialize_detected():
    inner = Serialize(LitTable(("item", "pos"), [(1, 1)]))
    outer = Serialize(Project(inner, [("item", "item"), ("pos", "pos")]))
    assert "JGI010" in codes(structural_diagnostics(outer))


def test_dead_dangling_ref_tolerated_only_in_relaxed_mode():
    # 'v' does not survive the outer projection, so the inner entry
    # ('w', 'gone') is icols-dead; make it dangle.
    base = LitTable(("a", "gone"), [(1, 5)])
    inner = Project(base, [("v", "a"), ("w", "gone")])
    outer = Project(inner, [("item", "v"), ("pos", "v")])
    root = Serialize(outer)
    base.names = ("a", "other")  # 'gone' vanishes from the input schema
    assert "JGI004" in codes(structural_diagnostics(root))
    assert structural_diagnostics(root, allow_dead_refs=True) == []


def test_live_dangling_ref_rejected_even_in_relaxed_mode():
    base = LitTable(("a", "gone"), [(1, 5)])
    inner = Project(base, [("v", "a"), ("w", "gone")])
    outer = Project(inner, [("item", "w"), ("pos", "v")])  # 'w' is live
    root = Serialize(outer)
    base.names = ("a", "other")
    relaxed = structural_violations(root, allow_dead_refs=True)
    assert any(v.kind == "missing-column" for v in relaxed)


# -- layer 2: property cross-checks ------------------------------------------


def test_stale_properties_reported():
    root = small_plan()
    props = infer_properties(root)
    fresh = Select(root.child, Comparison(">", col("item"), lit(0)))
    root.children[0] = fresh  # 'fresh' is unknown to the inference
    assert codes(property_diagnostics(root, props)) == ["JGI011"]


def test_wrong_icols_claim_reported():
    root = small_plan()
    props = infer_properties(root)
    join = root.child.child
    props._icols[join] = frozenset(("a",))  # drop needed columns
    assert "JGI012" in codes(property_diagnostics(root, props))


def test_out_of_schema_icols_reported():
    root = small_plan()
    props = infer_properties(root)
    join = root.child.child
    props._icols[join] = props._icols[join] | {"ghost"}
    assert "JGI013" in codes(property_diagnostics(root, props))


def test_wrong_const_claim_reported():
    root = small_plan()
    props = infer_properties(root)
    join = root.child.child
    props._const[join] = {"v": 10}
    assert "JGI014" in codes(property_diagnostics(root, props))


def test_out_of_schema_key_reported():
    root = small_plan()
    props = infer_properties(root)
    join = root.child.child
    props._keys[join] = frozenset((frozenset(("ghost",)),))
    assert "JGI015" in codes(property_diagnostics(root, props))


def test_wrong_set_claim_reported():
    root = small_plan()
    props = infer_properties(root)
    join = root.child.child
    props._set[join] = not props._set[join]
    assert "JGI016" in codes(property_diagnostics(root, props))


# -- layer 3: data-backed verification ----------------------------------------


def test_false_const_claim_caught_on_data():
    root = small_plan()
    props = infer_properties(root)
    join = root.child.child
    props._const[join] = {"v": 10}  # v is 10 and 20
    assert "JGI021" in codes(data_diagnostics(root, props))


def test_false_key_claim_caught_on_data():
    base = LitTable(("item", "pos", "dup"), [(1, 1, 7), (2, 2, 7)])
    root = Serialize(base)
    props = infer_properties(root)
    props._keys[base] = frozenset((frozenset(("dup",)),))
    assert "JGI022" in codes(data_diagnostics(root, props))


def test_budget_guard_skips_large_tables():
    base = LitTable(("item", "pos", "dup"), [(i, i, 7) for i in range(50)])
    root = Serialize(base)
    props = infer_properties(root)
    props._keys[base] = frozenset((frozenset(("dup",)),))
    assert data_diagnostics(root, props, max_rows=10) == []


# -- helpers: clone and prune -------------------------------------------------


def test_clone_plan_preserves_sharing_and_isolates_mutation():
    base = Project(LitTable(("x",), [(1,)]), [("k", "x")])
    left = Project(base, [("a", "k")])
    right = Project(base, [("b", "k")])
    join = Join(left, right, Comparison("=", col("a"), col("b")))
    root = Serialize(Project(join, [("item", "a"), ("pos", "b")]))

    copy = clone_plan(root)
    copy_join = copy.child.child
    assert copy_join.children[0].child is copy_join.children[1].child
    assert copy_join.children[0].child is not base

    before = run_plan(copy)
    base.cols = (("k", "x"), ("z", "x"))  # mutate the original only
    assert run_plan(copy) == before


def test_prune_dead_refs_cascades():
    base = LitTable(("a", "gone"), [(2, 5), (1, 6)])
    inner = Project(base, [("v", "a"), ("w", "gone")])
    outer = Project(inner, [("item", "v"), ("pos", "v"), ("x", "w")])
    root = Serialize(Project(outer, [("item", "item"), ("pos", "pos")]))
    reference = run_plan(root)

    base.names = ("a", "other")  # strand ('w','gone'), then ('x','w')
    assert structural_diagnostics(root, allow_dead_refs=True) == []
    pruned = prune_dead_refs(root)
    assert pruned.child.child.cols == (("item", "v"), ("pos", "v"))
    assert run_plan(pruned) == reference


# -- misc operators through every layer ---------------------------------------


def test_full_stack_on_generator_operators():
    base = LitTable(("x",), [(3,), (1,), (2,)])
    plan = Serialize(
        Project(
            RowRank(
                Distinct(Cross(RowId(base, "r"), LitTable(("c",), [(9,)]))),
                "rnk",
                ("x",),
            ),
            [("item", "x"), ("pos", "rnk")],
        )
    )
    assert check_plan(plan, data=True) == []
