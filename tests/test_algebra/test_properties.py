"""Property inference tests (paper Tables 2–5)."""

from repro.algebra import (
    Attach,
    Comparison,
    Cross,
    Distinct,
    DocScan,
    Join,
    LitTable,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
    col,
    infer_properties,
    lit,
)


def rows(*values):
    return [(v,) for v in values]


def test_icols_seeded_at_serialize():
    t = LitTable(("iter", "pos", "item"), [(1, 1, 5)])
    root = Serialize(t)
    props = infer_properties(root)
    assert props.icols(t) == {"pos", "item"}


def test_icols_through_projection_rename():
    t = LitTable(("a", "b", "c"), [(1, 2, 3)])
    p = Project(t, [("item", "a"), ("pos", "b"), ("x", "c")])
    root = Serialize(p)
    props = infer_properties(root)
    assert props.icols(t) == {"a", "b"}  # c not needed


def test_icols_include_predicate_columns():
    t = LitTable(("item", "pos", "f"), [(1, 1, 0)])
    s = Select(t, Comparison("=", col("f"), lit(0)))
    props = infer_properties(Serialize(s))
    assert "f" in props.icols(t)


def test_icols_union_over_shared_consumers():
    t = LitTable(("item", "pos", "a", "b"), [(1, 1, 2, 3)])
    p1 = Project(t, [("item", "item"), ("pos", "pos"), ("x", "a")])
    p2 = Project(t, [("y", "b")])
    # p1 feeds serialize; p2 feeds a select whose pred needs y
    s = Select(p1, Comparison("=", col("x"), lit(2)))
    root = Serialize(s)
    props = infer_properties(root)
    assert props.icols(t) >= {"item", "pos", "a"}
    del p2


def test_const_from_attach_and_literal():
    t = LitTable(("a",), [(1,), (2,)])
    at = Attach(t, "c", 7)
    props = infer_properties(Serialize(Project(at, [("item", "a"), ("pos", "c")])))
    assert props.const(at)["c"] == 7
    single = LitTable(("x", "y"), [(1, "v")])
    props2 = infer_properties(
        Serialize(Project(single, [("item", "x"), ("pos", "y")]))
    )
    assert props2.const(single) == {"x": 1, "y": "v"}


def test_const_propagates_through_join():
    left = Attach(LitTable(("a",), [(1,)]), "c", 5)
    right = LitTable(("b",), [(1,)])
    j = Join(left, right, Comparison("=", col("a"), col("b")))
    props = infer_properties(Serialize(Project(j, [("item", "a"), ("pos", "c")])))
    assert props.const(j) == {"c": 5, "a": 1, "b": 1}


def test_keys_docscan_and_rowid():
    doc = DocScan.__new__(DocScan)  # structural only; no store access
    # use a literal stand-in instead: unique column detection
    t = LitTable(("a", "b"), [(1, 5), (2, 5)])
    r = RowId(t, "i")
    props = infer_properties(Serialize(Project(r, [("item", "a"), ("pos", "i")])))
    assert frozenset(("i",)) in props.keys(r)
    assert frozenset(("a",)) in props.keys(t)  # unique literal column
    del doc


def test_keys_distinct_adds_full_columns():
    t = LitTable(("a", "b"), [(1, 1), (1, 1), (2, 1)])
    d = Distinct(t)
    props = infer_properties(Serialize(Project(d, [("item", "a"), ("pos", "b")])))
    # δ makes the full column set a key; b is constant, so the
    # const-reduction strengthens it to {a}
    assert any(k <= frozenset(("a", "b")) for k in props.keys(d))


def test_keys_const_reduction():
    """A key containing a constant column shrinks by it — needed for
    rule (16) to find tail keys at the top-level pseudo loop."""
    t = LitTable(("a", "b"), [(1, 7), (2, 7)])
    d = Distinct(t)  # key {a, b}
    props = infer_properties(Serialize(Project(d, [("item", "a"), ("pos", "b")])))
    assert frozenset(("a",)) in props.keys(d)  # b is constant 7


def test_keys_equijoin_with_singleton_key_side():
    left = LitTable(("a", "x"), [(1, 8), (2, 9), (3, 9)])  # 'a' is a key
    right = LitTable(("b", "c"), [(1, 10), (2, 20)])  # 'b' is a key
    j = Join(left, right, Comparison("=", col("a"), col("b")))
    props = infer_properties(Serialize(Project(j, [("item", "a"), ("pos", "c")])))
    keys = props.keys(j)
    # {b} key on the probe side: each left row matches at most once,
    # so the left key {a} remains a key of the join output
    assert frozenset(("a",)) in keys
    # and symmetrically the right key survives
    assert frozenset(("b",)) in keys or frozenset(("c",)) in keys


def test_keys_equijoin_without_keys_yields_none():
    left = LitTable(("a",), [(1,), (2,), (2,)])  # duplicates: no key
    right = LitTable(("b", "c"), [(1, 10), (2, 20)])
    j = Join(left, right, Comparison("=", col("a"), col("b")))
    props = infer_properties(Serialize(Project(j, [("item", "a"), ("pos", "c")])))
    assert props.keys(j) == frozenset()


def test_rank_key_inference():
    t = LitTable(("a", "b"), [(1, 1), (1, 2), (2, 1)])
    d = Distinct(t)  # key {a,b}
    r = RowRank(d, "rk", ("b",))
    props = infer_properties(Serialize(Project(r, [("item", "a"), ("pos", "rk")])))
    # rank + (key minus order cols) is a key: {rk, a}
    assert frozenset(("rk", "a")) in props.keys(r)


def test_set_property_below_distinct():
    t = LitTable(("a",), [(1,), (1,)])
    d = Distinct(t)
    root = Serialize(Project(d, [("item", "a"), ("pos", "a")]))
    props = infer_properties(root)
    assert props.set_prop(t) is True
    assert props.set_prop(d) is False  # nothing dedups above δ


def test_set_property_blocked_by_rowid():
    t = LitTable(("a",), [(1,), (1,)])
    r = RowId(t, "i")
    d = Distinct(r)
    props = infer_properties(Serialize(Project(d, [("item", "a"), ("pos", "i")])))
    assert props.set_prop(t) is False  # row id sees multiplicities


def test_set_property_and_across_consumers():
    t = LitTable(("a",), [(1,), (1,)])
    d1 = Distinct(t)
    j = Join(
        Project(d1, [("x", "a")]),
        Project(t, [("y", "a")]),
        Comparison("=", col("x"), col("y")),
    )
    props = infer_properties(Serialize(Project(j, [("item", "x"), ("pos", "y")])))
    # t is consumed both below a δ and directly by the join: not set
    assert props.set_prop(t) is False


def test_cross_keys_are_unions():
    left = LitTable(("a",), [(1,), (2,)])
    right = LitTable(("b",), [(5,), (6,)])
    c = Cross(left, right)
    props = infer_properties(Serialize(Project(c, [("item", "a"), ("pos", "b")])))
    assert frozenset(("a", "b")) in props.keys(c)


def test_capped_projection_keys_stay_whole_and_deterministic():
    """A key whose source columns are duplicated under many names
    multiplies out; the cap keeps a sorted prefix (not a hash-ordered
    one) at every stage, so each survivor still names a copy of *every*
    key column — a truncated prefix of the product is not a key."""
    rows = [(1, 1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]
    d = Distinct(LitTable(("a", "b", "c"), rows))  # its only key: {a, b, c}
    copies = [(f"{src}{i}", src) for src, n in (("a", 5), ("b", 5), ("c", 2)) for i in range(n)]
    p = Project(d, copies)
    props = infer_properties(Serialize(Project(p, [("item", "a0"), ("pos", "b0")])))
    keys = props.keys(p)
    assert len(keys) == 16  # 50 combinations, capped
    assert all({name[0] for name in k} == {"a", "b", "c"} for k in keys)
    # a0 × b0..b4 × c0..c1 (10 keys), then a1 × b0..b2 × c0..c1 (6)
    assert frozenset(("a1", "b2", "c1")) in keys
    assert frozenset(("a1", "b3", "c0")) not in keys
