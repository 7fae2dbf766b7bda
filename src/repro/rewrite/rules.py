"""The join graph isolation rewrite rules (paper Fig. 5, rules (1)–(19)).

Each rule is a function ``rule(node, ctx) -> Operator | None`` returning
the replacement for ``node`` when the rule's premise (checked against
the inferred plan properties) holds, else ``None``.

Soundness notes that go beyond the paper's terse presentation:

* The rank rules (9)–(13) preserve rank columns only *ordinally*
  (order-isomorphic values).  This is sufficient because the compiler
  never emits value comparisons over rank columns — ranks are consumed
  exclusively as ordering criteria and by the serialization point.
* Rule (11) widens the schema below the pulled-up rank by the order
  columns.  Duplicate elimination above is unaffected: RANK ties are
  exactly equality of the order columns, so distinct-on-(rank, rest)
  equals distinct-on-(rank, order, rest).
* Rule (17) through a renaming projection and rule (19) on "identical
  inputs" take DAG sharing seriously: (19) collapses a key equi-join
  whose two inputs are projection chains over the *same shared node*
  joining a key column with a copy of itself.
* Rule (18) carries the paper's footnote-5 size guard against the
  ping-pong of adjacent equi-joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.dagutils import all_nodes, splice
from repro.algebra.expressions import Comparison, col, conjuncts
from repro.algebra.ops import (
    Attach,
    Cross,
    Distinct,
    DocScan,
    Join,
    LitTable,
    Operator,
    Project,
    RowId,
    RowRank,
    Select,
    Serialize,
)
from repro.algebra.properties import PlanProperties


@dataclass
class RewriteContext:
    """The maintained state of one isolation run: the plan root, its
    parents map and the Tables 2–5 properties — all kept current across
    rule applications by :meth:`replace` — plus bookkeeping shared by
    all rules.

    ``counter`` must be shared across all steps of one isolation run
    (the engine owns it): fresh column names persist in the plan, so a
    per-step counter would mint clashing names.
    """

    root: Operator
    props: PlanProperties
    parents: dict[Operator, list[Operator]]
    counter: list[int] = field(default_factory=lambda: [0])
    #: projections a rule widened in place since the last
    #: :meth:`replace` (rules 20/21 report them here)
    touched: list[Project] = field(default_factory=list)

    def fresh_col(self, base: str) -> str:
        self.counter[0] += 1
        return f"{base}_r{self.counter[0]}"

    def subplan_size(self, node: Operator) -> int:
        return len(all_nodes(node))

    def replace(self, old: Operator, new: Operator) -> None:
        """Apply one rule step — ``new`` takes the place of ``old``
        (never the root) — and repair parents and properties on the
        dirty cone only: ``const``/``key``/schema upward from the new
        and the touched operators, ``icols``/``set`` downward from
        every operator whose parents (or a parent's arguments) changed.
        """
        parents = self.parents
        holders = parents[old]
        added, dropped = splice(parents, old, new)
        for node in dropped:
            self.props.forget(node)
        touched = [node for node in self.touched if node in parents]
        self.touched.clear()
        up = [*touched, *added, *holders]
        down = [*reversed(added), new]
        for node in added:
            down.extend(node.children)
        for node in dropped:
            down.extend(child for child in node.children if child in parents)
        down.extend(node.child for node in touched)
        self.props.repair(self.root, parents, up, down)


def matches(*classes: type[Operator]):
    """Declare the operator classes a rule can fire on — its leading
    ``isinstance`` test — so the engine offers it only those nodes."""

    def mark(rule):
        rule.operator_classes = classes
        return rule

    return mark


# ---------------------------------------------------------------------------
# house-cleaning rules
# ---------------------------------------------------------------------------


@matches(Cross)
def rule_1_cross_literal(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(1) ``q × single-row-literal -> chained @`` (either operand)."""
    if not isinstance(node, Cross):
        return None
    for lit_side, other in ((node.left, node.right), (node.right, node.left)):
        if isinstance(lit_side, LitTable):
            if len(lit_side.rows) == 1:
                out: Operator = other
                for name, value in zip(lit_side.names, lit_side.rows[0]):
                    out = Attach(out, name, value)
                return out
            if not lit_side.rows:
                return LitTable(node.columns, [])
    return None


@matches(Project)
def rule_2_merge_projects(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(2) ``π(π(q)) -> π(q)`` — compose renamings."""
    if isinstance(node, Project) and isinstance(node.child, Project):
        inner = node.child.renaming
        if any(old not in inner for _, old in node.cols):
            return None  # dangling pair; rule (7b) prunes it first
        merged = [(new, inner[old]) for new, old in node.cols]
        return Project(node.child.child, merged)
    return None


@matches(Project)
def rule_7b_drop_dangling_pairs(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(7b) drop projection pairs whose source column no longer exists.

    Rules (4)–(6) remove generated columns once ``icols`` shows no live
    consumer; a *dead* projection output (one nobody upstream needs) may
    still reference such a column.  Dropping the dead pair restores the
    structural invariant.
    """
    if not isinstance(node, Project):
        return None
    available = ctx.props.columns(node.child)
    kept = [(new, old) for new, old in node.cols if old in available]
    if len(kept) == len(node.cols) or not kept:
        return None
    return Project(node.child, kept)


@matches(Project)
def rule_2b_identity_project(node: Operator, ctx: RewriteContext) -> Operator | None:
    """π that keeps all columns under their own names is a no-op."""
    if (
        isinstance(node, Project)
        and all(new == old for new, old in node.cols)
        and node.columns == node.child.columns
    ):
        return node.child
    return None


@matches(Join)
def rule_3_const_join_to_cross(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(3) ``q1 ⋈a=b q2 -> q1 × q2`` when a and b carry the same constant."""
    if not isinstance(node, Join):
        return None
    eq = node.equijoin_cols()
    if eq is None:
        return None
    a, b = eq
    const = ctx.props.const(node)
    if a in const and b in const and const[a] == const[b] and const[a] is not None:
        return Cross(node.left, node.right)
    return None


@matches(Attach)
def rule_4_attach_unreferenced(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(4) ``@a:c(q) -> q`` when a is not needed upstream."""
    if isinstance(node, Attach) and node.col not in ctx.props.icols(node):
        return node.child
    return None


@matches(RowRank)
def rule_5_rank_unreferenced(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(5) ``%a(q) -> q`` when a is not needed upstream."""
    if isinstance(node, RowRank) and node.col not in ctx.props.icols(node):
        return node.child
    return None


@matches(RowId)
def rule_6_rowid_unreferenced(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(6) ``#a(q) -> q`` when a is not needed upstream."""
    if isinstance(node, RowId) and node.col not in ctx.props.icols(node):
        return node.child
    return None


@matches(Project)
def rule_7_project_restrict(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(7) restrict a projection to the needed columns."""
    if not isinstance(node, Project):
        return None
    icols = ctx.props.icols(node)
    if not icols:
        return None
    outputs = set(node.columns)
    if not (outputs - icols):
        return None
    kept = [(new, old) for new, old in node.cols if new in icols]
    if not kept:
        return None
    return Project(node.child, kept)


@matches(RowRank)
def rule_8_rank_drop_const_order(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(8) drop constant columns from ranking criteria; a rank over
    nothing but constants assigns rank 1 to every row."""
    if not isinstance(node, RowRank):
        return None
    const = ctx.props.const_cols(node.child)
    if not (set(node.order) & const):
        return None
    remaining = tuple(c for c in node.order if c not in const)
    if not remaining:
        return Attach(node.child, node.col, 1)
    return RowRank(node.child, node.col, remaining)


# ---------------------------------------------------------------------------
# goal ρ: a single row-rank operator in the plan tail
# ---------------------------------------------------------------------------


@matches(RowRank)
def rule_9_rank_single_to_project(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(9) ``%a:<b>(q) -> π(a:b, cols(q))(q)`` — a single-column rank is
    order-isomorphic to the column itself."""
    if isinstance(node, RowRank) and len(node.order) == 1:
        pairs = [(c, c) for c in node.child.columns]
        pairs.append((node.col, node.order[0]))
        return Project(node.child, pairs)
    return None


@matches(Select, Distinct, Attach, RowId)
def rule_10_rank_pullup_unary(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(10) pull % above σ, δ, @, # (premise: rank column unused there)."""
    child = node.children[0] if node.children else None
    if not isinstance(child, RowRank):
        return None
    if isinstance(node, Select):
        if child.col in node.pred.cols():
            return None
        inner: Operator = Select(child.child, node.pred)
    elif isinstance(node, Distinct):
        inner = Distinct(child.child)
    elif isinstance(node, Attach):
        inner = Attach(child.child, node.col, node.value)
    elif isinstance(node, RowId):
        inner = RowId(child.child, node.col)
    else:
        return None
    return RowRank(inner, child.col, child.order)


@matches(Project)
def rule_11_rank_pullup_project(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(11) pull % above π, re-routing the order columns below under
    fresh names (schema widening is benign, see module docstring)."""
    if not isinstance(node, Project):
        return None
    rank = node.child
    if not isinstance(rank, RowRank):
        return None
    rank_refs = [(new, old) for new, old in node.cols if old == rank.col]
    if len(rank_refs) != 1:
        return None  # rank column dropped (rule 5 first) or duplicated
    rank_new = rank_refs[0][0]
    inner_pairs = [(new, old) for new, old in node.cols if old != rank.col]
    fresh_order = []
    for b in rank.order:
        fresh = ctx.fresh_col(b)
        inner_pairs.append((fresh, b))
        fresh_order.append(fresh)
    inner = Project(rank.child, inner_pairs)
    return RowRank(inner, rank_new, tuple(fresh_order))


@matches(Join, Cross)
def rule_12_rank_pullup_join(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(12) pull % above ⋈ / × (premise: rank column not in the
    join predicate)."""
    if not isinstance(node, (Join, Cross)):
        return None
    pred_cols = node.pred.cols() if isinstance(node, Join) else frozenset()
    for side in (0, 1):
        rank = node.children[side]
        if not isinstance(rank, RowRank) or rank.col in pred_cols:
            continue
        other = node.children[1 - side]
        operands = [rank.child, other] if side == 0 else [other, rank.child]
        if isinstance(node, Join):
            inner: Operator = Join(operands[0], operands[1], node.pred)
        else:
            inner = Cross(operands[0], operands[1])
        return RowRank(inner, rank.col, rank.order)
    return None


@matches(RowRank)
def rule_13_rank_splice(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(13) splice adjacent rank criteria: an order column that is
    itself a rank is replaced by that rank's own criteria."""
    if not isinstance(node, RowRank):
        return None
    inner = node.child
    if not isinstance(inner, RowRank) or inner.col not in node.order:
        return None
    new_order: list[str] = []
    for c in node.order:
        if c == inner.col:
            new_order.extend(inner.order)
        else:
            new_order.append(c)
    return RowRank(inner, node.col, tuple(new_order))


# ---------------------------------------------------------------------------
# goal δ + join push-down and removal
# ---------------------------------------------------------------------------


@matches(Distinct)
def rule_14_distinct_redundant(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(14) ``δ(q) -> q`` when the output is deduplicated upstream anyway."""
    if isinstance(node, Distinct) and ctx.props.set_prop(node):
        return node.child
    return None


@matches(Distinct)
def rule_15_distinct_drop_const(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(15) project away constant, unneeded columns below a δ."""
    if not isinstance(node, Distinct):
        return None
    drop = ctx.props.const_cols(node) - ctx.props.icols(node)
    if not drop:
        return None
    kept = [c for c in node.child.columns if c not in drop]
    if not kept:
        return None
    return Distinct(Project.keep(node.child, kept))


@matches(Join, Cross)
def rule_16_introduce_tail_distinct(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(16) introduce ``δ(π_icols(.))`` above a join whose output is
    key-unique within the needed columns and not yet deduplicated
    upstream — this is the δ that ends up in the plan tail."""
    if not isinstance(node, (Join, Cross)):
        return None
    if ctx.props.set_prop(node):
        return None
    icols = ctx.props.icols(node)
    if not icols or not ctx.props.has_key_within(node, icols):
        return None
    ordered = [c for c in node.columns if c in icols]
    return Distinct(Project.keep(node, ordered))


def _oriented_equijoin(node: Operator) -> tuple[str, str] | None:
    """Equi-join columns oriented as (left column, right column)."""
    if not isinstance(node, Join):
        return None
    eq = node.equijoin_cols()
    if eq is None:
        return None
    a, b = eq
    if a in node.left.columns and b in node.right.columns:
        return a, b
    if b in node.left.columns and a in node.right.columns:
        return b, a
    return None


@matches(Join)
def rule_17_push_join_through_unary(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(17) push an equi-join below π / σ / @ on either input.

    The unary operator rises above the join; a projection is extended
    to pass the other operand's columns through.  Blocked when DAG
    sharing would make the inner join's schemas collide — that case is
    rule (19)'s job.
    """
    oriented = _oriented_equijoin(node)
    if oriented is None:
        return None
    a, b = oriented
    assert isinstance(node, Join)
    for side, join_col, other_col in ((0, a, b), (1, b, a)):
        unary = node.children[side]
        other = node.children[1 - side]

        if isinstance(unary, Select):
            inner_col = join_col
        elif isinstance(unary, Attach):
            if unary.col == join_col:
                continue  # join column is the attached constant itself
            inner_col = join_col
        elif isinstance(unary, Project):
            old = unary.renaming.get(join_col)
            if old is None:
                continue
            inner_col = old
        else:
            continue

        inner_input = unary.children[0]
        if set(inner_input.columns) & set(other.columns):
            continue  # sharing collision — leave for rule (19)
        if side == 0:
            pred = Comparison("=", col(inner_col), col(other_col))
            inner = Join(inner_input, other, pred)
        else:
            pred = Comparison("=", col(other_col), col(inner_col))
            inner = Join(other, inner_input, pred)

        if isinstance(unary, Select):
            return Select(inner, unary.pred)
        if isinstance(unary, Attach):
            return Attach(inner, unary.col, unary.value)
        pairs = list(unary.cols) + [(c, c) for c in other.columns]
        return Project(inner, pairs)
    return None


@matches(Join)
def rule_18_push_join_through_join(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(18) push an equi-join into one operand of a lower join/cross:
    ``(q1 ⊛ q2) ⋈a=b q3 -> q1 ⊛ (q2 ⋈a=b q3)`` when a ∈ cols(q2),
    guarded by the paper's footnote-5 size comparison so adjacent
    equi-joins cannot ping-pong forever."""
    oriented = _oriented_equijoin(node)
    if oriented is None:
        return None
    a, b = oriented
    assert isinstance(node, Join)
    for side, join_col in ((0, a), (1, b)):
        lower = node.children[side]
        other = node.children[1 - side]
        if not isinstance(lower, (Join, Cross)):
            continue
        for inner_side in (0, 1):
            receiver = lower.children[inner_side]
            bystander = lower.children[1 - inner_side]
            if join_col not in receiver.columns:
                continue
            if set(receiver.columns) & set(other.columns):
                continue
            # footnote 5: only descend when the carried operand is not
            # larger than the bystander being skipped over — breaks the
            # two-join oscillation while permitting genuine descent.
            if ctx.subplan_size(other) > ctx.subplan_size(bystander):
                continue
            pred = Comparison("=", col(a), col(b))
            if side == 0:
                inner: Operator = Join(receiver, other, pred)
            else:
                inner = Join(other, receiver, pred)
            new_children = list(lower.children)
            new_children[inner_side] = inner
            if isinstance(lower, Join):
                return Join(new_children[0], new_children[1], lower.pred)
            return Cross(new_children[0], new_children[1])
    return None


@matches(Join)
def rule_19_collapse_key_selfjoin(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(19) remove a degenerated key equi-join: both inputs are
    projection chains over the *same shared node* ``s`` and the join
    equates a key column of ``s`` with a copy of itself — every row
    joins exactly its own image, so the join is a projection of ``s``."""
    oriented = _oriented_equijoin(node)
    if oriented is None:
        return None
    a, b = oriented
    assert isinstance(node, Join)
    left_base, left_map = _strip_projections(node.left)
    right_base, right_map = _strip_projections(node.right)
    if left_base is not right_base:
        return None
    origin_a = left_map.get(a)
    origin_b = right_map.get(b)
    if origin_a is None or origin_b is None or origin_a != origin_b:
        return None
    if not ctx.props.has_singleton_key(left_base, origin_a):
        return None
    pairs = [(c, left_map[c]) for c in node.left.columns]
    pairs += [(c, right_map[c]) for c in node.right.columns]
    return Project(left_base, pairs)


@matches(Join)
def rule_20_provenance_selfjoin(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(19') provenance-based key self-join elimination — the general
    form of rule (19) needed to reach the paper's Fig. 7 shape.

    For ``J = L ⋈a=b R`` where

    * ``R`` is a projection chain over a shared node ``s``,
    * ``b`` maps to a singleton key column ``k`` of ``s``, and
    * ``a`` inside ``L`` is a verbatim copy of that same ``s.k``
      (traced through π/σ/δ/@/#/%/⋈ copy steps),

    every ``L`` row joins exactly the ``s`` row it was derived from.
    The join is removed by *resurrecting* the other ``s`` columns that
    ``R`` contributes: the projections along the trace inside ``L`` are
    (copy-on-write) extended to carry them to the top under fresh
    names, and ``J`` becomes a projection of the widened ``L``.

    Soundness of the widening through δ on the path: the added columns
    are functions of the traced key copy, which is itself part of every
    node on the path, so duplicate groups are unchanged.
    """
    oriented = _oriented_equijoin(node)
    if oriented is None:
        return None
    a, b = oriented
    assert isinstance(node, Join)
    for a_col, b_col, copy_side, key_side in (
        (a, b, node.left, node.right),
        (b, a, node.right, node.left),
    ):
        base, mapping = _strip_projections(key_side)
        origin = mapping.get(b_col)
        if origin is None:
            continue
        if not ctx.props.has_singleton_key(base, origin):
            continue
        path = _trace_copy(copy_side, a_col, base, origin)
        if path is None:
            continue
        wanted = {
            src for out, src in mapping.items() if out != b_col and src != origin
        }
        fresh_of = {src: ctx.fresh_col(src) for src in sorted(wanted)}
        copy_pairs = [(c, c) for c in copy_side.columns]
        _resurrect(path, fresh_of, ctx)
        key_pairs = []
        for out, src in mapping.items():
            if src == origin:
                key_pairs.append((out, a_col))
            else:
                key_pairs.append((out, fresh_of[src]))
        if copy_side is node.left:
            ordered = copy_pairs + key_pairs
        else:
            ordered = key_pairs + copy_pairs
        return Project(copy_side, ordered)
    return None


def _trace(
    node: Operator, column: str, stop
) -> tuple[list[tuple[Operator, int]], Operator, str] | None:
    """Trace ``column`` of ``node`` down the plan as a value-copy until
    ``stop(current, name)`` accepts.  Returns ``(path, base, base_col)``
    where ``path`` is a top-to-bottom list of ``(node, child_index)``
    pairs (excluding the base), or ``None``.

    The trace is *equality-aware*: descending through a join whose
    predicate contains the conjunct ``x = y``, a trace carrying ``x``
    may continue as ``y`` into the other operand — on every output row
    the two columns hold the same value, so ``y``'s origin is a valid
    provenance for ``x``."""
    from repro.algebra.expressions import conjuncts as _conjuncts

    seen: set[tuple[int, str]] = set()

    def dfs(current: Operator, name: str):
        if (id(current), name) in seen:
            return None
        seen.add((id(current), name))
        if stop(current, name):
            return [], current, name
        if isinstance(current, Project):
            old = current.renaming.get(name)
            if old is None:
                return None
            sub = dfs(current.child, old)
            if sub is None:
                return None
            return [(current, 0)] + sub[0], sub[1], sub[2]
        if isinstance(current, (Select, Distinct)):
            sub = dfs(current.children[0], name)
            if sub is None:
                return None
            return [(current, 0)] + sub[0], sub[1], sub[2]
        if isinstance(current, (Attach, RowId, RowRank)):
            if name == current.col:
                return None  # generated at this node, not copied
            sub = dfs(current.children[0], name)
            if sub is None:
                return None
            return [(current, 0)] + sub[0], sub[1], sub[2]
        if isinstance(current, (Join, Cross)):
            branches: list[tuple[int, str]] = []
            for index, child in enumerate(current.children):
                if name in child.columns:
                    branches.append((index, name))
            if isinstance(current, Join):
                for conjunct in _conjuncts(current.pred):
                    if not isinstance(conjunct, Comparison):
                        continue
                    eq = conjunct.is_col_eq_col()
                    if eq is None:
                        continue
                    partner = None
                    if eq[0] == name:
                        partner = eq[1]
                    elif eq[1] == name:
                        partner = eq[0]
                    if partner is None:
                        continue
                    for index, child in enumerate(current.children):
                        if partner in child.columns:
                            branches.append((index, partner))
            for index, branch_name in branches:
                sub = dfs(current.children[index], branch_name)
                if sub is not None:
                    return [(current, index)] + sub[0], sub[1], sub[2]
            return None
        return None  # reached a leaf without satisfying the stop test

    return dfs(node, column)


def _trace_copy(
    node: Operator, column: str, target: Operator, target_col: str
) -> list[tuple[Operator, int]] | None:
    """Path along which ``column`` is a value-copy of
    ``target.target_col`` (see :func:`_trace`), or ``None``."""
    hit = _trace(
        node,
        column,
        lambda current, name: current is target and name == target_col,
    )
    return None if hit is None else hit[0]


def _resurrect(
    path: list[tuple[Operator, int]], fresh_of: dict[str, str], ctx: RewriteContext
) -> None:
    """Widen the projections along the trace path *in place* so the
    ``fresh_of`` source columns of the base flow to the top under fresh
    names.  All other path operators (σ/δ/@/#/%/⋈) pass columns through
    untouched, so only projections need editing.

    In-place widening keeps DAG sharing intact (essential: cloning a
    shared ``#`` row-id node would decouple ids that must stay joined).
    It is sound for every consumer of a shared widened projection: the
    fresh names cannot collide, and duplicate elimination upstream is
    unaffected because the added columns are functions of the traced
    key copy, which every path projection outputs by construction.
    """
    if not fresh_of:
        return
    carried = {src: src for src in fresh_of}  # src -> carrying name here
    for node_on_path, _child_index in reversed(path):
        if isinstance(node_on_path, Project):
            extra = tuple(
                (fresh_of[src], carried[src]) for src in sorted(fresh_of)
            )
            node_on_path.cols = node_on_path.cols + extra
            ctx.touched.append(node_on_path)
            carried = {src: fresh_of[src] for src in fresh_of}


@matches(Join)
def rule_21_rowid_join_translation(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(19'') translate a row-id correlation predicate into the
    underlying key columns.

    A conjunct ``x = y`` whose two sides are both value-copies of the
    *same* ``#k`` row-id column correlates rows derived from the same
    ``#`` row.  Row ids are arbitrary unique surrogates for any
    candidate key ``K'`` of the ``#`` operator's input, so the conjunct
    is equivalent to the pairwise equality of ``K'`` copies — which are
    resurrected through both trace paths.  Once no consumer references
    the row-id column, rule (6) deletes the ``#`` operator, as in the
    paper's Fig. 6(e).

    This is what grounds for-loop iteration identity in ``pre`` values
    and turns Q2 into the paper's flat self-join chain.
    """
    if not isinstance(node, Join):
        return None
    conjunct_list = list(conjuncts(node.pred))
    for i, conjunct in enumerate(conjunct_list):
        if not isinstance(conjunct, Comparison):
            continue
        eq = conjunct.is_col_eq_col()
        if eq is None:
            continue
        x, y = eq
        if x in node.left.columns and y in node.right.columns:
            pass
        elif y in node.left.columns and x in node.right.columns:
            x, y = y, x
        else:
            continue

        def stop(current: Operator, name: str) -> bool:
            return isinstance(current, RowId) and name == current.col

        hit_x = _trace(node.left, x, stop)
        if hit_x is None:
            continue
        hit_y = _trace(node.right, y, stop)
        if hit_y is None or hit_y[1] is not hit_x[1]:
            continue
        rowid = hit_x[1]
        assert isinstance(rowid, RowId)
        alt_key = _pick_alternative_key(rowid.child, ctx)
        if alt_key is None:
            continue
        fresh_x = {c: ctx.fresh_col(c) for c in alt_key}
        fresh_y = {c: ctx.fresh_col(c) for c in alt_key}
        _resurrect(hit_x[0], fresh_x, ctx)
        _resurrect(hit_y[0], fresh_y, ctx)
        new_conjuncts = [c for j, c in enumerate(conjunct_list) if j != i]
        new_conjuncts += [
            Comparison("=", col(fresh_x[c]), col(fresh_y[c])) for c in alt_key
        ]
        if not new_conjuncts:
            return Cross(node.left, node.right)
        from repro.algebra.expressions import conjoin

        return Join(node.left, node.right, conjoin(new_conjuncts))
    return None


def _pick_alternative_key(
    child: Operator, ctx: RewriteContext
) -> tuple[str, ...] | None:
    """A candidate key of the ``#`` input to translate row ids into.

    Prefers keys free of rank-generated columns (ranks inside the join
    graph would block single-block SQL generation), then smaller keys.
    An empty key (at most one row) translates to no conjunct at all.
    """
    rank_cols = {
        n.col for n in all_nodes(child) if isinstance(n, (RowRank, RowId))
    }
    # the sorted column tuple breaks penalty ties: frozenset iteration
    # order depends on PYTHONHASHSEED, the isolated plan must not
    best = min(
        (
            (bool(key & rank_cols), len(key), tuple(sorted(key)))
            for key in ctx.props.keys(child)
        ),
        default=None,
    )
    if best is None or best[0]:
        return None
    return best[2]


@matches(Join)
def rule_3b_drop_const_conjuncts(node: Operator, ctx: RewriteContext) -> Operator | None:
    """(3') drop join conjuncts ``a = b`` that hold trivially because
    both columns carry the same constant; a join whose predicate
    becomes empty degenerates to a Cartesian product (cf. rule (3))."""
    if not isinstance(node, Join):
        return None
    const = ctx.props.const(node)
    kept: list = []
    dropped = False
    for conjunct in conjuncts(node.pred):
        if isinstance(conjunct, Comparison):
            eq = conjunct.is_col_eq_col()
            if (
                eq is not None
                and eq[0] in const
                and eq[1] in const
                and const[eq[0]] == const[eq[1]]
                and const[eq[0]] is not None
            ):
                dropped = True
                continue
        kept.append(conjunct)
    if not dropped:
        return None
    if not kept:
        return Cross(node.left, node.right)
    from repro.algebra.expressions import conjoin

    return Join(node.left, node.right, conjoin(kept))


def _strip_projections(node: Operator) -> tuple[Operator, dict[str, str]]:
    """Descend through a chain of projections, composing the renaming.
    Returns (base node, mapping from chain output column -> base column).
    """
    mapping = {c: c for c in node.columns}
    current = node
    while isinstance(current, Project):
        renaming = current.renaming
        mapping = {
            out: renaming[via]
            for out, via in mapping.items()
            if via in renaming
        }
        current = current.child
    return current, mapping
