"""Isolated plan → single SELECT-DISTINCT-FROM-WHERE-ORDER BY block.

The join graph region flattens into ``FROM doc AS d1, doc AS d2, …``
plus a conjunctive ``WHERE``; the plan tail contributes the
``SELECT [DISTINCT]`` list and the ``ORDER BY`` clause (paper Figs. 8
and 9).  Aliases bound to a document node (``kind = 0``) close the
``FROM`` list as ``CROSS JOIN doc AS dN``, which keeps SQLite from
driving the join with them.  Two points deserve emphasis:

* When a tail δ is present, the *entire* column set it deduplicates
  over appears in the DISTINCT list — this is how the XQuery duplicate
  semantics (duplicates removed per location step, retained across
  for-loop iterations) survives the translation: loop key columns such
  as ``d2.pre, d4.pre, d5.pre`` stay in the clause even though only
  the result column is serialized (Fig. 9).
* **Alias unification**: a DAG-shared subplan expands once per
  reference, so a plan's flat form can reference far more ``doc``
  instances than its DAG has leaves.  Two aliases of the same table
  that the WHERE clause equates on the key column ``pre`` provably
  denote the same row; merging them (union-find, then conjunct
  rewriting and deduplication) recovers the paper's compact self-join
  chains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.algebra.expressions import (
    ColRef,
    Comparison,
    Const,
    Expr,
    Value,
    col,
    conjuncts,
)
from repro.algebra.ops import (
    Attach,
    Cross,
    Distinct,
    DocScan,
    Join,
    LitTable,
    Operator,
    Project,
    RowRank,
    Select,
    Serialize,
)
from repro.errors import CodegenError
from repro.rewrite.joingraph import extract_join_graph

_QUALIFIED = re.compile(r"^(d\d+)\.(\w+)$")

_DOC_COLS = ("pre", "size", "level", "kind", "name", "value", "data")


def _conjunct_aliases(conjunct: "Expr") -> set[str]:
    out = set()
    for name in conjunct.cols():
        m = _QUALIFIED.match(name)
        if m:
            out.add(m.group(1))
    return out


def _mapping_to_rename(mapping: dict[str, str]) -> dict[str, str]:
    rename: dict[str, str] = {}
    for source, target in mapping.items():
        for column in _DOC_COLS:
            rename[f"{source}.{column}"] = f"{target}.{column}"
    return rename


Tagged = tuple[Expr, frozenset[str]]


class _Witnesses:
    """The witness search of :meth:`_Flattener.drop_redundant_witnesses`
    and its bookkeeping: every conjunct tagged with the aliases it
    mentions (computed once, not per probe), the per-alias index over
    them, and the local signatures — which survive a drop, since the
    conjuncts that mention only a surviving alias are never removed."""

    def __init__(self, conjuncts: list[Expr]):
        self.signatures: dict[str, frozenset[Expr]] = {}
        self._index([(c, frozenset(_conjunct_aliases(c))) for c in conjuncts])

    def _index(self, tagged: list[Tagged]) -> None:
        self.tagged = tagged
        self.by_alias: dict[str, list[Tagged]] = {}
        for pair in tagged:
            for alias in pair[1]:
                self.by_alias.setdefault(alias, []).append(pair)

    def drop(self, sources: set[str]) -> None:
        """Remove every conjunct that mentions one of ``sources``."""
        self._index([pair for pair in self.tagged if not (pair[1] & sources)])

    def local_signature(self, alias: str) -> frozenset[Expr]:
        """The conjuncts over ``alias`` alone, with the alias masked."""
        signature = self.signatures.get(alias)
        if signature is None:
            hole = _mapping_to_rename({alias: "d0"})
            own = frozenset((alias,))
            signature = self.signatures[alias] = frozenset(
                conjunct.rename(hole)
                for conjunct, mentioned in self.by_alias.get(alias, ())
                if mentioned == own
            )
        return signature

    def match(
        self, seed: str, aliases: list[str], protected: set[str]
    ) -> dict[str, str] | None:
        """Try to build a substitution ``M`` (source alias -> kept
        alias) starting from ``seed`` such that every conjunct touching
        a source, renamed per ``M``, already exists among the conjuncts
        touching no source.  Returns ``M`` or ``None``."""
        seed_signature = self.local_signature(seed)
        for target in aliases:
            if target == seed or self.local_signature(target) != seed_signature:
                continue
            mapping = self._grow_mapping({seed: target}, protected)
            if mapping is not None:
                return mapping
        return None

    def _grow_mapping(
        self, mapping: dict[str, str], protected: set[str]
    ) -> dict[str, str] | None:
        """Extend a candidate substitution until it closes, pulling in
        further aliases when a conjunct references one; bounded search
        that gives up on ambiguity beyond the first consistent image."""
        pending = list(mapping)
        seen_conjuncts: set[int] = set()
        budget = 64
        while pending:
            budget -= 1
            if budget < 0:
                return None
            source = pending.pop()
            for conjunct, involved in self.by_alias.get(source, ()):
                if id(conjunct) in seen_conjuncts:
                    continue
                seen_conjuncts.add(id(conjunct))
                # protected aliases stay fixed (identity)
                unresolved = [
                    a for a in involved if a not in mapping and a not in protected
                ]
                if not unresolved:
                    if not self._image_exists(conjunct, mapping):
                        return None
                    continue
                if len(unresolved) > 1:
                    return None  # too entangled; give up
                hole = unresolved[0]
                image = self._find_hole_image(conjunct, mapping, hole)
                if image is None:
                    return None
                if image in mapping or image == hole:
                    return None
                mapping[hole] = image
                pending.append(hole)
        # sources may not be images of other sources and must be gone
        sources = set(mapping)
        if sources & set(mapping.values()):
            return None
        # final verification: every conjunct touching a source maps to
        # an existing conjunct among the untouched ones
        rename = _mapping_to_rename(mapping)
        untouched = {
            c for c, mentioned in self.tagged if not (mentioned & sources)
        }
        for conjunct, mentioned in self.tagged:
            if mentioned & sources and conjunct.rename(rename) not in untouched:
                return None
        return mapping

    def _image_exists(self, conjunct: Expr, mapping: dict[str, str]) -> bool:
        renamed = conjunct.rename(_mapping_to_rename(mapping))
        sources = set(mapping)
        return any(
            other == renamed
            for other, mentioned in self.tagged
            if not (mentioned & sources)
        )

    def _find_hole_image(
        self, conjunct: Expr, mapping: dict[str, str], hole: str
    ) -> str | None:
        """The alias ``v`` such that renaming ``hole -> v`` (on top of
        the current mapping) turns ``conjunct`` into an existing
        conjunct; None when no (unambiguous) image exists."""
        partial = conjunct.rename(_mapping_to_rename(mapping))
        sources = set(mapping)
        for other, other_aliases in self.tagged:
            if other_aliases & sources:
                continue
            for candidate in other_aliases:
                trial = partial.rename(_mapping_to_rename({hole: candidate}))
                if trial == other:
                    return candidate
        return None


def _render_value(value: Value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@dataclass
class SQLQuery:
    """A generated SQL query plus the metadata needed to interpret its
    result set."""

    text: str
    #: output column aliases in SELECT order
    select_aliases: list[str]
    #: alias of the column carrying the result items (pre ranks)
    item_alias: str
    #: number of ``doc`` instances in the FROM clause (0 for stacked SQL)
    doc_instances: int
    distinct: bool
    order_by: list[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


class _Flattener:
    """Flattens the join-graph region into aliases + symbolic conjuncts.

    Column maps bind plan columns to expressions over *qualified*
    pseudo-columns (``d3.pre``) and constants.
    """

    def __init__(self) -> None:
        self.alias_count = 0
        self.conjuncts: list[Expr] = []
        self.impossible = False

    def new_alias(self) -> str:
        self.alias_count += 1
        return f"d{self.alias_count}"

    def flatten(self, node: Operator) -> dict[str, Expr]:
        if isinstance(node, DocScan):
            alias = self.new_alias()
            return {c: col(f"{alias}.{c}") for c in node.columns}
        if isinstance(node, Select):
            colmap = self.flatten(node.child)
            self.conjuncts.extend(conjuncts(node.pred.substitute(colmap)))
            return colmap
        if isinstance(node, Project):
            colmap = self.flatten(node.child)
            return {new: colmap[old] for new, old in node.cols}
        if isinstance(node, Attach):
            colmap = self.flatten(node.child)
            out = dict(colmap)
            out[node.col] = Const(node.value)
            return out
        if isinstance(node, Join):
            left = self.flatten(node.left)
            right = self.flatten(node.right)
            colmap = {**left, **right}
            self.conjuncts.extend(conjuncts(node.pred.substitute(colmap)))
            return colmap
        if isinstance(node, Cross):
            left = self.flatten(node.left)
            right = self.flatten(node.right)
            return {**left, **right}
        if isinstance(node, LitTable):
            if len(node.rows) == 1:
                return {
                    c: Const(v) for c, v in zip(node.names, node.rows[0])
                }
            if not node.rows:
                self.impossible = True
                return {c: Const(None) for c in node.names}
            raise CodegenError(
                "multi-row literal tables cannot appear in a join graph"
            )
        raise CodegenError(
            f"operator {node.label()} is not join-graph material — "
            "was the plan isolated?"
        )

    # -- alias unification ---------------------------------------------

    def unify_aliases(self, colmaps: list[dict[str, Expr]]) -> list[str]:
        """Merge aliases provably equal via key equality on ``pre``.

        Returns the surviving alias list (renumbered d1..dk) and
        rewrites conjuncts and the given column maps in place.
        """
        parent: dict[str, str] = {}

        def find(a: str) -> str:
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        changed = True
        while changed:
            changed = False
            for conjunct in self.conjuncts:
                if not isinstance(conjunct, Comparison):
                    continue
                eq = conjunct.is_col_eq_col()
                if eq is None:
                    continue
                ma, mb = _QUALIFIED.match(eq[0]), _QUALIFIED.match(eq[1])
                if not ma or not mb:
                    continue
                if ma.group(2) == "pre" and mb.group(2) == "pre":
                    if find(ma.group(1)) != find(mb.group(1)):
                        union(ma.group(1), mb.group(1))
                        changed = True

        all_aliases = [f"d{i + 1}" for i in range(self.alias_count)]
        survivors = sorted(
            {find(a) for a in all_aliases}, key=lambda a: int(a[1:])
        )
        renumber = {old: f"d{i + 1}" for i, old in enumerate(survivors)}

        def remap(name: str) -> str:
            m = _QUALIFIED.match(name)
            if not m:
                return name
            return f"{renumber[find(m.group(1))]}.{m.group(2)}"

        rename_map: dict[str, str] = {}
        for conjunct in self.conjuncts:
            for name in conjunct.cols():
                rename_map.setdefault(name, remap(name))
        rewritten: list[Expr] = []
        seen: set[Expr] = set()
        for conjunct in self.conjuncts:
            new = conjunct.rename(rename_map)
            if isinstance(new, Comparison):
                eq = new.is_col_eq_col()
                if eq is not None and eq[0] == eq[1]:
                    continue  # tautological after merging
            if new in seen:
                continue
            seen.add(new)
            rewritten.append(new)
        self.conjuncts = rewritten

        for colmap in colmaps:
            for key_name in list(colmap):
                expr = colmap[key_name]
                mapping = {n: remap(n) for n in expr.cols()}
                colmap[key_name] = expr.rename(mapping)
        return [renumber[s] for s in survivors]

    def drop_redundant_witnesses(
        self, aliases: list[str], protected: set[str], colmaps: list[dict[str, Expr]]
    ) -> list[str]:
        """Remove duplicated existential witnesses (DISTINCT present).

        A set of aliases ``S`` is redundant when an alias substitution
        ``M: S -> kept aliases`` turns every conjunct mentioning ``S``
        into a conjunct already present among the others: any
        satisfying assignment then keeps witnesses for ``S`` (namely
        the images' rows), and since a tail DISTINCT erases
        multiplicities, dropping ``S`` and its conjuncts preserves the
        result set.  The matcher grows ``M`` recursively, so whole
        duplicated condition *chains* (e.g. Q2's four copies of the
        ``price > 500`` subplan, or X9's repeated people/person paths)
        collapse to one copy, not just isolated aliases.
        """
        witnesses = _Witnesses(self.conjuncts)
        changed = True
        while changed:
            changed = False
            for seed in list(aliases):
                if seed in protected:
                    continue
                mapping = witnesses.match(seed, aliases, protected)
                if mapping is None:
                    continue
                sources = set(mapping)
                witnesses.drop(sources)
                for source in sources:
                    aliases.remove(source)
                changed = True
                break
        self.conjuncts = [conjunct for conjunct, _ in witnesses.tagged]

        doc_cols = ("pre", "size", "level", "kind", "name", "value", "data")
        renumber = {old: f"d{i + 1}" for i, old in enumerate(aliases)}
        rename_map: dict[str, str] = {}
        for old, new in renumber.items():
            for c in doc_cols:
                rename_map[f"{old}.{c}"] = f"{new}.{c}"
        self.conjuncts = [c.rename(rename_map) for c in self.conjuncts]
        for colmap in colmaps:
            for key_name in list(colmap):
                expr = colmap[key_name]
                colmap[key_name] = expr.rename(rename_map)
        return [renumber[a] for a in aliases]


@dataclass
class FlatQuery:
    """The declarative content of an isolated plan: the structured form
    behind the single SQL block, also consumed directly by the
    relational optimizer in :mod:`repro.planner`.

    All expressions reference *qualified* pseudo-columns ``dN.col``
    over the ``doc`` aliases, or constants.
    """

    aliases: list[str]
    conjuncts: list[Expr]
    item: Expr
    order: list[Expr]
    distinct: list[Expr] | None  # full δ column basis, or None
    impossible: bool = False


def flatten_query(root: Serialize) -> FlatQuery:
    """Flatten an isolated plan to its declarative :class:`FlatQuery`.

    Raises
    ------
    CodegenError
        If the plan still contains blocking operators below the tail
        (i.e. isolation did not reach join-graph shape).
    """
    split = extract_join_graph(root)
    flattener = _Flattener()
    colmap = flattener.flatten(split.graph_root)

    distinct_cols: list[str] | None = None
    rank_orders: dict[str, list[Expr]] = {}
    snapshots: list[dict[str, Expr]] = [colmap]

    # walk the tail bottom-up (graph side first)
    for op in reversed(split.tail):
        if isinstance(op, Serialize):
            continue
        if isinstance(op, Distinct):
            if distinct_cols is not None:
                raise CodegenError("more than one δ in the plan tail")
            distinct_cols = list(op.columns)
            distinct_map = dict(colmap)
            snapshots.append(distinct_map)
        elif isinstance(op, Project):
            colmap = {new: colmap[old] for new, old in op.cols}
            snapshots.append(colmap)
        elif isinstance(op, Attach):
            colmap = dict(colmap)
            colmap[op.col] = Const(op.value)
            snapshots.append(colmap)
        elif isinstance(op, RowRank):
            marker = f"<rank:{id(op)}>"
            rank_orders[marker] = [colmap[b] for b in op.order]
            colmap = dict(colmap)
            colmap[op.col] = col(marker)
            snapshots.append(colmap)
        else:
            raise CodegenError(f"unexpected tail operator {op.label()}")

    # rank order expressions were lifted out of the column maps; hand
    # them to the unifier as pseudo-maps so they get rewritten too.
    rank_maps = [
        {str(i): e for i, e in enumerate(orders)}
        for orders in rank_orders.values()
    ]
    aliases = flattener.unify_aliases(snapshots + rank_maps)
    for rank_map, key in zip(rank_maps, list(rank_orders)):
        rank_orders[key] = [rank_map[str(i)] for i in range(len(rank_map))]

    if distinct_cols is not None:
        # aliases surfacing in the SELECT / ORDER BY must survive
        protected: set[str] = set()
        surface_exprs = [colmap[root.item], colmap[root.pos]]
        surface_exprs += [distinct_map[c] for c in distinct_cols]
        for orders in rank_orders.values():
            surface_exprs += orders
        for expr in surface_exprs:
            for name in expr.cols():
                m = _QUALIFIED.match(name)
                if m:
                    protected.add(m.group(1))
        aliases = flattener.drop_redundant_witnesses(
            aliases, protected, snapshots + rank_maps
        )
        for rank_map, key in zip(rank_maps, list(rank_orders)):
            rank_orders[key] = [rank_map[str(i)] for i in range(len(rank_map))]

    def is_rank(expr: Expr) -> bool:
        return isinstance(expr, ColRef) and expr.name.startswith("<rank:")

    item_expr = colmap[root.item]
    pos_expr = colmap[root.pos]
    if isinstance(pos_expr, ColRef) and pos_expr.name in rank_orders:
        order_exprs = rank_orders[pos_expr.name]
    elif is_rank(pos_expr):
        raise CodegenError("unresolved rank column in serialize position")
    else:
        order_exprs = [pos_expr]
    if is_rank(item_expr) or any(is_rank(e) for e in order_exprs):
        raise CodegenError("rank column used outside the serialize order")

    distinct_exprs: list[Expr] | None = None
    if distinct_cols is not None:
        distinct_exprs = [
            distinct_map[c]
            for c in distinct_cols
            if not is_rank(distinct_map[c])
        ]
    return FlatQuery(
        aliases=aliases,
        conjuncts=flattener.conjuncts,
        item=item_expr,
        order=list(order_exprs),
        distinct=distinct_exprs,
        impossible=flattener.impossible,
    )


def _document_aliases(flat: FlatQuery) -> set[str]:
    """The aliases a ``dN.kind = 0`` conjunct binds to document nodes."""
    out: set[str] = set()
    for conjunct in flat.conjuncts:
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColRef)
            and isinstance(conjunct.right, Const)
            and conjunct.right.value == 0
        ):
            m = _QUALIFIED.match(conjunct.left.name)
            if m and m.group(2) == "kind":
                out.add(m.group(1))
    return out


def _from_clause(flat: FlatQuery) -> str:
    """``doc AS d1, …`` with every document-node alias moved to the end
    as ``CROSS JOIN doc AS dN``.

    After ``ANALYZE`` SQLite estimates hundreds of rows for the
    ``(name, kind)`` lookup of a document root, so left free it drives
    the join and scans the root's whole pre range once per outer row.
    SQLite never moves the right operand of a ``CROSS JOIN`` ahead of
    the tables on its left, so the root becomes a one-row probe at the
    end; a ``CROSS JOIN`` is an inner join, so answers are unchanged."""
    roots = _document_aliases(flat)
    inner = [a for a in flat.aliases if a not in roots]
    trailing = [a for a in flat.aliases if a in roots]
    if not inner:
        inner, trailing = trailing[:1], trailing[1:]
    return ", ".join(f"doc AS {a}" for a in inner) + "".join(
        f" CROSS JOIN doc AS {a}" for a in trailing
    )


def generate_join_graph_sql(root: Serialize) -> SQLQuery:
    """Render an isolated plan as a single
    SELECT-DISTINCT-FROM-WHERE-ORDER BY block (Figs. 8 and 9)."""
    flat = flatten_query(root)

    def render(expr: Expr) -> str:
        return expr.to_sql(lambda c: c)

    item_rendered = render(flat.item)
    order_exprs = [render(e) for e in flat.order]

    # assemble the SELECT list
    select_items: list[tuple[str, str]] = []  # (alias, expr)

    def add(expr: str, base: str) -> str:
        for alias, existing in select_items:
            if existing == expr:
                return alias
        taken = {a for a, _ in select_items}
        alias = base if base not in taken else f"{base}{len(select_items)}"
        select_items.append((alias, expr))
        return alias

    item_alias = add(item_rendered, "item")
    if flat.distinct is not None:
        for i, expr in enumerate(flat.distinct):
            add(render(expr), f"k{i + 1}")
    for i, expr in enumerate(order_exprs):
        add(expr, f"o{i + 1}")

    select_clause = ", ".join(f"{expr} AS {alias}" for alias, expr in select_items)
    distinct_kw = "DISTINCT " if flat.distinct is not None else ""
    lines = [f"SELECT {distinct_kw}{select_clause}"]
    if flat.aliases:
        lines.append("FROM " + _from_clause(flat))
    from repro.algebra.expressions import Or

    conjunct_sql = [
        f"({render(c)})" if isinstance(c, Or) else render(c)
        for c in flat.conjuncts
    ]
    if flat.impossible:
        conjunct_sql.append("1 = 0")
    if conjunct_sql:
        lines.append("WHERE " + "\n  AND ".join(conjunct_sql))
    order_by = list(order_exprs)
    if item_rendered not in order_by:
        order_by.append(item_rendered)  # deterministic tie-break
    # the unary + prevents the back-end from satisfying ORDER BY via an
    # index-ordered outer scan — ordering is the plan *tail*, not a
    # join-order constraint (cf. the paper's tail/graph separation)
    lines.append("ORDER BY " + ", ".join(f"+{term}" for term in order_by))
    return SQLQuery(
        text="\n".join(lines),
        select_aliases=[a for a, _ in select_items],
        item_alias=item_alias,
        doc_instances=len(flat.aliases),
        distinct=flat.distinct is not None,
        order_by=order_by,
    )
