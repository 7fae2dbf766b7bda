"""Plan property inference (paper Tables 2–5).

Four properties drive the join graph isolation rewrites:

``icols``
    Columns strictly required by an operator's *upstream* plan
    (top-down; union over all consumers of a shared node).  Seeded at
    the plan root with ``{pos, item}`` — the columns needed to
    serialize the result.  Enables projection push-down.
``const``
    Columns known to carry one constant value in every row
    (bottom-up; seeded at literal tables and ``Attach``).
``key``
    Candidate keys (sets of columns) of each operator's output
    (bottom-up; equi-join and rank inference follow the functional
    dependency arguments of the paper / [23, §5.2.1]).
``set``
    True when the operator's output rows will undergo duplicate
    elimination upstream on *every* consumer path, so that producing
    fewer duplicates early is unobservable (top-down; a simpler,
    modular form of Starburst's "Distinct Pushdown").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.algebra.dagutils import all_nodes, parents_map
from repro.algebra.expressions import Value
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

Keys = frozenset[frozenset[str]]
Parents = dict[Operator, list[Operator]]


@dataclass
class PlanProperties:
    """Inferred properties for every node of one plan DAG.

    Keyed by the node *object*: the maps outlive single rewrite steps,
    and an ``id()`` key of a dropped operator could be reused by a
    fresh one.  Each property is a per-node transfer function of its
    neighbours' values (``const``/``key`` and the schema they read: of
    the children; ``icols``/``set``: of *all* current parents), and
    :meth:`repair` is the one driver that evaluates them — over the
    whole plan for :func:`infer_properties`, over the dirty cone of a
    rewritten node for the isolation engine.
    """

    _icols: dict[Operator, frozenset[str]] = field(default_factory=dict)
    _const: dict[Operator, dict[str, Value]] = field(default_factory=dict)
    _keys: dict[Operator, Keys] = field(default_factory=dict)
    _set: dict[Operator, bool] = field(default_factory=dict)
    #: schema of each node as the inference last saw it — what ``key``
    #: reads of a child and what masks the ``icols`` of the node itself
    _cols: dict[Operator, frozenset[str]] = field(default_factory=dict)

    def columns(self, node: Operator) -> frozenset[str]:
        """The schema of ``node`` as a set — without the recursive
        walk ``node.columns`` takes."""
        return self._cols[node]

    def icols(self, node: Operator) -> frozenset[str]:
        return self._icols[node]

    def const(self, node: Operator) -> dict[str, Value]:
        return self._const[node]

    def const_cols(self, node: Operator) -> frozenset[str]:
        return frozenset(self._const[node])

    def keys(self, node: Operator) -> Keys:
        return self._keys[node]

    def set_prop(self, node: Operator) -> bool:
        return self._set[node]

    def has_key_within(self, node: Operator, cols: frozenset[str]) -> bool:
        """True if some candidate key of ``node`` is contained in ``cols``."""
        return any(k <= cols for k in self._keys[node])

    def has_singleton_key(self, node: Operator, column: str) -> bool:
        """True if ``{column}`` (or the empty key: at most one row) is a
        candidate key of ``node``."""
        return any(k <= frozenset((column,)) for k in self._keys[node])

    def forget(self, node: Operator) -> None:
        """Drop a node that left the plan."""
        for table in (self._icols, self._const, self._keys, self._set, self._cols):
            table.pop(node, None)

    def repair(
        self,
        root: Operator,
        parents: Parents,
        up: Iterable[Operator],
        down: Iterable[Operator],
    ) -> None:
        """Re-establish all four properties after a change to the plan.

        ``up`` lists the nodes whose bottom-up inputs changed (new
        nodes children first, nodes edited in place, nodes that got a
        new child), ``down`` those whose top-down inputs changed (new
        nodes parents first, nodes whose set of parents or a parent's
        arguments changed).  Each pass re-evaluates a node and moves on
        to its parents (children) only while the value changes; the
        plan is acyclic, so the fixpoint reached is the one a
        derivation from scratch computes.
        """
        below = dict.fromkeys(down)  # an ordered set
        queue = deque(dict.fromkeys(up))
        pending = set(queue)
        while queue:
            node = queue.popleft()
            pending.discard(node)
            schema = self._cols.get(node)
            if self._bottom_up(node):
                for parent in parents[node]:
                    if parent not in pending:
                        pending.add(parent)
                        queue.append(parent)
                if self._cols[node] != schema:
                    below.setdefault(node)  # the mask of its own icols moved

        queue = deque(below)
        pending = set(queue)
        while queue:
            node = queue.popleft()
            pending.discard(node)
            if self._top_down(node, root, parents):
                for child in node.children:
                    if child not in pending:
                        pending.add(child)
                        queue.append(child)

    def _bottom_up(self, node: Operator) -> bool:
        """Schema, ``const`` and ``key`` of ``node`` from its children;
        True if any of them changed."""
        cols = frozenset(node.columns)
        const = _infer_const(node, self)
        keys = _infer_keys(node, self)
        # constant columns add no discrimination: reduce keys by them.
        # (The empty key means the table holds at most one row.)
        if const:
            const_cols = frozenset(const)
            keys = frozenset(k - const_cols for k in keys)
        changed = (
            self._cols.get(node) != cols
            or self._keys.get(node) != keys
            or self._const.get(node) != const
        )
        self._cols[node] = cols
        self._const[node] = const
        self._keys[node] = keys
        return changed

    def _top_down(self, node: Operator, root: Operator, parents: Parents) -> bool:
        """``icols`` and ``set`` of ``node`` folded over the
        contributions of all its parents; True if either changed."""
        if node is root:
            if isinstance(root, Serialize):
                icols = frozenset(("pos", "item"))
            else:
                # analysing a bare subplan: assume everything is needed
                # and nothing is deduplicated upstream.
                icols = self._cols[root]
            set_here = False
        else:
            above = parents[node]
            icols = self._cols[node].intersection(
                frozenset().union(
                    *(_demand(parent, self._icols[parent]) for parent in above)
                )
            )
            set_here = all(_dedup(parent, self._set[parent]) for parent in above)
        changed = self._icols.get(node) != icols or self._set.get(node) != set_here
        self._icols[node] = icols
        self._set[node] = set_here
        return changed


def infer_properties(root: Operator, parents: Parents | None = None) -> PlanProperties:
    """Run all four inferences over the DAG rooted at ``root``
    (``parents``: its :func:`parents_map`, when the caller has one)."""
    props = PlanProperties()
    order = all_nodes(root)  # post-order: children before parents
    if parents is None:
        parents = parents_map(root)
    props.repair(root, parents, order, reversed(order))
    return props


# -- const (Table 3) ---------------------------------------------------------


def _infer_const(node: Operator, props: PlanProperties) -> dict[str, Value]:
    if isinstance(node, LitTable):
        if not node.rows:
            return {}
        out: dict[str, Value] = {}
        for i, name in enumerate(node.names):
            values = {row[i] for row in node.rows}
            if len(values) == 1:
                out[name] = next(iter(values))
        return out
    if isinstance(node, DocScan):
        return {}
    if isinstance(node, Project):
        child_const = props._const[node.child]
        return {new: child_const[old] for new, old in node.cols if old in child_const}
    if isinstance(node, Attach):
        out = dict(props._const[node.child])
        out[node.col] = node.value
        return out
    if isinstance(node, (Join, Cross)):
        out = dict(props._const[node.children[0]])
        out.update(props._const[node.children[1]])
        return out
    if isinstance(node, Serialize):
        # Serialize narrows the schema to (pos, item): constants on the
        # dropped iter column must not leak past it.
        schema = frozenset(node.columns)
        return {
            name: value
            for name, value in props._const[node.child].items()
            if name in schema
        }
    # Select, Distinct, RowId, RowRank: pass through
    return dict(props._const[node.children[0]])


# -- key (Table 4) -----------------------------------------------------------


def _infer_keys(node: Operator, props: PlanProperties) -> Keys:
    if isinstance(node, DocScan):
        return frozenset((frozenset(("pre",)),))
    if isinstance(node, LitTable):
        out: set[frozenset[str]] = set()
        for i, name in enumerate(node.names):
            values = [row[i] for row in node.rows]
            if len(set(values)) == len(values):
                out.add(frozenset((name,)))
        if len(node.rows) <= 1:
            out.update(frozenset((n,)) for n in node.names)
        return frozenset(out)
    if isinstance(node, Project):
        child_keys = props._keys[node.child]
        olds = {old for _, old in node.cols}
        out = set()
        for k in child_keys:
            if not k <= olds:
                continue
            # a source column may be duplicated under several new names;
            # each choice of one new name per source column is a key.
            choices = [
                [new for new, old in node.cols if old == src]
                for src in sorted(k)
            ]
            out.update(_products(choices))
        return frozenset(out)
    if isinstance(node, Select):
        return props._keys[node.child]
    if isinstance(node, Serialize):
        # Serialize narrows the schema to (pos, item): only keys fully
        # contained in it survive.
        schema = frozenset(node.columns)
        return frozenset(
            k for k in props._keys[node.child] if k <= schema
        )
    if isinstance(node, Distinct):
        child = node.child
        return props._keys[child] | {props._cols[child]}
    if isinstance(node, Attach):
        return props._keys[node.child]
    if isinstance(node, RowId):
        return props._keys[node.child] | {frozenset((node.col,))}
    if isinstance(node, RowRank):
        child_keys = props._keys[node.child]
        order = frozenset(node.order)
        extra = {
            frozenset((node.col,)) | (k - order)
            for k in child_keys
            if k & order
        }
        return child_keys | extra
    if isinstance(node, Join):
        return _join_keys(node, props)
    if isinstance(node, Cross):
        k1 = props._keys[node.left]
        k2 = props._keys[node.right]
        return frozenset(a | b for a in k1 for b in k2)
    raise TypeError(f"key inference: unknown operator {type(node).__name__}")


def _join_keys(node: Join, props: PlanProperties) -> Keys:
    left, right = node.left, node.right
    k1s = props._keys[left]
    k2s = props._keys[right]
    out: set[frozenset[str]] = set(a | b for a in k1s for b in k2s)

    eq = node.equijoin_cols()
    if eq is not None:
        a, b = eq
        # orient: a on the left input, b on the right input
        left_cols, right_cols = props._cols[left], props._cols[right]
        if a in right_cols and b in left_cols:
            a, b = b, a
        if a in left_cols and b in right_cols:
            # {b} (or the empty key: at most one row) being a key means
            # each left row finds at most one partner, and vice versa.
            right_b_key = any(k <= frozenset((b,)) for k in k2s)
            left_a_key = any(k <= frozenset((a,)) for k in k1s)
            if right_b_key:
                out.update(k1s)  # each left row matches at most one right row
                out.update((k1 - {a}) | k2 for k1 in k1s for k2 in k2s)
            if left_a_key:
                out.update(k2s)
                out.update(k1 | (k2 - {b}) for k1 in k1s for k2 in k2s)
    return frozenset(out)


def _products(choices: list[list[str]], limit: int = 16) -> set[frozenset[str]]:
    """All ways of picking one element per choice list, as frozensets,
    capped to keep key sets small."""
    out: set[frozenset[str]] = {frozenset()}
    for options in choices:
        out = {k | {o} for k in out for o in options}
        if len(out) > limit:
            # which keys survive must not depend on PYTHONHASHSEED
            out = set(sorted(out, key=sorted)[:limit])
    return out


# -- icols (Table 2) and set (Table 5): what a parent asks of its inputs ------


def _demand(parent: Operator, icols: frozenset[str]) -> frozenset[str]:
    """Table 2: the columns ``parent`` needs from each of its inputs,
    given that ``icols`` are needed of ``parent`` itself (the input
    masks this by its own schema)."""
    if isinstance(parent, Project):
        return frozenset(old for new, old in parent.cols if new in icols)
    if isinstance(parent, (Select, Join)):
        return icols | parent.pred.cols()
    if isinstance(parent, (Cross, Distinct)):
        return icols
    if isinstance(parent, (Attach, RowId)):
        return icols - {parent.col}
    if isinstance(parent, RowRank):
        return (icols - {parent.col}) | frozenset(parent.order)
    if isinstance(parent, Serialize):
        return frozenset((parent.item, parent.pos))
    raise TypeError(f"icols inference: unknown operator {type(parent).__name__}")


def _dedup(parent: Operator, set_here: bool) -> bool:
    """Table 5: whether the rows ``parent`` reads from its inputs
    undergo duplicate elimination on this consumer path."""
    if isinstance(parent, Distinct):
        return True
    if isinstance(parent, (Serialize, RowId)):
        return False
    return set_here
