"""DAG utilities: traversal, parent maps, node replacement, printing,
and the structural plan validator shared with :mod:`repro.analysis`."""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

from repro.algebra.ops import Operator


def all_nodes(root: Operator) -> list[Operator]:
    """Every node reachable from ``root``, each exactly once,
    in a post-order (children before parents)."""
    seen: set[Operator] = {root}
    out: list[Operator] = []

    def visit(node: Operator) -> None:
        for child in node.children:
            if child not in seen:
                seen.add(child)
                visit(child)
        out.append(node)

    visit(root)
    return out


def topological_order(root: Operator) -> list[Operator]:
    """Nodes in bottom-up topological order (alias of :func:`all_nodes`)."""
    return all_nodes(root)


def parents_map(root: Operator) -> dict[Operator, list[Operator]]:
    """Map from each node to the list of its parents in the DAG.

    A parent appears once per child slot (a self-join over a shared
    subplan contributes the parent twice).
    """
    parents: dict[Operator, list[Operator]] = {root: []}
    for node in all_nodes(root):
        parents.setdefault(node, [])
        for child in node.children:
            parents.setdefault(child, []).append(node)
    return parents


def splice(
    parents: dict[Operator, list[Operator]], old: Operator, new: Operator
) -> tuple[list[Operator], list[Operator]]:
    """Re-point every edge into ``old`` at ``new`` and bring ``parents``
    (a :func:`parents_map` the caller maintains) up to date with the
    surgery: the operators ``new`` brings along are entered, those
    reachable only through ``old`` are removed.

    Returns ``(added, dropped)``, ``added`` in post-order.  Parent
    nodes are mutated in place — shared subplans keep being shared.
    """
    holders = parents[old]
    parents[old] = []
    for holder in holders:
        slots = holder.children
        for i, child in enumerate(slots):
            if child is old:
                slots[i] = new

    added: list[Operator] = []

    def enter(node: Operator) -> None:
        if node in parents:
            return
        parents[node] = []
        for child in node.children:
            enter(child)
            parents[child].append(node)
        added.append(node)

    enter(new)
    parents[new].extend(holders)

    # ``new`` may have been built on top of ``old`` (rule 16 wraps it),
    # which then has a parent again; otherwise it is unreachable now,
    # together with whatever only it kept alive.
    dropped: list[Operator] = []
    orphans = [] if parents[old] else [old]
    while orphans:
        node = orphans.pop()
        del parents[node]
        dropped.append(node)
        for child in node.children:
            remaining = parents[child]
            remaining.remove(node)
            if not remaining:
                orphans.append(child)
    return added, dropped


def replace_node(root: Operator, old: Operator, new: Operator) -> Operator:
    """Replace every edge into ``old`` by an edge into ``new``.

    Returns the (possibly new) root.  Mutates parent nodes in place —
    shared subplans keep being shared.
    """
    if old is new:
        return root
    if root is old:
        return new
    splice(parents_map(root), old, new)
    return root


def clone_plan(root: Operator) -> Operator:
    """Deep-copy a plan DAG, preserving the sharing structure.

    Node payload slots (predicates, column tuples, the document store
    reference) are shared — they are immutable or intentionally common —
    while every :class:`Operator` node is duplicated, so later in-place
    mutation of the original plan cannot affect the clone.
    """
    memo: dict[int, Operator] = {}
    for node in all_nodes(root):
        dup = object.__new__(type(node))
        dup.children = [memo[id(c)] for c in node.children]
        for klass in type(node).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot != "children":
                    setattr(dup, slot, getattr(node, slot))
        memo[id(node)] = dup
    return memo[id(root)]


def reachable(source: Operator, target: Operator) -> bool:
    """The paper's reachability relation  — True if ``target`` occurs
    in the subplan rooted at ``source`` (reflexive)."""
    return any(node is target for node in all_nodes(source))


def count_ops(root: Operator) -> Counter:
    """Histogram of operator class names in the plan (DAG nodes counted
    once, regardless of sharing)."""
    return Counter(type(node).__name__ for node in all_nodes(root))


def iter_edges(root: Operator) -> Iterator[tuple[Operator, int, Operator]]:
    """All (parent, child_slot, child) edges of the DAG."""
    for node in all_nodes(root):
        for slot, child in enumerate(node.children):
            yield node, slot, child


def plan_fingerprint(root: Operator) -> int:
    """Structural hash of the plan DAG (sharing-sensitive): two plans
    get equal fingerprints iff they have the same shape, labels and
    sharing pattern."""
    numbering: dict[int, int] = {}
    parts: list[tuple] = []
    for node in all_nodes(root):  # post-order: children numbered first
        numbering[id(node)] = len(numbering)
        parts.append(
            (node.label(), tuple(numbering[id(c)] for c in node.children))
        )
    return hash(tuple(parts))


class PlanViolation(NamedTuple):
    """One structural defect of a plan DAG.

    ``kind`` is a stable machine-readable slug (mapped to ``JGI``
    diagnostic codes by :mod:`repro.analysis`); ``node`` is the
    offending operator.
    """

    kind: str
    message: str
    node: Operator


#: expected child count per operator class
_ARITY = {
    "Serialize": 1,
    "Project": 1,
    "Select": 1,
    "Distinct": 1,
    "Attach": 1,
    "RowId": 1,
    "RowRank": 1,
    "Join": 2,
    "Cross": 2,
    "DocScan": 0,
    "LitTable": 0,
}


def find_cycle(root: Operator) -> list[Operator] | None:
    """A list of nodes forming a child-edge cycle reachable from
    ``root``, or ``None`` for a well-formed DAG.  Iterative (a cyclic
    "plan" would overflow the stack of the recursive traversals)."""
    GRAY, BLACK = 1, 2
    state: dict[int, int] = {}
    stack: list[tuple[Operator, int]] = [(root, 0)]
    path: list[Operator] = []
    while stack:
        node, child_index = stack.pop()
        if child_index == 0:
            if state.get(id(node)) == BLACK:
                continue
            state[id(node)] = GRAY
            path.append(node)
        if child_index < len(node.children):
            stack.append((node, child_index + 1))
            child = node.children[child_index]
            mark = state.get(id(child))
            if mark == GRAY:
                start = next(
                    i for i, n in enumerate(path) if n is child
                )
                return path[start:]
            if mark != BLACK:
                stack.append((child, 0))
        else:
            state[id(node)] = BLACK
            path.pop()
    return None


def structural_violations(
    root: Operator, *, allow_dead_refs: bool = False
) -> list[PlanViolation]:
    """Every structural defect of the plan DAG rooted at ``root``.

    Checked per node: child arity; join/cross schema disjointness; all
    referenced columns provided by the input; Project output-name
    uniqueness; generated columns (``@``/``#``/``%``) not colliding
    with the input schema; non-empty rank criteria; literal-table row
    arity; Serialize item/pos presence; no inner Serialize.  A node
    whose *construction* invariants fail while it is shared (several
    parents) is flagged as a shared-node mutation hazard: constructors
    enforce those invariants, so only an in-place rewrite of the shared
    node (or of something below it) can have broken them, and each
    parent may now see a conflicting schema.

    ``allow_dead_refs`` relaxes the missing-column check for *dead*
    projection entries — ones whose output no consumer transitively
    needs (``icols``).  One-rule-at-a-time house-cleaning inevitably
    passes through such states: a rule that shrinks a schema (4/5/6/7)
    strands dead syntactic references in parent projections until rule
    (7) restricts them away.  The per-step rewrite sanitizer uses this
    mode; initial and final plans are held to the strict contract.

    Cycles are reported first and alone — the remaining checks do not
    terminate on cyclic "plans".
    """
    from repro.algebra.ops import (
        Attach,
        Cross,
        Join,
        LitTable,
        Project,
        RowId,
        RowRank,
        Select,
        Serialize,
    )

    cycle = find_cycle(root)
    if cycle is not None:
        labels = " -> ".join(n.label() for n in cycle)
        return [
            PlanViolation(
                "cycle", f"plan DAG contains a cycle: {labels}", cycle[0]
            )
        ]

    out: list[PlanViolation] = []
    parent_count: Counter = Counter()
    for node in all_nodes(root):
        for child in node.children:
            parent_count[id(child)] += 1

    def flag(kind: str, node: Operator, message: str, constructed: bool = False) -> None:
        """``constructed``: the defect violates a constructor-enforced
        invariant, so on a shared node it is a mutation hazard."""
        if constructed and parent_count[id(node)] > 1:
            kind = "shared-mutation"
            message = (
                f"shared node (x{parent_count[id(node)]} parents) mutated "
                f"into a conflicting schema: {message}"
            )
        out.append(PlanViolation(kind, f"{node.label()}: {message}", node))

    live_olds: dict[int, set[str]] | None = None

    def live(node: Operator) -> set[str]:
        """The source columns of the projection's *live* entries; every
        source column when icols inference fails (stay strict then)."""
        nonlocal live_olds
        if live_olds is None:
            live_olds = _live_project_olds(root)
        return live_olds.get(id(node), {old for _, old in node.cols})

    for node in all_nodes(root):
        arity = _ARITY.get(type(node).__name__)
        if arity is not None and len(node.children) != arity:
            flag(
                "arity",
                node,
                f"expected {arity} input(s), found {len(node.children)}",
            )
            continue  # the remaining checks assume the right shape

        if isinstance(node, (Join, Cross)):
            overlap = set(node.children[0].columns) & set(node.children[1].columns)
            if overlap:
                flag(
                    "join-overlap",
                    node,
                    f"overlapping columns {sorted(overlap)}",
                    constructed=True,
                )

        have: set[str] = set()
        for child in node.children:
            have.update(child.columns)
        needed: set[str] = set()
        if isinstance(node, (Select, Join)):
            needed = set(node.pred.cols())
        elif isinstance(node, Project):
            needed = {old for _, old in node.cols}
        elif isinstance(node, RowRank):
            needed = set(node.order)
        missing = needed - have
        if missing and allow_dead_refs and isinstance(node, Project):
            missing &= live(node)
        if missing:
            flag(
                "missing-column",
                node,
                f"references missing columns {sorted(missing)}",
                constructed=True,
            )

        if isinstance(node, Serialize):
            absent = {node.item, node.pos} - have
            if absent:
                flag(
                    "serialize-contract",
                    node,
                    f"item/pos columns {sorted(absent)} not provided by input",
                    constructed=True,
                )
            if node is not root:
                flag("inner-serialize", node, "Serialize below the plan root")

        if isinstance(node, Project):
            names = [new for new, _ in node.cols]
            dupes = sorted(n for n, c in Counter(names).items() if c > 1)
            if dupes:
                flag(
                    "project-duplicate",
                    node,
                    f"duplicate output columns {dupes}",
                    constructed=True,
                )
            if not node.cols:
                flag("project-empty", node, "projects onto no columns")

        if isinstance(node, (Attach, RowId, RowRank)):
            if node.col in node.children[0].columns:
                flag(
                    "generated-collision",
                    node,
                    f"generated column {node.col!r} already in the input schema",
                    constructed=True,
                )
            if isinstance(node, RowRank) and not node.order:
                flag("rank-empty", node, "empty order criteria", constructed=True)

        if isinstance(node, LitTable):
            for i, row in enumerate(node.rows):
                if len(row) != len(node.names):
                    flag(
                        "littable-arity",
                        node,
                        f"row {i} has {len(row)} values for "
                        f"{len(node.names)} columns",
                        constructed=True,
                    )
                    break
    return out


def _live_project_olds(root: Operator) -> dict[int, set[str]]:
    """``id(project) -> source columns of its icols-live entries``, for
    every projection in the plan; empty on inference failure (callers
    then fall back to treating every entry as live)."""
    from repro.algebra.ops import Project
    from repro.algebra.properties import infer_properties

    try:
        props = infer_properties(root)
    except Exception:  # noqa: BLE001 - best-effort on broken plans
        return {}
    out: dict[int, set[str]] = {}
    for node in all_nodes(root):
        if isinstance(node, Project):
            icols = props.icols(node)
            out[id(node)] = {old for new, old in node.cols if new in icols}
    return out


def validate_plan(root: Operator) -> None:
    """Check structural invariants (see :func:`structural_violations`):
    join/cross schemas disjoint, all referenced columns present, no
    cycles, no shared-node mutation hazards.  Raises RewriteError on
    the first violation."""
    from repro.errors import RewriteError

    violations = structural_violations(root)
    if violations:
        raise RewriteError(violations[0].message)


def plan_to_text(root: Operator) -> str:
    """Render the plan DAG as indented text; shared nodes are expanded
    once and referenced as ``*<n>`` afterwards."""
    ids: dict[int, int] = {}
    shared = {
        id(node)
        for node, count in _reference_counts(root).items()
        if count > 1
    }
    lines: list[str] = []

    def visit(node: Operator, depth: int) -> None:
        pad = "  " * depth
        if id(node) in ids:
            lines.append(f"{pad}*{ids[id(node)]}")
            return
        marker = ""
        if id(node) in shared:
            ids[id(node)] = len(ids) + 1
            marker = f"  (={ids[id(node)]})"
        lines.append(f"{pad}{node.label()}{marker}")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def _reference_counts(root: Operator) -> dict[Operator, int]:
    counts: dict[Operator, int] = {}
    seen: set[int] = set()

    def visit(node: Operator) -> None:
        counts[node] = counts.get(node, 0) + 1
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children:
            visit(child)

    visit(root)
    return counts
