"""Direct tree-pattern evaluation over the pre/size/level encoding.

This is a deliberately naive, *independent* implementation of pattern
semantics — a reference oracle with no code shared with the compiler,
the algebra interpreter, or the SQL backends.  The rewrite sanitizer
uses it to cross-check plans against the statically extracted pattern:
when the compiled pipeline and this evaluator disagree on a fragment
query, one of them (in practice: some rewrite rule) is wrong.

Semantics mirror ``repro.compiler.axes`` exactly:

* ``child``/``attribute`` — subtree range + ``level + 1``, split on
  the ATTR kind;
* ``descendant`` — subtree range, never ATTR;
* ``descendant-or-self`` — range including the context itself, which
  stays visible even when it is an ATTR row (the ``kind <> ATTR OR
  pre = pre°`` disjunct);
* value constraints — numeric literals compare the typed ``data``
  column, string literals the untyped ``value`` column; a ``None``
  column never matches (untypeable content, multi-child elements).

Complexity is O(pattern × table²) in the worst case — fine for the
sanitizer's bounded test documents, not a query engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.analysis.containment.pattern import PNode, TreePattern
from repro.infoset.encoding import DocTable
from repro.xmltree.model import NodeKind

__all__ = ["evaluate_pattern", "filter_pattern"]

_ATTR = int(NodeKind.ATTR)


def _targets(table: DocTable, context: int, axis: str) -> Iterator[int]:
    """Candidate ``pre`` ranks of one structural step from ``context``
    (node tests are applied by the caller)."""
    end = context + table.size[context]
    if axis == "self":
        yield context
    elif axis in ("child", "attribute"):
        wanted_level = table.level[context] + 1
        attr = axis == "attribute"
        for pre in range(context + 1, end + 1):
            if table.level[pre] == wanted_level and (
                (table.kind[pre] == _ATTR) == attr
            ):
                yield pre
    elif axis == "descendant":
        for pre in range(context + 1, end + 1):
            if table.kind[pre] != _ATTR:
                yield pre
    elif axis == "descendant-or-self":
        for pre in range(context, end + 1):
            if table.kind[pre] != _ATTR or pre == context:
                yield pre
    else:  # pragma: no cover - extraction only emits the above
        raise ValueError(f"axis {axis!r} is not pattern material")


def _compare(left: float | str, op: str, right: float | str) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _test(table: DocTable, node: PNode, pre: int) -> bool:
    """Does the row at ``pre`` satisfy ``node``'s own test and value
    constraints?  (The fuzzy distance rule lives in :func:`_targets` —
    distant ATTR rows are never generated.)"""
    if table.kind[pre] not in node.kinds:
        return False
    if node.name is not None and table.name[pre] != node.name:
        return False
    for op, literal in node.constraints:
        if isinstance(literal, str):
            column = table.value[pre]
        else:
            column = table.data[pre]
        if column is None or not _compare(column, op, literal):
            return False
    return True


def _exists(table: DocTable, node: PNode, context: int) -> bool:
    """Is there an embedding of ``node``'s subtree with ``node`` bound
    below ``context`` (existence only)?"""
    return any(
        _test(table, node, pre)
        and all(_exists(table, child, pre) for child in node.children)
        for pre in _targets(table, context, node.axis)
    )


def _collect(
    table: DocTable, node: PNode, candidates: Iterator[int], out: set[int]
) -> None:
    """Accumulate the selected node's bindings; ``node``'s subtree
    contains the selected node and ``candidates`` enumerates its
    possible images."""
    spine = [child for child in node.children if child.has_selected()]
    branches = [child for child in node.children if not child.has_selected()]
    for pre in candidates:
        if not _test(table, node, pre):
            continue
        if not all(_exists(table, branch, pre) for branch in branches):
            continue
        if node.selected:
            out.add(pre)
        for child in spine:
            _collect(table, child, _targets(table, pre, child.axis), out)


def _chain(table: DocTable, root: int, target: int) -> list[int] | None:
    """Pre ranks on the ancestor-or-self path ``root .. target``, or
    ``None`` when ``target`` lies outside ``root``'s subtree.  The walk
    skips whole sibling subtrees via the ``size`` column, so it costs
    O(depth × branching) instead of a table scan."""
    if target < root or target > root + table.size[root]:
        return None
    chain = [root]
    node = root
    while node != target:
        child = node + 1
        end = node + table.size[node]
        step = None
        while child <= end:
            if child <= target <= child + table.size[child]:
                step = child
                break
            child += table.size[child] + 1
        if step is None:  # pragma: no cover - pre/size invariant
            return None
        chain.append(step)
        node = step
    return chain


def _chain_targets(
    table: DocTable, chain: list[int], index: int, axis: str
) -> Iterator[int]:
    """Indices into ``chain`` that one structural step from
    ``chain[index]`` may reach — the restriction of :func:`_targets`
    to the ancestor chain (every spine image must keep the target in
    its subtree, so only chain nodes qualify)."""
    if axis == "self":
        yield index
    elif axis in ("child", "attribute"):
        # chain[index + 1] is by construction a child of chain[index];
        # only the ATTR split remains to check.
        attr = axis == "attribute"
        if index + 1 < len(chain) and (
            (table.kind[chain[index + 1]] == _ATTR) == attr
        ):
            yield index + 1
    elif axis == "descendant":
        for j in range(index + 1, len(chain)):
            if table.kind[chain[j]] != _ATTR:
                yield j
    elif axis == "descendant-or-self":
        for j in range(index, len(chain)):
            if table.kind[chain[j]] != _ATTR or j == index:
                yield j
    else:  # pragma: no cover - extraction only emits the above
        raise ValueError(f"axis {axis!r} is not pattern material")


def _selects_at(
    table: DocTable, node: PNode, chain: list[int], index: int
) -> bool:
    """With ``node`` bound at ``chain[index]``, can the pattern below
    it select ``chain[-1]`` (the membership target)?"""
    pre = chain[index]
    if not _test(table, node, pre):
        return False
    for child in node.children:
        if not child.has_selected() and not _exists(table, child, pre):
            return False
    if node.selected:
        return index == len(chain) - 1
    return any(
        _selects_at(table, child, chain, j)
        for child in node.children
        if child.has_selected()
        for j in _chain_targets(table, chain, index, child.axis)
    )


def filter_pattern(
    pattern: TreePattern, table: DocTable, candidates: Iterable[int]
) -> list[int]:
    """The subset of ``candidates`` (pre ranks, caller order preserved)
    that the pattern selects.  Equivalent to intersecting with
    :func:`evaluate_pattern` but proportional to ``len(candidates)``
    rather than to the table: the selected node must bind to a
    candidate itself, and every spine node above it must bind to an
    ancestor of it — so the search space collapses to the
    ancestor-or-self chain.  Branch predicates fall back to the
    unrestricted :func:`_exists` search.  Used by the service view tier
    as the residual filter over materialized rows."""
    if pattern.root is None:
        return []
    hosted = set(table.doc_uris)
    spans = [
        (root, root + table.size[root])
        for root in (
            table.root_of(uri) for uri in set(pattern.uris) if uri in hosted
        )
    ]
    out: list[int] = []
    for pre in candidates:
        for root, end in spans:
            if root <= pre <= end:
                chain = _chain(table, root, pre)
                if chain is not None and _selects_at(
                    table, pattern.root, chain, 0
                ):
                    out.append(pre)
                break
    return out


def evaluate_pattern(pattern: TreePattern, table: DocTable) -> list[int]:
    """All ``pre`` ranks the pattern's selected node binds over the
    table, in document order — the reference value of the query the
    pattern was extracted from.  Unknown source URIs contribute
    nothing (a missing document is an empty document source)."""
    if pattern.root is None:
        return []
    hosted = set(table.doc_uris)
    roots = iter(
        sorted(
            table.root_of(uri) for uri in set(pattern.uris) if uri in hosted
        )
    )
    out: set[int] = set()
    _collect(table, pattern.root, roots, out)
    return sorted(out)
