"""Deep plan checker: re-derive schemas and Tables 2–5 properties
independently and cross-check them against the plan.

Layers (each producing :class:`repro.analysis.Diagnostic`\\ s):

1. **structural** — operator contracts over the DAG, delegated to
   :func:`repro.algebra.dagutils.structural_violations` (the single
   source of truth shared with ``validate_plan``): acyclicity, child
   arity, join schema disjointness, referenced-column presence,
   projection output uniqueness, Serialize item/pos presence,
   shared-node mutation hazards.
2. **property** — an *independent* second derivation of ``icols``,
   ``const`` and ``set`` (written edge-function style, deliberately not
   sharing code with :mod:`repro.algebra.properties`) compared for
   exact agreement, plus containment checks (``icols ⊆ columns``,
   every candidate key ⊆ columns) for all four properties.  ``key``
   inference is a heuristic lower bound, so no second derivation can
   demand equality; claimed keys are instead verified on data.
3. **data** (opt-in) — evaluate the plan with the reference
   interpreter and verify the claims on real tables: schemas match,
   constant columns are constant with the claimed value, candidate
   keys are duplicate-free, ``Distinct`` output is duplicate-free.
"""

from __future__ import annotations

from repro.algebra.dagutils import all_nodes, clone_plan, structural_violations
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
from repro.algebra.properties import PlanProperties, infer_properties
from repro.analysis.diagnostics import VIOLATION_CODES, Diagnostic


def check_plan(
    root: Operator,
    props: PlanProperties | None = None,
    *,
    data: bool = False,
    max_rows: int = 5000,
    allow_dead_refs: bool = False,
) -> list[Diagnostic]:
    """Run every analysis layer over the DAG rooted at ``root``.

    ``props`` may pass in previously inferred properties (e.g. the ones
    a rewrite rule actually consulted) to be validated; by default a
    fresh inference is checked against the re-derivation.  ``data``
    enables the interpreter-backed layer; tables larger than
    ``max_rows`` are skipped (budget guard, not a failure).
    ``allow_dead_refs`` tolerates icols-dead dangling projection
    entries — the transient states of one-rule-at-a-time
    house-cleaning (see :func:`structural_violations`).
    """
    diagnostics = structural_diagnostics(root, allow_dead_refs=allow_dead_refs)
    if any(d.code == "JGI001" for d in diagnostics):
        return diagnostics  # nothing below terminates on a cyclic plan
    if not any(d.severity == "error" for d in diagnostics):
        diagnostics += property_diagnostics(root, props)
    if data and not any(d.severity == "error" for d in diagnostics):
        if allow_dead_refs:
            # the reference interpreter is strict: evaluate a copy with
            # the (tolerated) dead dangling projection entries pruned
            diagnostics += data_diagnostics(
                prune_dead_refs(root), max_rows=max_rows
            )
        else:
            diagnostics += data_diagnostics(root, props, max_rows=max_rows)
    return diagnostics


def prune_dead_refs(root: Operator) -> Operator:
    """A copy of the plan with dangling projection entries dropped.

    On a plan that passed the ``allow_dead_refs`` structural check,
    every dangling entry is icols-dead, so the pruned copy is
    observably equivalent — and strictly evaluable by the reference
    interpreter.  Pruning cascades bottom-up: dropping a dead output
    may strand (equally dead) entries of a parent projection.
    """
    clone = clone_plan(root)
    for node in all_nodes(clone):  # post-order: children pruned first
        if isinstance(node, Project):
            have = set(node.child.columns)
            if any(old not in have for _, old in node.cols):
                node.cols = tuple(
                    (new, old) for new, old in node.cols if old in have
                )
    return clone


# -- layer 1: structure ------------------------------------------------------


def structural_diagnostics(
    root: Operator, *, allow_dead_refs: bool = False
) -> list[Diagnostic]:
    """Structural violations mapped onto their diagnostic codes."""
    return [
        Diagnostic(
            code=VIOLATION_CODES[violation.kind],
            message=violation.message,
            where=violation.node.label(),
        )
        for violation in structural_violations(
            root, allow_dead_refs=allow_dead_refs
        )
    ]


# -- layer 2: property cross-check -------------------------------------------


def property_diagnostics(
    root: Operator, props: PlanProperties | None = None
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if props is None:
        try:
            props = infer_properties(root)
        except Exception as error:  # noqa: BLE001 - reported, not masked
            return [
                Diagnostic(
                    code="JGI017",
                    message=f"property inference raised {error!r}",
                    where=root.label(),
                )
            ]

    nodes = all_nodes(root)
    for node in nodes:
        try:
            props.icols(node)
            props.const(node)
            props.keys(node)
            props.set_prop(node)
        except KeyError:
            out.append(
                Diagnostic(
                    code="JGI011",
                    message="node is missing from the supplied plan properties "
                    "(stale inference for a mutated plan?)",
                    where=node.label(),
                )
            )
    if out:
        return out  # the cross-checks below need complete properties

    expected_icols = _derive_icols(root)
    expected_set = _derive_set(root)
    const_memo: dict[int, dict[str, Value]] = {}
    for node in nodes:
        columns = frozenset(node.columns)

        icols = props.icols(node)
        if icols - columns:
            out.append(
                Diagnostic(
                    code="JGI013",
                    message=f"icols {sorted(icols - columns)} outside the "
                    f"schema {sorted(columns)}",
                    where=node.label(),
                )
            )
        if icols != expected_icols[id(node)]:
            out.append(
                Diagnostic(
                    code="JGI012",
                    message=f"icols {sorted(icols)} but re-derivation gives "
                    f"{sorted(expected_icols[id(node)])}",
                    where=node.label(),
                )
            )

        const = props.const(node)
        expected_const = _derive_const(node, const_memo)
        if const != expected_const:
            out.append(
                Diagnostic(
                    code="JGI014",
                    message=f"const {const!r} but re-derivation gives "
                    f"{expected_const!r}",
                    where=node.label(),
                )
            )
        if set(const) - columns:
            out.append(
                Diagnostic(
                    code="JGI014",
                    message=f"const claims columns {sorted(set(const) - columns)} "
                    "outside the schema",
                    where=node.label(),
                )
            )

        for key in props.keys(node):
            if key - columns:
                out.append(
                    Diagnostic(
                        code="JGI015",
                        message=f"candidate key {sorted(key)} contains "
                        f"non-schema columns {sorted(key - columns)}",
                        where=node.label(),
                    )
                )

        if props.set_prop(node) != expected_set[id(node)]:
            out.append(
                Diagnostic(
                    code="JGI016",
                    message=f"set={props.set_prop(node)} but re-derivation "
                    f"gives {expected_set[id(node)]}",
                    where=node.label(),
                )
            )
    return out


def _derive_icols(root: Operator) -> dict[int, frozenset[str]]:
    """Independent top-down re-derivation of Table 2 (``icols``).

    Formulated per edge: ``icols(child) = ⋃ reads(parent) ∩
    cols(child)`` over every incoming DAG edge, seeded at the root.
    """
    order = all_nodes(root)
    icols: dict[int, frozenset[str]] = {id(n): frozenset() for n in order}
    if isinstance(root, Serialize):
        icols[id(root)] = frozenset((root.pos, root.item))
    else:
        icols[id(root)] = frozenset(root.columns)

    for node in reversed(order):  # parents before children
        needed = icols[id(node)]
        for slot, child in enumerate(node.children):
            reads = _edge_reads(node, slot, needed)
            icols[id(child)] |= reads & frozenset(child.columns)
    return icols


def _edge_reads(
    parent: Operator, slot: int, needed: frozenset[str]
) -> frozenset[str]:
    """Columns the ``slot``-th input of ``parent`` must deliver, given
    that ``parent`` itself must deliver ``needed``."""
    if isinstance(parent, Serialize):
        return frozenset((parent.item, parent.pos))
    if isinstance(parent, Project):
        return frozenset(old for new, old in parent.cols if new in needed)
    if isinstance(parent, Select):
        return needed | parent.pred.cols()
    if isinstance(parent, Join):
        return needed | parent.pred.cols()
    if isinstance(parent, Cross):
        return needed
    if isinstance(parent, Distinct):
        return needed
    if isinstance(parent, (Attach, RowId)):
        return needed - {parent.col}
    if isinstance(parent, RowRank):
        return (needed - {parent.col}) | frozenset(parent.order)
    raise TypeError(f"icols re-derivation: unknown operator {parent.label()}")


def _derive_set(root: Operator) -> dict[int, bool]:
    """Independent top-down re-derivation of Table 5 (``set``):
    ``set(child) = ⋀ contribution(parent)`` over every incoming edge,
    where δ contributes True, the order-sensitive ⌐ and # contribute
    False, and every other operator passes its own ``set`` down."""
    order = all_nodes(root)
    setp: dict[int, bool] = {id(n): True for n in order}
    setp[id(root)] = False
    for node in reversed(order):
        for child in node.children:
            if isinstance(node, Distinct):
                contribution = True
            elif isinstance(node, (Serialize, RowId)):
                contribution = False
            else:
                contribution = setp[id(node)]
            setp[id(child)] = setp[id(child)] and contribution
    return setp


def _derive_const(
    node: Operator, memo: dict[int, dict[str, Value]]
) -> dict[str, Value]:
    """Independent bottom-up re-derivation of Table 3 (``const``)."""
    hit = memo.get(id(node))
    if hit is not None:
        return hit
    result: dict[str, Value]
    if isinstance(node, LitTable):
        result = {}
        if node.rows:
            for i, name in enumerate(node.names):
                witness = node.rows[0][i]
                if all(row[i] == witness for row in node.rows):
                    result[name] = witness
    elif isinstance(node, DocScan):
        result = {}
    elif isinstance(node, Project):
        below = _derive_const(node.child, memo)
        result = {
            new: below[old] for new, old in node.cols if old in below
        }
    elif isinstance(node, Attach):
        result = dict(_derive_const(node.child, memo))
        result[node.col] = node.value
    elif isinstance(node, (Join, Cross)):
        result = dict(_derive_const(node.children[0], memo))
        result.update(_derive_const(node.children[1], memo))
    else:  # Serialize, Select, Distinct, RowId, RowRank pass through
        result = dict(_derive_const(node.children[0], memo))
        if isinstance(node, Serialize):  # … Serialize narrows the schema
            schema = set(node.columns)
            result = {c: v for c, v in result.items() if c in schema}
    memo[id(node)] = result
    return result


# -- layer 3: data-backed verification ----------------------------------------


def data_diagnostics(
    root: Operator,
    props: PlanProperties | None = None,
    *,
    max_rows: int = 5000,
) -> list[Diagnostic]:
    """Evaluate the plan with the reference interpreter and verify the
    inferred properties against the actual tables.  Property inference
    must be *sound* (a claimed constant/key holds on every instance) —
    completeness is not checked (missing a key is merely a lost
    optimization)."""
    from repro.algebra.interpreter import Table, evaluate

    if props is None:
        props = infer_properties(root)
    out: list[Diagnostic] = []
    tables: dict[int, Table] = {}
    evaluate(root, tables)
    for node in all_nodes(root):
        table = tables[id(node)]
        if tuple(table.columns) != tuple(node.columns):
            out.append(
                Diagnostic(
                    code="JGI020",
                    message=f"evaluates to schema {list(table.columns)}, "
                    f"plan claims {list(node.columns)}",
                    where=node.label(),
                )
            )
            continue
        if len(table.rows) > max_rows:
            continue  # budget guard

        index = {name: i for i, name in enumerate(table.columns)}
        for name, value in props.const(node).items():
            bad = next(
                (row for row in table.rows if row[index[name]] != value), None
            )
            if bad is not None:
                out.append(
                    Diagnostic(
                        code="JGI021",
                        message=f"column {name!r} claimed constant {value!r} "
                        f"but holds {bad[index[name]]!r}",
                        where=node.label(),
                    )
                )

        for key in props.keys(node):
            positions = [index[c] for c in sorted(key)]
            seen = set()
            violated = False
            for row in table.rows:
                probe = tuple(row[i] for i in positions)
                if probe in seen:
                    violated = True
                    break
                seen.add(probe)
            if violated:
                out.append(
                    Diagnostic(
                        code="JGI022",
                        message=f"candidate key {sorted(key) or '∅'} has "
                        "duplicate values in the evaluated table",
                        where=node.label(),
                    )
                )

        if isinstance(node, Distinct) and len(set(table.rows)) != len(table.rows):
            out.append(
                Diagnostic(
                    code="JGI023",
                    message="Distinct output contains duplicate rows",
                    where=node.label(),
                )
            )
    return out
