"""Linter for the generated single-block join-graph SQL.

:func:`generate_join_graph_sql` emits exactly one dialect — ``SELECT
[DISTINCT] … FROM doc AS d1, … [CROSS JOIN doc AS dN …] WHERE … ORDER
BY …`` — so the linter can be precise: it parses the block with the
same lexical conventions the generator uses and verifies scope and
clause-compatibility rules an RDBMS would otherwise report at runtime
(or worse, silently mis-execute):

* every ``dN`` alias referenced anywhere is bound in ``FROM`` exactly
  once (``JGI040`` / ``JGI042``);
* every qualified column is a column of the ``doc`` encoding
  (``JGI041``);
* every bound alias is referenced somewhere — an unreferenced ``doc``
  instance multiplies result cardinality (``JGI043``);
* ``SELECT DISTINCT`` + ``ORDER BY`` requires every order term to
  appear in the select list, per SQL semantics (``JGI044``);
* the declared output aliases are unique and contain the item alias
  (``JGI045`` / ``JGI046``).
"""

from __future__ import annotations

import re

from repro.algebra.ops import DOC_COLUMNS
from repro.analysis.diagnostics import Diagnostic
from repro.sql.codegen import SQLQuery

_FROM_BINDING = re.compile(r"\bdoc\s+AS\s+(\w+)", re.IGNORECASE)
_QUALIFIED_REF = re.compile(r"\b(d\d+)\.(\w+)\b")
_CLAUSE_SPLIT = re.compile(
    r"^(SELECT\s+(?:DISTINCT\s+)?)(?P<select>.*?)"
    r"(?:\nFROM\s+(?P<from>.*?))?"
    r"(?:\nWHERE\s+(?P<where>.*?))?"
    r"(?:\nORDER BY\s+(?P<order>.*?))?$",
    re.DOTALL,
)


def lint_sql(query: SQLQuery) -> list[Diagnostic]:
    """Lint one generated join-graph block (see module docstring)."""
    out: list[Diagnostic] = []
    match = _CLAUSE_SPLIT.match(query.text)
    if match is None:
        return [
            Diagnostic(
                code="JGI047",
                message="query does not parse as a single SELECT block",
                where=query.text.splitlines()[0][:60],
            )
        ]

    from_clause = match.group("from") or ""
    bound = _FROM_BINDING.findall(from_clause)
    duplicates = sorted({a for a in bound if bound.count(a) > 1})
    for alias in duplicates:
        out.append(
            Diagnostic(
                code="JGI042",
                message=f"alias {alias!r} bound more than once in FROM",
                where=alias,
            )
        )
    bound_set = set(bound)

    referenced: set[str] = set()
    for clause_name in ("select", "where", "order"):
        clause = match.group(clause_name) or ""
        for alias, column in _QUALIFIED_REF.findall(clause):
            referenced.add(alias)
            if alias not in bound_set:
                out.append(
                    Diagnostic(
                        code="JGI040",
                        message=f"{clause_name.upper()} references {alias}.{column} "
                        "but FROM never binds the alias",
                        where=f"{alias}.{column}",
                    )
                )
            if column not in DOC_COLUMNS:
                out.append(
                    Diagnostic(
                        code="JGI041",
                        message=f"{alias}.{column} is not a doc table column "
                        f"(have {', '.join(DOC_COLUMNS)})",
                        where=f"{alias}.{column}",
                    )
                )

    for alias in sorted(bound_set - referenced):
        out.append(
            Diagnostic(
                code="JGI043",
                message=f"FROM binds {alias!r} but no clause references it "
                "(cartesian cardinality multiplier)",
                severity="warning",
                where=alias,
            )
        )

    select_exprs = _select_expressions(match.group("select") or "")
    aliases = query.select_aliases
    clashes = sorted({a for a in aliases if aliases.count(a) > 1})
    for alias in clashes:
        out.append(
            Diagnostic(
                code="JGI045",
                message=f"output alias {alias!r} exposed more than once",
                where=alias,
            )
        )
    if query.item_alias not in aliases:
        out.append(
            Diagnostic(
                code="JGI046",
                message=f"item alias {query.item_alias!r} not among the "
                f"select aliases {aliases}",
                where=query.item_alias,
            )
        )

    if query.distinct:
        for term in query.order_by:
            if term not in select_exprs:
                out.append(
                    Diagnostic(
                        code="JGI044",
                        message=f"ORDER BY term {term!r} does not appear in "
                        "the SELECT DISTINCT list",
                        where=term,
                    )
                )
    return out


def _select_expressions(select_clause: str) -> set[str]:
    """The expression parts of a ``expr AS alias, …`` select list.

    The generator never emits commas inside an expression (the
    expression language is columns, constants, ``+`` and comparisons),
    so a top-level split is exact."""
    out: set[str] = set()
    for item in select_clause.split(", "):
        expr, _, _alias = item.rpartition(" AS ")
        if expr:
            out.add(expr.strip())
    return out
