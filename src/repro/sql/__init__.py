"""SQL code generation and the SQLite execution back-end.

Two generators mirror the paper's two plan shapes:

* :func:`generate_join_graph_sql` renders an *isolated* plan as one
  ``SELECT [DISTINCT] … FROM doc AS d1, … CROSS JOIN doc AS dN WHERE …
  ORDER BY …`` block (Figs. 8 and 9) — flat self-join chains, no
  grouping, no window functions; the document-root aliases
  (``kind = 0``) come last, as ``CROSS JOIN`` operands SQLite cannot
  move into the outer loop;
* :func:`generate_stacked_sql` renders the *initial* (stacked) plan as
  a ``WITH`` common-table-expression chain featuring ``DISTINCT`` and
  ``RANK() OVER (ORDER BY …)`` per blocking operator — the SQL the
  paper reports DB2 received before isolation.

:class:`SQLiteBackend` hosts the tabular encoding, creates the Table 6
B-tree index set, switches SQLite's automatic indexes off, and executes
either SQL form.
"""

from repro.sql.codegen import FlatQuery, SQLQuery, flatten_query, generate_join_graph_sql
from repro.sql.stacked import generate_stacked_sql
from repro.sql.backend import SQLiteBackend, TABLE6_INDEXES

__all__ = [
    "FlatQuery",
    "SQLQuery",
    "flatten_query",
    "SQLiteBackend",
    "TABLE6_INDEXES",
    "generate_join_graph_sql",
    "generate_stacked_sql",
]
