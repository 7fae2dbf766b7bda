"""SQLite execution back-end.

Plays the role of the paper's IBM DB2 V9 instance: hosts the tabular
XML infoset encoding as a plain relational table, builds the composite
B-tree index set proposed by the design advisor (paper Table 6), and
executes the generated SQL — either the single join-graph block or the
stacked CTE chain.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Sequence

from repro.algebra.expressions import Value
from repro.faults.injector import on_execute as _fault_on_execute
from repro.infoset.encoding import DocTable
from repro.obs import get_metrics, get_tracer
from repro.sql.codegen import SQLQuery

#: Table 6 of the paper: composite B-tree keys proposed by db2advis,
#: with the deployment each key serves.
#: (p:pre, s:size, l:level, k:kind, n:name, v:value, d:data —
#:  ``s`` is indexed as ``pre + size`` so range continuations can be
#:  answered from the index, matching the paper's ``s: pre + size``.)
TABLE6_INDEXES: dict[str, tuple[str, ...]] = {
    "idx_nkspl": ("name", "kind", "size", "pre", "level"),
    "idx_nksp": ("name", "kind", "size", "pre"),
    "idx_nlkp": ("name", "level", "kind", "pre"),
    "idx_nlkps": ("name", "level", "kind", "pre", "size"),
    "idx_vnlkp": ("value", "name", "level", "kind", "pre"),
    "idx_nlkpv": ("name", "level", "kind", "pre", "value"),
    "idx_nkdlp": ("name", "kind", "data", "level", "pre"),
    "idx_p_nvkls": ("pre", "name", "value", "kind", "level", "size"),
}


class SQLiteBackend:
    """An off-the-shelf RDBMS hosting the ``doc`` encoding.

    Parameters
    ----------
    table:
        The shredded document table to load (may be ``None`` when
        ``load=False``: an attach-only connection to a database some
        other backend already populated).
    indexes:
        Mapping index-name -> key column tuple; defaults to the paper's
        Table 6 set.  Pass ``{}`` for an index-less baseline.
    database:
        The SQLite database to connect to.  Defaults to a private
        ``:memory:`` instance; the service layer's connection pool
        passes a ``file:...?mode=memory&cache=shared`` URI instead so
        several threads share one in-memory instance (set ``uri=True``).
    uri:
        Interpret ``database`` as an SQLite URI.
    load:
        Create and populate the ``doc`` table.  ``False`` for pool
        worker connections attaching to an already-loaded shared
        database.
    cached_statements:
        Size of sqlite3's per-connection prepared-statement cache.
        Repeated queries skip re-preparing entirely — the
        prepared-statement-reuse half of the service layer's win.
    """

    def __init__(
        self,
        table: DocTable | None,
        indexes: dict[str, tuple[str, ...]] | None = None,
        *,
        database: str = ":memory:",
        uri: bool = False,
        load: bool = True,
        cached_statements: int = 256,
    ):
        self.connection = sqlite3.connect(
            database,
            uri=uri,
            cached_statements=cached_statements,
            # connections are handed out one-per-thread by the service
            # pool but closed centrally on invalidation
            check_same_thread=False,
            # manual transaction control: the bulk load brackets its own
            # BEGIN/COMMIT, and the read-only serving path never needs
            # the implicit-transaction machinery
            isolation_level=None,
        )
        # without this SQLite builds a throwaway index (Q4: over every
        # text node) on each execution instead of using the pre range
        # below the parent; the Table 6 set is the index set
        self.connection.execute("PRAGMA automatic_index=OFF")
        self.indexes = TABLE6_INDEXES if indexes is None else indexes
        if load:
            if table is None:
                raise ValueError("load=True requires a document table")
            try:
                self._load(table)
            except BaseException:
                # a half-loaded backend is unusable: release the
                # connection instead of leaking it to the GC
                self.connection.close()
                raise

    def _load(self, table: DocTable) -> None:
        with get_tracer().span(
            "sql.load", rows=len(table), indexes=len(self.indexes)
        ):
            start = time.perf_counter_ns()
            self._load_inner(table)
            get_metrics().observe("sql.load_ns", time.perf_counter_ns() - start)

    def _load_inner(self, table: DocTable) -> None:
        cur = self.connection.cursor()
        # bulk-load fast path: journaling and fsyncs buy nothing for a
        # rebuild-from-scratch load (in-memory or otherwise), and one
        # explicit transaction around inserts + index builds avoids
        # per-statement commit overhead
        cur.execute("PRAGMA journal_mode=OFF")
        cur.execute("PRAGMA synchronous=OFF")
        cur.execute("PRAGMA temp_store=MEMORY")
        cur.execute("BEGIN")
        cur.execute(
            """
            CREATE TABLE doc (
                pre   INTEGER PRIMARY KEY,
                size  INTEGER NOT NULL,
                level INTEGER NOT NULL,
                kind  INTEGER NOT NULL,
                name  TEXT,
                value TEXT,
                data  REAL
            )
            """
        )
        cur.executemany(
            "INSERT INTO doc VALUES (?, ?, ?, ?, ?, ?, ?)",
            (tuple(row) for row in table.rows()),
        )
        for index_name, key in self.indexes.items():
            cols = ", ".join(key)
            cur.execute(f"CREATE INDEX {index_name} ON doc ({cols})")
        cur.execute("COMMIT")
        cur.execute("ANALYZE")

    # -- execution -----------------------------------------------------

    def _execute_timed(
        self, label: str, sql: str, params: Sequence = ()
    ) -> list[tuple]:
        """The one timing funnel every statement goes through: opens a
        span, fetches, and records statement/row metrics.  When a trace
        is being captured, the ``EXPLAIN QUERY PLAN`` output for the
        statement is attached to the span as well."""
        # chaos hook (no-op unless an injector is installed): may raise
        # a transient error, stall, or kill this connection — the
        # service layer's retry/deadline machinery is built against
        # exactly the failures delivered here
        _fault_on_execute(self.connection)
        tracer = get_tracer()
        with tracer.span(label, statement=_statement_head(sql)) as span:
            if tracer.enabled:
                span.set(query_plan=self._explain_text(sql, params))
            cursor = self.connection.execute(sql, params)
            rows = cursor.fetchall()
            span.set(rows=len(rows))
        metrics = get_metrics()
        metrics.count("sql.statements")
        metrics.count("sql.rows", len(rows))
        if tracer.enabled:
            # span timing is only recorded when tracing; mirror it into
            # the statement-latency histogram (ns)
            metrics.observe("sql.run_ns", span.duration_ns)  # type: ignore[union-attr]
        return rows

    def _explain_text(self, sql: str, params: Sequence = ()) -> list[str]:
        rows = self.connection.execute(
            "EXPLAIN QUERY PLAN " + sql, params
        ).fetchall()
        return [row[-1] for row in rows]

    def run(self, query: SQLQuery) -> list[Value]:
        """Execute a generated query; returns the item sequence (the
        ``item`` output column, in result order)."""
        item_index = query.select_aliases.index(query.item_alias)
        rows = self._execute_timed("sql.run", query.text)
        return [row[item_index] for row in rows]

    def run_raw(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Execute arbitrary SQL (used by tests and the benchmarks);
        shares the timing/metrics funnel with :meth:`run`."""
        return self._execute_timed("sql.run_raw", sql, params)

    def explain(self, query: SQLQuery) -> list[str]:
        """SQLite's EXPLAIN QUERY PLAN rows for a generated query —
        shows which of the Table 6 indexes the optimizer picked."""
        return self._explain_text(query.text)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _statement_head(sql: str, limit: int = 80) -> str:
    """First line of a statement, truncated — the span label."""
    head = sql.lstrip().splitlines()[0] if sql.strip() else sql
    return head if len(head) <= limit else head[: limit - 1] + "…"
