"""End-to-end XQuery processing pipeline — the library's public API.

:class:`XQueryProcessor` wires the stages together::

    parse -> normalize (XQuery Core) -> loop-lifting compile
          -> join graph isolation -> SQL generation -> execution

and offers every intermediate as an inspectable artifact.  Four
execution engines are available (all differential-consistent):

``interpreter``           the algebra reference interpreter on the
                          stacked (un-isolated) plan — ground truth;
``isolated-interpreter``  the same interpreter on the isolated plan;
``stacked-sql``           the CTE chain on SQLite (the paper's
                          pre-isolation DB2 baseline);
``joingraph-sql``         the single SELECT-DISTINCT-FROM-WHERE-ORDER
                          BY block on SQLite (the paper's contribution).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.algebra.dagutils import clone_plan
from repro.algebra.interpreter import run_plan
from repro.algebra.ops import Serialize
from repro.compiler.looplift import LoopLiftingCompiler
from repro.engines import Engine
from repro.errors import XQueryTypeError
from repro.infoset.encoding import DocumentStore
from repro.infoset.serialize import serialize_sequence
from repro.obs import get_metrics, get_tracer
from repro.result import Result, Serialized
from repro.rewrite.engine import IsolationEngine, IsolationStats
from repro.sql.backend import SQLiteBackend
from repro.sql.codegen import SQLQuery, generate_join_graph_sql
from repro.sql.stacked import generate_stacked_sql
from repro.xquery import ast
from repro.xquery.core import CoreDdo, CoreExpr, CoreFor, CoreStep, CoreVar
from repro.xquery.normalize import CollectionResolver, normalize
from repro.xquery.parser import parse_xquery

__all__ = ["CompiledQuery", "Engine", "XQueryProcessor", "store_resolver"]


def store_resolver(store: DocumentStore) -> CollectionResolver:
    """The default ``collection()`` resolver: match URI globs against
    the documents hosted by one store, in load (= ``pre``) order."""

    def resolve(patterns: tuple[str, ...]) -> tuple[str, ...]:
        uris = store.table.doc_uris
        if not patterns:
            return tuple(uris)
        return tuple(
            uri
            for uri in uris
            if any(fnmatchcase(uri, pattern) for pattern in patterns)
        )

    return resolve


@dataclass
class CompiledQuery:
    """All artifacts of one query's journey through the pipeline."""

    source: str
    core: CoreExpr
    stacked_plan: Serialize
    isolated_plan: Serialize
    isolation_stats: IsolationStats
    _stacked_sql: SQLQuery | None = field(default=None, repr=False)
    _joingraph_sql: SQLQuery | None = field(default=None, repr=False)

    @property
    def stacked_sql(self) -> SQLQuery:
        if self._stacked_sql is None:
            with get_tracer().span("codegen.stacked") as span:
                self._stacked_sql = generate_stacked_sql(self.stacked_plan)
                span.set(chars=len(self._stacked_sql.text))
        return self._stacked_sql

    @property
    def joingraph_sql(self) -> SQLQuery:
        if self._joingraph_sql is None:
            with get_tracer().span("codegen.joingraph") as span:
                self._joingraph_sql = generate_join_graph_sql(self.isolated_plan)
                span.set(
                    chars=len(self._joingraph_sql.text),
                    doc_instances=self._joingraph_sql.doc_instances,
                )
        return self._joingraph_sql

    def sql_for(self, engine: str) -> SQLQuery:
        """The SQL text an SQL ``engine`` executes (the join-graph block
        stands in for the interpreter engines, e.g. in diagnostics)."""
        if engine == "stacked-sql":
            return self.stacked_sql
        return self.joingraph_sql


class XQueryProcessor:
    """A relational XQuery processor over a document store.

    Parameters
    ----------
    store:
        Shared document store; a fresh one is created when omitted.
    default_doc:
        URI that absolute paths (``/site/...``) resolve against.
    serialize_step:
        Make the serialization point explicit by appending
        ``/descendant-or-self::node()`` to the query result, as the
        paper does for its experiments (Section 4): the result then
        contains every node needed to serialize the answer subtrees.
    disabled_rules:
        Isolation rules to switch off (ablation experiments).
    checked:
        Run the :class:`repro.analysis.PlanSanitizer` during
        isolation: the deep plan invariant checker validates the plan
        after every individual rewrite-rule application, and an
        unsound step raises :class:`repro.errors.SanitizerError`
        naming the offending rule.
    check_interpret:
        With ``checked``, additionally re-interpret the plan after
        each step on small documents and compare the item sequence
        against the pre-isolation reference (per-step differential
        testing; skipped automatically on large stores).
    collections:
        Resolver turning ``collection()`` URI globs into concrete
        document URIs; defaults to matching against this processor's
        own store.  The sharded service passes a resolver over the
        whole :class:`repro.store.Collection` here so compiled plans
        name every member document regardless of shard placement.
    """

    def __init__(
        self,
        store: DocumentStore | None = None,
        default_doc: str | None = None,
        serialize_step: bool = False,
        disabled_rules: set[str] | None = None,
        checked: bool = False,
        check_interpret: bool = False,
        collections: CollectionResolver | None = None,
    ):
        self.store = store if store is not None else DocumentStore()
        self.default_doc = default_doc
        self.collections = (
            collections if collections is not None else store_resolver(self.store)
        )
        self.serialize_step = serialize_step
        self.checked = checked
        sanitizer = None
        if checked:
            from repro.analysis import PlanSanitizer

            sanitizer = PlanSanitizer(interpret=check_interpret)
        self._engine = IsolationEngine(
            disabled=disabled_rules, sanitizer=sanitizer
        )
        self._backend: SQLiteBackend | None = None
        self._backend_token: tuple[int, int] | None = None

    # -- documents -------------------------------------------------------

    def load(self, xml_text: str, uri: str) -> None:
        """Parse and shred a document into the shared store."""
        self.store.load(xml_text, uri)
        if self.default_doc is None:
            self.default_doc = uri

    @property
    def disabled_rules(self) -> frozenset[str]:
        """The isolation rules switched off for this processor (part of
        the compiled-query cache key)."""
        return frozenset(self._engine.disabled)

    @property
    def backend(self) -> SQLiteBackend:
        """The SQLite back-end, (re)loaded lazily when documents change.

        Staleness is keyed on (table identity, monotonic content
        version) — not the row count, which can stay identical across a
        content change (e.g. swapping in a different store) and would
        then serve stale data.  Identity is the table's minted
        :attr:`~repro.infoset.encoding.DocTable.uid`, not ``id()``: the
        allocator reuses addresses after GC, so a fresh table at a
        recycled address with a matching version counter would be
        served the dead table's backend.
        """
        token = (self.store.table.uid, self.store.version)
        if self._backend is None or self._backend_token != token:
            if self._backend is not None:
                self._backend.close()
            self._backend = SQLiteBackend(self.store.table)
            self._backend_token = token
        return self._backend

    # -- compilation -------------------------------------------------------

    def compile(self, query: str) -> CompiledQuery:
        """Run the full front-end and isolation on ``query``."""
        tracer = get_tracer()
        with tracer.span("compile", query=query) as span:
            with tracer.span("parse"):
                surface = parse_xquery(query)
            compiled = self._compile_surface(surface, query)
            span.set(rule_applications=compiled.isolation_stats.steps)
        get_metrics().count("pipeline.compiles")
        return compiled

    def compile_tuple(self, query: str) -> list[CompiledQuery]:
        """Compile a FLWOR whose return clause is a tuple
        ``(e1, e2, …)`` — the Table 8 Q6 ``return-tuple`` form — into
        one query per tuple component sharing the binding clauses."""
        surface = parse_xquery(query)
        if not isinstance(surface, ast.FLWOR) or not isinstance(
            surface.ret, ast.SequenceExpr
        ):
            raise XQueryTypeError(
                "compile_tuple expects a FLWOR returning (e1, e2, ...)"
            )
        tracer = get_tracer()
        compiled = []
        for i, item in enumerate(surface.ret.items):
            component = ast.FLWOR(surface.clauses, surface.where, item)
            with tracer.span("compile", query=query, component=i):
                compiled.append(
                    self._compile_surface(component, str(component))
                )
        return compiled

    def _compile_surface(self, surface: ast.Expr, source: str) -> CompiledQuery:
        """Normalize, loop-lift and isolate a parsed query."""
        tracer = get_tracer()
        with tracer.span("normalize"):
            core = normalize(
                surface,
                default_doc=self.default_doc,
                collections=self.collections,
            )
            if self.serialize_step:
                core = _with_serialize_step(core)
        with tracer.span("looplift"):
            stacked = LoopLiftingCompiler(self.store).compile(core)
            # isolation mutates the DAG: hand it an independent
            # clone so the stacked plan survives as an artifact
            isolated_input = clone_plan(stacked)
        if self._engine.sanitizer is not None:
            self._engine.sanitizer.set_core(core, self.store.table)
        isolated, stats = self._engine.isolate(isolated_input)
        return CompiledQuery(
            source=source,
            core=core,
            stacked_plan=stacked,
            isolated_plan=isolated,
            isolation_stats=stats,
        )

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        query: str | CompiledQuery,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
    ) -> Result:
        """Evaluate a query; returns a :class:`repro.Result` — the item
        sequence (pre ranks for node results, ``1`` markers for boolean
        results) plus engine/timing metadata."""
        engine = Engine.of(engine)
        compiled = query if isinstance(query, CompiledQuery) else self.compile(query)
        started = time.perf_counter_ns()
        with get_tracer().span("execute", engine=engine.value) as span:
            if engine is Engine.INTERPRETER:
                items = run_plan(compiled.stacked_plan)
            elif engine is Engine.ISOLATED_INTERPRETER:
                items = run_plan(compiled.isolated_plan)
            else:
                items = self.backend.run(compiled.sql_for(engine))
            span.set(items=len(items))
        metrics = get_metrics()
        metrics.count("pipeline.executions")
        metrics.count(f"pipeline.executions.{engine.value}")
        return Result(
            items,
            engine=engine,
            timings={"execute_ns": time.perf_counter_ns() - started},
            shards=1,
            serializer=self.serialize,
        )

    def serialize(self, items) -> str:
        """Serialize a node-sequence result back to XML text."""
        with get_tracer().span("serialize", items=len(items)):
            return serialize_sequence(self.store.table, items)

    def run(self, query: str, engine: Engine | str = Engine.JOINGRAPH_SQL) -> Serialized:
        """Execute and serialize in one step.  Returns the XML text
        (a :class:`repro.result.Serialized` string with the underlying
        :class:`Result` attached as ``.result``)."""
        result = self.execute(query, engine=engine)
        return Serialized(self.serialize(result), result)

    def explain(self, query: str | CompiledQuery, mode: str = "statistics") -> str:
        """The continuation-annotated physical plan our cost-based
        optimizer chooses for the isolated join graph (paper Figs.
        10/11 style)."""
        from repro.planner import JoinGraphPlanner, explain_plan
        from repro.sql import flatten_query

        compiled = query if isinstance(query, CompiledQuery) else self.compile(query)
        planner = JoinGraphPlanner(self.store.table, mode=mode)
        plan = planner.plan(flatten_query(compiled.isolated_plan))
        return explain_plan(plan)


def _with_serialize_step(core: CoreExpr) -> CoreExpr:
    """Wrap ``Q`` as ``for $s in Q return $s/descendant-or-self::node()``."""
    var = "#serialize"
    return CoreFor(
        var,
        core,
        CoreDdo(CoreStep(CoreVar(var), "descendant-or-self", "node", None)),
    )
