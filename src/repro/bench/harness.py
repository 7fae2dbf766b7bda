"""Multi-engine benchmark harness (paper Section 4).

One :class:`BenchHarness` hosts the XMark and DBLP instances and every
execution engine of the repository:

===================  ====================================================
engine               corresponds to (Table 9 column)
===================  ====================================================
``stacked-sql``      DB2 + Pathfinder, *stacked* (pre-isolation) SQL
``joingraph-sql``    DB2 + Pathfinder, *join graph* SQL
``planner``          the same join graph on our own optimizer/engine
``purexml-whole``    DB2 pureXML, whole-document storage
``purexml-segmented`` DB2 pureXML, segmented storage + XMLPATTERN indexes
``interpreter``      algebra reference interpreter (ground truth)
===================  ====================================================

Every run is verified against the reference result (as a multiset of
``pre`` ranks) before its wall-clock time is reported.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.infoset.encoding import DocumentStore, node_pre_map
from repro.obs import Tracer, get_tracer, phase_profile, set_tracer
from repro.pipeline import XQueryProcessor
from repro.planner import JoinGraphPlanner
from repro.purexml import PureXMLEngine
from repro.sql import flatten_query
from repro.workloads import (
    DBLPConfig,
    PAPER_QUERIES,
    PaperQuery,
    XMarkConfig,
    generate_dblp,
    generate_xmark,
)

#: XMLPATTERN indexes created for the segmented pureXML setups, per the
#: paper's "extensive XMLPATTERN index family" (Section 4.2)
XMARK_PATTERNS = (
    "/site/people/person/@id",
    "/site/categories/category/@id",
    "/site/regions//item/@id",
)
DBLP_PATTERNS = ("/dblp/*/@key",)

ENGINES = (
    "stacked-sql",
    "joingraph-sql",
    "planner",
    "purexml-whole",
    "purexml-segmented",
    "interpreter",
)


@dataclass
class EngineRun:
    """Outcome of one engine executing one query."""

    query: str
    engine: str
    seconds: float
    result_size: int
    correct: bool
    #: inclusive seconds per span name (``compile``, ``isolate``,
    #: ``execute``, ``sql.run`` …) captured by the tracer during the
    #: timed run; compile-side phases appear on the first (cache-cold)
    #: run of each query
    phases: dict[str, float] = field(default_factory=dict)


class BenchHarness:
    """Builds both workloads once and runs any query on any engine."""

    def __init__(
        self,
        xmark_factor: float = 0.01,
        dblp_factor: float = 0.002,
        serialize_step: bool = False,
    ):
        self.xmark_doc = generate_xmark(XMarkConfig(factor=xmark_factor))
        self.dblp_doc = generate_dblp(DBLPConfig(factor=dblp_factor))
        self.stores = {"xmark": DocumentStore(), "dblp": DocumentStore()}
        self.stores["xmark"].load_tree(self.xmark_doc)
        self.stores["dblp"].load_tree(self.dblp_doc)
        self.pre_maps = {
            "xmark": node_pre_map(self.xmark_doc, 0),
            "dblp": node_pre_map(self.dblp_doc, 0),
        }
        self.processors = {
            "xmark": XQueryProcessor(
                store=self.stores["xmark"],
                default_doc="auction.xml",
                serialize_step=serialize_step,
            ),
            "dblp": XQueryProcessor(
                store=self.stores["dblp"],
                default_doc="dblp.xml",
                serialize_step=serialize_step,
            ),
        }
        self.planners = {
            key: JoinGraphPlanner(self.stores[key].table)
            for key in ("xmark", "dblp")
        }
        self.native_whole = {
            "xmark": PureXMLEngine({"auction.xml": self.xmark_doc}),
            "dblp": PureXMLEngine({"dblp.xml": self.dblp_doc}),
        }
        self.native_segmented = {
            "xmark": PureXMLEngine(
                {"auction.xml": self.xmark_doc},
                segmented=True,
                cut_depth=2,
                patterns=XMARK_PATTERNS,
            ),
            "dblp": PureXMLEngine(
                {"dblp.xml": self.dblp_doc},
                segmented=True,
                cut_depth=1,
                patterns=DBLP_PATTERNS,
            ),
        }
        self._compiled: dict[tuple[str, bool], object] = {}

    # -- helpers -----------------------------------------------------------

    def query(self, name: str) -> PaperQuery:
        return PAPER_QUERIES[name]

    def node_count(self, workload: str) -> int:
        return len(self.stores[workload].table)

    def compiled(self, query: PaperQuery):
        key = (query.name, query.is_tuple)
        if key not in self._compiled:
            processor = self.processors[query.document]
            if query.is_tuple:
                self._compiled[key] = processor.compile_tuple(query.text)
            else:
                self._compiled[key] = processor.compile(query.text)
        return self._compiled[key]

    def reference(self, query: PaperQuery) -> Counter:
        """Ground-truth result multiset (reference interpreter)."""
        processor = self.processors[query.document]
        compiled = self.compiled(query)
        if query.is_tuple:
            out: Counter = Counter()
            for component in compiled:
                out.update(processor.execute(component, engine="interpreter"))
            return out
        return Counter(processor.execute(compiled, engine="interpreter"))

    # -- execution ----------------------------------------------------------

    def execute(self, query_name: str, engine: str) -> Counter:
        """Run one query on one engine; returns the result multiset of
        ``pre`` ranks."""
        query = self.query(query_name)
        processor = self.processors[query.document]
        if engine in ("stacked-sql", "joingraph-sql", "interpreter"):
            compiled = self.compiled(query)
            if query.is_tuple:
                out: Counter = Counter()
                for component in compiled:
                    out.update(processor.execute(component, engine=engine))
                return out
            return Counter(processor.execute(compiled, engine=engine))
        if engine == "planner":
            compiled = self.compiled(query)
            planner = self.planners[query.document]
            components = compiled if query.is_tuple else [compiled]
            out = Counter()
            for component in components:
                flat = flatten_query(component.isolated_plan)
                out.update(planner.plan(flat).execute())
            return out
        if engine in ("purexml-whole", "purexml-segmented"):
            native = (
                self.native_whole[query.document]
                if engine == "purexml-whole"
                else self.native_segmented[query.document]
            )
            pre_map = self.pre_maps[query.document]
            return Counter(pre_map[id(n)] for n in native.run(query.text))
        raise ValueError(f"unknown engine {engine!r}")

    def run(self, query_name: str, engine: str) -> EngineRun:
        """Timed, verified execution.  The run happens under a private
        tracer, so the returned :class:`EngineRun` carries the
        per-phase time breakdown alongside the total wall-clock."""
        query = self.query(query_name)
        previous = get_tracer()
        tracer = set_tracer(Tracer())
        try:
            # warm the compile cache inside the trace but outside the
            # timed window: `seconds` stays pure execution time, while
            # `phases` gains the compile-side spans on cache-cold runs
            self.compiled(query)
            start = time.perf_counter()
            result = self.execute(query_name, engine)
            elapsed = time.perf_counter() - start
        finally:
            set_tracer(previous)
        reference = self.reference(query)
        return EngineRun(
            query=query_name,
            engine=engine,
            seconds=elapsed,
            result_size=sum(result.values()),
            correct=result == reference,
            phases=phase_profile(tracer),
        )

    def table9(
        self,
        queries: tuple[str, ...] = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"),
        engines: tuple[str, ...] = (
            "stacked-sql",
            "joingraph-sql",
            "purexml-whole",
            "purexml-segmented",
        ),
    ) -> list[EngineRun]:
        """The full Table 9 grid."""
        return [self.run(q, e) for q in queries for e in engines]


def format_table9(runs: list[EngineRun]) -> str:
    """Render Table 9-style rows (query x engine, seconds)."""
    engines = []
    for run in runs:
        if run.engine not in engines:
            engines.append(run.engine)
    queries = []
    for run in runs:
        if run.query not in queries:
            queries.append(run.query)
    by_key = {(r.query, r.engine): r for r in runs}
    header = f"{'Query':8}{'# items':>9}" + "".join(
        f"{e:>20}" for e in engines
    )
    lines = [header, "-" * len(header)]
    for query in queries:
        any_run = next(r for r in runs if r.query == query)
        cells = ""
        for engine in engines:
            run = by_key.get((query, engine))
            if run is None:
                cells += f"{'-':>20}"
            else:
                mark = "" if run.correct else " !"
                cells += f"{run.seconds:>18.3f}s{mark}"
        lines.append(f"{query:8}{any_run.result_size:>9}" + cells)
    return "\n".join(lines)
