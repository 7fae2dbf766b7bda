"""repro — *Let SQL Drive the XQuery Workhorse* (EDBT 2010) in Python.

A purely relational XQuery processor: the workhorse fragment of XQuery
compiles — via loop lifting — into table-algebra DAGs over a
pre/size/level encoding of XML, which **join graph isolation** rewrites
into single SELECT-DISTINCT-FROM-WHERE-ORDER BY blocks executed by an
off-the-shelf SQL back-end.

Quickstart::

    import repro

    with repro.connect() as session:
        session.load(open("auction.xml").read(), "auction.xml")
        result = session.execute('doc("auction.xml")//open_auction[bidder]')
        print(result.serialize())

Scale out across shards (``fn:collection`` fans out one compiled plan
across per-shard tables and merges in document order)::

    with repro.connect(shards=4) as session:
        for text, uri in corpus:
            session.load(text, uri)
        print(session.run('collection()//person[profile/@income > 80000]/name'))

The stable public surface is what this module re-exports (semantic
versioning promise in ``docs/api.md``): :func:`connect` /
:class:`Session`, the :class:`Result` / :class:`Serialized` return
types, the :class:`Engine` enum, the error hierarchy, and the
lower-level building blocks :class:`XQueryProcessor`,
:class:`ShardedService` (the one serving class, one shard or many),
:class:`Collection` and the infoset encoding.

Sub-packages
------------
``repro.xmltree``   XML parser / tree model / serializer
``repro.infoset``   tabular infoset encoding (Fig. 2) and navigation
``repro.xquery``    parser + XQuery Core normalization (Fig. 1)
``repro.algebra``   table algebra, interpreter, property inference
``repro.compiler``  loop-lifting compilation (Fig. 13, Fig. 3)
``repro.rewrite``   join graph isolation (Fig. 5 rules (1)–(19))
``repro.sql``       SQL generation + SQLite back-end (Figs. 8–9)
``repro.planner``   cost-based optimizer & physical engine (Figs. 10–11,
                    Table 6 index advisor, Table 7 operators)
``repro.purexml``   XSCAN/TurboXPath-style native baseline (Section 4.2)
``repro.workloads`` XMark / DBLP generators and the paper's query set
``repro.bench``     multi-engine benchmark harness (Table 9)
``repro.store``     sharded multi-document collection store
``repro.service``   serving layer: plan cache, pools, scatter-gather
"""

from repro.api import Session, connect
from repro.engines import Engine
from repro.errors import (
    AnalysisError,
    BackendUnavailable,
    CircuitOpenError,
    CodegenError,
    CompileError,
    DeadlineExceeded,
    DocumentError,
    PlanError,
    PoolRetiredError,
    QuotaExceeded,
    ReproError,
    RewriteError,
    SanitizerError,
    ServiceError,
    ServiceOverloaded,
    XMLParseError,
    XQuerySyntaxError,
    XQueryTypeError,
)
from repro.infoset.encoding import DocTable, DocumentStore, shred
from repro.pipeline import CompiledQuery, XQueryProcessor
from repro.result import Result, Serialized
from repro.service import (
    CacheStats,
    FrontDoor,
    ShardedService,
    TenantSpec,
    TierStats,
)
from repro.store import Collection

__version__ = "3.0.0"

__all__ = [
    "AnalysisError",
    "BackendUnavailable",
    "CacheStats",
    "CircuitOpenError",
    "CodegenError",
    "Collection",
    "CompileError",
    "CompiledQuery",
    "DeadlineExceeded",
    "DocTable",
    "DocumentError",
    "DocumentStore",
    "Engine",
    "FrontDoor",
    "PlanError",
    "PoolRetiredError",
    "QuotaExceeded",
    "ReproError",
    "Result",
    "RewriteError",
    "SanitizerError",
    "Serialized",
    "ServiceError",
    "ServiceOverloaded",
    "Session",
    "ShardedService",
    "TenantSpec",
    "TierStats",
    "XMLParseError",
    "XQueryProcessor",
    "XQuerySyntaxError",
    "XQueryTypeError",
    "__version__",
    "connect",
    "shred",
]
