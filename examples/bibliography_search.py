#!/usr/bin/env python3
"""Bibliography search over a DBLP-like document — the paper's Table 8
workload: point lookups via @key, wildcard element tests, and the
tuple query Q6.

Also contrasts the relational engine against the native pureXML-style
processor in both whole-document and segmented setups.

Run:  python examples/bibliography_search.py
"""

import sys
import time

import repro
from repro.purexml import PureXMLEngine
from repro.workloads import DBLPConfig, generate_dblp
from repro.xmltree.serializer import serialize

sys.setrecursionlimit(100_000)

VLDB_TITLE = '/dblp/*[@key = "conf/vldb2001" and editor and title]/title'
EARLY_THESES = (
    'for $t in /dblp/phdthesis[year < "1994" and author and title] '
    "return ($t/title, $t/author, $t/year)"
)
PROLIFIC = '/dblp/inproceedings[year = "2001"]/title'


def main() -> None:
    document = generate_dblp(DBLPConfig(factor=0.002))
    with repro.connect(default_doc="dblp.xml") as session:
        session.load(serialize(document), "dblp.xml")
        print(f"bibliography: {len(session.service.store.table)} nodes")

        # -- Q5: wildcard + key lookup -------------------------------
        title = session.execute(VLDB_TITLE)
        print("\nVLDB 2001 title:", title.serialize())

        # -- Q6: the tuple query ("return-tuple" of [15]) ------------
        # tuple compilation is a pipeline-layer feature: a processor
        # over the session's store
        processor = repro.XQueryProcessor(
            store=session.service.store, default_doc="dblp.xml"
        )
        components = processor.compile_tuple(EARLY_THESES)
        columns = [processor.execute(c) for c in components]
        print(f"\npre-1994 PhD theses: {len(columns[0])}")
        for t, a, y in list(zip(*columns))[:3]:
            print(" ", session.serialize([t]), "|", session.serialize([a]),
                  "|", session.serialize([y]))

        # -- papers from 2001 ----------------------------------------
        papers = session.execute(PROLIFIC)
        print(f"\n2001 conference papers: {len(papers)}")

        # -- relational vs native (paper Section 4.2) ----------------
        whole = PureXMLEngine({"dblp.xml": document})
        segmented = PureXMLEngine(
            {"dblp.xml": document},
            segmented=True,
            cut_depth=1,
            patterns=("/dblp/*/@key",),
        )
        print(f"\nsegmented store: {segmented.store.segment_count} segments")
        for label, engine in (("whole", whole), ("segmented", segmented)):
            start = time.perf_counter()
            nodes = engine.run(VLDB_TITLE)
            elapsed = time.perf_counter() - start
            print(f"pureXML {label:9}: {len(nodes)} node(s) "
                  f"in {elapsed * 1000:.2f} ms")
        session.execute(VLDB_TITLE)  # compiled-plan cache is warm now
        start = time.perf_counter()
        session.execute(VLDB_TITLE)
        print(f"join graph SQL  : in {(time.perf_counter() - start) * 1000:.2f} ms")


if __name__ == "__main__":
    main()
