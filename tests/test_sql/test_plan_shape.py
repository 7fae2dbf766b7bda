"""SQLite's plans for the serving SQL of the 12 catalog templates:
no automatic index is ever built, and no document root (an alias
constrained to ``kind = 0``) drives the join as the outermost loop."""

from __future__ import annotations

import re

import pytest

from repro.infoset import DocumentStore
from repro.pipeline import XQueryProcessor
from repro.workloads import XMarkConfig, generate_xmark
from tests.test_rewrite.test_golden_isolation import CATALOG

_LOOP = re.compile(r"^(?:SCAN|SEARCH) (d\d+)\b")
_ROOT = re.compile(r"\b(d\d+)\.kind = 0\b")


def _processor(documents: int) -> XQueryProcessor:
    store = DocumentStore()
    for i in range(documents):
        uri = "auction.xml" if i == 0 else f"auction{i}.xml"
        store.load_tree(generate_xmark(XMarkConfig(factor=0.002, seed=i), uri=uri))
    return XQueryProcessor(store=store, default_doc="auction.xml")


@pytest.fixture(scope="module", params=[1, 2], ids=["one-doc", "two-docs"])
def plans(request) -> dict[str, tuple[str, list[str]]]:
    """template -> (serving SQL, EXPLAIN QUERY PLAN rows)."""
    processor = _processor(request.param)
    out = {}
    for name, text in CATALOG.items():
        sql = processor.compile(text).joingraph_sql
        out[name] = (sql.text, processor.backend.explain(sql))
    return out


@pytest.mark.parametrize("template", sorted(CATALOG))
def test_no_automatic_index(plans, template):
    _, rows = plans[template]
    assert not [row for row in rows if "AUTOMATIC" in row], rows


@pytest.mark.parametrize("template", sorted(CATALOG))
def test_document_root_is_not_the_outermost_loop(plans, template):
    sql, rows = plans[template]
    roots = set(_ROOT.findall(sql))
    loops = [m.group(1) for m in map(_LOOP.match, rows) if m]
    assert roots and loops, (sql, rows)
    assert loops[0] not in roots, rows
