"""SQL linter: clean on everything the generator emits, and each
``JGI04x`` scope/clause rule fires on a hand-broken block."""

from __future__ import annotations

import pytest

from repro.analysis import lint_sql
from repro.compiler import compile_core
from repro.rewrite import isolate
from repro.sql import generate_join_graph_sql
from repro.sql.codegen import SQLQuery
from repro.xquery import normalize, parse_xquery


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


def sql_for(fig2_store, query: str) -> SQLQuery:
    core = normalize(parse_xquery(query), default_doc="auction.xml")
    isolated, _ = isolate(compile_core(core, fig2_store))
    return generate_join_graph_sql(isolated)


GENERATED = [
    'doc("auction.xml")//bidder/increase',
    'doc("auction.xml")/open_auction/bidder[time]/increase',
    'for $b in doc("auction.xml")//bidder return $b/time',
    'doc("auction.xml")//bidder/ancestor-or-self::*',
]


@pytest.mark.parametrize("query", GENERATED)
def test_generated_sql_lints_clean(fig2_store, query):
    assert lint_sql(sql_for(fig2_store, query)) == []


def block(text: str, **overrides) -> SQLQuery:
    defaults = dict(
        text=text,
        select_aliases=["item"],
        item_alias="item",
        doc_instances=1,
        distinct=False,
        order_by=[],
    )
    defaults.update(overrides)
    return SQLQuery(**defaults)


def test_unbound_alias_flagged():
    q = block(
        "SELECT d1.pre AS item\nFROM doc AS d1\nWHERE d2.kind = 1"
    )
    assert "JGI040" in codes(lint_sql(q))


def test_unknown_column_flagged():
    q = block("SELECT d1.shoe_size AS item\nFROM doc AS d1")
    assert "JGI041" in codes(lint_sql(q))


def test_duplicate_from_alias_flagged():
    q = block(
        "SELECT d1.pre AS item\nFROM doc AS d1, doc AS d1",
        doc_instances=2,
    )
    assert "JGI042" in codes(lint_sql(q))


def test_cross_join_binds_its_alias():
    sql = (
        "SELECT d1.pre AS item\nFROM doc AS d1 CROSS JOIN doc AS d2\n"
        "WHERE d2.kind = 0\n  AND d2.pre < d1.pre"
    )
    assert lint_sql(block(sql, doc_instances=2)) == []
    unbound = sql.replace("CROSS JOIN doc AS d2", "CROSS JOIN doc AS d3")
    assert "JGI040" in codes(lint_sql(block(unbound, doc_instances=2)))
    twice = sql.replace("doc AS d1 CROSS", "doc AS d1, doc AS d2 CROSS")
    assert "JGI042" in codes(lint_sql(block(twice, doc_instances=3)))


def test_unused_alias_is_a_warning():
    q = block(
        "SELECT d1.pre AS item\nFROM doc AS d1, doc AS d2",
        doc_instances=2,
    )
    diagnostics = lint_sql(q)
    assert codes(diagnostics) == ["JGI043"]
    assert all(d.severity == "warning" for d in diagnostics)


def test_distinct_order_term_must_be_selected():
    q = block(
        "SELECT DISTINCT d1.pre AS item\nFROM doc AS d1\nORDER BY +d1.size",
        distinct=True,
        order_by=["d1.size"],
    )
    assert "JGI044" in codes(lint_sql(q))


def test_distinct_order_term_in_select_is_fine():
    q = block(
        "SELECT DISTINCT d1.pre AS item, d1.size AS s1\n"
        "FROM doc AS d1\nORDER BY +d1.size",
        select_aliases=["item", "s1"],
        distinct=True,
        order_by=["d1.size"],
    )
    assert lint_sql(q) == []


def test_select_alias_clash_flagged():
    q = block(
        "SELECT d1.pre AS item, d1.size AS item\nFROM doc AS d1",
        select_aliases=["item", "item"],
    )
    assert "JGI045" in codes(lint_sql(q))


def test_item_alias_must_be_selected():
    q = block(
        "SELECT d1.pre AS thing\nFROM doc AS d1",
        select_aliases=["thing"],
        item_alias="item",
    )
    assert "JGI046" in codes(lint_sql(q))


def test_malformed_block_flagged():
    q = block("WITH t AS (SELECT 1)\nSELECT * FROM t")
    assert codes(lint_sql(q)) == ["JGI047"]
