"""The paper's query set.

* Q1 (Section 2.4): filter open auctions that have bidders;
* Q2 (Section 4): three nested for loops with two value-based joins —
  auction categories in which expensive items (price > 500) sold;
* Q3–Q6 (Table 8, after [15]): XPath point/scan queries over XMark and
  DBLP.  Q6's non-standard ``return-tuple`` is expressed as a sequence
  return ``(…, …, …)`` handled by :meth:`XQueryProcessor.compile_tuple`
  (the paper substituted an SQL/XML XMLTABLE construct instead).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperQuery:
    """One query of the paper's experiment section."""

    name: str
    document: str  # 'xmark' or 'dblp'
    text: str
    description: str
    is_tuple: bool = False


PAPER_QUERIES: dict[str, PaperQuery] = {
    "Q1": PaperQuery(
        name="Q1",
        document="xmark",
        text='doc("auction.xml")/descendant::open_auction[bidder]',
        description="open auctions that have at least one bidder "
        "(paper Section 2.4, Figs. 4/7/8/10)",
    ),
    "Q2": PaperQuery(
        name="Q2",
        document="xmark",
        text="""
            let $a := doc("auction.xml")
            for $ca in $a//closed_auction[price > 500],
                $i in $a//item,
                $c in $a//category
            where $ca/itemref/@item = $i/@id
              and $i/incategory/@category = $c/@id
            return $c/name
        """,
        description="names of categories in which expensive items sold "
        "beyond 500 (paper Section 4, Figs. 9/11)",
    ),
    "Q3": PaperQuery(
        name="Q3",
        document="xmark",
        text='/site/people/person[@id = "person0"]/name/text()',
        description="point lookup of one person's name (Table 8, [15] 9a)",
    ),
    "Q4": PaperQuery(
        name="Q4",
        document="xmark",
        text="//closed_auction/price/text()",
        description="all closed-auction prices — raw path traversal "
        "(Table 8, [15] 9c)",
    ),
    "Q5": PaperQuery(
        name="Q5",
        document="dblp",
        text='/dblp/*[@key = "conf/vldb2001" and editor and title]/title',
        description="wildcard lookup of the VLDB 2001 proceedings title "
        "(Table 8, [15] 8c)",
    ),
    "Q6": PaperQuery(
        name="Q6",
        document="dblp",
        text="""
            for $thesis in /dblp/phdthesis[year < "1994" and author and title]
            return ($thesis/title, $thesis/author, $thesis/year)
        """,
        description="tuple query over pre-1994 PhD theses "
        "(Table 8, [15] 8g; return-tuple as a sequence return)",
        is_tuple=True,
    ),
}

#: the worked three-step path of Section 2.2
Q0 = (
    'doc("auction.xml")/descendant::bidder/child::*/child::text()'
)

#: Predicate-heavy ``collection()`` shapes, each ending in a location
#: step after the predicate so the result is document-ordered and the
#: query scatter-safe.  The soak's interactive and analytics tenants
#: (:data:`repro.workloads.soak.DEFAULT_TENANTS`) submit these texts.
COLLECTION_QUERIES: dict[str, str] = {
    "CX1": 'collection()//closed_auction[itemref/@item = "item3"]/price',
    "CX2": 'collection()//person[address/country = "United States"]/name',
    "CX3": 'collection()//open_auction[bidder/increase > 25]/seller',
    "CX4": 'collection()//closed_auction[price > 500]/itemref',
}
