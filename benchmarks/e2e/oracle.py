"""Expected answers that do not come from the compiler under test.

Three independent evaluators over the generated ``xmltree`` documents:

* path templates run on :class:`repro.purexml.PureXMLEngine` (native
  tree traversal, no algebra, no rewrite, no SQL);
* ``collection()`` templates are the per-document path answers
  concatenated in load order — what a serial processor over the
  combined table returns;
* the three value-join templates (X8, X9, Q2) are hand-written
  dict-join tree walks in nested-``for`` order, because the native
  engine re-traverses per binding and needs 14–16 s for X9/Q2 at
  factor 0.01;
* the ``//entity[p1][p2]…/tail`` patterns of ``template_mix`` are a
  hand-written filter over one ``//entity`` scan, because the native
  engine walks the whole document once per pattern and the pool has
  ~170 of them.

``check_smoke.py`` cross-checks both hand-written families against the
native engine on a small document.

An answer is the ordered item sequence (global ``pre`` ranks, via
``node_pre_map``) plus the serialized bytes (``xmltree.serialize`` of
the oracle's nodes); a request is verified against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.infoset.encoding import node_pre_map
from repro.purexml import PureXMLEngine
from repro.xmltree.model import DocumentNode, ElementNode, XMLNode
from repro.xmltree.serializer import serialize


@dataclass(frozen=True)
class Answer:
    items: tuple[int, ...]
    text: str

    def matches(self, items: Sequence[int], text: str) -> bool:
        return text == self.text and tuple(items) == self.items


def _elements(root: XMLNode, tag: str) -> list[ElementNode]:
    """All elements named ``tag`` below ``root`` in document order —
    ``//tag``."""
    return [
        node
        for node in root.iter_subtree()
        if isinstance(node, ElementNode) and node.tag == tag
    ]


def _children(nodes: Sequence[XMLNode], tag: str) -> list[ElementNode]:
    return [
        child
        for node in nodes
        for child in node.children
        if isinstance(child, ElementNode) and child.tag == tag
    ]


def _path(document: DocumentNode, *tags: str) -> list[ElementNode]:
    """``/tag1/tag2/…`` by child steps from the document node."""
    nodes: list[XMLNode] = [document]
    for tag in tags:
        nodes = _children(nodes, tag)
    return nodes  # type: ignore[return-value]


def _attr_values(element: ElementNode, child: str, attr: str) -> set[str]:
    """The values of ``element/child/@attr`` (a general comparison is
    existential over them)."""
    return {
        a.value
        for c in _children([element], child)
        for a in c.attributes
        if a.name == attr
    }


def _by_id(elements: Sequence[ElementNode]) -> dict[str, list[int]]:
    """``@id`` value -> positions (ascending = document order)."""
    index: dict[str, list[int]] = {}
    for position, element in enumerate(elements):
        index.setdefault(element.get_attribute("id"), []).append(position)
    return index


def _matches(index: dict[str, list[int]], values: set[str]) -> list[int]:
    """Positions whose ``@id`` equals any of ``values``, each once, in
    document order."""
    return sorted({p for value in values for p in index.get(value, ())})


def _purchases(document: DocumentNode):
    """Every person with the closed auctions they bought
    (``$a/buyer/@person = $p/@id``), both in document order."""
    auctions = _path(document, "site", "closed_auctions", "closed_auction")
    by_buyer: dict[str, list[ElementNode]] = {}
    for auction in auctions:
        for value in _attr_values(auction, "buyer", "person"):
            by_buyer.setdefault(value, []).append(auction)
    for person in _path(document, "site", "people", "person"):
        yield person, by_buyer.get(person.get_attribute("id"), ())


def join_x8(document: DocumentNode) -> list[XMLNode]:
    """for $p in person, $a in closed_auction
    where $a/buyer/@person = $p/@id return $p/name"""
    out: list[XMLNode] = []
    for person, auctions in _purchases(document):
        out.extend(_children([person], "name") * len(auctions))
    return out


def join_x9(document: DocumentNode) -> list[XMLNode]:
    """X8 with a third loop over European items joined on
    ``$a/itemref/@item = $i/@id``."""
    europe = _by_id(_path(document, "site", "regions", "europe", "item"))
    out: list[XMLNode] = []
    for person, auctions in _purchases(document):
        names = _children([person], "name")
        for auction in auctions:
            items = _matches(europe, _attr_values(auction, "itemref", "item"))
            out.extend(names * len(items))
    return out


def join_q2(document: DocumentNode) -> list[XMLNode]:
    """for $ca in //closed_auction[price > 500], $i in //item,
    $c in //category where $ca/itemref/@item = $i/@id and
    $i/incategory/@category = $c/@id return $c/name"""
    items = _elements(document, "item")
    categories = _elements(document, "category")
    item_index = _by_id(items)
    category_index = _by_id(categories)
    out: list[XMLNode] = []
    for auction in _elements(document, "closed_auction"):
        if not _exceeds(auction, "price", 500):
            continue
        for i in _matches(item_index, _attr_values(auction, "itemref", "item")):
            wanted = _attr_values(items[i], "incategory", "category")
            for c in _matches(category_index, wanted):
                out.extend(_children([categories[c]], "name"))
    return out


def _exceeds(element: ElementNode, child: str, threshold: float) -> bool:
    """``element[child > threshold]`` — existential over the children's
    typed values."""
    values = (_decimal(c) for c in _children([element], child))
    return any(v is not None and v > threshold for v in values)


def filter_entities(
    entities: Sequence[ElementNode], predicates: Sequence[str]
) -> list[ElementNode]:
    """``//entity[p1][p2]…`` given the ``//entity`` scan; a predicate is
    a child name (existence) or ``child > number``."""
    out: list[ElementNode] = []
    for element in entities:
        for predicate in predicates:
            child, _, threshold = predicate.partition(" > ")
            if threshold:
                if not _exceeds(element, child, float(threshold)):
                    break
            elif not _children([element], child):
                break
        else:
            out.append(element)
    return out


def _decimal(element: ElementNode) -> float | None:
    """The typed value the encoding exposes: elements whose subtree is
    at most one node cast their string value, others have none."""
    if element.subtree_node_count() > 1:
        return None
    try:
        return float(element.string_value().strip())
    except ValueError:
        return None


#: template name -> hand-written join over one document
JOINS: dict[str, Callable[[DocumentNode], list[XMLNode]]] = {
    "X8": join_x8,
    "X9": join_x9,
    "Q2": join_q2,
}


class Oracle:
    """Expected answers over a corpus of document trees in load order."""

    def __init__(self, trees: Sequence[DocumentNode]):
        self.trees = list(trees)
        self._engines = [PureXMLEngine({tree.uri: tree}) for tree in trees]
        self._pre: dict[int, int] = {}
        self._scans: dict[str, list[ElementNode]] = {}
        self._per_doc: dict[tuple[str, str], list[XMLNode]] = {}
        offset = 0
        for tree in trees:
            local = node_pre_map(tree, offset)
            self._pre.update(local)
            offset += len(local)

    def add(self, tree: DocumentNode) -> None:
        """Append a document loaded after construction (graft)."""
        offset = len(self._pre)
        self.trees.append(tree)
        self._engines.append(PureXMLEngine({tree.uri: tree}))
        self._pre.update(node_pre_map(tree, offset))

    def answer(
        self,
        query: str,
        join: str | None = None,
        pattern: tuple[str, Sequence[str], str] | None = None,
    ) -> Answer:
        """The expected answer of ``query``.  ``join`` names one of
        :data:`JOINS`, ``pattern`` is the ``(entity, predicates, tail)``
        form of a ``//entity[p]…/tail`` query (both evaluated on the
        first document); a ``collection()`` path is evaluated per document;
        anything else is a path over the first document."""
        if join is not None:
            nodes = JOINS[join](self.trees[0])
        elif pattern is not None:
            entity, predicates, tail = pattern
            if entity not in self._scans:
                self._scans[entity] = _elements(self.trees[0], entity)
            nodes = _children(filter_entities(self._scans[entity], predicates), tail)
        elif "collection()" in query:
            nodes = []
            for tree, engine in zip(self.trees, self._engines):
                key = (query, tree.uri)  # documents never change once added
                if key not in self._per_doc:
                    self._per_doc[key] = engine.run(
                        query.replace("collection()", f'doc("{tree.uri}")')
                    )
                nodes.extend(self._per_doc[key])
        else:
            nodes = self._engines[0].run(query)
        return Answer(
            items=tuple(self._pre[id(node)] for node in nodes),
            text="".join(serialize(node) for node in nodes),
        )
