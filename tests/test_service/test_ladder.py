"""The one cache ladder: the same tier sequence — miss → exact →
canonical back-fill → view → invalidated by ``load`` → single-flight —
must read identically on one shard (``doc()`` queries) and on two
(``collection()`` queries), on hand-written documents and on the XMark
families a templated client narrows."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import get_metrics
from repro.pipeline import XQueryProcessor
from repro.service import ShardedService
from repro.store import Collection
from repro.workloads import CorpusConfig, xmark_corpus
from repro.xmltree.serializer import serialize

DOCS = [
    ('<r><a id="1"><b>1</b><c>1</c></a><a><b>2</b></a></r>', "u0.xml"),
    ('<r><a id="2"><b>3</b><c>3</c></a><a><c>4</c></a></r>', "u1.xml"),
    ('<r><a><b>5</b></a><d><a id="3"><b>6</b><c>6</c></a></d></r>', "u2.xml"),
]
LATE = ('<r><a id="4"><b>9</b><c>9</c></a></r>', "u3.xml")

#: a hot listing and two strictly contained narrowings of it, per
#: XMark entity: the base's pattern plus one more branch predicate
VIEW_FAMILIES = [
    ("//item[location]", ("//item[location][quantity]", "//item[location][payment]")),
    (
        "//open_auction[initial]",
        ("//open_auction[initial][bidder]", "//open_auction[initial][current]"),
    ),
    ("//person[name]", ("//person[name][emailaddress]", "//person[name][watches]")),
]


class Shell:
    """One service shape plus the query prefix that spans its corpus."""

    def __init__(self, shape: str, docs=DOCS):
        self.default_doc = docs[0][1]
        if shape == "unsharded":
            collection = Collection(1)
            self.source = f'doc("{self.default_doc}")'
        else:
            collection = Collection(2)
            self.source = 'collection("*")'
        self.service = ShardedService(collection, workers=2)
        self.service.views.admit_after = 2
        for text, uri in docs:
            self.service.load(text, uri)

    def q(self, path: str) -> str:
        return self.source + path

    def outcome(self) -> str:
        return self.service.flight.records()[-1].cache

    def bare(self) -> XQueryProcessor:
        """A cache-less processor over the same content."""
        collection = self.service.collection
        return XQueryProcessor(
            store=collection.combined_store(),
            default_doc=self.default_doc,
            collections=collection.resolve,
        )

    def reference(self, query: str) -> list[int]:
        """A cold compile on a bare processor over the same content."""
        return list(self.bare().execute(query, engine="joingraph-sql"))


@pytest.fixture(params=["unsharded", "sharded"])
def shell(request):
    shell = Shell(request.param)
    with shell.service:
        yield shell


def test_tier_sequence(shell):
    service = shell.service
    narrow, respelled = shell.q("//a[b][c]"), shell.q("//a[c][b]")

    # miss, then exact — comment/whitespace respellings included
    first = service.execute(narrow)
    assert shell.outcome() == "miss"
    assert list(first) == shell.reference(narrow)
    assert service.execute(narrow) == first
    assert shell.outcome() == "exact"
    assert service.execute(f"(: again :)  {narrow} ") == first
    assert shell.outcome() == "exact"

    # an equivalent spelling shares the plan through its canonical key,
    # and the hit back-fills the exact key
    assert service.execute(respelled) == first
    assert shell.outcome() == "canonical"
    assert service.execute(respelled) == first
    assert shell.outcome() == "exact"
    assert service.compile(respelled) is service.compile(narrow)
    assert service.cache_stats().canonical.hits == 1

    # a hot pattern materializes; a strictly contained query is
    # answered from its rows, identical to a cold compile
    broad, contained = shell.q("//a[b]"), shell.q("//a[b][@id]")
    service.execute(broad)
    service.execute(broad)
    assert len(service.views) == 2  # the narrow pattern got hot above
    served = service.execute(contained)
    assert shell.outcome() == "view"
    assert list(served) == shell.reference(contained)
    assert service.serialize(served) == service.serialize(
        shell.reference(contained)
    )
    assert service.cache_stats().view.hits == 1

    # a load invalidates every tier: no stale plan, no stale view
    service.load(*LATE)
    assert service.cache.stats()["size"] == 0
    assert len(service.views) == 0
    assert service.views.invalidated == 2
    for query in (contained, respelled):
        assert list(service.execute(query)) == shell.reference(query)
        assert shell.outcome() == "miss"


@pytest.mark.parametrize("shape", ["unsharded", "sharded"])
def test_contained_variants_are_view_hits_without_a_compile(shape):
    """Once a family's base is hot, every narrowing of it is answered
    from the view's rows: no compile, and the bytes a bare processor
    would have produced."""
    corpus = xmark_corpus(CorpusConfig(documents=2, factor=0.002))
    shell = Shell(shape, [(serialize(tree), tree.uri) for tree in corpus])
    with shell.service as service:
        for base, _ in VIEW_FAMILIES:
            for _ in range(2):  # the second execution admits the view
                service.execute(shell.q(base))
        assert len(service.views) == service.views.admitted == len(VIEW_FAMILIES)

        compiles = get_metrics().counters["pipeline.compiles"]
        served = {}
        for _, variants in VIEW_FAMILIES:
            for variant in variants:
                served[variant] = service.execute(shell.q(variant))
                assert shell.outcome() == "view", variant
        assert get_metrics().counters["pipeline.compiles"] == compiles
        assert service.cache_stats().view.hits == len(served)

        bare = shell.bare()
        for variant, items in served.items():
            expected = bare.execute(shell.q(variant), engine="joingraph-sql")
            assert list(items) == list(expected), variant
            assert service.serialize(items) == bare.serialize(expected), variant


def test_cold_compile_is_single_flight(shell):
    """Two threads missing the same key compile it once: the second
    finds the first's artifact when it gets the lock."""
    service = shell.service
    query = shell.q("//a[c]")
    compiles: list[str] = []
    compiler = service._ladder.compiler
    compile_cold = compiler.compile

    def counting(text):
        compiles.append(text)
        return compile_cold(text)

    compiler.compile = counting
    misses = service.cache.stats()["misses"]
    results: list[list[int]] = []
    threads = [
        threading.Thread(target=lambda: results.append(list(service.execute(query))))
        for _ in range(2)
    ]
    with service._ladder.lock:
        for thread in threads:
            thread.start()
        # both have missed the exact tier and now wait for the lock
        while service.cache.stats()["misses"] < misses + 2:
            time.sleep(0.001)
    for thread in threads:
        thread.join()
    assert len(compiles) == 1
    assert results[0] == results[1] == shell.reference(query)
    outcomes = sorted(r.cache for r in service.flight.records()[-2:])
    assert outcomes == ["miss", "single-flight-wait"]
