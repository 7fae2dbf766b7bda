"""The one cache ladder, behind both service shells: the same tier
sequence — miss → exact → canonical back-fill → view → invalidated by
``load`` → single-flight — must read identically on
:class:`QueryService` and :class:`ShardedService`."""

from __future__ import annotations

import threading
import time

import pytest

from repro.pipeline import XQueryProcessor
from repro.service import QueryService, ShardedService
from repro.store import Collection

DOCS = [
    ('<r><a id="1"><b>1</b><c>1</c></a><a><b>2</b></a></r>', "u0.xml"),
    ('<r><a id="2"><b>3</b><c>3</c></a><a><c>4</c></a></r>', "u1.xml"),
    ('<r><a><b>5</b></a><d><a id="3"><b>6</b><c>6</c></a></d></r>', "u2.xml"),
]
LATE = ('<r><a id="4"><b>9</b><c>9</c></a></r>', "u3.xml")


class Shell:
    """One service shape plus the query prefix that spans its corpus."""

    def __init__(self, shape: str):
        if shape == "unsharded":
            self.service = QueryService(workers=2, view_admit_after=2)
            self.source = 'doc("u0.xml")'
        else:
            self.service = ShardedService(
                Collection(2), workers_per_shard=1, view_admit_after=2
            )
            self.source = 'collection("*")'
        for text, uri in DOCS:
            self.service.load(text, uri)

    def q(self, path: str) -> str:
        return self.source + path

    def outcome(self) -> str:
        return self.service.flight.records()[-1].cache

    def reference(self, query: str) -> list[int]:
        """A cold compile on a bare processor over the same content."""
        if isinstance(self.service, ShardedService):
            collection = self.service.collection
            bare = XQueryProcessor(
                store=collection.combined_store(),
                default_doc=DOCS[0][1],
                collections=collection.resolve,
            )
        else:
            bare = XQueryProcessor(
                store=self.service.store, default_doc=DOCS[0][1]
            )
        return list(bare.execute(query, engine="joingraph-sql"))


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
