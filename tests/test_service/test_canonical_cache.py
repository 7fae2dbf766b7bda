"""The canonical cache tier: lexical text normalization (exact hits
for comment/whitespace respellings), canonical-pattern aliases (hits
for semantically equivalent respellings), hit accounting, and the
identical-results contract against cold compiles — on both
one shard and on several.
"""

from __future__ import annotations

import random

from repro.obs import metrics_scope
from repro.pipeline import XQueryProcessor
from repro.service.scatter import ShardedService
from repro.store import Collection
from repro.xquery.text import normalize_query_text
from tests.genquery import random_document

XML = """\
<site>
  <a id="1"><b>1</b><c>2</c></a>
  <a id="2"><b>4</b></a>
  <a><b>7</b><c>7</c></a>
</site>
"""


def make_service() -> ShardedService:
    svc = ShardedService(Collection(1), workers=1)
    svc.load(XML, "site.xml")
    return svc


# -- lexical normalization --------------------------------------------------


def test_normalize_query_text_strips_comments_and_whitespace():
    spellings = [
        "//a[b][c]",
        "  //a[b][c]\n",
        "(: cached? :) //a[b][c]",
        "//a[b][c] (: :)",
    ]
    normalized = {normalize_query_text(text) for text in spellings}
    assert len(normalized) == 1
    # an interior comment conservatively becomes one space (comments
    # separate tokens), so it normalizes stably but not to the bare form
    assert normalize_query_text("//a[b] (: inner :) [c]") == "//a[b] [c]"


def test_comment_respelling_is_an_exact_hit():
    with make_service() as service:
        first = service.execute("//a[b][c]")
        assert service.execute("(: again :) //a[b][c]  ") == first
        stats = service.cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["canonical_hits"] == 0  # never reached the alias tier


# -- canonical-pattern aliases ----------------------------------------------


def test_equivalent_respelling_is_a_canonical_hit():
    with metrics_scope() as metrics:
        with make_service() as service:
            cold = XQueryProcessor(store=service.store, default_doc="site.xml")
            reference = cold.execute(cold.compile("//a[b][c]"))
            first = service.execute("//a[b][c]")
            # reordered predicates: different text, same canonical key
            second = service.execute("//a[c][b]")
            assert first == reference
            assert second == reference
            stats = service.cache.stats()
            assert stats["canonical_hits"] == 1
            assert stats["misses"] == 2  # both exact lookups missed
    counters = metrics.snapshot()["counters"]
    assert counters["service.cache.canonical_hit"] == 1


def test_canonical_hit_serves_the_same_artifact():
    with make_service() as service:
        first = service.compile("//a[b][c]")
        second = service.compile("//a[c][b]")
        assert second is first
        # the hit back-fills the exact key: the respelling now hits
        # the exact tier directly
        before = service.cache.stats()["canonical_hits"]
        assert service.compile("//a[c][b]") is first
        assert service.cache.stats()["canonical_hits"] == before


def test_explicit_axis_respelling_hits_canonically():
    with make_service() as service:
        first = service.execute("//a[b]/c")
        assert service.execute("//child::a[child::b]/child::c") == first
        assert service.cache.stats()["canonical_hits"] == 1


def test_inequivalent_queries_never_alias():
    with make_service() as service:
        narrowed = service.execute("//a[b][c]")
        broad = service.execute("//a[b]")
        assert narrowed != broad
        assert service.cache.stats()["canonical_hits"] == 0


def test_outside_fragment_queries_still_cache_exactly():
    with make_service() as service:
        query = "let $x := //a return $x/b"  # let-binding: no pattern
        first = service.execute(query)
        assert service.execute(query) == first
        stats = service.cache.stats()
        assert stats["hits"] == 1
        assert stats["canonical_hits"] == 0
        assert stats["size"] == 1  # no alias entry was planted


def test_store_reload_invalidates_canonical_aliases():
    with make_service() as service:
        service.execute("//a[b][c]")
        service.load(XML, "other.xml")
        assert service.cache.stats()["size"] == 0
        # post-reload the respelling is a cold compile, not a stale hit
        service.execute("//a[c][b]")
        assert service.cache.stats()["canonical_hits"] == 0


# -- sharded service --------------------------------------------------------


def _sharded() -> ShardedService:
    service = ShardedService(Collection(2), default_doc="m0.xml")
    service.parallel_fanout = False
    rng = random.Random(11)
    for index in range(4):
        service.load(random_document(rng), f"m{index}.xml", shard=index % 2)
    return service


def test_sharded_service_shares_the_canonical_tier():
    with _sharded() as service:
        first = service.execute("collection()//a[b][c]")
        assert service.execute("collection()//a[c][b]") == first
        assert service.execute("(: x :) collection()//a[b][c]") == first
        stats = service.cache.stats()
        assert stats["canonical_hits"] == 1
        # per-shard plan lookups also hit the exact tier, so only the
        # canonical counter is exact here
        assert stats["hits"] >= 1


def test_sharded_canonical_hit_matches_cold_compile():
    with _sharded() as service:
        reference = service.execute("collection()//a[b > 1]")
        with metrics_scope() as metrics:
            hit = service.execute("collection()//a[b > 1][b > 1]")
        assert hit == reference
        assert metrics.snapshot()["counters"]["service.cache.canonical_hit"] == 1
