"""Sharded-vs-serial differential sweep over generated queries.

Grammar v3's collection-source mode generates queries rooted at
``collection()``, ``collection("glob")`` subsets, and ``doc()``
references to corpus members.  Every query must produce the identical
item sequence and serialization through the sharded scatter-gather
session and through a bare serial processor over the combined store —
whether the sharded side scatters, routes, or falls back to serial is
an implementation detail the answer must not depend on.

``REPRO_API_DIFF_COUNT`` scales the sweep (default 100 queries).
"""

from __future__ import annotations

import os
import random

import pytest

import repro
from repro.errors import ReproError
from repro.pipeline import XQueryProcessor
from repro.store import Collection
from tests.genquery import GRAMMAR_VERSION, QueryGenerator, random_document

COUNT = int(os.environ.get("REPRO_API_DIFF_COUNT", "100"))
SHARDS = 3
URIS = tuple(f"c{i}.xml" for i in range(6))
ENGINES = ("joingraph-sql", "stacked-sql")
CORPUS_SEED = 2026
QUERY_SEED = 99


def _corpus() -> list[tuple[str, str]]:
    rng = random.Random(CORPUS_SEED)
    return [(random_document(rng), uri) for uri in URIS]


@pytest.fixture(scope="module")
def sharded():
    with repro.connect(shards=SHARDS, default_doc=URIS[0]) as session:
        for text, uri in _corpus():
            session.load(text, uri)
        yield session


@pytest.fixture(scope="module")
def serial():
    collection = Collection(1)
    for text, uri in _corpus():
        collection.load(text, uri)
    return XQueryProcessor(
        store=collection.combined_store(),
        default_doc=URIS[0],
        collections=collection.resolve,
    )


def test_generated_collection_queries_agree(sharded, serial):
    assert GRAMMAR_VERSION == 3
    generator = QueryGenerator(
        random.Random(QUERY_SEED), uri=URIS[0], collection=URIS
    )
    scattered = 0
    nonempty = 0
    for index in range(COUNT):
        query = generator.query()
        for engine in ENGINES:
            try:
                expected = serial.execute(query, engine)
            except ReproError as error:
                # a compile-side limitation must hit both stacks the
                # same way — the sharded path may not "fix" (or worsen)
                # what the serial pipeline rejects
                with pytest.raises(type(error)):
                    sharded.execute(query, engine)
                continue
            result = sharded.execute(query, engine)
            context = f"seed={QUERY_SEED} #{index} [{engine}]: {query}"
            assert list(result) == list(expected), context
            assert sharded.serialize(result) == serial.serialize(expected), (
                context
            )
            scattered += result.shards > 1
            nonempty += bool(result)
    # the sweep must actually exercise the fan-out and produce answers,
    # or the agreement above proves nothing
    assert scattered > 0
    assert nonempty > 0
