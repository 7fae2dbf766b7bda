"""Differential property test for the view tier: every view-tier
answer must be **byte-identical** — same item ranks, same serialized
XML — to the full compile + execution it replaced.

Each example seeds a random document and a ``(broad, narrow)``
containment pair from the generator (narrow = broad plus one extra
conjunctive predicate, so ``narrow ⊆ broad`` by construction).  The
broad query is executed past the admission threshold so its result
materializes as a view; if the narrow query is then served from the
view tier (the containment analyzer must still *prove* the
containment — NOT_SHOWN pairs simply fall back to a cold compile,
which is also checked), the answer is compared against a bare
:class:`XQueryProcessor` that recompiles from scratch.

Sample size is environment-tunable: CI's bench-smoke job sets
``REPRO_VIEW_COUNT``; the local default keeps the sweep quick.
"""

from __future__ import annotations

import os
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline import XQueryProcessor
from repro.service import ShardedService
from repro.store import Collection
from tests.genquery import DEFAULT_URI, QueryGenerator, random_document

#: CI sets this higher; the local default keeps the sweep in seconds
EXAMPLES = int(os.environ.get("REPRO_VIEW_COUNT", "40"))


def run_view_differential(seed: int) -> None:
    rng = random.Random(seed)
    xml = random_document(rng)
    broad, narrow = QueryGenerator(rng).contained_pair()

    collection = Collection(1)
    collection.load(xml, DEFAULT_URI)
    bare = XQueryProcessor(
        store=collection.combined_store(), default_doc=DEFAULT_URI
    )
    with ShardedService(
        collection, default_doc=DEFAULT_URI, workers=1
    ) as service:
        service.views.admit_after = 1
        service.execute(broad)  # admits the view on the first execution
        served = service.execute(narrow)
        outcome = service.flight.records()[-1].cache

    expected = bare.execute(narrow, engine="joingraph-sql")
    assert list(served) == list(expected), (
        f"view tier diverges on seed {seed}: {narrow!r} "
        f"(cache outcome {outcome!r})"
    )
    assert bare.serialize(served) == bare.serialize(expected), (
        f"view-tier serialization diverges on seed {seed}: {narrow!r}"
    )


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 1_000_000))
def test_view_answers_are_byte_identical(seed: int):
    run_view_differential(seed)


def test_known_seeds_exercise_the_view_tier():
    """Pinned seeds where the pair provably lands in the fragment and
    the narrow query is actually served from the view tier — so the
    sweep never silently degrades to cold compiles everywhere."""
    view_served = 0
    for seed in range(30):
        rng = random.Random(seed)
        xml = random_document(rng)
        broad, narrow = QueryGenerator(rng).contained_pair()
        collection = Collection(1)
        collection.load(xml, DEFAULT_URI)
        with ShardedService(
            collection, default_doc=DEFAULT_URI, workers=1
        ) as service:
            service.views.admit_after = 1
            service.execute(broad)
            service.execute(narrow)
            if service.flight.records()[-1].cache == "view":
                view_served += 1
    assert view_served >= 10, (
        f"only {view_served}/30 pinned pairs were view-served — the "
        "generator or the admission path regressed"
    )
