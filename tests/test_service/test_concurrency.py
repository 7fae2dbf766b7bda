"""Concurrency stress: many threads, many queries, no cross-talk.

The differential-consistency bar of the whole repository, applied to
the service layer: whatever mix of threads and cached plans serves a
query, the result must equal the reference interpreter's.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.pipeline import XQueryProcessor
from repro.service import ShardedService
from repro.store import Collection
from repro.workloads import XMARK_QUERIES, XMarkConfig, generate_xmark

THREADS = 8
QUERIES_PER_THREAD = 56
QUERY_MIX = ("X1", "X5", "X13", "X17", "X19")


def _xmark_service(workers: int = THREADS) -> ShardedService:
    collection = Collection(1)
    collection.load_tree(generate_xmark(XMarkConfig(factor=0.002)))
    return ShardedService(collection, default_doc="auction.xml", workers=workers)


def _interpret(service: ShardedService, text: str) -> list[int]:
    """The reference answer: a bare processor on the reference
    interpreter over the same documents, outside the service."""
    bare = XQueryProcessor(store=service.store, default_doc="auction.xml")
    return bare.execute(text, engine="interpreter")


def test_stress_no_cross_talk_and_interpreter_consistency():
    with _xmark_service() as service:
        texts = {name: XMARK_QUERIES[name].text for name in QUERY_MIX}
        # ground truth, computed single-threaded before the storm
        reference = {name: _interpret(service, text) for name, text in texts.items()}
        for text in texts.values():
            service.compile(text)  # each artifact compiles once, up front
        mismatches: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(seed: int) -> None:
            barrier.wait()  # maximal overlap
            names = list(texts)
            for i in range(QUERIES_PER_THREAD):
                name = names[(seed + i) % len(names)]
                engine = (
                    "joingraph-sql" if (seed + i) % 3 else "stacked-sql"
                )
                items = service.execute(texts[name], engine=engine)
                if items != reference[name]:
                    mismatches.append(f"{name}/{engine} (thread {seed})")

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches, mismatches[:5]
        stats = service.cache.stats()
        assert stats["hits"] + stats["misses"] >= THREADS * QUERIES_PER_THREAD
        # every distinct (query, engine-independent) artifact compiled once
        assert stats["misses"] == len(QUERY_MIX)


def test_run_many_stress_matches_interpreter():
    with _xmark_service(workers=THREADS) as service:
        text = XMARK_QUERIES["X8"].text
        reference = _interpret(service, text)
        results = service.run_many([text] * 64)
        assert all(items == reference for items in results)


def test_concurrent_submissions_from_many_client_threads():
    """Clients hammering ``submit`` from their own threads (two layers
    of concurrency: client threads + the service's worker pool)."""
    with _xmark_service(workers=4) as service:
        texts = [XMARK_QUERIES[name].text for name in QUERY_MIX]
        reference = [_interpret(service, t) for t in texts]

        def client(seed: int) -> bool:
            futures = [
                service.submit(texts[(seed + i) % len(texts)])
                for i in range(16)
            ]
            return all(
                future.result() == reference[(seed + i) % len(texts)]
                for i, future in enumerate(futures)
            )

        with ThreadPoolExecutor(max_workers=6) as clients:
            assert all(clients.map(client, range(6)))


def test_load_during_traffic_is_graceful():
    """A document load mid-traffic retires the pool; queries already
    in flight drain against the old snapshot, later ones see the new
    version — and nothing crashes or cross-talks."""
    with _xmark_service(workers=4) as service:
        text = XMARK_QUERIES["X13"].text
        reference = _interpret(service, text)
        futures = [service.submit(text) for _ in range(32)]
        service.load("<extra><item/></extra>", "extra.xml")
        futures += [service.submit(text) for _ in range(32)]
        for future in futures:
            assert future.result() == reference
        # the artifact was recompiled for the new store version
        assert service.cache.stats()["misses"] >= 2
