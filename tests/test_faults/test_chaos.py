"""A mid-storm reload test proving the service never serves stale
results.

The fault storm's own gates (correct answers, typed errors, the
three-way fault ledger) are tested in
``tests/test_workloads/test_soak.py``; CI runs the full-size storm via
``repro serve-bench``.
"""

from __future__ import annotations

import threading
from random import Random

from repro.errors import ServiceError
from repro.faults import FaultPlan, injection
from repro.pipeline import XQueryProcessor
from repro.service import ShardedService
from repro.store import Collection


def test_no_stale_results_across_midstorm_reload():
    """Load a new document *while* 8 threads hammer the service under
    fault injection.  Queries against the new document must return
    either the pre-load answer (empty: the URI is unknown) or the
    complete post-load answer — never a partial or stale snapshot —
    and each thread's view must flip monotonically from empty to full.
    """
    extra_xml = "<catalog>" + "".join(
        f"<item><name>n{i}</name></item>" for i in range(10)
    ) + "</catalog>"
    extra_query = 'doc("extra.xml")//item/name'
    base_query = 'doc("auction.xml")//bidder/increase'

    service = ShardedService(
        Collection(1), workers=8, deadline_s=1.5, breaker_threshold=64
    )
    service.load(
        "<open_auction><bidder><increase>4.20</increase></bidder>"
        "</open_auction>",
        "auction.xml",
    )
    # the references: a bare processor on the reference interpreter
    # over the same store, outside the service
    def reference(query: str) -> list[int]:
        bare = XQueryProcessor(store=service.store)
        return bare.execute(query, engine="interpreter")

    base_expected = reference(base_query)
    assert base_expected != []

    threads = 8
    per_thread = 30
    errors: list[str] = []
    extra_results: dict[int, list[list]] = {n: [] for n in range(threads)}
    results_lock = threading.Lock()
    barrier = threading.Barrier(threads + 1)

    def worker(index: int) -> None:
        rng = Random(1000 + index)
        barrier.wait()
        for _ in range(per_thread):
            query = extra_query if rng.random() < 0.5 else base_query
            engine = rng.choice(("joingraph-sql", "stacked-sql"))
            try:
                items = service.execute(query, engine=engine)
            except ServiceError:
                continue  # clean typed error: allowed under chaos
            except Exception as error:  # noqa: BLE001
                with results_lock:
                    errors.append(f"{type(error).__name__}: {error}")
                continue
            if query == base_query:
                if items != base_expected:
                    with results_lock:
                        errors.append(f"wrong base answer: {items!r}")
            else:
                with results_lock:
                    extra_results[index].append(items)

    plan = FaultPlan.uniform(0.12, seed=3, stall_ms=10_000.0)
    with injection(plan):
        pool = [
            threading.Thread(target=worker, args=(n,)) for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        barrier.wait()
        # the mid-storm reload: invalidates the compiled-plan cache and
        # retires the backend pool while queries are in flight
        service.load(extra_xml, "extra.xml")
        for thread in pool:
            thread.join()

    # the canonical post-load answer, computed after the storm
    extra_expected = reference(extra_query)
    assert len(extra_expected) == 10
    service.close()

    assert errors == []
    saw_full = False
    for index in range(threads):
        seen_nonempty = False
        for items in extra_results[index]:
            # every answer is the empty pre-load one or the full
            # post-load one — a stale pool/cache would show up as an
            # empty (or partial) answer after a full one
            assert items in ([], extra_expected), f"stale/partial: {items!r}"
            if items:
                seen_nonempty = True
                saw_full = True
            else:
                assert not seen_nonempty, (
                    f"thread {index} regressed to the pre-load answer "
                    "after observing the reloaded document"
                )
    assert saw_full  # the scenario actually exercised the post-load path
