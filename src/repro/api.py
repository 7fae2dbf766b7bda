"""The stable public facade: ``repro.connect()`` and :class:`Session`.

One entry point regardless of deployment shape::

    import repro

    with repro.connect() as session:                 # single backend
        session.load(xml_text, "auction.xml")
        result = session.execute('doc("auction.xml")//item')
        print(result.serialize())

    with repro.connect(shards=4) as session:         # sharded scatter-gather
        for text, uri in corpus:
            session.load(text, uri)
        result = session.execute('collection()//person[profile]/name')
        print(result.shards, result.engine)

Every shard count serves through the one :class:`ShardedService`
(``shards=1`` is a one-shard :class:`~repro.store.Collection`): the
compiled-plan cache, the backend pools and the resilience stack, with
scatter-gather across shard tables when there are several.  Callers
never branch on the deployment shape: the :class:`Session` surface and
the :class:`repro.Result` objects are the same for every shard count.

Everything here is covered by the semantic-versioning promise stated
in ``docs/api.md``; the layers underneath (``repro.pipeline``,
``repro.service``, ``repro.store``) remain importable but move faster.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.engines import Engine
from repro.result import Result, Serialized
from repro.service.cache import CacheStats
from repro.service.scatter import ShardedService
from repro.store import Collection

__all__ = ["Session", "connect"]


class Session:
    """A connected query session over one or many document shards.

    Construct via :func:`repro.connect`.  The session owns its serving
    stack (plan cache, backend pools, worker threads) — use it as a
    context manager or call :meth:`close` when done.
    """

    def __init__(self, service: ShardedService):
        self._service = service

    # -- introspection -------------------------------------------------

    @property
    def shards(self) -> int:
        """How many shard partitions this session serves (1 for a
        single-backend session)."""
        return self._service.shards

    @property
    def documents(self) -> list[str]:
        """URIs of all loaded documents, in load order."""
        return self._service.documents

    @property
    def service(self) -> ShardedService:
        """The underlying serving layer (advanced use: resilience
        knobs, fault accounting, shard placement)."""
        return self._service

    # -- documents -----------------------------------------------------

    def load(self, xml_text: str, uri: str) -> "Session":
        """Load one XML document (returns the session for chaining).
        Compiled plans against the old content are invalidated."""
        self._service.load(xml_text, uri)
        return self

    # -- queries -------------------------------------------------------

    def execute(
        self,
        query: str,
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> Result:
        """Evaluate an XQuery; returns a :class:`repro.Result` — a
        list of result items carrying ``engine``, ``timings``,
        ``shards`` and a :meth:`~repro.Result.serialize` method."""
        return self._service.execute(query, engine, deadline_s=deadline_s)

    def run(
        self, query: str, engine: Engine | str = Engine.JOINGRAPH_SQL
    ) -> Serialized:
        """Evaluate and serialize in one step; returns a
        :class:`repro.Serialized` (an XML ``str`` whose ``.result``
        attribute holds the underlying :class:`repro.Result`)."""
        return self._service.run(query, engine=engine)

    def run_many(
        self,
        queries: Iterable[str],
        engine: Engine | str = Engine.JOINGRAPH_SQL,
        *,
        deadline_s: float | None = None,
    ) -> list[Result]:
        """Evaluate a batch; results in submission order."""
        return self._service.run_many(
            queries, engine=engine, deadline_s=deadline_s
        )

    def serialize(self, items: Sequence[Any]) -> str:
        """Serialize a result item sequence back to XML text."""
        return self._service.serialize(items)

    # -- lifecycle -----------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """The typed cache statistics across all three cache tiers
        (exact / canonical / view) — the stable structured form of
        ``stats()["cache"]``.  See ``docs/caching.md``."""
        return self._service.cache_stats()

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the serving stack.

        ``stats()["cache"]`` carries the tiered
        :class:`repro.CacheStats` shape, and ``stats()["views"]`` the
        materialized-view tier's counters."""
        return self._service.stats()

    def close(self) -> None:
        """Release worker threads and backend connections."""
        self._service.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<repro.Session shards={self.shards} "
            f"documents={len(self.documents)}>"
        )


def connect(
    shards: int = 1,
    *,
    default_doc: str | None = None,
    serialize_step: bool = False,
    workers: int = 4,
    deadline_s: float | None = None,
    flight: bool = True,
    slow_threshold_s: float = 0.25,
) -> Session:
    """Open a query :class:`Session`.

    Parameters
    ----------
    shards:
        ``1`` (default) serves all documents from one backend; ``N > 1``
        partitions documents across N shard tables (by URI hash) and
        fans compiled plans out across them at query time.
    default_doc:
        URI that bare paths (``//item``) resolve against; defaults to
        the first loaded document.
    serialize_step:
        Compile the Section 4 serialization step into plans.
    workers:
        Worker threads for :meth:`Session.run_many`; each shard's
        dispatch width is ``max(1, workers // shards)``.
    deadline_s:
        The default per-query time budget (see ``docs/robustness.md``).
    flight, slow_threshold_s:
        The query flight recorder (on by default): one structured
        record per query plus a slow-query log promoting queries over
        ``slow_threshold_s`` seconds — reachable via
        ``session.service.flight``, summarized (with latency
        percentiles) by :meth:`Session.stats`.  See
        ``docs/observability.md``.

    The plan cache, the materialized-view tier, the index set and the
    retry/breaker/degradation ladder are constants (``docs/api.md``
    lists the values).
    """
    return Session(
        ShardedService(
            Collection(shards),
            default_doc=default_doc,
            serialize_step=serialize_step,
            workers=workers,
            deadline_s=deadline_s,
            flight=flight,
            slow_threshold_s=slow_threshold_s,
        )
    )
