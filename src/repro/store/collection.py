"""The sharded document collection store.

A :class:`Collection` hosts many XML documents partitioned across N
independent :class:`~repro.infoset.encoding.DocumentStore` shards by
a stable URI hash.  Each shard is a complete, self-contained ``doc``
table — the generated join-graph SQL runs against any shard unchanged
(documents the shard doesn't host simply match nothing), which is what
lets the scatter-gather executor fan one compiled plan out across all
shards.

Document identity is global: every loaded document gets a *global*
``pre`` range, defined as the range it would occupy in one combined
table hosting all documents in load order.  Per-shard results
translate back to global ranks with a per-document offset (documents
are appended to their shard in global load order, so translation is
monotonic per shard and the merged sequence is the serial answer,
item for item).  The combined table itself is materialized lazily —
only when a non-shardable query needs serial execution — by grafting
the already-shredded subtrees out of the shard tables.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterable

from repro.errors import DocumentError
from repro.infoset.encoding import DocumentStore
from repro.infoset.serialize import serialize_nodes, serialize_sequence
from repro.xmltree.model import DocumentNode
from repro.xmltree.parser import parse_document

__all__ = ["Collection", "DocEntry"]


@dataclass(frozen=True)
class DocEntry:
    """Placement record for one loaded document."""

    uri: str
    #: shard index the document lives in
    shard: int
    #: ``pre`` rank of the DOC row inside its shard table
    shard_root: int
    #: ``pre`` rank the DOC row would have in the combined table
    global_root: int
    #: subtree size excluding the DOC row (``DocTable.size`` semantics)
    size: int


class Collection:
    """N-way sharded multi-document store.

    Parameters
    ----------
    shards:
        Number of partitions.  ``1`` degenerates to a single
        :class:`DocumentStore` behind the collection interface: local
        and global ranks coincide, and the combined store is the
        shard's own.
    """

    def __init__(self, shards: int = 1):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.stores: list[DocumentStore] = [
            DocumentStore() for _ in range(shards)
        ]
        self._entries: list[DocEntry] = []
        self._by_uri: dict[str, DocEntry] = {}
        #: per shard: entries in shard-``pre`` (= load) order
        self._by_shard: list[list[DocEntry]] = [[] for _ in range(shards)]
        self._combined: DocumentStore | None = None
        #: global_root offsets in entry order, rebuilt lazily after a
        #: load — serialization calls :meth:`to_local` once per result
        #: item, which must not rebuild the list per call
        self._global_roots: list[int] | None = None
        self._next_global = 0
        self._version = 0

    # -- loading -----------------------------------------------------------

    def shard_of(self, uri: str) -> int:
        """The shard a URI hashes to (stable across processes).

        blake2b rather than ``zlib.crc32``: CRC32 is linear over
        GF(2), so URI families differing in one character (``doc0.xml``
        … ``doc7.xml``) produce CRC deltas that can vanish modulo small
        powers of two — every document lands in one shard.  (Python's
        builtin ``hash`` is salted per process, so it cannot place.)
        """
        digest = hashlib.blake2b(uri.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big") % self.shards

    def load(self, text: str, uri: str, shard: int | None = None) -> DocEntry:
        """Parse and load one document into its shard.

        ``shard`` overrides hash placement (explicit co-location /
        balancing control); default is :meth:`shard_of`.
        """
        return self.load_tree(parse_document(text, uri=uri), shard=shard)

    def load_tree(
        self, document: DocumentNode, shard: int | None = None
    ) -> DocEntry:
        """Load an already-parsed document tree into its shard."""
        uri = document.uri
        if uri in self._by_uri:
            raise DocumentError(f"document {uri!r} already loaded")
        if shard is None:
            shard = self.shard_of(uri)
        elif not 0 <= shard < self.shards:
            raise ValueError(
                f"shard {shard} out of range for {self.shards} shards"
            )
        store = self.stores[shard]
        shard_root = store.load_tree(document)
        size = store.table.size[shard_root]
        entry = DocEntry(
            uri=uri,
            shard=shard,
            shard_root=shard_root,
            global_root=self._next_global,
            size=size,
        )
        self._next_global += size + 1
        self._entries.append(entry)
        self._global_roots = None
        self._by_uri[uri] = entry
        self._by_shard[shard].append(entry)
        if self._combined is not None:
            # keep the lazily materialized serial table in sync
            self._combined.table.graft(store.table, shard_root)
        self._version += 1
        return entry

    # -- identity ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic content version across all shards (cache/staleness
        key, mirroring :attr:`DocumentStore.version`)."""
        return self._version

    @property
    def doc_uris(self) -> list[str]:
        """URIs of all hosted documents, in global (load) order."""
        return [entry.uri for entry in self._entries]

    def __contains__(self, uri: str) -> bool:
        return uri in self._by_uri

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, uri: str) -> DocEntry:
        try:
            return self._by_uri[uri]
        except KeyError:
            raise DocumentError(f"unknown document {uri!r}") from None

    def resolve(self, patterns: tuple[str, ...]) -> tuple[str, ...]:
        """The :data:`~repro.xquery.normalize.CollectionResolver` over
        this collection: URI globs to member URIs in global order."""
        if not patterns:
            return tuple(entry.uri for entry in self._entries)
        return tuple(
            entry.uri
            for entry in self._entries
            if any(fnmatchcase(entry.uri, pattern) for pattern in patterns)
        )

    def shards_of(self, uris: Iterable[str]) -> list[int]:
        """The distinct shards hosting any of ``uris``, ascending."""
        return sorted({self.entry(uri).shard for uri in uris})

    # -- pre-rank translation ----------------------------------------------

    def to_global(self, shard: int, pres: Iterable[int]) -> list[int]:
        """Translate shard-local ``pre`` ranks to global ranks.

        Documents join a shard in global load order, so the mapping is
        monotonic per shard: a shard-sorted result stays sorted after
        translation, and merging per-shard results by global rank
        reproduces document order (doc rank ⊕ pre) exactly.  On one
        shard the two rank spaces coincide.
        """
        if self.shards == 1:
            return list(pres)
        entries = self._by_shard[shard]
        roots = [entry.shard_root for entry in entries]
        out: list[int] = []
        for pre in pres:
            index = bisect_right(roots, pre) - 1
            if index < 0:
                raise DocumentError(
                    f"pre rank {pre} not in any document of shard {shard}"
                )
            entry = entries[index]
            if pre > entry.shard_root + entry.size:
                raise DocumentError(
                    f"pre rank {pre} not in any document of shard {shard}"
                )
            out.append(entry.global_root + (pre - entry.shard_root))
        return out

    def to_local(self, global_pre: int) -> tuple[int, int]:
        """Inverse translation: global rank to (shard, local rank)."""
        if self.shards == 1:
            return 0, global_pre
        roots = self._global_roots
        if roots is None:
            roots = self._global_roots = [
                entry.global_root for entry in self._entries
            ]
        index = bisect_right(roots, global_pre) - 1
        if index >= 0:
            entry = self._entries[index]
            if global_pre <= entry.global_root + entry.size:
                return entry.shard, entry.shard_root + (
                    global_pre - entry.global_root
                )
        raise DocumentError(f"global pre rank {global_pre} not in any document")

    # -- serial view -------------------------------------------------------

    def combined_store(self) -> DocumentStore:
        """One table hosting every document in global order — exactly
        the store a serial (unsharded) processor would have built.  On
        one shard that is the shard's own store (local and global ranks
        coincide); otherwise it is materialized lazily by grafting
        shredded subtrees from the shard tables and kept in sync by
        subsequent loads."""
        if self.shards == 1:
            return self.stores[0]
        if self._combined is None:
            combined = DocumentStore()
            for entry in self._entries:
                combined.table.graft(
                    self.stores[entry.shard].table, entry.shard_root
                )
            self._combined = combined
        return self._combined

    # -- results -----------------------------------------------------------

    def serialize(self, items: Iterable[int]) -> str:
        """Serialize a global-rank node sequence back to XML text.

        Each item serializes against its own shard table; nodes are
        independent under serialization, so the concatenation is
        byte-identical to serializing the same sequence against the
        combined table.  On one shard, that table is the shard's own.
        """
        if self.shards == 1:
            return serialize_sequence(self.stores[0].table, items)
        parts: list[str] = []
        for item in items:
            shard, local = self.to_local(item)
            parts.append(serialize_nodes(self.stores[shard].table, local))
        return "".join(parts)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Per-shard placement/size summary (documents, rows, version)."""
        return {
            "shards": self.shards,
            "documents": len(self._entries),
            "rows": sum(len(store.table) for store in self.stores),
            "version": self._version,
            "per_shard": [
                {
                    "shard": shard,
                    "documents": len(self._by_shard[shard]),
                    "rows": len(self.stores[shard].table),
                }
                for shard in range(self.shards)
            ],
        }

