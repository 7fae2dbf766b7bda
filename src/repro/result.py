"""Typed query results.

:class:`Result` is what ``execute()`` returns across the whole stack —
:class:`repro.pipeline.XQueryProcessor`, the serving class
:class:`repro.service.ShardedService` and the :class:`repro.api.Session`
facade all produce the same shape: the item sequence plus execution
metadata (engine, per-phase timings, shard fan-out width) and an
attached serializer.

``Result`` subclasses :class:`list` and ``run()``'s
:class:`Serialized` subclasses :class:`str`, so equality checks,
indexing and substring tests work on them directly; ``.items`` gives
the plain list.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

__all__ = ["Result", "Serialized"]


class Result(list):
    """The typed result of one query execution.

    The sequence items are ``pre`` ranks for node results and ``1``
    markers for boolean (existential comparison) results, exactly as
    before.  Metadata rides along as attributes:

    ``engine``
        The :class:`repro.Engine` that produced the result.
    ``timings``
        Nanosecond phase timings (``execute_ns``, and for scatter-gather
        runs ``merge_ns``).
    ``shards``
        How many shards the execution fanned out over (1 for serial).
    """

    __slots__ = ("engine", "timings", "shards", "_serializer")

    def __init__(
        self,
        items: Iterable[Any],
        *,
        engine: Any = None,
        timings: Mapping[str, Any] | None = None,
        shards: int = 1,
        serializer: Callable[[list[Any]], str] | None = None,
    ):
        super().__init__(items)
        self.engine = engine
        self.timings: dict[str, Any] = dict(timings or {})
        self.shards = shards
        self._serializer = serializer

    @property
    def items(self) -> list[Any]:
        """The raw item sequence as a plain list."""
        return list(self)

    def serialize(self) -> str:
        """Serialize a node-sequence result back to XML text."""
        if self._serializer is None:
            raise TypeError(
                "this Result carries no serializer (it was built from "
                "raw items); serialize through the processor instead"
            )
        return self._serializer(list(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Result(items={list(self)!r}, engine={self.engine!s}, "
            f"shards={self.shards})"
        )


class Serialized(str):
    """``run()``'s return value: the serialized XML text, with the
    :class:`Result` it was rendered from attached as ``.result``.
    Subclasses :class:`str`, so all existing string handling keeps
    working."""

    result: Result | None

    def __new__(cls, text: str, result: Result | None = None) -> "Serialized":
        obj = super().__new__(cls, text)
        obj.result = result
        return obj

