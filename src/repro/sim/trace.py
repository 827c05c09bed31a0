"""Structured event tracing.

Every substrate component emits trace records through a shared
:class:`TraceLog`.  Records are cheap slotted objects; tracing can be filtered
by category to keep long benchmark runs lean, and the attack modules consume
traces as the adversary's observation feed (a compromised switch literally
replays the trace records emitted at that switch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["TraceRecord", "TraceLog"]


class TraceRecord:
    """One traced occurrence.

    A plain slotted record (one is built per traced hop, so construction
    cost matters): attribute access, ``rec["key"]`` into :attr:`detail`,
    and field-wise equality between records.  Records are read-only by
    convention; nothing mutates one after :meth:`TraceLog.emit` built it.
    """

    __slots__ = ("time", "category", "node", "detail")

    def __init__(
        self, time: float, category: str, node: str, detail: dict[str, Any]
    ) -> None:
        self.time = time
        self.category = category
        self.node = node
        self.detail = detail

    def __getitem__(self, key: str) -> Any:
        return self.detail[key]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time, self.category, self.node, self.detail) == (
            other.time, other.category, other.node, other.detail  # type: ignore[attr-defined]
        )

    __hash__ = None  # type: ignore[assignment]  # detail is a dict

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"node={self.node!r}, detail={self.detail!r})"
        )


@dataclass
class TraceLog:
    """Append-only trace store with optional category filtering.

    ``categories=None`` records everything; otherwise only the listed
    categories are kept.  ``subscribers`` receive every *kept* record
    synchronously — observation-point attacks register themselves here.
    """

    categories: Optional[set[str]] = None
    records: list[TraceRecord] = field(default_factory=list)
    subscribers: list[Callable[[TraceRecord], None]] = field(default_factory=list)

    def enabled(self, category: str) -> bool:
        """True if records of this category are kept."""
        return self.categories is None or category in self.categories

    def emit(self, time: float, category: str, node: str, **detail: Any) -> None:  # taint: sink
        """Record one occurrence (and notify subscribers)."""
        categories = self.categories
        if categories is not None and category not in categories:
            return
        rec = TraceRecord(time, category, node, detail)
        self.records.append(rec)
        for sub in self.subscribers:
            sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked on every kept record."""
        self.subscribers.append(fn)

    # -- queries ----------------------------------------------------------
    def by_category(self, category: str) -> list[TraceRecord]:
        """All records of one category."""
        return [r for r in self.records if r.category == category]

    def by_node(self, node: str) -> list[TraceRecord]:
        """All records emitted by one node."""
        return [r for r in self.records if r.node == node]

    def select(self, **criteria: Any) -> Iterator[TraceRecord]:
        """Records whose detail matches all key/value criteria."""
        for r in self.records:
            if all(r.detail.get(k) == v for k, v in criteria.items()):
                yield r

    def clear(self) -> None:
        """Drop all stored records."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)
