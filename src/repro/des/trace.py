"""Lightweight tracing of kernel events.

A :class:`Tracer` can be attached to a :class:`~repro.des.Simulator` to
record process lifecycle and scheduling events.  Tracing is primarily a
debugging and testing aid; it is off by default and costs nothing when
disabled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One traced kernel event.

    Attributes:
        time: virtual time at which the event occurred.
        kind: event kind, one of ``spawn``, ``start``, ``sleep``, ``block``,
            ``wake``, ``interrupt``, ``exit``, ``fail``, ``kill``, ``timer``.
        process: name of the process involved (or ``"<kernel>"``).
        detail: free-form human-readable detail string.
    """

    time: float
    kind: str
    process: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.time:12.9f}] {self.kind:<9} {self.process} {self.detail}"


class Tracer:
    """Bounded in-memory collector of :class:`TraceRecord` entries."""

    def __init__(self, maxlen: int | None = 100_000):
        self._records: deque[TraceRecord] = deque(maxlen=maxlen)

    def emit(self, record: TraceRecord) -> None:
        self._records.append(record)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
