"""Requests: handles for non-blocking operations.

A :class:`Request` completes at a virtual time decided by the matching
engine or a collective cost solver; processes observe completion through
``test`` (non-blocking, mirrors MPI_Test) or ``wait`` (blocking, mirrors
MPI_Wait), and the session through ``on_complete`` observers.  The
``waitall/waitany/testall`` family is the upper half's, over virtual
requests (:mod:`repro.mana.vcomm`).

Completed requests behave like MPI_REQUEST_NULL: testing them again is
legal and instantaneous.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from ..des import Simulator, Waiter
from .errors import RequestError

__all__ = ["Request"]


class Request:
    """Handle for one pending non-blocking operation."""

    __slots__ = ("sim", "kind", "_done", "_value", "_observers", "meta")

    def __init__(self, sim: Simulator, kind: str, meta: dict | None = None):
        self.sim = sim
        self.kind = kind
        self._done = False
        self._value: Any = None
        self._observers: list[Callable[["Request"], None]] = []
        #: Free-form metadata (comm label, peer, tag) for diagnostics.
        self.meta = meta or {}

    # -- completion (engine side) ----------------------------------------

    def complete(self, value: Any = None) -> None:
        """Mark done and notify observers.  Called in scheduler context."""
        if self._done:
            raise RequestError(f"request {self.kind!r} completed twice")
        self._done = True
        self._value = value
        observers, self._observers = self._observers, []
        for cb in observers:
            cb(self)

    def complete_at(self, time: float, value: Any = None) -> None:
        """Schedule completion at virtual ``time`` (>= now)."""
        # defer_at + partial, not call_at + lambda: completions are
        # scheduled once per message and never cancelled, so no Timer
        # handle or closure needs to be allocated.
        self.sim.defer_at(max(time, self.sim.now()), partial(self.complete, value))

    def on_complete(self, cb: Callable[["Request"], None]) -> None:
        """Observe completion; fires immediately if already done."""
        if self._done:
            cb(self)
        else:
            self._observers.append(cb)

    # -- observation (process side) ---------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        """Completion value; only meaningful once :attr:`done`."""
        return self._value

    def test(self) -> tuple[bool, Any]:
        """MPI_Test: ``(flag, value)`` without blocking."""
        return (self._done, self._value if self._done else None)

    def wait(self) -> Any:
        """MPI_Wait: block the calling process until completion."""
        if self._done:
            return self._value
        w = Waiter(self.sim, label=self.kind)
        self.on_complete(lambda _req: w.fire())
        w.wait()
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self._done else "pending"
        return f"<Request {self.kind} {state} {self.meta or ''}>"
