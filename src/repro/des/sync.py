"""Synchronization primitives built on the kernel's block/wake operations.

All primitives are *simulation-side*: blocking a process costs zero wall
time and suspends it in virtual time until another process (or a timer)
fires the wake condition.  They are the building blocks for the message
matching engine and the checkpoint control plane.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any

from .errors import SchedulingError
from .kernel import SimProcess, Simulator, Timer

__all__ = ["Waiter", "TIMEOUT", "Mailbox", "Gate"]


class _Timeout:
    def __repr__(self) -> str:  # pragma: no cover
        return "<TIMEOUT>"


#: Sentinel returned by timed waits that expired.
TIMEOUT = _Timeout()


class Waiter:
    """A one-shot completion cell: one process waits, anyone fires.

    ``fire(value)`` may happen before or after ``wait()``; the value is
    delivered either way.  This is the primitive underlying simulated MPI
    requests (each pending receive/collective-exit owns a Waiter).
    """

    __slots__ = ("sim", "_proc", "_value", "_fired", "_timer", "label", "on_expire")

    def __init__(self, sim: Simulator, label: str = "waiter"):
        self.sim = sim
        self.label = label
        self._proc: SimProcess | None = None
        self._value: Any = None
        self._fired = False
        self._timer: Timer | None = None
        #: Optional hook invoked (in scheduler context, with this waiter)
        #: the moment a timed wait expires — *before* the waiting process
        #: resumes.  Containers holding the waiter in a fire-queue use it
        #: to deregister immediately: between the timeout event and the
        #: process's resume event, other same-instant events can run, and
        #: a ``fire`` landing in that window would complete a waiter
        #: whose owner has already given up.
        self.on_expire = None

    def __repr__(self) -> str:  # pragma: no cover
        state = "fired" if self._fired else "pending"
        return f"<Waiter {self.label} {state}>"

    @property
    def fired(self) -> bool:
        return self._fired

    def peek(self) -> Any:
        """The fired value (only meaningful once :attr:`fired` is True)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Complete the waiter, waking the waiting process if any.

        Firing twice is an error (one-shot semantics keep protocol bugs
        visible instead of silently overwriting completion values).
        """
        if self._fired:
            raise SchedulingError(f"waiter {self.label!r} fired twice")
        self._fired = True
        self._value = value
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._proc is not None:
            proc, self._proc = self._proc, None
            self.sim.wake(proc)

    def wait(self, timeout: float | None = None) -> Any:
        """Block the calling process until fired; returns the fired value.

        With ``timeout``, returns :data:`TIMEOUT` if the waiter did not
        fire within that much virtual time.
        """
        if self._fired:
            return self._value
        proc = self.sim.current_process()
        if self._proc is not None:
            raise SchedulingError(f"waiter {self.label!r} already has a waiter")
        self._proc = proc
        if timeout is not None:
            self._timer = self.sim.call_after(timeout, self._on_timeout)
        self.sim.block("wait:" + self.label)
        if self._fired:
            return self._value
        return TIMEOUT

    def _on_timeout(self) -> None:
        self._timer = None
        if self._fired or self._proc is None:
            return
        proc, self._proc = self._proc, None
        if self.on_expire is not None:
            self.on_expire(self)
        self.sim.wake(proc)


class Mailbox:
    """An unbounded FIFO queue between processes.

    ``put`` never blocks; ``get`` blocks until an item is available.
    Delivery order is FIFO and deterministic.  This is the transport used
    by the checkpoint control plane (coordinator <-> rank messages) —
    deliberately separate from the simulated MPI data plane, mirroring
    how MANA's coordinator messages ride on a DMTCP socket rather than
    on MPI itself.
    """

    def __init__(self, sim: Simulator, label: str = "mailbox"):
        self.sim = sim
        self.label = label
        #: Precomputed waiter label — ``get`` is a hot path and must not
        #: rebuild the same string per call.
        self._getter_label = "mailbox:" + label
        self._items: deque[Any] = deque()
        self._getters: deque[Waiter] = deque()
        self._taps: list = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any, *, delay: float = 0.0) -> None:
        """Deposit ``item``; with ``delay`` the deposit happens later in
        virtual time (models control-plane latency)."""
        if delay > 0.0:
            self.sim.defer(delay, partial(self._deliver, item))
        else:
            self._deliver(item)

    def _deliver(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)
        if self._taps:
            # Copy only when taps exist: delivery is the control-plane
            # hot path and most mailboxes never register one.  The copy
            # itself stays — taps may remove themselves while firing.
            for tap in list(self._taps):
                tap()

    def add_tap(self, callback) -> None:
        """Register a notification callback invoked (in scheduler context)
        whenever an item is delivered.  The item itself still queues
        normally — taps let a process blocked on *something else* learn
        that control traffic arrived."""
        self._taps.append(callback)

    def remove_tap(self, callback) -> None:
        try:
            self._taps.remove(callback)
        except ValueError:
            pass

    def get(self, timeout: float | None = None) -> Any:
        """Take the oldest item, blocking until one arrives.

        Returns :data:`TIMEOUT` on expiry when ``timeout`` is given.
        """
        if self._items:
            return self._items.popleft()
        w = Waiter(self.sim, label=self._getter_label)
        if timeout is not None:
            # Deregister at the expiry *event*, not when the getter's
            # resume runs: a delivery in between must re-queue the item
            # for the next taker, not complete a timed-out waiter.
            w.on_expire = self._expire_getter
        self._getters.append(w)
        value = w.wait(timeout=timeout)
        if value is TIMEOUT:
            # Belt-and-braces for spurious wakeups; on_expire has
            # normally removed the waiter already.
            try:
                self._getters.remove(w)
            except ValueError:
                pass
        return value

    def _expire_getter(self, w: Waiter) -> None:
        try:
            self._getters.remove(w)
        except ValueError:  # pragma: no cover - already consumed
            pass

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking take: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek(self) -> tuple[bool, Any]:
        """Non-consuming look at the oldest queued item."""
        if self._items:
            return True, self._items[0]
        return False, None


class Gate:
    """A counting rendezvous: opens once ``n`` processes have arrived.

    Used by tests and by the world bootstrap to make sure all ranks are
    up before time starts advancing.
    """

    def __init__(self, sim: Simulator, n: int, label: str = "gate"):
        if n < 1:
            raise SchedulingError(f"gate needs n >= 1, got {n}")
        self.sim = sim
        self.n = n
        self.label = label
        self._arrived = 0
        self._waiting: list[SimProcess] = []

    @property
    def arrived(self) -> int:
        return self._arrived

    def arrive_and_wait(self) -> None:
        """Arrive; block until all ``n`` processes have arrived."""
        self._arrived += 1
        if self._arrived > self.n:
            raise SchedulingError(f"gate {self.label!r} overfilled ({self._arrived}/{self.n})")
        if self._arrived == self.n:
            waiting, self._waiting = self._waiting, []
            for proc in waiting:
                self.sim.wake(proc)
        else:
            self._waiting.append(self.sim.current_process())
            self.sim.block(f"gate:{self.label}")
