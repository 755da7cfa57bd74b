"""Differential reference for the DES kernel: the dedicated-scheduler design.

``repro.des.kernel`` suspends processes with a baton protocol (the
blocked process's carrier thread drives the event loop).  This module
keeps the seed design alive as an independent oracle: the scheduler
stays on the thread that called ``run()``, and every process resume is a
synchronous ``_resume``/``_token`` lock hand-off (two OS context
switches).  It is deliberately simple rather than fast — the event
selection is a plain ``min`` over the three sources, written without
reference to the src merge — so a schedule both kernels agree on is
agreed on by two implementations, not one.

It reaches the src kernel through two override points only: the process
class ``spawn`` builds and the loop ``run`` enters.  Whole-run
differentials patch ``repro.harness.runner.Simulator`` with
:class:`ReferenceSimulator`; nothing in ``src/`` knows this file exists.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.des.errors import (
    DeadlockError,
    ProcessFailed,
    ProcessKilled,
    SchedulingError,
)
from repro.des.kernel import (
    _ALIVE_STATES,
    _DONE,
    _FAILED,
    _KILLED,
    _READY,
    _RUNNING,
    SimProcess,
    Simulator,
    _tls,
)


class _ThreadProcess(SimProcess):
    """One OS thread per process, parked on ``_resume``; the scheduler
    thread parks on ``sim._token`` while the process runs."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self._resume_action = self._transfer_in

    def _bootstrap(self) -> None:
        sim = self.sim
        _tls.proc = self
        self._resume.acquire()
        if self._killed:
            self.state = _KILLED
            sim._token.release()
            return
        self.state = _RUNNING
        try:
            self.result = self.fn(*self.args, **self.kwargs)
        except ProcessKilled:
            self.state = _KILLED
            sim._token.release()
            return
        except BaseException as exc:  # noqa: BLE001 - reported to scheduler
            self.state = _FAILED
            self.exception = exc
            sim._failed.append(self)
            sim._trace_emit("fail", self.name, repr(exc))
        else:
            self.state = _DONE
            sim._trace_emit("exit", self.name, "")
        for waker in self._waiters_on_exit:
            waker()
        self._waiters_on_exit.clear()
        sim._token.release()

    def _transfer_in(self) -> None:
        """The resume event (scheduler thread): run the process until it
        suspends again, synchronously."""
        if self.state not in _ALIVE_STATES:
            return
        self._resume_at = -1.0
        sim = self.sim
        sim._trace_emit("start" if self.state == _READY else "wake", self.name, "")
        self._resume.release()
        sim._token.acquire()

    def _yield_and_wait(self) -> None:
        self.sim._token.release()
        self._resume.acquire()
        if self._killed:
            raise ProcessKilled()
        self.state = _RUNNING


class ReferenceSimulator(Simulator):
    """``Simulator`` with the thread-handoff scheduler underneath."""

    _process_cls = _ThreadProcess

    def _pop_next(self):
        """Remove and return the ``(time, seq)``-smallest entry of the
        now-queue, the front slot and the heap; None when all are empty."""
        heads = []
        if self._nowq:
            heads.append((self._nowq[0][:2], "nowq"))
        if self._front is not None:
            heads.append((self._front[:2], "front"))
        if self._heap:
            heads.append((self._heap[0][:2], "heap"))
        if not heads:
            return None
        source = min(heads)[1]
        if source == "nowq":
            return self._nowq.popleft()
        if source == "heap":
            return heappop(self._heap)
        entry, self._front = self._front, None
        return entry

    def _run_loop(self, until: float | None) -> float:
        while True:
            entry = self._pop_next()
            if entry is None:
                break
            time, _seq, timer, action = entry
            if timer is not None and timer.cancelled:
                continue
            if until is not None and time > until:
                # Put it back.  Emptying the front slot into the heap
                # keeps "front precedes every heap entry" trivially true.
                if self._front is not None:
                    heappush(self._heap, self._front)
                    self._front = None
                heappush(self._heap, entry)
                self._now = until
                return until
            self._event_count += 1
            if self._max_events is not None and self._event_count > self._max_events:
                raise SchedulingError(
                    f"exceeded max_events={self._max_events}; "
                    "possible runaway protocol loop"
                )
            self._now = time
            action()
            if self._failed:
                proc = self._failed.pop(0)
                proc.state = _KILLED  # don't re-raise on the next event
                raise ProcessFailed(proc.name, proc.exception) from proc.exception
        blocked = [p for p in self._processes if p.alive]
        if blocked:
            lines = ", ".join(f"{p.name}<-[{p.blocked_on or p.state}]" for p in blocked)
            raise DeadlockError(
                f"no pending events at t={self._now:g} but "
                f"{len(blocked)} process(es) blocked: {lines}"
            )
        return self._now
