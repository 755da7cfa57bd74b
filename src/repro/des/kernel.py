"""Deterministic discrete-event simulation kernel.

The kernel lets ordinary *blocking-style* Python code (such as an MPI
application calling ``comm.recv(...)``) run under a virtual clock.  Each
simulated process owns a real call stack, but **exactly one process runs
at a time**: control goes to the process whose wake-up event is next in
virtual time, and the process gives it up whenever it performs a kernel
call (``sleep``, blocking on a primitive, exiting).  Because every
hand-off is mediated by the event queue, and entries are ordered by
``(time, sequence_number)``, execution is fully deterministic for a
fixed program — no dependence on OS thread scheduling.

Suspension is a *baton* protocol.  Every live process is bound to a
carrier OS thread (so its stack survives a suspension), and there is no
dedicated scheduler thread: whichever thread holds the baton runs the
event loop (:meth:`Simulator._drive`).  A process that suspends keeps
driving on its own carrier; when its own wake event comes up, resuming
is a plain function return, zero lock operations.  Otherwise the
driving thread releases the next process's ``_resume`` lock and parks
(one hand-off).  On collective-heavy jobs the hand-off is the common
case: one batch of the ``osu_blocking`` benchmark workload makes
29.7 k carrier hand-offs for 29.9 k suspends, ``apps_p2p`` 29.8 k for
43.1 k.  So every carrier runs under ``SCHED_BATCH`` where the OS
grants it: the release only makes the next carrier runnable, and it
runs once the releaser parks and the GIL is free, instead of
preempting the releaser and then waiting on the GIL the releaser still
holds.  On one pinned core of a 2-core host a hand-off costs 4.1–5.1 µs
instead of 6.0–10.1 µs; an in-place resume, 1.6–1.8 µs, does not
change.  The thread inside :meth:`Simulator.run` drives until the first
transfer, then parks until the loop reaches a terminal state.  The
dedicated-scheduler-thread design this replaced lives on as the
differential reference in ``tests/des/reference_kernel.py``.

Carriers outlive their processes.  A carrier is a raw lock plus the
process bound to it, parked in a process-global pool between
processes: :meth:`Simulator.spawn` binds an idle one (re-pinned to the
spawner's CPU mask when that differs from the mask it last ran under)
or starts a new one on a :data:`_STACK_SIZE` stack.  A finished process
is unbound, and its carrier back in the pool, before the baton leaves
that carrier, so a job of short runs starts each OS thread once.

Hot-path design (every simulated second is millions of these):

* **Pure-callback events run inline** in the scheduler loop — timers,
  request completions, and coordinator callbacks never touch a process.
  Only resuming a simulated *process* can cost a control transfer, and
  that uses raw ``threading.Lock`` objects (C-level acquire/release)
  rather than the Python-implemented ``Semaphore``.
* **Zero-delay events bypass the heap.**  Events scheduled at the
  current instant (process resumes, completion wakeups, mailbox
  deliveries) go to a FIFO *now-queue*; the run loop merges the two
  sources by ``(time, seq)`` so global ordering — and therefore
  ``event_count`` — is identical to a single-heap kernel.
* **Event entries are ``(time, seq, timer_or_None, action)`` tuples**,
  so heap sifting compares floats/ints in C (``seq`` is unique, so a
  ``Timer`` is never compared), and fire-and-forget events (:meth:`Simulator.defer`
  / :meth:`Simulator.defer_at`, non-interruptible sleeps, resumes)
  allocate no Timer handle at all.
* **Cancelled timers are dropped lazily** when popped, never by
  re-heapifying.
* **Tracing is free when off**: ``_trace_emit`` defers ``%``-style
  formatting (or a callable detail) until a tracer is attached, and hot
  call sites skip the call entirely when ``tracer is None``.
* **A poll that finds nothing stays in the event loop.**
  :meth:`Simulator.poll` is the loop ``sleep(test)``, check, ``sleep(gap)``
  with each empty round run as callbacks that queue the same entries the
  process would have; the process is resumed only when ``ready()``
  holds.  2PC's trivial-barrier test loop runs on it.
* **Consecutive same-time resumes of one process coalesce** into a
  single resume event (a double wake at the same instant was previously
  a latent spurious-wakeup hazard).
* **Teardown is explicit**: :meth:`Simulator.close` unwinds every
  process still bound to a carrier (the carrier is back in the pool
  before it hands control back), then drops each process's body and
  preallocated callbacks (a bound method of the process stored on the
  process is a cycle) and the three event queues.  A finished run is
  freed by refcounting the moment its owner lets go — no full-heap
  collection between runs — while ``processes``, ``event_count``,
  ``now()`` and each process's ``name``/``state``/``result``/``exception``
  stay readable.

This is the substrate on which ``repro.simmpi`` (the simulated MPI
library) and ``repro.mana`` (the checkpointing layer) are built.

Typical usage::

    sim = Simulator(seed=42)
    def worker():
        sim.sleep(1.5)
        print("virtual time is", sim.now())
    sim.spawn(worker, name="w0")
    sim.run()
    sim.close()
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from functools import partial as _partial
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Iterable

from .errors import (
    DeadlockError,
    NotInProcessError,
    ProcessFailed,
    ProcessKilled,
    SchedulingError,
    SimClosedError,
)
from .trace import Tracer, TraceRecord

__all__ = ["Simulator", "SimProcess", "Timer", "Interrupted", "INTERRUPTED"]

_tls = threading.local()

# Process lifecycle states.
_NEW = "new"
_READY = "ready"  # has a pending resume event in the queue
_RUNNING = "running"
_BLOCKED = "blocked"  # waiting for an external wake (no queue entry)
_DONE = "done"
_FAILED = "failed"
_KILLED = "killed"
#: Hard-killed by fault injection (:meth:`Simulator.kill_process`): the
#: process is dead to the simulation — not alive, never resumed — but
#: its stack is only unwound later, at :meth:`Simulator.close`.
_CRASHED = "crashed"

#: States in which a process still owns a runnable stack (hot-path
#: membership test shared by ``SimProcess.alive`` and the resume path).
_ALIVE_STATES = (_NEW, _READY, _RUNNING, _BLOCKED)

#: Default stack size for simulated process threads.  Simulated ranks are
#: shallow (application loop + wrapper + kernel), so a small stack keeps
#: memory bounded when simulating hundreds of ranks.
_STACK_SIZE = 512 * 1024
_stack_size_lock = threading.Lock()

#: Most idle carriers kept parked for the next spawn.  The repo's largest
#: jobs (Figures 5a/5b/6 at 32 procs, Figure 9 at 8 nodes x 4 ppn) have
#: 32 ranks, so each of them reseats on parked carriers; a carrier that
#: finishes while this many are idle exits instead of parking.
_POOL_MAX = 32

#: Idle carriers, the last one parked on top.  Guarded by ``_pool_lock``.
_idle: "list[_Carrier]" = []
_pool_lock = threading.Lock()


class _Carrier:
    """An OS thread that runs the stack of one bound process at a time.

    ``lock`` doubles as the bound process's ``_resume`` lock and is held
    whenever the carrier is parked, bound or idle.  ``mask`` is the CPU
    set the thread runs under (None without an affinity API) and
    ``tid`` its native id, for re-pinning.  The thread starts here, on a
    :data:`_STACK_SIZE` stack: CPython reads ``threading.stack_size()``
    when a thread *starts*, so the process-global setting is bracketed
    around ``start()`` — under a lock, or two simulations spawning from
    different threads could each restore the other's
    small size.
    """

    __slots__ = ("lock", "proc", "mask", "tid")

    def __init__(self, mask: "set[int] | None"):
        self.lock = threading.Lock()
        self.lock.acquire()
        self.proc: SimProcess | None = None
        self.mask = mask
        thread = threading.Thread(
            target=_carrier_main, args=(self,), name="sim-carrier", daemon=True
        )
        with _stack_size_lock:
            try:
                old = threading.stack_size(_STACK_SIZE)
            except (ValueError, RuntimeError):  # pragma: no cover - platform dependent
                thread.start()
            else:
                try:
                    thread.start()
                finally:
                    threading.stack_size(old)
        self.tid = thread.native_id


def _carrier_main(carrier: _Carrier) -> None:
    """A carrier's life: park, run the bound process, unbind, park again.

    The process is unbound and the carrier back in the pool before the
    baton leaves this thread, so once the run's owner regains control
    nothing of the run is reachable from here.  A carrier finishing
    while the pool is full, or woken with no process bound, exits.

    The carrier first moves itself to ``SCHED_BATCH`` (see the module
    docstring for why); where the OS refuses or has no such policy it
    keeps the one it inherited.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass
    lock = carrier.lock
    while True:
        lock.acquire()
        if carrier.proc is None:
            return
        handoff = carrier.proc._bootstrap()
        carrier.proc = None
        with _pool_lock:
            parked = len(_idle) < _POOL_MAX
            if parked:
                _idle.append(carrier)
        handoff.release()
        if not parked:
            return


def _take_carrier() -> _Carrier:
    """An idle carrier running under the calling thread's CPU mask, or a
    new one (a new thread inherits that mask).  The idle carrier on top
    of the pool is re-pinned if its mask differs; if the OS refuses, it
    stays parked and a new carrier is started instead."""
    try:
        mask = os.sched_getaffinity(0)
    except AttributeError:  # no affinity API: masks play no part
        mask = None
    with _pool_lock:
        if _idle:
            carrier = _idle[-1]
            try:
                if carrier.mask != mask:
                    os.sched_setaffinity(carrier.tid, mask)
                    carrier.mask = mask
            except OSError:
                pass  # refused: it stays parked under its old mask
            else:
                return _idle.pop()
    return _Carrier(mask)


def _forget_carriers() -> None:
    """In a forked child only the forking thread exists: the parent's
    carriers cannot be bound, and a pool lock held across the fork by
    another thread would never be released."""
    global _pool_lock, _stack_size_lock
    _idle.clear()
    _pool_lock = threading.Lock()
    _stack_size_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_carriers)


class Interrupted:
    """Sentinel type returned by interruptible sleeps that were cut short."""

    _instance: "Interrupted | None" = None

    def __new__(cls) -> "Interrupted":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "<INTERRUPTED>"


#: Singleton returned by :meth:`Simulator.sleep` when interrupted.
INTERRUPTED = Interrupted()


class Timer:
    """Cancellable handle for a scheduled callback or process resume."""

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        self.cancelled = True


class SimProcess:
    """A simulated process: a suspendable call stack run only when scheduled.

    Do not instantiate directly; use :meth:`Simulator.spawn`.  The body
    runs on a pooled carrier OS thread, parked on the raw ``_resume``
    lock whenever another thread holds the baton (see the module
    docstring).
    """

    __slots__ = (
        "sim",
        "name",
        "fn",
        "args",
        "kwargs",
        "state",
        "result",
        "exception",
        "blocked_on",
        "_sleep_timer",
        "_interrupted",
        "_killed",
        "_waiters_on_exit",
        "_resume_at",
        "_resume_action",
        "_wake_action",
        "_resume",
    )

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str,
    ):
        self.sim = sim
        self.name = name
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.state = _NEW
        self.result: Any = None
        self.exception: BaseException | None = None
        #: What the process is currently blocked on (for deadlock reports).
        self.blocked_on: str = ""
        #: Set while the process holds an interruptible sleep.
        self._sleep_timer: Timer | None = None
        self._interrupted = False
        self._killed = False
        self._waiters_on_exit: list[Callable[[], None]] = []
        #: Virtual time of the pending resume event (-1.0 when none),
        #: for same-time coalescing.
        self._resume_at = -1.0
        # Preallocated hot-path callbacks: one per process for its
        # lifetime instead of one per resume/sleep.  partial() beats a
        # lambda here — the dispatch stays in C, no closure frame.
        self._resume_action = self._resume_now
        self._wake_action = _partial(sim._make_ready, self)
        #: The bound carrier's lock (None while unbound); releasing it
        #: resumes this process.  Raw Lock (not Semaphore): acquire and
        #: release are C-level, and the kernel's strict
        #: one-runner-at-a-time handoff never needs counts.
        self._resume: threading.Lock | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        """True while the process has not finished, failed, or been killed."""
        return self.state in _ALIVE_STATES

    @property
    def done(self) -> bool:
        return self.state == _DONE

    @property
    def failed(self) -> bool:
        return self.state == _FAILED

    @property
    def crashed(self) -> bool:
        """True after :meth:`Simulator.kill_process` hard-killed this process."""
        return self.state == _CRASHED

    def __repr__(self) -> str:
        return f"<SimProcess {self.name} state={self.state}>"

    # ------------------------------------------------------------------ #
    # Control transfer
    # ------------------------------------------------------------------ #

    def _bind_carrier(self) -> None:
        """Seat this process on a carrier (:func:`_take_carrier`); its
        first resume wakes the carrier into :meth:`_bootstrap`.  The
        hook ``tests/des/reference_kernel.py`` overrides to start a
        dedicated thread instead."""
        carrier = _take_carrier()
        carrier.proc = self
        self._resume = carrier.lock

    def _release(self) -> None:
        """Teardown (from :meth:`Simulator.close`, once the process no
        longer holds a carrier): drop the body, the preallocated
        callbacks and every link back into the simulation, so
        refcounting alone frees what the process ran.  ``name``/``state``/``result``/``exception``
        stay readable.  (A *failed* body is the exception: its
        traceback's frames reach the whole run, this process included,
        and that cycle is left to the garbage collector.)"""
        self.sim = self.fn = self.args = self.kwargs = None
        self._resume_action = self._wake_action = None
        self._sleep_timer = None
        self._waiters_on_exit.clear()

    def _bootstrap(self) -> threading.Lock:
        """Run on the carrier woken by this process's first resume: run
        the body, then keep the baton moving until it can be handed on.
        Returns the lock whose release hands it on, with this process
        already unbound (the carrier releases it once parked)."""
        sim = self.sim
        if self._killed:
            self.state = _KILLED
        else:
            _tls.proc = self
            self.state = _RUNNING
            try:
                self.result = self.fn(*self.args, **self.kwargs)
            except ProcessKilled:
                self.state = _KILLED
            except BaseException as exc:  # noqa: BLE001 - reported via run()
                self.state = _FAILED
                self.exception = exc
                sim._failed.append(self)
                sim._trace_emit("fail", self.name, repr(exc))
            else:
                self.state = _DONE
                sim._trace_emit("exit", self.name, "")
            if self.state != _KILLED:
                for waker in self._waiters_on_exit:
                    waker()
                self._waiters_on_exit.clear()
            _tls.proc = None
        self._resume = None
        if sim._closed:
            # Unwound by close(): hand control straight back to it
            # instead of driving the event loop during teardown.
            return sim._token
        # This thread still holds the baton — also when the body died of
        # ProcessKilled mid-run (it crashed itself via kill_process and
        # then suspended): the rest of the simulation must go on.
        return sim._handoff(*sim._drive(None))

    def _resume_now(self) -> None:
        """This process's resume event: name it as the next runner; the
        drive loop does the transfer once this action returns."""
        if self.state not in _ALIVE_STATES:
            return
        self._resume_at = -1.0
        sim = self.sim
        if sim._tracer is not None:
            sim._trace_emit(
                "start" if self.state == _READY else "wake", self.name, ""
            )
        sim._switch = self

    def _yield_and_wait(self) -> None:
        """Suspend (called from inside the process): drive the event
        loop right here on the carrier thread.  ``"resume"`` means our
        own wake event came up — the transfer back is this plain
        function return, no locks touched.  Otherwise pass the baton and
        park until resumed."""
        sim = self.sim
        _tls.proc = None
        kind, payload = sim._drive(self)
        if kind != "resume":
            sim._handoff(kind, payload).release()
            # An error's traceback starts in _drive, whose frame links
            # back to this one: don't hold the exception from here.
            del payload
            self._resume.acquire()
        _tls.proc = self
        if self._killed:
            raise ProcessKilled()
        self.state = _RUNNING

    # ------------------------------------------------------------------ #
    # Cross-process operations (must run while holding control, i.e.
    # from another process, a timer callback, or the scheduler itself)
    # ------------------------------------------------------------------ #

    def interrupt(self) -> bool:
        """Interrupt this process's interruptible sleep, if any.

        Returns True if the process was sleeping interruptibly and has been
        scheduled to wake immediately; False otherwise (no-op).
        """
        if self._sleep_timer is not None and not self._sleep_timer.cancelled:
            self._sleep_timer.cancel()
            self._interrupted = True
            self.sim._make_ready(self)
            self.sim._trace_emit("interrupt", self.name, "")
            return True
        return False

    def on_exit(self, waker: Callable[[], None]) -> None:
        """Register a callback invoked (in scheduler context) when this
        process terminates for any reason.  If already terminated the
        callback runs immediately."""
        if not self.alive:
            waker()
        else:
            self._waiters_on_exit.append(waker)


class _Poll:
    """The resume action of a process inside :meth:`Simulator.poll`.

    Each resume is first handed to the process's own resume action
    (liveness check, trace record, naming it the next runner).  A round
    the process would spend finding nothing — any gap wake, or a test
    wake where ``ready()`` is false — is then taken back and run here:
    the next sleep's wake is queued exactly where the process would have
    queued it, with the same trace record.  Once the poll is over only
    ``resume`` is kept: a late resume is then only the process's own.
    """

    __slots__ = ("sim", "proc", "resume", "test", "gap", "ready", "testing")

    def __init__(self, sim, proc, test, gap, ready):
        self.sim = sim
        self.proc = proc
        self.resume = proc._resume_action
        self.test = test
        self.gap = gap
        self.ready = ready
        #: Which sleep the process is in: ``test`` (True) or ``gap``.
        self.testing = True

    def __call__(self) -> None:
        self.resume()
        sim = self.sim
        if sim is None or sim._switch is None:
            return  # poll over, process dead, or a kernel that ran it in place
        if self.testing and self.ready():
            return
        sim._switch = None
        self.testing = testing = not self.testing
        delay = self.test if testing else self.gap
        proc = self.proc
        sim.defer(delay, proc._wake_action)
        proc.state = _BLOCKED
        proc.blocked_on = "sleep"
        if sim._tracer is not None:
            sim._trace_emit("sleep", proc.name, "%g", delay)


class Simulator:
    """The event loop: a queue of timed actions plus the process registry.

    Args:
        seed: the run's seed, kept as :attr:`seed`.  The kernel itself
            draws nothing: simulation randomness comes from the apps'
            per-(seed, rank, step) streams (``AppContext.step_rng``) and
            the scenarios' per-(scenario, seed) perturbations.
        tracer: optional :class:`~repro.des.trace.Tracer` for debugging.
        max_events: safety valve — :meth:`run` raises ``SchedulingError``
            after this many events (guards against runaway protocol loops
            in tests).
    """

    #: The process class :meth:`spawn` builds.  With :meth:`_run_loop`,
    #: one of the two points ``tests/des/reference_kernel.py`` overrides.
    _process_cls = SimProcess

    def __init__(
        self,
        *,
        seed: int = 0,
        tracer: Tracer | None = None,
        max_events: int | None = None,
    ):
        #: Future events: ``(time, seq, timer_or_None, action)`` tuples
        #: so heap sifting compares in C without calling back into
        #: Python; the Timer slot is None for non-cancellable events.
        self._heap: list[tuple[float, int, "Timer | None", Callable[[], None]]] = []
        #: Front-slot cache: the earliest *future* event, kept out of the
        #: heap.  Invariant: when set, it precedes every heap entry in
        #: ``(time, seq)`` order.  Chain-shaped workloads (each event
        #: scheduling its successor into an otherwise empty future) then
        #: never touch the heap at all.
        self._front: "tuple[float, int, Timer | None, Callable[[], None]] | None" = None
        #: Zero-delay events at the current instant, in seq (FIFO) order.
        self._nowq: deque[tuple[float, int, "Timer | None", Callable[[], None]]] = deque()
        self._seq = itertools.count()
        #: Bound ``__next__`` of the sequence counter: every scheduled
        #: event draws one, so skip the ``next()`` builtin dispatch.
        self._next_seq = self._seq.__next__
        self._now = 0.0
        self._processes: list[SimProcess] = []
        self._failed: list[SimProcess] = []
        #: Held by every thread except the one parked in :meth:`run` (or
        #: :meth:`close`); released to deliver a terminal result to it.
        self._token = threading.Lock()
        self._token.acquire()
        self._running = False
        self._closed = False
        self._seed = seed
        self._tracer = tracer
        self._max_events = max_events
        self._event_count = 0
        #: Logical events carried by batch entries beyond the entries
        #: themselves (see :meth:`defer_batch_at`).
        self._extra_events = 0
        #: Process named by the last resume action, consumed by the
        #: drive loop right after the action returns.
        self._switch: SimProcess | None = None
        #: ``until`` of the active run(), read by every drive loop
        #: entered while that run is in flight.
        self._until: float | None = None
        #: Terminal ``(kind, payload)`` handed from whichever thread
        #: finished driving to the thread parked in run().
        self._terminal: tuple[str, Any] = ("done", 0.0)

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        return self._seed

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #

    def call_at(self, time: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn()`` to run in scheduler context at virtual ``time``."""
        if self._closed:
            raise SimClosedError("simulator is closed")
        now = self._now
        seq = self._next_seq()
        if time <= now:
            if time < now - 1e-15:
                raise SchedulingError(
                    f"cannot schedule at {time} before current time {now}"
                )
            # Zero-delay fast path: FIFO append, no heap traffic.  The
            # run loop merges by (time, seq), so ordering is unchanged.
            timer = Timer(now, seq, fn)
            self._nowq.append((now, seq, timer, fn))
        else:
            timer = Timer(time, seq, fn)
            self._push_future((time, seq, timer, fn))
        return timer

    def call_after(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn()`` to run ``delay`` seconds of virtual time from now."""
        if self._closed:
            raise SimClosedError("simulator is closed")
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        seq = self._next_seq()
        if delay == 0.0:
            timer = Timer(self._now, seq, fn)
            self._nowq.append((timer.time, seq, timer, fn))
        else:
            time = self._now + delay
            timer = Timer(time, seq, fn)
            # Inline front-slot insert (see _push_future): hot path.
            front = self._front
            if front is None:
                heap = self._heap
                if heap and heap[0][0] <= time:
                    _heappush(heap, (time, seq, timer, fn))
                else:
                    self._front = (time, seq, timer, fn)
            elif time < front[0]:
                _heappush(self._heap, front)
                self._front = (time, seq, timer, fn)
            else:
                _heappush(self._heap, (time, seq, timer, fn))
        return timer

    def defer(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` after ``delay`` with no cancellation handle.

        The fire-and-forget twin of :meth:`call_after` for hot paths
        (request completions, message deliveries): no :class:`Timer` is
        allocated, so the only per-event cost is the queue entry.
        """
        if self._closed:
            raise SimClosedError("simulator is closed")
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        seq = self._next_seq()
        if delay == 0.0:
            self._nowq.append((self._now, seq, None, fn))
        else:
            time = self._now + delay
            # Inline front-slot insert (see _push_future): hot path.
            front = self._front
            if front is None:
                heap = self._heap
                if heap and heap[0][0] <= time:
                    _heappush(heap, (time, seq, None, fn))
                else:
                    self._front = (time, seq, None, fn)
            elif time < front[0]:
                _heappush(self._heap, front)
                self._front = (time, seq, None, fn)
            else:
                _heappush(self._heap, (time, seq, None, fn))

    def defer_at(self, time: float, fn: Callable[[], None]) -> None:
        """Non-cancellable twin of :meth:`call_at` (see :meth:`defer`)."""
        if self._closed:
            raise SimClosedError("simulator is closed")
        now = self._now
        seq = self._next_seq()
        if time <= now:
            if time < now - 1e-15:
                raise SchedulingError(
                    f"cannot schedule at {time} before current time {now}"
                )
            self._nowq.append((now, seq, None, fn))
        else:
            self._push_future((time, seq, None, fn))

    def defer_batch_at(
        self, time: float, fn: Callable[[], None], count: int
    ) -> None:
        """Schedule ``fn`` as ONE queue entry that stands for ``count``
        logically separate same-instant events.

        This is the vectorized completion path: ``count`` individual
        :meth:`defer_at` calls issued back-to-back draw *consecutive*
        sequence numbers, so no other event can interleave between them
        at the same instant — running their bodies inside one entry
        preserves global dispatch order exactly.  The entry counts as
        ``count`` events in :attr:`event_count`, keeping the determinism
        fingerprint byte-identical to the unbatched schedule while the
        queue only carries (and the run loop only pops) a single entry.
        The batch runs atomically with respect to ``run(until=...)`` and
        the ``max_events`` guard, which both see it as one entry.
        """
        if count < 1:
            raise SchedulingError(f"batch count must be >= 1, got {count}")
        if count == 1:
            self.defer_at(time, fn)
            return
        extra = count - 1

        def run_batch() -> None:
            self._extra_events += extra
            fn()

        self.defer_at(time, run_batch)

    def _push_future(
        self, entry: "tuple[float, int, Timer | None, Callable[[], None]]"
    ) -> None:
        """Insert a future event, maintaining the front-slot invariant.

        New entries always carry the largest sequence number, so a time
        tie is resolved in favour of the incumbent (front or heap head).
        """
        time = entry[0]
        front = self._front
        if front is None:
            heap = self._heap
            if heap and heap[0][0] <= time:
                _heappush(heap, entry)
            else:
                self._front = entry
        elif time < front[0]:
            _heappush(self._heap, front)
            self._front = entry
        else:
            _heappush(self._heap, entry)

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str | None = None,
        start_at: float | None = None,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a simulated process and schedule it to start.

        Args:
            fn: the process body; runs as a suspendable call stack under
                the virtual clock.  Its return value is stored on
                ``proc.result``.
            name: diagnostic name (auto-generated if omitted).
            start_at: virtual time at which the process begins (default:
                now).
        """
        self._check_open()
        if name is None:
            name = f"proc-{len(self._processes)}"
        proc = self._process_cls(self, fn, args, kwargs, name)
        self._processes.append(proc)
        proc.state = _READY
        start = self._now if start_at is None else start_at
        proc._resume_at = max(start, self._now)
        self.defer_at(start, proc._resume_action)
        if self._tracer is not None:
            self._trace_emit("spawn", name, "start_at=%g", start)
        proc._bind_carrier()
        return proc

    # ------------------------------------------------------------------ #
    # Process-side operations (must be called from inside a process)
    # ------------------------------------------------------------------ #

    def current_process(self) -> SimProcess:
        """The process the calling thread is running as."""
        proc = getattr(_tls, "proc", None)
        if proc is None or proc.sim is not self:
            raise NotInProcessError(
                "this operation must be called from inside a simulated process"
            )
        return proc

    def sleep(self, delay: float, *, interruptible: bool = False) -> Any:
        """Advance this process's virtual time by ``delay`` seconds.

        With ``interruptible=True``, another process may cut the sleep
        short via :meth:`SimProcess.interrupt`; in that case the return
        value is :data:`INTERRUPTED`, otherwise ``None``.  The caller can
        compute the remaining time from :meth:`now`.
        """
        proc = getattr(_tls, "proc", None)
        if proc is None or proc.sim is not self:
            raise NotInProcessError(
                "this operation must be called from inside a simulated process"
            )
        if delay < 0:
            raise SchedulingError(f"negative sleep {delay}")
        if interruptible:
            proc._sleep_timer = self.call_after(delay, proc._wake_action)
        else:
            # Fire-and-forget wake, with defer()'s insert inlined:
            # sleep is the hottest call in the kernel and the guards
            # above already ran.
            if self._closed:
                raise SimClosedError("simulator is closed")
            wake = proc._wake_action
            seq = self._next_seq()
            if delay == 0.0:
                self._nowq.append((self._now, seq, None, wake))
            else:
                time = self._now + delay
                front = self._front
                if front is None:
                    heap = self._heap
                    if heap and heap[0][0] <= time:
                        _heappush(heap, (time, seq, None, wake))
                    else:
                        self._front = (time, seq, None, wake)
                elif time < front[0]:
                    _heappush(self._heap, front)
                    self._front = (time, seq, None, wake)
                else:
                    _heappush(self._heap, (time, seq, None, wake))
        proc.state = _BLOCKED
        proc.blocked_on = "sleep"
        if self._tracer is not None:
            self._trace_emit("sleep", proc.name, "%g", delay)
        proc._yield_and_wait()
        proc.blocked_on = ""
        if interruptible:
            proc._sleep_timer = None
            if proc._interrupted:
                proc._interrupted = False
                return INTERRUPTED
        return None

    def poll(self, test: float, gap: float, ready: Callable[[], Any]) -> None:
        """Run ``while True: sleep(test); if ready(): return; sleep(gap)``.

        Same queue entries, sequence numbers, virtual times and trace
        records as that loop, but a round that finds ``ready()`` false
        runs as event-loop callbacks: the process is resumed only at the
        first ``test`` wake where ``ready()`` holds.  ``ready`` is called
        in scheduler context and must not change anything.  Any other
        resume — one queued before the poll began, or every resume under
        a process class whose resume action runs the process in place
        (``tests/des/reference_kernel.py``) — takes its round here on the
        process, as the loop would.
        """
        proc = self.current_process()
        poller = _Poll(self, proc, test, gap, ready)
        proc._resume_action = poller
        try:
            self.sleep(test)
            while not (poller.testing and ready()):
                poller.testing = not poller.testing
                self.sleep(test if poller.testing else gap)
        finally:
            proc._resume_action = poller.resume
            poller.sim = poller.proc = poller.ready = None

    def block(self, reason: str = "blocked") -> None:
        """Block the calling process until :meth:`wake` is called on it.

        This is the low-level primitive used by the synchronization
        objects in :mod:`repro.des.sync`; application code should prefer
        those.
        """
        proc = self.current_process()
        proc.state = _BLOCKED
        proc.blocked_on = reason
        if self._tracer is not None:
            self._trace_emit("block", proc.name, reason)
        proc._yield_and_wait()
        proc.blocked_on = ""

    def wake(self, proc: SimProcess) -> None:
        """Schedule ``proc`` (blocked via :meth:`block`) to resume now."""
        self._make_ready(proc)

    def kill_process(self, proc: SimProcess) -> bool:
        """Hard-kill ``proc`` at the current instant (crash-fault injection).

        Models a rank dying mid-protocol: the process is immediately dead
        to the simulation — ``alive`` goes False, any pending sleep is
        cancelled, every future wake/resume aimed at it is inert, and
        exit waiters fire now — but its call stack is **not** unwound
        here.  Unwinding requires transferring control into the process
        (and the killer may *be* running on the victim's carrier
        thread), so the stack is reclaimed later by :meth:`close`
        exactly like a normal shutdown kill.

        Survivors blocked on the corpse (a collective, a recv) stay
        blocked; once no events remain, :meth:`run` raises
        :class:`DeadlockError` — the crash's observable teardown signal.

        Returns True if the process was alive and is now crashed; False
        if it had already terminated (no-op, so racing a crash against
        natural completion is safe).
        """
        if not proc.alive:
            return False
        timer = proc._sleep_timer
        if timer is not None:
            timer.cancel()
            proc._sleep_timer = None
        proc.state = _CRASHED
        proc._killed = True
        proc.blocked_on = ""
        self._trace_emit("crash", proc.name, "")
        for waker in proc._waiters_on_exit:
            waker()
        proc._waiters_on_exit.clear()
        return True

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, until: float | None = None) -> float:
        """Run events until the queue is exhausted (or virtual time ``until``).

        Returns the final virtual time.  Raises:
            * :class:`ProcessFailed` if any process raised an exception.
            * :class:`DeadlockError` if live processes remain blocked with
              no pending events (a genuine distributed deadlock).
            * whatever an event callback raised, unchanged.
        """
        self._check_open()
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        try:
            return self._run_loop(until)
        finally:
            self._running = False

    def _run_loop(self, until: float | None) -> float:
        """Drive the loop on the calling thread until the first process
        transfer, then park; carrier threads keep the baton moving among
        themselves and only wake this thread at a terminal state."""
        self._until = until
        kind, payload = self._drive(None)
        if kind == "switch":
            payload._resume.release()
            self._token.acquire()
            kind, payload = self._terminal
        if kind == "error":
            try:
                raise payload
            finally:
                # The traceback holds this frame; the frame must not
                # hold the exception back (an uncollectable-by-refcount
                # cycle through everything the caller's frames reach).
                del payload
        return payload

    def _drive(self, me: SimProcess | None) -> tuple[str, Any]:
        """The event loop, runnable on any thread that holds the baton.

        Dispatches events in ``(time, seq)`` order until control must
        leave this thread.  Returns:

        * ``("resume", None)`` — the next runner is ``me``: the caller
          simply returns into the process body.  No locks touched.
        * ``("switch", proc)`` — transfer to another process's carrier.
        * ``("done", time)`` — queue exhausted or ``until`` reached.
        * ``("error", exc)`` — terminal exception for run()'s caller: a
          failed process, a deadlock, the ``max_events`` guard, or
          anything an event callback raised.  The callback case is why
          the whole loop sits in a ``try``: the driver is usually some
          process's carrier, and the exception must not unwind that
          innocent process's stack.
        """
        if self._failed:
            p = self._failed.pop(0)
            p.state = _KILLED  # report each failure once
            exc = ProcessFailed(p.name, p.exception)
            exc.__cause__ = p.exception
            return ("error", exc)
        heap = self._heap
        nowq = self._nowq
        heappop = _heappop
        popleft = nowq.popleft
        limit = self._max_events
        if limit is None:
            limit = float("inf")
        until = self._until
        # Float sentinel so the per-event cutoff test is one compare.
        cutoff = float("inf") if until is None else until
        count = self._event_count
        try:
            while True:
                # Merge the three event sources by (time, seq): identical
                # global order to a single-heap kernel, but zero-delay
                # events (the overwhelming majority in message-heavy
                # runs) cost a deque append/popleft, and lone future
                # events sit in the front slot without heap traffic.
                # Future entries are never earlier than the current
                # instant, so they preempt the now-queue only on an
                # equal-time, smaller-seq head.
                if nowq:
                    entry = nowq[0]
                    front = self._front
                    if front is not None:
                        if front[0] > entry[0] or front[1] > entry[1]:
                            popleft()
                        else:
                            self._front = None
                            entry = front
                    elif heap:
                        head = heap[0]
                        if head[0] > entry[0] or head[1] > entry[1]:
                            popleft()
                        else:
                            entry = heappop(heap)
                    else:
                        popleft()
                else:
                    entry = self._front
                    if entry is not None:
                        self._front = None
                    elif heap:
                        entry = heappop(heap)
                    else:
                        break
                time, _seq, timer, action = entry
                if timer is not None and timer.cancelled:
                    # Lazy drop: cancelled entries are discarded when
                    # reached, never by rebuilding the heap.
                    continue
                if time > cutoff:
                    # Push the entry back preserving the front-slot
                    # invariant (it usually was the global minimum, so
                    # the vacated front slot is the right place).
                    front = self._front
                    if front is None:
                        self._front = entry
                    elif time < front[0] or (
                        time == front[0] and entry[1] < front[1]
                    ):
                        self._front = entry
                        _heappush(heap, front)
                    else:
                        _heappush(heap, entry)
                    self._now = until
                    return ("done", until)
                count += 1
                self._event_count = count
                if count > limit:
                    raise SchedulingError(
                        f"exceeded max_events={self._max_events}; "
                        "possible runaway protocol loop"
                    )
                self._now = time
                action()
                switch = self._switch
                if switch is not None:
                    self._switch = None
                    if switch is me:
                        return ("resume", None)
                    return ("switch", switch)
        except BaseException as exc:  # noqa: BLE001 - ferried to run()
            return ("error", exc)
        blocked = [p for p in self._processes if p.alive]
        if blocked:
            lines = ", ".join(f"{p.name}<-[{p.blocked_on or p.state}]" for p in blocked)
            return (
                "error",
                DeadlockError(
                    f"no pending events at t={self._now:g} but "
                    f"{len(blocked)} process(es) blocked: {lines}"
                ),
            )
        return ("done", self._now)

    def _handoff(self, kind: str, payload: Any) -> threading.Lock:
        """The lock whose release passes the baton after :meth:`_drive`
        stopped: the next process's carrier, or — with the terminal
        result stored for it — the thread parked in :meth:`_run_loop`."""
        if kind == "switch":
            return payload._resume
        self._terminal = (kind, payload)
        return self._token

    # ------------------------------------------------------------------ #
    # Internal transfer of control
    # ------------------------------------------------------------------ #

    def _make_ready(self, proc: SimProcess, *, detail: str = "") -> None:
        if proc.state not in _ALIVE_STATES:
            if proc.state == _CRASHED:
                # Late deliveries/wakes aimed at a crashed rank are
                # inert — a corpse cannot be woken, and its peers have
                # no way to know it died before their message landed.
                return
            raise SchedulingError(f"cannot wake non-live process {proc!r}")
        now = self._now
        if proc.state == _READY and proc._resume_at == now:
            # Coalesce: a second wake at the same instant would
            # otherwise schedule a duplicate resume that fires as a
            # spurious wakeup after the process blocks on something
            # else.
            return
        proc.state = _READY
        proc._resume_at = now
        self._nowq.append((now, self._next_seq(), None, proc._resume_action))

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Kill all live processes, reclaim their stacks, and drop every
        reference the run left behind (process bodies and callbacks, the
        event queues) so that refcounting frees it.  Idempotent;
        ``processes``, ``event_count`` and ``now()`` keep answering."""
        if self._closed:
            return
        self._closed = True
        for proc in self._processes:
            # Deliver ProcessKilled and run the stack to completion; the
            # carrier is unbound and parked by the time it hands back.
            # Crashed processes (kill_process) still own a parked stack:
            # the crash only marked them dead, so they are unwound here
            # like any live process.  (No carrier: its spawn failed.)
            if (proc.alive or proc.state == _CRASHED) and proc._resume is not None:
                proc._killed = True
                self._trace_emit("kill", proc.name, "")
                proc._resume.release()
                self._token.acquire()
        for proc in self._processes:
            proc._release()
        self._heap.clear()
        self._nowq.clear()
        self._front = None
        self._terminal = ("done", self._now)

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SimClosedError("simulator is closed")

    # ------------------------------------------------------------------ #
    # Introspection / tracing
    # ------------------------------------------------------------------ #

    @property
    def processes(self) -> Iterable[SimProcess]:
        return tuple(self._processes)

    @property
    def event_count(self) -> int:
        """Number of events executed so far (a determinism fingerprint).

        Batched entries (:meth:`defer_batch_at`) count once per logical
        event they carry, so the fingerprint does not depend on whether
        a hot path happened to batch.
        """
        return self._event_count + self._extra_events

    def _trace_emit(
        self, kind: str, process: str, detail: Any = "", *args: Any
    ) -> None:
        """Record a trace event; formatting is deferred until needed.

        ``detail`` may be a plain string, a ``%``-format string (with
        ``args``), or a zero-argument callable producing the string —
        nothing is built unless a tracer is attached.
        """
        tracer = self._tracer
        if tracer is None:
            return
        if args:
            detail = detail % args
        elif not isinstance(detail, str):
            detail = str(detail())
        tracer.emit(TraceRecord(self._now, kind, process, detail))
