"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Simulator` — the event loop / virtual clock.
* :class:`SimProcess` — a suspendable simulated process.
* :mod:`repro.des.sync` — :class:`Waiter`, :class:`Mailbox`,
  :class:`Gate` primitives.
* :mod:`repro.des.errors` — kernel exception types.
"""

from .errors import (
    DeadlockError,
    NotInProcessError,
    ProcessFailed,
    ProcessKilled,
    SchedulingError,
    SimClosedError,
    SimulationError,
)
from .kernel import INTERRUPTED, Interrupted, SimProcess, Simulator, Timer
from .sync import TIMEOUT, Gate, Mailbox, Waiter
from .trace import Tracer, TraceRecord

__all__ = [
    "Simulator",
    "SimProcess",
    "Timer",
    "INTERRUPTED",
    "Interrupted",
    "Waiter",
    "Mailbox",
    "Gate",
    "TIMEOUT",
    "Tracer",
    "TraceRecord",
    "SimulationError",
    "DeadlockError",
    "ProcessFailed",
    "ProcessKilled",
    "SimClosedError",
    "NotInProcessError",
    "SchedulingError",
]
