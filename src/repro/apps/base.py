"""Application framework: the context apps program against, and the
resumable-step base class.

Checkpointable-app contract (why: :mod:`repro.mana.session` restarts an
interrupted step by *replaying* its recorded MPI results, the substitute
for MANA's raw-memory snapshot):

1. All persistent state lives in ``ctx.state`` (a picklable dict; it may
   contain :class:`~repro.mana.vcomm.VirtualComm` handles).
2. Work is organized in *steps*; the framework calls ``step(ctx, i)``
   and advances ``ctx.state["iter"]``; a checkpoint may land anywhere,
   and an interrupted step is deterministically replayed after restart.
3. Within a step, state writes must be replayable: derive them from call
   results and prior state (assign, don't accumulate across the replay
   span), and draw randomness from ``ctx.step_rng(i)``, which is a pure
   function of (seed, rank, step).
4. ``ctx.compute_jittered`` consumes no stream: its jitter factor is a
   pure function of (seed, rank, step, tag, cv), so it is memoized per
   process and an app must not rely on it advancing any generator.
"""

from __future__ import annotations

import functools
import zlib
from abc import ABC, abstractmethod
from typing import Any, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..mana.session import Session
    from ..mana.vcomm import VirtualComm

__all__ = ["AppContext", "MpiApp"]

#: Bound on memoized jitter factors (~250 B an entry, ~0.5 MiB when
#: full).  The native/2PC/CC twins and message sizes of a figure share
#: seed, ranks and steps, so most draws repeat one made a few jobs
#: earlier: 2048 keeps every repeat of fig5a/5b/9 (1,920 keys each);
#: a larger bound measured no faster on fig7/fig8 and costs resident
#: memory in every process.
_JITTER_MEMO = 2048


def _stream(seed: int, rank: int, step: int, tag: str) -> np.random.Generator:
    """The random stream of (seed, rank, step, tag)."""
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed,
            # crc32, not hash(): string hashing is salted per process
            # and would break determinism and restart replay.
            spawn_key=(rank, step + 1, zlib.crc32(tag.encode())),
        )
    )


@functools.lru_cache(maxsize=_JITTER_MEMO)
def _jitter_factor(seed: int, rank: int, step: int, tag: str, cv: float) -> float:
    """Lognormal compute-time factor of one jittered rank step."""
    return float(np.exp(_stream(seed, rank, step, tag).normal(0.0, cv)))


class AppContext:
    """What an application sees: virtual MPI plus compute/state services."""

    def __init__(self, session: "Session", seed: int = 0):
        self._session = session
        self.seed = seed

    # -- identity ---------------------------------------------------------- #

    @property
    def rank(self) -> int:
        return self._session.rank

    @property
    def nprocs(self) -> int:
        return self._session.nprocs

    @property
    def world(self) -> "VirtualComm":
        """COMM_WORLD as a virtual handle."""
        return self._session.comm_world

    @property
    def state(self) -> dict:
        """The rank's persistent (checkpointed) application state."""
        return self._session.app_state

    # -- services ------------------------------------------------------------ #

    def compute(self, seconds: float) -> None:
        """Model ``seconds`` of local computation (interruptible)."""
        self._session.compute(seconds)

    def compute_jittered(self, base_seconds: float, step: int, tag: str = "") -> None:
        """Compute with per-rank OS-noise-style jitter.

        The jitter is what an inserted barrier (2PC) converts into
        waiting time, so realistic skew matters for the overhead figures.
        Deterministic in (seed, rank, step, tag): the factor is the first
        normal of ``step_rng(step, tag or "jitter")``, memoized per
        process (contract item 4).
        """
        compute = self._session.world.params.compute
        factor = _jitter_factor(
            self.seed, self.rank, step, tag or "jitter", compute.jitter_cv
        )
        self.compute(max(base_seconds * factor, compute.noise_floor))

    def step_boundary(self) -> None:
        self._session.step_boundary()

    def step_rng(self, step: int, tag: str = "") -> np.random.Generator:
        """Deterministic per-(rank, step) random stream — replay-safe.

        ``step=-1`` is the conventional setup-phase stream.
        """
        return _stream(self.seed, self.rank, step, tag)

    def declare_memory(self, nbytes: int) -> None:
        """Declare modelled upper-half memory (drives image-size costs)."""
        self._session.declared_bytes = int(nbytes)

    def now(self) -> float:
        return self._session.sim.now()


class MpiApp(ABC):
    """Base class for resumable step-structured MPI applications."""

    #: Application name used by the harness and Table 1.
    name: str = "app"

    def __init__(self, niters: int = 10):
        if niters < 1:
            raise ValueError(f"niters must be >= 1, got {niters}")
        self.niters = niters

    def setup(self, ctx: AppContext) -> None:
        """One-time initialization (may create communicators, seed state).

        Runs exactly once per logical job: skipped on restart because the
        restored state already carries its effects.
        """

    @abstractmethod
    def step(self, ctx: AppContext, i: int) -> None:
        """One outer iteration.  Must follow the replayability contract."""

    def finalize(self, ctx: AppContext) -> Any:
        """Produce the rank's result after the last step."""
        return None

    def run(self, ctx: AppContext) -> Any:
        """The framework loop (called by the harness runner)."""
        if "iter" not in ctx.state:
            self.setup(ctx)
            ctx.state.setdefault("iter", 0)
            ctx.step_boundary()
        while ctx.state["iter"] < self.niters:
            i = ctx.state["iter"]
            self.step(ctx, i)
            ctx.state["iter"] = i + 1
            ctx.step_boundary()
        return self.finalize(ctx)
