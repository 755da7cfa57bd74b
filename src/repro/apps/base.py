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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..mana.session import Session
    from ..mana.vcomm import VirtualComm

__all__ = ["AppContext", "MpiApp"]


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
        Deterministic in (seed, rank, step, tag).
        """
        cv = self._session.world.params.compute.jitter_cv
        rng = self.step_rng(step, tag or "jitter")
        factor = float(np.exp(rng.normal(0.0, cv)))
        floor = self._session.world.params.compute.noise_floor
        self.compute(max(base_seconds * factor, floor))

    def step_boundary(self) -> None:
        self._session.step_boundary()

    def step_rng(self, step: int, tag: str = "") -> np.random.Generator:
        """Deterministic per-(rank, step) random stream — replay-safe.

        ``step=-1`` is the conventional setup-phase stream.
        """
        import zlib

        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed,
                # crc32, not hash(): string hashing is salted per process
                # and would break determinism and restart replay.
                spawn_key=(self.rank, step + 1, zlib.crc32(tag.encode())),
            )
        )

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
