"""Bounded-retry recovery chains: crash → restart → crash → restart …

The crash-fault language (``RunSpec.crash_fracs``) can now kill a rank
at *any* point of a job's lifetime — including mid-restart, while the
survivors rebuild their lower half, replay comm-creation allgathers, or
drain restored p2p.  This module is the planner that turns a crashed
run back into a finished one:

* :class:`RecoveryPolicy` bounds the retry budget (``max_attempts``
  recovery legs).
* :func:`run_recovery` executes the chain.  Each recovery leg restarts
  from the **last committed image** of the most recent attempt that
  committed one; when *no* attempt ever committed, the leg degrades to
  a **restart from scratch** — the original spec re-run without its
  crash.  ``leg_faults`` arms further crashes on individual recovery
  legs, so multi-hop failure storms (crash → restart → crash → …) are
  first-class and deterministic.
* :class:`RecoveryOutcome` records every attempt and content-hashes
  the whole chain (:meth:`RecoveryOutcome.chain_key`), so two recovery
  runs of the same spec under the same policy and fault plan are
  byte-comparable across processes and pools.

Every leg is a plain :class:`~repro.harness.spec.RunSpec` executed
through an :class:`~repro.harness.engine.ExperimentEngine` (with its
own auto-recovery disabled — the planner owns the loop), so legs
dedupe, cache, and fan out like any other job.  The engine integrates
the other direction too: ``ExperimentEngine(recovery=...)`` or
``run_batch(..., recover=True)`` auto-recovers any submitted spec whose
result crashed (see :meth:`ExperimentEngine.run_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from ..util.codec import encode
from ..util.hashing import stable_json_hash
from .runner import RunResult
from .spec import RunSpec, spec_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import ExperimentEngine

__all__ = [
    "RecoveryError",
    "RecoveryPolicy",
    "RecoveryAttempt",
    "RecoveryOutcome",
    "run_recovery",
]


class RecoveryError(RuntimeError):
    """A recovery chain exhausted its retry budget without completing."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """Retry budget for automatic crash recovery.

    ``max_attempts`` is the number of *recovery legs* allowed on top of
    the initial run (so a chain executes at most ``1 + max_attempts``
    jobs).
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass
class RecoveryAttempt:
    """One leg of a recovery chain (index 0 is the initial run)."""

    spec: RunSpec
    result: RunResult
    #: ``"initial"`` for leg 0, ``"image"`` for a restart from the last
    #: committed checkpoint, ``"scratch"`` for the degraded re-run when
    #: no attempt had ever committed an image.
    restarted_from: str = "initial"

    @property
    def crashed(self) -> bool:
        return bool(self.result.crashed_ranks)

    @property
    def committed(self) -> int:
        """Committed checkpoints this leg's run produced."""
        return sum(1 for r in self.result.checkpoints if r.committed)


@dataclass
class RecoveryOutcome:
    """The full record of one recovery chain."""

    attempts: list[RecoveryAttempt] = field(default_factory=list)
    policy: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: True when the final leg ran to completion (no crashed ranks —
    #: NA cells count as complete: retrying cannot un-NA a protocol).
    completed: bool = False

    @property
    def final_result(self) -> RunResult:
        if not self.attempts:
            raise RecoveryError("empty recovery chain")
        return self.attempts[-1].result

    @property
    def recovery_legs(self) -> int:
        """Recovery attempts actually executed (excludes the initial)."""
        return max(0, len(self.attempts) - 1)

    def chain_key(self) -> str:
        """Stable content hash of the whole chain.

        A function of the policy, every leg's spec hash, how each leg
        was launched, and whether the chain completed — byte-identical
        wherever the legs ran for the same plan.
        """
        return stable_json_hash(
            {
                "policy": encode(self.policy),
                "legs": [spec_hash(a.spec) for a in self.attempts],
                "restarted_from": [a.restarted_from for a in self.attempts],
                "completed": self.completed,
            }
        )

    def describe(self) -> str:
        """One-line human-readable chain summary."""
        hops = " -> ".join(
            f"{a.restarted_from}"
            + (f" (crashed {a.result.crashed_ranks})" if a.crashed else "")
            for a in self.attempts
        )
        state = "completed" if self.completed else "budget exhausted"
        return f"recovery[{state}, {self.recovery_legs} legs]: {hops}"


def _normalize_hop(hop) -> tuple[tuple[int, float], ...]:
    return tuple(sorted((int(r), float(f)) for r, f in hop))


def _plan_next_leg(
    attempts: Sequence[RecoveryAttempt],
    hop: tuple[tuple[int, float], ...],
) -> tuple[RunSpec, str]:
    """The spec for the next recovery leg and how it launches.

    Scans the chain newest-first for a leg that committed a checkpoint;
    the new leg restarts from that run's *last* commit.  With no commit
    anywhere in the chain, the original spec is re-run without its
    crash (checkpoint schedule intact, so this time it can commit) and
    with this hop's faults — if any — armed: ``"image"`` when the
    original is itself a restart leg (relaunching it still adopts its
    parent's committed image, which the crash left intact), ``"scratch"``
    otherwise.
    """
    for prior in reversed(attempts):
        committed = prior.committed
        if committed:
            leg = replace(
                prior.spec,
                checkpoint_at=(),
                checkpoint_fractions=(),
                checkpoint_completion_fracs=(),
                crash_fracs=hop,
                restart_of=prior.spec,
                restart_ckpt=committed - 1,
            )
            leg.validate()
            return leg, "image"
    original = attempts[0].spec
    leg = replace(original, crash_fracs=hop)
    leg.validate()
    return leg, "image" if original.restart_of is not None else "scratch"


def run_recovery(
    spec: RunSpec,
    policy: RecoveryPolicy | None = None,
    *,
    leg_faults: Sequence[Sequence[tuple[int, float]]] = (),
    engine: "ExperimentEngine | None" = None,
    initial: RunResult | None = None,
) -> RecoveryOutcome:
    """Run ``spec`` and chase any crash with bounded restart attempts.

    Args:
        spec: the job to run (may itself be a restart spec, and may
            carry ``crash_fracs`` — that is the point).
        policy: retry budget; ``None`` is the default policy.
        leg_faults: per-recovery-leg crash plans — ``leg_faults[i]`` is
            the ``crash_fracs`` armed on recovery leg ``i+1`` (empty /
            exhausted → the leg runs crash-free).  This is how
            multi-hop storms are expressed deterministically.
        engine: the :class:`ExperimentEngine` that executes each leg
            (auto-recovery suppressed for the legs — this function owns
            the loop).  ``None`` builds a throwaway in-process engine.
        initial: an already-computed result for ``spec`` (the engine's
            auto-recovery path passes the crashed result it just
            collected so leg 0 is not re-run).

    Returns a :class:`RecoveryOutcome`; it never raises on budget
    exhaustion — check ``outcome.completed`` (the ``recovery-chain``
    oracle raises :class:`RecoveryError` for you).
    """
    policy = policy or RecoveryPolicy()
    if engine is None:
        from .engine import ExperimentEngine

        engine = ExperimentEngine()
    hops = [_normalize_hop(h) for h in leg_faults]

    if initial is None:
        initial = engine.run_batch([spec], recover=False)[spec]
    outcome = RecoveryOutcome(policy=policy)
    outcome.attempts.append(RecoveryAttempt(spec=spec, result=initial))

    attempt = 0
    while outcome.attempts[-1].crashed and attempt < policy.max_attempts:
        attempt += 1
        hop = hops[attempt - 1] if attempt <= len(hops) else ()
        leg, how = _plan_next_leg(outcome.attempts, hop)
        result = engine.run_batch([leg], recover=False)[leg]
        outcome.attempts.append(
            RecoveryAttempt(spec=leg, result=result, restarted_from=how)
        )
    outcome.completed = not outcome.attempts[-1].crashed
    return outcome
