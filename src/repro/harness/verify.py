"""Fault-injection + differential-oracle verification subsystem.

The paper's central claim — a topological sort over collective
dependencies yields a *safe cut* under any interleaving of checkpoint
requests and application progress — is the kind of property that only
systematic adversarial validation keeps true as the system grows.  This
module checks that claim and the drain/restart semantics built on it
(the online-vs-offline cut test, commit through rank completion, drain
conservation, crash faults and recovery chains) as one reusable
subsystem.  Harness differentials (serial vs pool, cold vs tier-fed
restart) are pinned by the test suite, not here.

* :class:`FaultSchedule` — a seed-deterministic draw of the adversarial
  knobs: checkpoint-request timing (mid-run fractions *and*
  completion-window fractions that race rank exits), rank-completion
  staggering (the ``earlyexit`` app's shape), and restart depth.  The
  schedule's perturbations reach simulation through declarative
  :class:`RunSpec` fields (``checkpoint_fractions``,
  ``checkpoint_completion_fracs``, app kwargs), so they enter the spec
  content hash just like any figure cell.
* :class:`Oracle` — one check: run the scenario a fault schedule
  describes and compare two independent derivations of the same truth
  (online vs offline cut, interrupted vs uninterrupted fingerprint).
  The oracles share one vocabulary of leg helpers (crash draw,
  post-commit anchor, leaked-image and fingerprint checks).  Every leg
  runs in this process on :func:`~repro.harness.spec.execute` over the
  check's one deps map, under its ``max_events`` guard, and is never
  served from a cache: a verdict depends only on the code and the
  seed.
* :func:`run_oracles` — sweep oracles over seeds; every failure carries
  a *derandomized reproduction command* (``repro-mpi verify --oracle X
  --seeds 1 --base-seed N``) so a nightly CI hit replays locally in one
  paste.

``repro-mpi verify`` is the CLI face (``--jobs``, ``--bench-json``,
failing-seed artifact on mismatch).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ..des.errors import DeadlockError, SchedulingError
from ..mana import CheckpointRecord
from ..scenarios import SCENARIOS
from ..util.codec import Shape, decode, encode
from ..util.hashing import stable_json_hash
from .runner import RunResult
from .spec import RunSpec, execute

__all__ = [
    "FaultSchedule",
    "Oracle",
    "OracleMismatch",
    "OracleReport",
    "ORACLES",
    "check_payload",
    "program_position_for",
    "result_fingerprint",
    "run_oracles",
]


class OracleMismatch(AssertionError):
    """An oracle's two derivations of the same truth disagreed."""


def result_fingerprint(result: RunResult) -> str:
    """Determinism fingerprint of a run's application-visible outcome.

    Per-rank results only: virtual times, event counts, and checkpoint
    phase timings legitimately differ between an uninterrupted run and
    a restart — what must be byte-identical is what the application
    computed.
    """
    return stable_json_hash(encode(result.per_rank))


def program_position_for(program, rank: int, counts: dict) -> int:
    """Program position matching a rank's per-group executed counts.

    The inverse projection the safe-cut oracle needs: SEQ tables count
    per-group executions, positions index the rank's op sequence.
    """
    remaining = dict(counts)
    pos = 0
    for g in program.ops[rank]:
        if all(v <= 0 for v in remaining.values()):
            break
        if remaining.get(g, 0) > 0:
            remaining[g] -= 1
            pos += 1
        else:
            if any(v > 0 for v in remaining.values()):
                raise OracleMismatch(
                    f"rank {rank}: counts {counts} unreachable in program"
                )
            break
    if any(v != 0 for v in remaining.values()):
        raise OracleMismatch(
            f"rank {rank}: counts {counts} leave remainder {remaining}"
        )
    return pos


# --------------------------------------------------------------------- #
# Fault schedules
# --------------------------------------------------------------------- #

#: Modest storage so checkpoint phases stay fast at verification scale.
def _storage():
    from ..netmodel import StorageModel

    return StorageModel(base_latency=1e-4)


def _crash_draw(
    rng: np.random.Generator, ranks: Sequence[int], lo: float, hi: float
) -> "tuple[int, float]":
    """One ``(rank, frac)`` crash event: a victim drawn from ``ranks``,
    then a fraction in ``[lo, hi)`` rounded to 6 places.

    Every crash a schedule or an oracle fallback draws comes from here,
    always in this RNG call order, so each seed's schedule is bit-exact.
    """
    return (
        int(ranks[int(rng.integers(0, len(ranks)))]),
        round(float(rng.uniform(lo, hi)), 6),
    )


@dataclass(frozen=True)
class FaultSchedule:
    """One seed's adversarial scenario, fully declarative.

    Everything here flows into :class:`RunSpec` fields or app kwargs,
    so equal schedules build equal (content-hashed) specs.
    """

    seed: int
    protocol: str = "cc"
    nprocs: int = 4
    niters: int = 12
    shared: int = 4
    leavers: int = 1
    #: Request instants as fractions of the probe's earliest rank
    #: finish — the completion-race window (may exceed 1.0: requests
    #: landing after ranks exited).
    completion_fracs: tuple[float, ...] = (0.99,)
    #: Additional mid-run request instants (fractions of probe runtime).
    mid_fracs: tuple[float, ...] = ()
    #: How many restart legs to chain from the committed images.
    restart_depth: int = 1
    #: Which committed checkpoint the first restart adopts.
    restart_ckpt: int = 0
    #: Crash-fault events: ``(rank, frac)`` hard-kills ``rank`` at that
    #: fraction of the probe runtime.  Only the crash-aware specs
    #: (:meth:`crash_spec`) carry these — the graceful specs the
    #: commit-must-succeed oracles compare stay crash-free.
    crash_fracs: tuple[tuple[int, float], ...] = ()
    #: Multi-hop failure storm: ``recovery_crash_fracs[i]`` is the
    #: ``crash_fracs`` plan armed on recovery leg ``i+1`` of the
    #: bounded-retry chain the ``recovery-chain`` oracle drives (see
    #: :mod:`repro.harness.recovery`).  Recovery legs are restart specs,
    #: so a non-empty hop is exactly a crash *on a restart leg*, with
    #: fractions relative to that leg's own runtime.
    recovery_crash_fracs: tuple[tuple[tuple[int, float], ...], ...] = ()
    #: Canonical scenario string (:mod:`repro.scenarios`) the whole
    #: schedule runs under — fabric, straggler, degraded link — so the
    #: fuzzer explores scenarios against crashes and recovery chains.
    #: ``None`` is the unperturbed cluster.
    scenario: "str | None" = None

    #: Written only when armed: existing corpora hash schedules without
    #: these keys, and the fuzzer's content-addressed entry keys must
    #: not shift under them.
    __codec__ = Shape(when_set=("recovery_crash_fracs", "scenario"))

    @classmethod
    def draw(
        cls, seed: int, *, protocols: Sequence[str] = ("cc", "2pc")
    ) -> "FaultSchedule":
        """Deterministically derive a schedule from ``seed``.

        The draw covers the scenario axes the coordinator historically
        got wrong: requests just before/at/after the first rank exit,
        requests stacked so some defer behind an in-flight round, both
        protocols, single/chained restarts, and (new axes drawn last, so
        pre-existing seeds keep their schedules) ranks hard-killed
        before, during, or after the commit window.
        """
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
        nprocs = int(rng.integers(3, 6))
        niters = int(rng.integers(10, 15))
        shared = int(rng.integers(3, min(6, niters)))
        leavers = int(rng.integers(1, max(2, nprocs - 1)))
        n_completion = int(rng.integers(1, 3))
        completion_fracs = tuple(
            round(float(f), 6) for f in rng.uniform(0.85, 1.15, n_completion)
        )
        mid_fracs = (
            (round(float(rng.uniform(0.2, 0.7)), 6),)
            if rng.random() < 0.5
            else ()
        )
        n_commits = n_completion + len(mid_fracs)
        protocol = str(rng.choice(list(protocols)))
        restart_depth = int(rng.integers(1, 3))
        restart_ckpt = int(rng.integers(0, n_commits))
        ranks = range(nprocs)
        crash_fracs: tuple[tuple[int, float], ...] = ()
        if rng.random() < 0.4:
            crash_fracs = (_crash_draw(rng, ranks, 0.3, 1.1),)
            # Multi-rank simultaneous failure: with the round already
            # doomed by one corpse, a second corpse in the same round
            # must reclaim *its* debt sets too (drawn after every other
            # axis, so crash-free seeds keep their schedules).
            if rng.random() < 0.3:
                survivors = [r for r in ranks if r != crash_fracs[0][0]]
                second = _crash_draw(rng, survivors, 0.3, 1.1)
                crash_fracs = tuple(sorted(crash_fracs + (second,)))
        # Multi-hop storms: crashes armed on the *recovery legs* of the
        # retry chain chasing the crash above — i.e. crashes on restart
        # legs, landing while survivors rebuild the lower half or drain
        # restored p2p.  Drawn after every other axis (and only when a
        # first crash exists), so every pre-existing seed keeps its
        # schedule bit-exact.
        recovery_crash_fracs: tuple[tuple[tuple[int, float], ...], ...] = ()
        if crash_fracs and rng.random() < 0.5:
            hops = [(_crash_draw(rng, ranks, 0.15, 1.0),)]
            if rng.random() < 0.35:
                hops.append((_crash_draw(rng, ranks, 0.15, 1.0),))
            recovery_crash_fracs = tuple(hops)
        # Scenario axis: run the whole schedule — baseline, checkpoint,
        # crash, and every recovery leg — under a perturbed fabric or
        # compute condition.  Drawn after every other axis, so every
        # pre-existing seed keeps its schedule bit-exact.
        scenario: "str | None" = None
        if rng.random() < 0.35:
            scenario = str(rng.choice(sorted(SCENARIOS)))
        return cls(
            seed=seed,
            protocol=protocol,
            nprocs=nprocs,
            niters=niters,
            shared=shared,
            leavers=leavers,
            completion_fracs=completion_fracs,
            mid_fracs=mid_fracs,
            restart_depth=restart_depth,
            restart_ckpt=restart_ckpt,
            crash_fracs=crash_fracs,
            recovery_crash_fracs=recovery_crash_fracs,
            scenario=scenario,
        )

    # -- spec builders ------------------------------------------------- #

    def _app_kwargs(self) -> dict:
        return {
            "niters": self.niters,
            "shared": self.shared,
            "leavers": self.leavers,
            "memory_bytes": 1 << 20,
        }

    def _spec(self, **fields) -> RunSpec:
        """This schedule's job (app shape, protocol, seed, storage,
        scenario) with ``fields`` laid over it."""
        return RunSpec.create(
            "earlyexit",
            self.nprocs,
            app_kwargs=self._app_kwargs(),
            protocol=self.protocol,
            seed=self.seed,
            storage=_storage(),
            scenario=self.scenario,
            **fields,
        )

    def uninterrupted_spec(self) -> RunSpec:
        """The baseline run (identical to the checkpoint spec's probe,
        so a check's deps map serves one as the other)."""
        return self._spec()

    def checkpoint_spec(self) -> RunSpec:
        """The perturbed run: requests racing rank completion (plus any
        mid-run requests)."""
        return self.crash_spec(())

    def crash_spec(
        self, crash_fracs: "tuple[tuple[int, float], ...] | None" = None
    ) -> RunSpec:
        """The checkpointed run with the schedule's crash faults armed.

        ``crash_fracs`` overrides the drawn events (the crash oracle
        derives a deterministic fallback when the draw produced none).
        With no crash to inject this *is* :meth:`checkpoint_spec`.
        """
        fracs = self.crash_fracs if crash_fracs is None else tuple(crash_fracs)
        return self._spec(
            checkpoint_fractions=self.mid_fracs,
            checkpoint_completion_fracs=self.completion_fracs,
            crash_fracs=fracs,
        )

    def restart_spec(
        self,
        parent: RunSpec,
        index: int = 0,
        *,
        checkpoint_at: "tuple[float, ...]" = (),
    ) -> RunSpec:
        """A restart leg adopting ``parent``'s ``index``-th committed
        checkpoint."""
        return self._spec(
            restart_of=parent, restart_ckpt=index, checkpoint_at=checkpoint_at
        )

    def restart_chain(self, base_runtime: float) -> "list[RunSpec]":
        """``restart_depth`` chained restart specs from the checkpoint
        run's commits.

        Intermediate legs carry their own absolute-time request so the
        next leg has an image set to adopt; the request instant is a
        pure function of the (deterministic) base runtime, so the chain
        specs are too.
        """
        chain: list[RunSpec] = []
        parent = self.checkpoint_spec()
        ckpt_index = self.restart_ckpt
        for depth in range(self.restart_depth):
            last = depth == self.restart_depth - 1
            chain.append(
                self.restart_spec(
                    parent,
                    ckpt_index,
                    # Intermediate legs re-checkpoint (possibly past
                    # their own completion: a terminal snapshot is a
                    # legal parent now) so the chain can keep going.
                    checkpoint_at=() if last else (base_runtime * 1.5,),
                )
            )
            parent = chain[-1]
            ckpt_index = 0
        return chain


# --------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------- #

@dataclass
class OracleReport:
    """One oracle × seed outcome."""

    oracle: str
    seed: int
    ok: bool
    detail: str = ""
    #: Derandomized one-paste reproduction command.
    repro: str = ""
    #: Anomaly class for failing reports ("" while ``ok``):
    #: ``"mismatch"`` — the oracle's two derivations disagreed;
    #: ``"deadlock"`` — the simulation wedged (a genuine distributed
    #: deadlock, or a hung schedule dying at its ``max_events`` guard);
    #: ``"recovery"`` — a bounded-retry recovery chain exhausted its
    #: budget without reaching clean completion;
    #: ``"crash"`` — the oracle itself blew up (ProtocolError, SpecError…).
    kind: str = ""


def _classify_exception(exc: BaseException) -> str:
    """Anomaly class of a non-mismatch failure.

    A hung schedule surfaces either as a :class:`DeadlockError` (live
    processes blocked with no pending events) or as the ``max_events``
    guard tripping on a runaway poll loop (:class:`SchedulingError`) —
    both mean "this schedule wedged the simulation", which is its own
    anomaly class, distinct from an oracle implementation blowing up.
    A :class:`~repro.harness.recovery.RecoveryError` — the retry budget
    ran dry while the schedule kept crashing the chain — is likewise its
    own class: the interesting question it raises is "why did every
    restart leg die", not "which oracle broke".
    """
    from .recovery import RecoveryError

    if isinstance(exc, RecoveryError) or "RecoveryError" in str(exc):
        return "recovery"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, SchedulingError) and "max_events" in str(exc):
        return "deadlock"
    # ProcessFailed wraps the body's exception; a deadlock/runaway inside
    # a worker process arrives stringified, so match on the message too.
    if "max_events" in str(exc) or "DeadlockError" in str(exc):
        return "deadlock"
    return "crash"


class Oracle(ABC):
    """One differential check, sweepable over fault-schedule seeds."""

    #: Registry key and ``--oracle`` spelling.
    name: str = "abstract"
    #: One-line catalog entry (README / ``--help``).
    description: str = ""

    def check(self, seed: int) -> OracleReport:
        """Run the check for one seed; never raises.

        A mismatch is the oracle's verdict; any *other* exception — a
        ProtocolError, a simulated deadlock, a spec error — is exactly
        the kind of fault the sweep exists to surface, so it becomes a
        failing report too (with the same derandomized repro command)
        instead of crashing the remaining seeds and losing the artifact.
        """
        return self.check_schedule(FaultSchedule.draw(seed))

    def check_schedule(self, schedule: FaultSchedule) -> OracleReport:
        """:meth:`check` for an explicit (possibly hand-built) schedule.

        The fuzzer's shrinker re-checks *mutated* schedules that no seed
        draws; the report's ``seed`` and repro command refer to the
        schedule's originating seed.
        """
        seed = schedule.seed
        kind = ""
        try:
            detail = self.verify(schedule)
            ok = True
        except OracleMismatch as exc:
            detail = str(exc)
            ok = False
            kind = "mismatch"
        except Exception as exc:  # noqa: BLE001 - reported, never swallowed
            ok = False
            kind = _classify_exception(exc)
            if kind == "deadlock":
                detail = f"simulation wedged: {type(exc).__name__}: {exc}"
            else:
                detail = f"oracle crashed: {type(exc).__name__}: {exc}"
        return OracleReport(
            oracle=self.name,
            seed=seed,
            ok=ok,
            detail=detail,
            repro=f"repro-mpi verify --oracle {self.name} --seeds 1 --base-seed {seed}",
            kind=kind,
        )

    @abstractmethod
    def verify(self, schedule: FaultSchedule) -> str:
        """Perform the check; return a human-readable detail line or
        raise :class:`OracleMismatch`."""

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise OracleMismatch(message)


# --------------------------------------------------------------------- #
# Leg helpers: the vocabulary every oracle is written in
# --------------------------------------------------------------------- #

def _checked(label: str, res: RunResult) -> RunResult:
    """The gate every oracle leg passes before anything is compared:
    the job actually ran (not an NA cell) and conserved its drains per
    rank (restored + buffered == consumed + leftover)."""
    Oracle._require(not res.na_reason, f"{label} NA: {res.na_reason}")
    counters = zip(
        res.drain_restored, res.drain_buffered,
        res.drain_consumed, res.drain_leftover,
    )
    for rank, (restored, buffered, consumed, leftover) in enumerate(counters):
        Oracle._require(
            restored + buffered == consumed + leftover,
            f"{label}: rank {rank} drain imbalance — restored {restored} "
            f"+ buffered {buffered} != consumed {consumed} + leftover "
            f"{leftover}",
        )
    return res


def _run(label: str, spec: RunSpec, deps: "dict | None" = None) -> RunResult:
    """Execute one oracle leg in-process, gate it (:func:`_checked`), and
    record it in ``deps`` so later legs reuse it as probe or parent."""
    deps = {} if deps is None else deps
    deps[spec] = _checked(label, execute(spec, deps))
    return deps[spec]


def _require_no_leaks(label: str, res: RunResult) -> None:
    """An aborted round keeps no images, and in a run with corpses it
    aborted *for the crash*: the corpse's drain debts are reclaimed
    with the round, never leaked into the record."""
    for rec in res.checkpoints:
        if rec.aborted:
            Oracle._require(
                not rec.images,
                f"{label}: aborted record {rec.ckpt_id} leaked "
                f"{len(rec.images)} image(s)",
            )
            Oracle._require(
                not res.crashed_ranks or "crashed" in rec.abort_reason,
                f"{label}: record {rec.ckpt_id} aborted without a crash "
                f"reason: {rec.abort_reason!r}",
            )


def _require_fingerprint(label: str, res: RunResult, base: RunResult) -> None:
    """``res`` computed exactly what the uninterrupted ``base`` did."""
    got, want = result_fingerprint(res), result_fingerprint(base)
    Oracle._require(
        got == want, f"{label} fingerprint {got} != uninterrupted {want}"
    )


def _first_commit(
    schedule: FaultSchedule, deps: dict
) -> "tuple[RunResult, CheckpointRecord]":
    """The post-commit anchor: the graceful checkpoint run and its first
    committed record.

    A crash meant to land *after* a commit anchors on this record's
    ``t_resumed`` — checkpointing stretches the run well past the probe
    runtime, so drawn fractions of probe runtime land before any commit.
    The graceful run is deterministic, so the derived specs are too.
    """
    res = _run("ckpt run", schedule.checkpoint_spec(), deps)
    commits = [r for r in res.checkpoints if r.committed]
    Oracle._require(bool(commits), "graceful checkpoint run committed nothing")
    return res, commits[0]


class RankCompletionOracle(Oracle):
    """Checkpoint-through-rank-completion, end to end.

    A round racing rank completion must COMMIT (no ``abort_reason``),
    the interrupted run must finish with the uninterrupted run's
    per-rank results, and restarting from the committed images — to the
    schedule's chained depth — must reproduce the same determinism
    fingerprint.
    """

    name = "rank-completion"
    description = (
        "requests racing rank exits commit, and restart chains from the "
        "committed images reproduce the uninterrupted fingerprint"
    )

    def verify(self, schedule: FaultSchedule) -> str:
        deps: dict = {}
        base_res = _run("baseline", schedule.uninterrupted_spec(), deps)
        ckpt_res = _run("ckpt run", schedule.checkpoint_spec(), deps)

        n_requests = len(schedule.completion_fracs) + len(schedule.mid_fracs)
        self._require(
            len(ckpt_res.checkpoints) == n_requests,
            f"{n_requests} requests produced {len(ckpt_res.checkpoints)} records",
        )
        aborted = [r for r in ckpt_res.checkpoints if r.aborted or r.abort_reason]
        self._require(
            not aborted,
            "round(s) aborted instead of committing through completion: "
            + "; ".join(r.abort_reason or "<no reason>" for r in aborted),
        )
        self._require(
            all(r.committed for r in ckpt_res.checkpoints),
            "not every record committed",
        )

        _require_fingerprint("interrupted run", ckpt_res, base_res)

        for depth, leg in enumerate(schedule.restart_chain(base_res.runtime), 1):
            final = _run(f"depth-{depth} restart", leg, deps)
        _require_fingerprint(
            f"depth-{schedule.restart_depth} restart", final, base_res
        )
        finished_images = sum(
            1
            for rec in ckpt_res.checkpoints
            for im in rec.images.values()
            if getattr(im, "finished", False)
        )
        return (
            f"{n_requests} commit(s), {finished_images} finished-rank "
            f"image(s), depth-{schedule.restart_depth} restart fingerprint ok"
        )


def _safe_cut_detail(
    schedule: FaultSchedule, scenario: "str | None" = None
) -> str:
    """Shared body of the safe-cut check: online CC cut vs the offline
    topological-sort fixpoint, optionally under a scenario.

    Runs the schedule-known ``scheduled`` app, checkpoints it at a
    seed-drawn instant, and verifies the per-group SEQ values frozen in
    the images equal :func:`repro.core.graph.compute_safe_cut` applied
    to the request-time reports (paper Section 4.2.2).  The scenario changes
    *when* the cut lands (fabric and compute skew shift every request
    instant), never *whether* its structure is safe — exactly what the
    scenario-invariance oracle leans on.
    """
    from ..apps.scheduled import ScheduledMix
    from ..core import compute_safe_cut

    rng = np.random.default_rng(np.random.SeedSequence([0xC0DE, schedule.seed]))
    nprocs = int(rng.choice([4, 6]))
    niters = int(rng.integers(8, 13))
    frac = float(rng.uniform(0.15, 1.05))
    app_kwargs = {
        "niters": niters,
        "nprocs": nprocs,
        "schedule_seed": schedule.seed,
    }
    spec = RunSpec.create(
        "scheduled",
        nprocs,
        app_kwargs=app_kwargs,
        protocol="cc",
        seed=2,
        checkpoint_fractions=(frac,),
        storage=_storage(),
        scenario=scenario,
    )
    result = _run("run", spec)
    committed = [r for r in result.checkpoints if r.committed]
    Oracle._require(bool(committed), "request did not commit")

    program = ScheduledMix(**app_kwargs).offline_program()
    checked = 0
    for rec in committed:
        start = tuple(
            program_position_for(program, r, rec.seq_reports.get(r, {}))
            for r in range(nprocs)
        )
        cut = compute_safe_cut(program, start)
        for g, target in cut.targets.items():
            for r in program.members[g]:
                snap = rec.images[r].seq_table["seq"].get(g, 0)
                Oracle._require(
                    snap == target,
                    f"group {g:#x}: rank {r} snapshot seq {snap} != "
                    f"oracle target {target}",
                )
                checked += 1
    return f"{len(committed)} cut(s), {checked} (group, rank) targets match"


class SafeCutOracle(Oracle):
    """Online CC cut vs the offline topological-sort fixpoint.

    See :func:`_safe_cut_detail` — the check honors the schedule's drawn
    scenario, so the fuzzer stresses cut structure under perturbed
    fabrics and compute skew too.
    """

    name = "safe-cut"
    description = (
        "committed SEQ tables equal the offline topological-sort fixpoint "
        "of the request-time reports"
    )

    def verify(self, schedule: FaultSchedule) -> str:
        return _safe_cut_detail(schedule, scenario=schedule.scenario)


class DrainConservationOracle(Oracle):
    """Message conservation through the drain buffer (Section 4.3.3).

    Three independent derivations of "no message is lost or forged
    across a cut": (a) every run — graceful, restarted, or crashed —
    satisfies restored + buffered == consumed + leftover per rank at
    job end; (b) a restart's restored count equals exactly the message
    count frozen in the image it adopted, and everything restored is
    consumed or still buffered (nothing re-drained); (c) a round
    aborted by a crash keeps no partial images — the corpse's debts are
    reclaimed with the round, not leaked into the record.
    """

    name = "drain-conservation"
    description = (
        "messages drained into a checkpoint equal the messages restored "
        "and consumed after resume, and crash-aborted rounds reclaim "
        "(not leak) the corpse's drain debts"
    )

    def verify(self, schedule: FaultSchedule) -> str:
        parent = schedule.checkpoint_spec()
        deps: dict = {}
        parent_res = _run("ckpt run", parent, deps)

        committed = [r for r in parent_res.checkpoints if r.committed]
        self._require(bool(committed), "checkpoint run committed nothing")
        idx = min(schedule.restart_ckpt, len(committed) - 1)
        restart_res = _run("restart", schedule.restart_spec(parent, idx), deps)
        images = committed[idx].images
        total = 0
        for rank in range(schedule.nprocs):
            frozen = images[rank].counts["drained"]
            restored = restart_res.drain_restored[rank]
            self._require(
                restored == frozen,
                f"rank {rank}: image froze {frozen} drained message(s) but "
                f"the restart restored {restored}",
            )
            self._require(
                restart_res.drain_buffered[rank] == 0,
                f"rank {rank}: restart re-drained "
                f"{restart_res.drain_buffered[rank]} message(s) on a leg "
                "with no checkpoint request",
            )
            total += frozen

        crash_note = ""
        if schedule.crash_fracs:
            crash_res = _run("crash run", schedule.crash_spec(), deps)
            _require_no_leaks("crash run", crash_res)
            crash_note = (
                f", crash leg conserved ({len(crash_res.crashed_ranks)} corpse(s))"
            )
        return f"{total} drained message(s) conserved through restart{crash_note}"


class CrashFaultOracle(Oracle):
    """Crash faults end to end: a dead rank is not a finished rank.

    Hard-kills a rank (the schedule's drawn crash, or a deterministic
    fallback so every seed exercises the path) and verifies: the corpse
    never finishes and reports no result; surviving requests in flight
    abort with a crash-specific reason and keep no images; no round
    commits after the crash; and a restart from the last committed
    image — which excludes the crash — reproduces the uninterrupted
    run's determinism fingerprint.
    """

    name = "crash-fault"
    description = (
        "a hard-killed rank aborts in-flight rounds (distinct reason, "
        "no leaked images), later requests abort immediately, and "
        "restart from the last pre-crash commit matches the "
        "uninterrupted fingerprint"
    )

    def _check_crash_run(
        self,
        label: str,
        crash_res: RunResult,
        crash_times: "dict[int, float]",
    ) -> "tuple[list, list]":
        """Corpse semantics shared by both legs; returns (committed,
        aborted) records of the crash run."""
        self._require(
            set(crash_res.crashed_ranks) <= set(crash_times),
            f"{label}: unexpected corpse(s) {crash_res.crashed_ranks} vs "
            f"injected {sorted(crash_times)}",
        )
        for rank, t in crash_times.items():
            finish = crash_res.rank_finish_times[rank]
            if rank in crash_res.crashed_ranks:
                self._require(
                    finish is None and crash_res.per_rank[rank] is None,
                    f"{label}: crashed rank {rank} still reported a finish "
                    f"({finish!r}) / result — a corpse is not a finished rank",
                )
            else:
                # A rank whose kill never landed either finished first
                # (raced completion and won) — or the job was torn down
                # by an *earlier* corpse before this rank's instant, in
                # which case it neither finishes nor crashes.
                torn_down_first = any(
                    crash_times[other] < t
                    for other in crash_res.crashed_ranks
                    if other != rank
                )
                self._require(
                    (finish is not None and finish <= t) or torn_down_first,
                    f"{label}: rank {rank} neither crashed nor finished "
                    f"before its crash instant {t:g} (finish={finish!r})",
                )
        committed = [r for r in crash_res.checkpoints if r.committed]
        aborted = [r for r in crash_res.checkpoints if r.aborted]
        _require_no_leaks(label, crash_res)
        if crash_res.crashed_ranks:
            first_crash = min(
                t for r, t in crash_times.items() if r in crash_res.crashed_ranks
            )
            for rec in committed:
                self._require(
                    rec.t_request < first_crash,
                    f"{label}: record {rec.ckpt_id} committed from a request "
                    f"at {rec.t_request:g}, after the crash at {first_crash:g}",
                )
        return committed, aborted

    def verify(self, schedule: FaultSchedule) -> str:
        rng = np.random.default_rng(np.random.SeedSequence([0xDEAD, schedule.seed]))
        fallback = _crash_draw(rng, range(schedule.nprocs), 0.35, 0.95)
        early_fracs = schedule.crash_fracs or (fallback,)
        deps: dict = {}
        base_res = _run("baseline", schedule.uninterrupted_spec(), deps)

        # Leg 1 — the schedule's drawn crash (or an early fallback):
        # typically lands mid-protocol, before any round finishes its
        # storage write, so it exercises the abort/reclaim paths.
        early_res = _run("crash run", schedule.crash_spec(early_fracs), deps)
        times = {r: f * base_res.runtime for r, f in early_fracs}
        _committed, aborted = self._check_crash_run("early", early_res, times)
        early_note = (
            f"{len(early_res.crashed_ranks)} corpse(s), "
            f"{len(aborted)} crash-abort(s)"
            if early_res.crashed_ranks
            else "crash raced completion and lost"
        )

        # Leg 2 — the fallback rank killed after the post-commit anchor:
        # this leg is what proves a commit survives a later crash.
        _graceful, first = _first_commit(schedule, deps)
        victim = fallback[0]
        late_frac = round(first.t_resumed * 1.1 / base_res.runtime, 6)
        late = schedule.crash_spec(((victim, late_frac),))
        late_res = _run("late-crash", late, deps)
        times = {victim: late_frac * base_res.runtime}
        committed, _ = self._check_crash_run("late", late_res, times)
        self._require(
            bool(committed),
            "no commit survived a crash anchored after the first round's "
            f"resume ({first.t_resumed:g})",
        )

        # Recovery: restart from the last committed image — which
        # excludes the crash — must reproduce the uninterrupted run.
        restart = schedule.restart_spec(late, len(committed) - 1)
        _require_fingerprint(
            "restart-past-crash", _run("restart", restart, deps), base_res
        )
        return (
            f"early leg: {early_note}; late leg: {len(committed)} pre-crash "
            "commit(s), restart past the crash matches the baseline"
        )


class RecoveryChainOracle(Oracle):
    """Bounded-retry recovery: crash → restart → crash → … → baseline.

    Arms the schedule's drawn crash (or a deterministic fallback) on the
    checkpointed run, then drives :func:`repro.harness.recovery.run_recovery`
    with the schedule's multi-hop plan (``recovery_crash_fracs``; a
    fallback hop is armed when the draw produced none, so every seed
    exercises a crash *on a restart leg*).  Verifies the chain reaches
    clean completion inside the budget, the recovered final fingerprint
    is byte-identical to the uninterrupted run's, no leg leaks images
    out of a crash-aborted round, and per-rank drain conservation holds
    on every hop.
    """

    name = "recovery-chain"
    description = (
        "a crash — even one landing on a restart leg — recovers under "
        "bounded retry to the uninterrupted run's fingerprint, with no "
        "leaked images and drain conservation across every hop"
    )

    def verify(self, schedule: FaultSchedule) -> str:
        from .recovery import RecoveryError, RecoveryPolicy, run_recovery

        rng = np.random.default_rng(
            np.random.SeedSequence([0x2ECF, schedule.seed])
        )
        ranks = range(schedule.nprocs)
        hops = schedule.recovery_crash_fracs or (
            (_crash_draw(rng, ranks, 0.2, 0.9),),
        )

        deps: dict = {}
        base_res = _run("baseline", schedule.uninterrupted_spec(), deps)

        # Arm the chain's first crash just past the post-commit anchor
        # (:func:`_first_commit`).  With an image committed, recovery leg 1 is an image restart
        # carrying the first hop's faults: a crash landing while
        # survivors rebuild the lower half / replay comm creation /
        # drain restored p2p — the scenario this oracle exists for.
        graceful_res, first = _first_commit(schedule, deps)
        instant = first.t_resumed * 1.05
        # The crash run's timeline is identical to the graceful run's up
        # to the crash, so the graceful finish times tell us who is
        # still alive at the instant — a victim that already exited
        # would lose the race and the chain would never start.  Prefer a
        # drawn crash rank when one qualifies.
        finish = graceful_res.rank_finish_times
        alive = [r for r in ranks if finish[r] is None or finish[r] > instant]
        if alive:
            drawn = [r for r, _f in schedule.crash_fracs if r in alive]
            victim = drawn[0] if drawn else alive[int(rng.integers(0, len(alive)))]
            crash_fracs = ((victim, round(instant / base_res.runtime, 6)),)
        else:
            # Every rank exited before the first commit (a terminal
            # snapshot from a request that raced completion past all
            # exits): no post-commit crash exists, so this seed
            # exercises the *degraded* chain — an early crash that
            # commits nothing and recovers from scratch.
            crash_fracs = schedule.crash_fracs or (
                _crash_draw(rng, ranks, 0.3, 0.9),
            )

        # Budget: enough for every armed hop plus slack, and never less
        # than the default.
        policy = RecoveryPolicy(max_attempts=max(3, len(hops) + 2))
        outcome = run_recovery(
            schedule.crash_spec(crash_fracs), policy, leg_faults=hops
        )
        if not outcome.completed:
            raise RecoveryError(
                f"retry budget ({policy.max_attempts}) exhausted: "
                + outcome.describe()
            )
        if alive:
            self._require(
                any(
                    a.spec.restart_of is not None for a in outcome.attempts[1:]
                ),
                "chain never took an image-restart leg despite a post-commit "
                "crash: " + outcome.describe(),
            )

        for i, attempt in enumerate(outcome.attempts):
            label = f"leg {i} ({attempt.restarted_from})"
            _require_no_leaks(label, _checked(label, attempt.result))
        _require_fingerprint(
            f"recovered ({outcome.describe()})", outcome.final_result, base_res
        )
        restart_leg_crashes = sum(
            1
            for a in outcome.attempts
            if a.spec.restart_of is not None and a.crashed
        )
        return (
            f"{outcome.describe()}; {restart_leg_crashes} restart-leg "
            f"crash(es), fingerprint matches baseline, chain {outcome.chain_key()}"
        )


class ScenarioInvarianceOracle(Oracle):
    """Every registered scenario preserves the system's invariants.

    Per scenario, in-process: the checkpointed run commits, drain
    conservation holds on every rank, and safe-cut structure matches the
    offline topological-sort fixpoint — a scenario may change *when*
    things happen, never *whether* the protocol is correct.
    """

    name = "scenario-invariance"
    description = (
        "every registered scenario commits, conserves drains, and keeps "
        "the safe cut"
    )

    def verify(self, schedule: FaultSchedule) -> str:
        names = sorted(SCENARIOS)
        for name in names:
            res = _run(name, replace(schedule, scenario=name).checkpoint_spec())
            self._require(
                any(r.committed for r in res.checkpoints),
                f"{name}: checkpoint run committed nothing",
            )
            _safe_cut_detail(schedule, scenario=name)
        return f"{len(names)} scenario(s) committed, conserved, and cut-safe"


#: Oracle catalog, ``--oracle`` spelling -> instance.
ORACLES: "dict[str, Oracle]" = {
    oracle.name: oracle
    for oracle in (
        RankCompletionOracle(),
        SafeCutOracle(),
        DrainConservationOracle(),
        CrashFaultOracle(),
        RecoveryChainOracle(),
        ScenarioInvarianceOracle(),
    )
}


def check_payload(name: str, schedule: FaultSchedule) -> dict:
    """The :func:`repro.harness.dispatch.fan_out` job for one check."""
    return {"kind": "check", "oracle": name, "schedule": encode(schedule)}


def run_oracles(
    names: Iterable[str],
    seeds: Iterable[int],
    *,
    progress=None,
    jobs: int = 1,
) -> "list[OracleReport]":
    """Sweep the named oracles over ``seeds``; returns every report.

    ``progress``, if given, is called with each report as it lands.
    Unknown oracle names raise ``KeyError`` with the catalog spelled out.

    Every (oracle, seed) check is one job through
    :func:`repro.harness.dispatch.fan_out` — in this process at
    ``jobs=1``, over a spawn-safe pool at ``jobs=N``.  Reports (and
    ``progress`` calls) come in
    (oracle-order, seed-order) sequence whatever the completion order
    and carry the same contents — each check is an independent
    simulation, so the fan-out can only change wall time, never a
    report (``tests/verify`` pins the byte-identity).
    """
    from .dispatch import fan_out

    seeds = list(seeds)
    tasks: list[tuple[str, int]] = []
    for name in names:
        if name not in ORACLES:
            raise KeyError(
                f"unknown oracle {name!r}; expected one of {sorted(ORACLES)}"
            )
        tasks.extend((name, seed) for seed in seeds)

    payloads = [
        check_payload(name, FaultSchedule.draw(seed)) for name, seed in tasks
    ]
    landed: "dict[int, OracleReport]" = {}
    reports: list[OracleReport] = []
    for index, value in fan_out(payloads, jobs=jobs):
        landed[index] = decode(OracleReport, value["report"])
        while len(reports) in landed:
            reports.append(landed.pop(len(reports)))
            if progress is not None:
                progress(reports[-1])
    return reports
