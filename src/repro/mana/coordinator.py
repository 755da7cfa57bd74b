"""The checkpoint coordinator — the DMTCP-coordinator analog.

The coordinator is *event-driven*: it never blocks a simulated process.
Ranks talk to it over the control plane (each message pays the control
latency), and it drives the checkpoint state machine:

    idle -> [collect SEQ reports (CC only, Algorithm 1)]
         -> draining (ranks run to their targets; 2PC ranks stall at
            trivial barriers)
         -> confirming (quiescence double-check)
         -> committing (drain non-blocking collectives; exchange p2p
            counts; drain in-flight p2p; write images)
         -> idle

A rank whose application has already returned participates through a
:class:`_FinishedRankProxy` — the checkpoint-thread analog for a rank
whose main thread is gone.  The proxy services the dead rank's control
mailbox and reports it as *trivially parked*: the rank sits at its
terminal program position with empty in-flight sets, so the round
commits straight through rank completion (the coordinator used to
abort these rounds; see ``tests/verify``).

Control-plane broadcasts (intent / targets / confirm / commit / drain /
snapshot / resume) are *batched*: one fan-out enters the event queue as
a single :meth:`~repro.des.kernel.Simulator.defer_batch_at` entry that
counts as one logical event per rank delivery, so the queue carries one
entry per phase instead of ~2 per rank while event counts — and thus
determinism fingerprints — stay byte-identical to the per-rank
schedule.

Checkpoint timing (request-to-written, phase breakdown) is recorded per
checkpoint — the measurement behind Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from ..core import PROTOCOLS, QuiescenceTracker
from ..core.protocol import ProtocolError
from ..netmodel import StorageModel
from .image import CheckpointImage

if TYPE_CHECKING:  # pragma: no cover
    from ..des import SimProcess, Simulator
    from .session import Session

__all__ = ["CheckpointCoordinator", "CheckpointRecord"]


@dataclass
class CheckpointRecord:
    """Timing and contents of one checkpoint attempt."""

    ckpt_id: int
    protocol: str
    t_request: float
    t_targets: float | None = None
    t_quiesced: float | None = None
    t_drained: float | None = None
    t_written: float | None = None
    t_resumed: float | None = None
    aborted: bool = False
    abort_reason: str = ""
    images: dict[int, CheckpointImage] = field(default_factory=dict)
    total_image_bytes: int = 0
    #: Request-time SEQ tables (CC only): rank -> {ggid: seq}.  Retained
    #: so tests can compare the online cut against the offline
    #: topological-sort oracle.
    seq_reports: dict[int, dict[int, int]] = field(default_factory=dict)
    #: The targets computed from the reports (Algorithm 1's output).
    initial_targets: dict[int, int] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.t_written is not None and not self.aborted

    @property
    def checkpoint_time(self) -> float:
        """Request-to-images-written duration (Figure 9's checkpoint time)."""
        if self.t_written is None:
            raise ValueError("checkpoint did not complete")
        return self.t_written - self.t_request

    @property
    def drain_time(self) -> float:
        if self.t_drained is None:
            raise ValueError("checkpoint did not reach the drain phase")
        return self.t_drained - self.t_request


class _FinishedRankProxy:
    """Coordinator-side stand-in for a rank whose process has exited.

    A rank that returns from its application before it learns of a
    checkpoint intent can never park — its main thread is gone — and
    the round used to deadlock (then, after PR 3, abort).  The proxy is
    the DMTCP checkpoint-thread analog for that rank: it taps the dead
    rank's control mailbox and answers every coordinator message the
    way a *trivially parked* rank would:

    * ``intent``       -> report parked (terminal position, nothing to
      drain: every collective this rank ever joined completed, so every
      other member has already executed it too);
    * ``targets``      -> verify no target exceeds the terminal SEQ
      table (impossible for a legal program — a higher target would
      mean a peer executed a collective this rank never joined);
    * ``target_update``-> count it received and re-report park state so
      Mattern's control-message sums still balance;
    * ``confirm?``     -> vote still-parked;
    * ``commit``/``drain_p2p``/``snapshot``/``resume`` -> run the
      rank-side commit sequence against the (still live) session
      object: report sent counts, verify nothing is left in flight for
      this rank, build and "write" the image with the same modelled
      storage delay a live rank pays.

    Every reply goes through the session's own
    :meth:`~repro.mana.session.Session.to_coordinator` (a park report
    through :meth:`~repro.core.protocol.RankProtocol.report_parked`), so
    it pays the control latency a live rank's would and proxied rounds
    stay deterministic and timing-faithful.
    """

    def __init__(self, coordinator: "CheckpointCoordinator", rank: int):
        self.rank = rank
        self.sess = coordinator.sessions[rank]
        #: True between intent and resume/abort; messages arriving
        #: outside an active round are absorbed without reports (e.g. a
        #: straggling target update delivered after the round ended).
        self.active = False

    def install(self) -> None:
        """Start servicing the rank's control mailbox.

        Anything delivered between process exit and proxy installation
        is sitting in the mailbox queue; drain it first, then tap every
        future delivery.
        """
        self.sess.control.add_tap(self._drain)
        self._drain()

    def uninstall(self) -> None:
        """Stop servicing the mailbox (job teardown)."""
        self.sess.control.remove_tap(self._drain)

    # -- mailbox servicing --------------------------------------------- #

    def _drain(self) -> None:
        while True:
            ok, msg = self.sess.control.try_get()
            if not ok:
                return
            self._handle(msg)

    # -- message handling ---------------------------------------------- #

    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        sess = self.sess
        if kind == "intent":
            self.active = True
            sess.protocol.ckpt_id = msg[1]
            sess.protocol.report_parked()
        elif kind == "targets":
            self._check_targets(msg[1])
        elif kind == "target_update":
            # Nothing to chase (terminal position), but the receive must
            # be counted and re-reported or the coordinator's quiescence
            # sums never balance.
            sess.ctrl_received += 1
            self._check_targets({msg[1]: msg[2]})
            if self.active:
                sess.protocol.report_parked()
        elif kind == "confirm?":
            if self.active:
                sess.to_coordinator(
                    ("confirm", self.rank, True, sess.ctrl_sent, sess.ctrl_received)
                )
        elif kind == "commit":
            self._commit()
        elif kind == "drain_p2p":
            self._verify_drained(msg[1])
            sess.to_coordinator(("p2p_done", self.rank, sess.declared_bytes))
        elif kind == "snapshot":
            image = sess.build_image()
            image.stats["drained_nbc"] = 0
            image.stats["drained_p2p"] = 0
            # The live-rank timing: image written after the modelled
            # storage delay, then one control latency back.
            sess.sim.call_after(
                msg[1], lambda: sess.to_coordinator(("written", self.rank, image))
            )
        elif kind == "resume":
            self.active = False
            sess.protocol.ckpt_id = None
            sess._reset_after_checkpoint()
        elif kind == "abort":
            self.active = False
            sess.protocol.ckpt_id = None
        else:  # pragma: no cover - defensive
            raise ProtocolError(
                f"finished rank {self.rank}: proxy cannot handle {msg!r}"
            )

    def _check_targets(self, targets: dict[int, int]) -> None:
        sess = self.sess
        for ggid, target in targets.items():
            if ggid in sess.ggids and target > sess.seq.seq.get(ggid, 0):
                raise ProtocolError(
                    f"finished rank {self.rank}: target {target} on group "
                    f"{ggid:#x} exceeds its terminal SEQ "
                    f"{sess.seq.seq.get(ggid, 0)} — a peer executed a "
                    "collective this rank never joined"
                )

    def _commit(self) -> None:
        sess = self.sess
        dangling = [
            vr for vr in sess.live_requests() if vr.is_collective and not vr.done
        ]
        if dangling:
            raise ProtocolError(
                f"finished rank {self.rank}: exited with incomplete "
                f"non-blocking collectives {dangling!r}"
            )
        sess.to_coordinator(("nbc_done", self.rank, dict(sess.sent_to)))

    def _verify_drained(self, expected: dict[tuple, int]) -> None:
        """A finished rank drained everything by running to completion:
        every message ever addressed to it was received before it
        exited.  Anything still owed means a peer sent to a rank that
        no longer receives — an application bug, not a protocol race.
        """
        sess = self.sess
        for key, n in expected.items():
            have = sess.recv_done.get(key, 0)
            if have != n:
                raise ProtocolError(
                    f"finished rank {self.rank}: peer sent {n} message(s) "
                    f"for {key} but only {have} were ever received — "
                    "message addressed to a finished rank"
                )


class CheckpointCoordinator:
    """Protocol-agnostic coordinator; protocol specifics via CoordinatorLogic."""

    def __init__(
        self,
        sim: "Simulator",
        protocol_name: str,
        *,
        storage: StorageModel | None = None,
        nnodes: int = 1,
    ):
        if protocol_name not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol_name!r}")
        _proto, logic_cls = PROTOCOLS[protocol_name]
        self.sim = sim
        self.protocol_name = protocol_name
        self.logic = logic_cls()
        self.storage = storage or StorageModel()
        self.nnodes = nnodes
        self.sessions: dict[int, "Session"] = {}
        self.procs: dict[int, "SimProcess"] = {}
        self.records: list[CheckpointRecord] = []
        self.finished_ranks: set[int] = set()
        #: Ranks whose process was hard-killed (crash-fault injection).
        #: A crashed rank is *not* a finished rank: no proxy ever answers
        #: for it, rounds it participates in abort, and requests issued
        #: while it is dead abort immediately.
        self.crashed_ranks: set[int] = set()
        self._teardown_scheduled = False
        self._proxies: dict[int, _FinishedRankProxy] = {}
        self._state = "idle"
        self._next_ckpt_id = 0
        self._deferred_requests = 0
        self._aborted_rounds = 0
        self._tracker: QuiescenceTracker | None = None
        self._record: CheckpointRecord | None = None
        self._seq_reports: dict[int, dict[int, int]] = {}
        self._nbc_reports: dict[int, dict] = {}
        self._p2p_done: dict[int, int] = {}
        self._written: dict[int, CheckpointImage] = {}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, sessions: dict[int, "Session"], procs: dict[int, "SimProcess"]) -> None:
        self.sessions = sessions
        self.procs = procs

    def close(self) -> None:
        """Teardown: detach the ranks and retire the finished-rank
        proxies (each is tapped into its session's control mailbox), so
        refcounting frees the job.  ``records`` stay readable."""
        for proxy in self._proxies.values():
            proxy.uninstall()
        self._proxies = {}
        self.attach({}, {})

    @property
    def nprocs(self) -> int:
        return len(self.sessions)

    @property
    def state(self) -> str:
        return self._state

    @property
    def _control_latency(self) -> float:
        """The job's control-plane latency: every session shares one
        ``world.overheads``."""
        return next(iter(self.sessions.values())).overheads.control_latency

    def _send_to_rank(self, rank: int, msg: tuple) -> None:
        sess = self.sessions[rank]
        latency = sess.overheads.control_latency
        sess.control.put(msg, delay=latency)
        proc = self.procs.get(rank)
        if proc is not None and proc.alive:
            # Interrupt interruptible compute so the rank notices promptly
            # (the DMTCP signal analog); a no-op for ranks blocked in MPI.
            self.sim.call_after(latency, lambda: proc.alive and proc.interrupt())

    def _broadcast(self, msg: tuple) -> None:
        self._broadcast_each({rank: msg for rank in self.sessions})

    def _broadcast_each(self, msgs: "dict[int, tuple]") -> None:
        """Deliver a per-rank message map as ONE batched queue entry.

        The per-rank sends of a control-plane fan-out are issued
        back-to-back with nothing in between, so their queue entries
        draw consecutive sequence numbers and fire in rank order with
        no possible interleaving — which means running all the delivery
        bodies inside a single :meth:`Simulator.defer_batch_at` entry
        preserves the global dispatch order exactly.  The entry counts
        as one logical event per delivery (plus one per interrupt
        nudge), keeping event counts — and determinism fingerprints —
        byte-identical to the per-rank schedule of :meth:`_send_to_rank`.
        """
        if not msgs:
            return  # no ranks attached
        latency = self._control_latency
        if latency <= 0.0:
            # Zero latency delivers synchronously inside put(): no queue
            # entry to batch.
            for rank, msg in msgs.items():
                self._send_to_rank(rank, msg)
            return
        sessions = self.sessions
        plan: list[tuple[int, tuple, bool]] = []
        count = 0
        for rank, msg in msgs.items():
            proc = self.procs.get(rank)
            nudge = proc is not None and proc.alive
            plan.append((rank, msg, nudge))
            count += 2 if nudge else 1

        def fire() -> None:
            procs = self.procs
            for rank, msg, nudge in plan:
                sessions[rank].control.put(msg)
                if nudge:
                    proc = procs[rank]
                    if proc.alive:
                        proc.interrupt()

        self.sim.defer_batch_at(self.sim.now() + latency, fire, count)

    # ------------------------------------------------------------------ #
    # Checkpoint request entry point
    # ------------------------------------------------------------------ #

    def request_checkpoint(self) -> None:
        """Begin a checkpoint now.  Schedule with ``sim.call_at``.

        A request arriving while a checkpoint is in progress is deferred
        until the current one commits (the DMTCP coordinator serializes
        checkpoints the same way).
        """
        if not self.sessions:
            raise ProtocolError("coordinator has no attached sessions")
        if self._state != "idle":
            self._deferred_requests += 1
            return
        ckpt_id = self._next_ckpt_id
        self._next_ckpt_id += 1
        if self.crashed_ranks:
            # A round with a dead participant can never quiesce, let
            # alone commit: record the attempt as aborted without even
            # broadcasting the intent.  Recovery is a restart from the
            # last committed image set, which excludes the crash.
            record = CheckpointRecord(
                ckpt_id=ckpt_id,
                protocol=self.protocol_name,
                t_request=self.sim.now(),
            )
            record.aborted = True
            record.abort_reason = (
                f"rank(s) {sorted(self.crashed_ranks)} crashed before the request"
            )
            self.records.append(record)
            self._aborted_rounds += 1
            return
        self._record = CheckpointRecord(
            ckpt_id=ckpt_id,
            protocol=self.protocol_name,
            t_request=self.sim.now(),
        )
        self.records.append(self._record)
        # Ranks that already finished are checkpointed *through*: their
        # proxies answer the intent with a trivially-parked report and
        # the round commits a terminal image for them.
        for rank in sorted(self.finished_ranks):
            self._install_proxy(rank)
        self._tracker = QuiescenceTracker(nprocs=self.nprocs)
        self._seq_reports.clear()
        self._nbc_reports.clear()
        self._p2p_done.clear()
        self._written.clear()
        self._state = "collecting" if self.logic.collects_seq_reports else "draining"
        self._broadcast(("intent", ckpt_id))
        if self.logic.collects_seq_reports:
            # Algorithm 1, out-of-band: the per-rank checkpoint thread
            # reads the wrapper's SEQ table at intent-delivery time and
            # reports it without the main thread's cooperation.  Reading
            # at delivery time guarantees any increment made before the
            # rank could learn of the checkpoint is included in the
            # global max — otherwise that operation could be buried
            # inside a blocking collective with no way to raise targets.
            for rank in self.sessions:
                sess = self.sessions[rank]
                latency = sess.overheads.control_latency

                def report(rank: int = rank, sess=sess) -> None:
                    self.deliver(("seq_report", rank, dict(sess.seq.seq)))

                self.sim.call_after(latency * 1.0000001, report)

    # ------------------------------------------------------------------ #
    # Message dispatch
    # ------------------------------------------------------------------ #

    #: Rank->coordinator kinds that may legitimately straggle in after a
    #: round was aborted (the sender had not yet seen the abort).  The
    #: commit-phase kinds are included because a crash can now abort a
    #: round *mid-commit* — survivors that had already reported keep
    #: their messages in flight past the abort.
    _STALE_OK = (
        "seq_report",
        "parked",
        "unparked",
        "confirm",
        "nbc_done",
        "p2p_done",
        "written",
    )

    def deliver(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "finished":
            # The rank's application returned.  If it had a pending
            # intent it already parked and participated before sending
            # this; if not (the intent is still in flight, or a later
            # round starts), its proxy takes over its control mailbox —
            # the round commits through rank completion instead of
            # aborting (or, before PR 3, deadlocking).
            self.finished_ranks.add(msg[1])
            self._install_proxy(msg[1])
            return
        if self._state == "idle":
            if self._aborted_rounds and kind in self._STALE_OK:
                return
            raise ProtocolError(f"coordinator idle but received {msg!r}")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            raise ProtocolError(f"coordinator cannot handle {msg!r}")
        handler(msg)

    def _install_proxy(self, rank: int) -> None:
        """Hand the finished rank's control plane to its proxy (idempotent).

        A completion noted before sessions are attached (coordinator
        still being wired) is only recorded; the proxy installs when the
        next checkpoint request finds the rank in ``finished_ranks``.
        """
        if rank not in self._proxies and rank in self.sessions:
            proxy = _FinishedRankProxy(self, rank)
            self._proxies[rank] = proxy
            proxy.install()

    def on_rank_crashed(self, rank: int) -> None:
        """Failure-detector input: ``rank``'s process was hard-killed.

        Called (after a detection latency) by whoever injected the
        crash.  The corpse is *not* a finished rank — no proxy answers
        for it — so an in-progress round has lost a participant and can
        never complete: abort it with a distinct reason, reclaiming
        whatever drain/commit state the round still owed to the corpse
        (the per-phase report maps are cleared with the round).
        """
        if rank in self.finished_ranks:
            # The application already returned and its terminal result
            # is recorded; a process death after that changes nothing
            # the protocol can observe.
            return
        self.crashed_ranks.add(rank)
        if not self._teardown_scheduled:
            # The job cannot survive a dead member: survivors eventually
            # block (or spin in a test loop) on communication the corpse
            # will never answer, so — as DMTCP does on a member failure —
            # the coordinator tears the job down and recovery restarts
            # from the last committed image set.  The grace period lets
            # the abort below reach parked survivors first, keeping the
            # round's teardown observable.
            self._teardown_scheduled = True
            self.sim.call_after(
                max(self._control_latency, 1e-9) * 8, self._teardown_job
            )
        if self._state != "idle":
            reclaimed = sum(
                rank not in reported
                for reported in (
                    self._nbc_reports,
                    self._p2p_done,
                    self._written,
                )
            )
            self._abort_round(
                f"rank {rank} crashed during {self._state}"
                + (f" ({reclaimed} outstanding commit report(s) reclaimed)"
                   if self._state.startswith("commit_") else "")
            )

    def _teardown_job(self) -> None:
        """Hard-stop every surviving rank after a member crash.

        :meth:`Simulator.kill_process` is a no-op for processes that
        already finished (or crashed), so ranks that completed before
        the teardown keep their recorded results.
        """
        for proc in self.procs.values():
            self.sim.kill_process(proc)

    def _abort_round(self, reason: str) -> None:
        """Abandon the in-flight round: record why, release every parked
        rank, and return to idle.

        Not reached by the graceful state machine — a rank finishing
        mid-round is proxied through the commit instead — but it is the
        teardown path for crash faults (:meth:`on_rank_crashed`) and the
        safety valve future coordinator features can abort into.
        """
        assert self._record is not None
        self._record.aborted = True
        self._record.abort_reason = reason
        self._record = None
        self._tracker = None
        # Reclaim commit state owed to (or reported by) round members;
        # nothing from an aborted round may leak into the next one.
        self._seq_reports.clear()
        self._nbc_reports.clear()
        self._p2p_done.clear()
        self._written.clear()
        self._state = "idle"
        self._aborted_rounds += 1
        self._broadcast(("abort",))
        # Re-issue deferred requests so they are accounted for (they
        # abort immediately in turn: the blocking condition persists).
        self._pump_deferred()

    def _pump_deferred(self) -> None:
        """Schedule the next deferred checkpoint request, if any.

        Called whenever a round ends (commit or abort), so a queue of
        deferred requests drains one record each instead of silently
        losing everything after the first.
        """
        if self._deferred_requests > 0:
            self._deferred_requests -= 1
            # Give ranks one control latency to process the round's end.
            self.sim.call_after(self._control_latency * 2, self.request_checkpoint)

    # -- phase 1 (CC): Algorithm 1 ---------------------------------------- #

    def _on_seq_report(self, msg: tuple) -> None:
        _kind, rank, table = msg
        if self._state != "collecting":
            raise ProtocolError(f"seq report in state {self._state!r}")
        self._seq_reports[rank] = table
        if len(self._seq_reports) == self.nprocs:
            targets = self.logic.compute_targets(self._seq_reports)
            assert self._record is not None
            self._record.seq_reports = {
                r: dict(t) for r, t in self._seq_reports.items()
            }
            self._record.initial_targets = dict(targets)
            self._record.t_targets = self.sim.now()
            self._state = "draining"
            self._broadcast(("targets", targets))
            # Some ranks may already be parked (they were idle when the
            # intent arrived); re-check quiescence right away.
            self._maybe_confirm()

    # -- phase 2: drain to the cut ------------------------------------------ #

    def _on_parked(self, msg: tuple) -> None:
        _kind, rank, gen, sent, recvd = msg
        assert self._tracker is not None
        self._tracker.on_parked(rank, gen, sent, recvd)
        if self._state in ("draining", "confirming"):
            self._state = "draining"
            self._maybe_confirm()

    def _on_unparked(self, msg: tuple) -> None:
        assert self._tracker is not None
        self._tracker.on_unparked(msg[1])
        if self._state == "confirming":
            self._state = "draining"

    def _maybe_confirm(self) -> None:
        assert self._tracker is not None
        if self._state == "draining" and self._tracker.candidate():
            self._tracker.begin_confirm()
            self._state = "confirming"
            self._broadcast(("confirm?",))

    def _on_confirm(self, msg: tuple) -> None:
        _kind, rank, still_parked, sent, recvd = msg
        assert self._tracker is not None
        if self._state != "confirming":
            return  # stale vote from an aborted round
        self._tracker.on_confirm_vote(rank, still_parked, sent, recvd)
        if not self._tracker.confirming:
            self._state = "draining"
            self._maybe_confirm()
            return
        if self._tracker.confirmed():
            assert self._record is not None
            self._record.t_quiesced = self.sim.now()
            self._state = "commit_nbc"
            self._broadcast(("commit",))

    # -- phase 3: commit ------------------------------------------------------ #

    def _on_nbc_done(self, msg: tuple) -> None:
        _kind, rank, sent_map = msg
        if self._state != "commit_nbc":
            raise ProtocolError(f"nbc_done in state {self._state!r}")
        self._nbc_reports[rank] = sent_map
        if len(self._nbc_reports) == self.nprocs:
            expected: dict[int, dict[Any, int]] = {r: {} for r in self.sessions}
            for sender, sent_map in self._nbc_reports.items():
                for (ckey, dst), n in sent_map.items():
                    bucket = expected[dst]
                    key = (ckey, sender)
                    bucket[key] = bucket.get(key, 0) + n
            self._state = "commit_p2p"
            # Per-rank payloads, one batched fan-out (the drain kick-off
            # used to wake ranks one `defer` at a time).
            self._broadcast_each(
                {rank: ("drain_p2p", expected[rank]) for rank in self.sessions}
            )

    def _on_p2p_done(self, msg: tuple) -> None:
        _kind, rank, nbytes = msg
        if self._state != "commit_p2p":
            raise ProtocolError(f"p2p_done in state {self._state!r}")
        self._p2p_done[rank] = nbytes
        if len(self._p2p_done) == self.nprocs:
            assert self._record is not None
            self._record.t_drained = self.sim.now()
            total = sum(self._p2p_done.values())
            self._record.total_image_bytes = total
            duration = self.storage.write_time(total, self.nnodes)
            self._state = "commit_write"
            self._broadcast(("snapshot", duration))

    def _on_written(self, msg: tuple) -> None:
        _kind, rank, image = msg
        if self._state != "commit_write":
            raise ProtocolError(f"written in state {self._state!r}")
        self._written[rank] = image
        if len(self._written) == self.nprocs:
            assert self._record is not None
            self._record.t_written = self.sim.now()
            self._record.images = dict(self._written)
            self._state = "resuming"
            self._broadcast(("resume",))
            self._record.t_resumed = self.sim.now()
            self._record = None
            self._tracker = None
            self._state = "idle"
            self._pump_deferred()
