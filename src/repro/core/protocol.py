"""Checkpoint protocol framework: base classes and control-plane messages.

A *protocol* decides what extra work happens around each interposed MPI
call and how a rank behaves between a checkpoint request (*intent*) and
the commit.  Three protocols are provided:

* :class:`~repro.core.native.NativeProtocol` — passthrough (the
  paper's "Native" baseline; no wrappers, no checkpointing),
* :class:`~repro.core.twophase.TwoPhaseCommitProtocol` — MANA 2019's
  trivial-barrier algorithm (the paper's "2PC"),
* :class:`~repro.core.cc.CollectiveClockProtocol` — the paper's
  contribution (the "CC" algorithm).

Control-plane message conventions (tuples; first element is the kind):

========================  =======================================================
coordinator -> rank        ``("intent", ckpt_id)``, ``("targets", {ggid: n})``,
                           ``("confirm?",)``, ``("commit",)``,
                           ``("drain_p2p", expected)``, ``("snapshot", duration)``,
                           ``("resume",)``, ``("abort",)``
rank -> rank               ``("target_update", ggid, value)``
rank -> coordinator        ``("seq_report", rank, {ggid: n})``,
                           ``("parked", rank, gen, sent, recvd)``,
                           ``("unparked", rank)``,
                           ``("confirm", rank, still_parked, sent, recvd)``,
                           ``("nbc_done", rank, sent_counts)``,
                           ``("p2p_done", rank, nbytes)``,
                           ``("written", rank, image)``,
                           ``("finished", rank)``
========================  =======================================================

``("finished", rank)`` announces application completion.  A rank that
knows of a pending intent parks (and participates in the commit)
*before* announcing; one that exits unaware is taken over by the
coordinator's trivially-parked proxy, which answers all of the above
on its behalf so rounds commit through rank completion (see
:class:`repro.mana.coordinator._FinishedRankProxy`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..mana.session import Session
    from ..simmpi import Communicator

__all__ = [
    "RankProtocol",
    "CoordinatorLogic",
    "UnsupportedOperationError",
    "ProtocolError",
    "RoundAborted",
]


class ProtocolError(Exception):
    """Protocol state-machine violation (indicates a bug, not app error)."""


class RoundAborted(Exception):
    """The coordinator aborted the round mid-commit (e.g. a participant
    crashed).  Raised out of the rank-side commit sequence and caught by
    the protocol's park loop, which clears checkpoint state and resumes
    the application — nothing was committed."""


class UnsupportedOperationError(Exception):
    """The protocol cannot wrap this operation.

    The flagship case: MANA's 2PC algorithm does not support non-blocking
    collective communication (paper Sections 2.2 and 5.2) — the harness
    reports these app/protocol combinations as NA, as the paper does.
    """


class RankProtocol(ABC):
    """Per-rank protocol instance, driven by the session's wrappers."""

    #: Protocol name: its ``PROTOCOLS`` key.
    name: str = "abstract"
    #: Column / series label in the rendered figures.
    label: str = "abstract"
    #: Whether non-blocking collectives are wrappable.
    supports_nonblocking: bool = True
    #: Whether the interposition layer charges wrapper costs (False only
    #: for native runs, which have no MANA in the picture at all).
    adds_wrapper_cost: bool = True

    def __init__(self, session: "Session"):
        self.session = session
        self.intent = False
        self.ckpt_id: int | None = None
        self.targets_known = False
        self._park_generation = 0
        #: Set when a commit arrives while the rank is momentarily
        #: executing (it unparked on data-plane completion just as the
        #: coordinator decided); honored at the next park point.
        self._commit_pending = False

    # ------------------------------------------------------------------ #
    # Wrapper hooks (implemented by concrete protocols)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def on_blocking_collective(
        self, ggid: int, members: tuple[int, ...], execute: Callable[[], Any]
    ) -> Any:
        """Wrap one blocking collective call; must invoke ``execute``."""

    @abstractmethod
    def on_nonblocking_collective(
        self, ggid: int, members: tuple[int, ...], initiate: Callable[[], Any]
    ) -> Any:
        """Wrap one non-blocking collective initiation."""

    def on_comm_created(self, comm: "Communicator") -> None:
        """A communicator was created by a protocol-wrapped split or dup
        (runs inside the creating wrapper, on every member)."""

    def prepare(self) -> None:
        """In-process setup: runs after MPI_Init, and again after a
        restart's lower-half rebuild, before the application resumes."""

    def on_request_completion_call(self) -> None:
        """Hook charged on wait/test wrappers (the second wrapper of a
        non-blocking operation, Section 5.1.2)."""
        if self.adds_wrapper_cost:
            self.session.sim.sleep(self.session.overheads.wrapper_call)

    def at_safe_point(self) -> None:
        """Called at natural safe points outside MPI calls (compute
        interruptions, step boundaries) so control messages are absorbed
        promptly.

        Deliberately does NOT park: ranks park only at collective-wrapper
        boundaries (and at app finish), exactly as in the paper's
        Algorithms 2-3.  Parking anywhere earlier is unsound — a rank
        that stops before its pre-collective point-to-point sends leaves
        a peer's receive dangling across the cut (the matched pair would
        cross the cut), which deadlocks the drain.
        """
        self.absorb_control()

    def on_app_finished(self) -> None:
        """The app returned; if a checkpoint is pending the rank must
        still participate before the process exits."""
        self.absorb_control()
        if self.intent:
            self.park_until_resume()

    # ------------------------------------------------------------------ #
    # Control-plane handling shared by CC and 2PC
    # ------------------------------------------------------------------ #

    def absorb_control(self) -> None:
        """Drain and dispatch all queued control messages (non-blocking)."""
        mailbox = self.session.control
        while True:
            ok, msg = mailbox.try_get()
            if not ok:
                return
            self.dispatch(msg, parked=False)

    def dispatch(self, msg: tuple, *, parked: bool) -> str:
        """Handle one control message; returns an action for park loops:
        ``"stay"``, ``"unpark"``, or ``"resumed"``."""
        kind = msg[0]
        if kind == "intent":
            if not self.intent:
                self.intent = True
                self.ckpt_id = msg[1]
                self.on_intent()
            return "stay"
        if kind == "targets":
            self.on_targets(msg[1])
            if parked and not self.ready_to_park():
                return "unpark"
            return "stay"
        if kind == "target_update":
            changed = self.on_target_update(msg[1], msg[2])
            if parked and changed and not self.ready_to_park():
                return "unpark"
            return "stay"
        if kind == "confirm?":
            self.session.to_coordinator(
                (
                    "confirm",
                    self.session.rank,
                    parked,
                    self.session.ctrl_sent,
                    self.session.ctrl_received,
                )
            )
            return "stay"
        if kind == "abort":
            # The coordinator abandoned the round (a rank finished before
            # the cut quiesced).  Drop all checkpoint state and keep
            # executing — there is nothing to commit.
            if self.intent:
                self.on_abort()
            return "resumed" if parked else "stay"
        if kind == "commit":
            if not parked:
                # Race: this rank unparked on a data-plane event (e.g. a
                # blocked receive completed) after the quiescence confirm
                # but before the commit arrived.  It cannot execute any
                # collective (all targets reached => the next wrapper
                # parks pre-increment), so deferring the commit to the
                # next park point leaves the cut intact; any p2p it sends
                # meanwhile lands in the peers' drains consistently.
                self._commit_pending = True
                return "stay"
            try:
                self.session.participate_in_commit()
            except RoundAborted:
                self.on_abort()
                return "resumed"
            self.on_resume()
            return "resumed"
        raise ProtocolError(f"rank {self.session.rank}: unexpected control {msg!r}")

    def park_until_resume(self, *, poll: Callable[[], bool] | None = None) -> str:
        """Report parked and block on the control mailbox until resumed or
        legitimately unparked.

        ``poll``, if given, is invoked between control messages (with the
        2PC test-loop gap) and parking ends with ``"poll"`` when it
        returns True — 2PC uses this for its trivial-barrier test loop.
        """
        from ..des.sync import TIMEOUT

        if self._commit_pending:
            # A commit was deferred while we were briefly executing.
            self._commit_pending = False
            try:
                self.session.participate_in_commit()
            except RoundAborted:
                self.on_abort()
                return "resumed"
            self.on_resume()
            return "resumed"

        reported = self.report_parked()
        gap = self.session.overheads.ibarrier_poll_gap
        while True:
            if poll is None:
                msg = self.session.control.get()
            else:
                msg = self.session.control.get(timeout=gap)
                if msg is TIMEOUT:
                    if poll():
                        self.session.to_coordinator(("unparked", self.session.rank))
                        return "poll"
                    continue
            action = self.dispatch(msg, parked=True)
            if action == "unpark":
                self.session.to_coordinator(("unparked", self.session.rank))
                return "unpark"
            if action == "resumed":
                return "resumed"
            # Still parked: if the absorbed message moved the control
            # counters (e.g. a duplicate target update), the coordinator's
            # quiescence bookkeeping must see the new totals or the sums
            # will never balance.
            if (self.session.ctrl_sent, self.session.ctrl_received) != reported:
                reported = self.report_parked()

    def report_parked(self) -> tuple[int, int]:
        """Report this rank parked under a fresh park generation, with its
        control-message counters (which it returns).  The finished-rank
        proxy reports for a rank whose process has exited through here
        too."""
        self._park_generation += 1
        sess = self.session
        counters = (sess.ctrl_sent, sess.ctrl_received)
        sess.to_coordinator(("parked", sess.rank, self._park_generation, *counters))
        return counters

    # ------------------------------------------------------------------ #
    # Protocol-specific checkpoint reactions (overridable)
    # ------------------------------------------------------------------ #

    def on_intent(self) -> None:
        """React to the checkpoint request (CC: send the SEQ report)."""

    def on_targets(self, targets: dict[int, int]) -> None:
        """Install initial targets (CC only)."""

    def on_target_update(self, ggid: int, value: int) -> bool:
        """Apply a peer's target update; returns True if targets changed."""
        return False

    def ready_to_park(self) -> bool:
        """True when this rank has nothing left to execute before the cut."""
        return True

    def on_resume(self) -> None:
        """Clear checkpoint state after a committed checkpoint."""
        self.intent = False
        self.ckpt_id = None
        self.targets_known = False

    def on_abort(self) -> None:
        """Clear checkpoint state after an aborted round (no commit ran)."""
        self._commit_pending = False
        self.on_resume()


class CoordinatorLogic(ABC):
    """Protocol-specific piece of the checkpoint coordinator."""

    #: Whether phase 1 collects SEQ reports before ranks can park (CC).
    collects_seq_reports: bool = False

    @abstractmethod
    def compute_targets(self, reports: dict[int, dict[int, int]]) -> dict[int, int]:
        """Fold per-rank SEQ reports into global targets (Algorithm 1)."""
