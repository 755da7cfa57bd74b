"""MANA's original two-phase-commit (2PC) algorithm — the baseline.

Every blocking collective call gets a *trivial barrier* in front of it:
an ``MPI_Ibarrier`` on a shadow communicator followed by an ``MPI_Test``
polling loop (Section 2.2).  The inserted synchronization is pure
overhead in steady state — this is precisely the cost the paper's
Figure 5a measures — and it breaks the non-blocking collective model,
so ``i``-collectives raise :class:`UnsupportedOperationError` (the NA
entries of Figures 5b and 7).

At checkpoint time: a rank that has not yet issued its trivial barrier
parks right away (no member can be inside the real collective, because
nobody can skip the barrier).  A rank inside the test loop parks there;
if its barrier completes — all members arrived — it *must* proceed
through the real collective before it can park again.  On restart, the
wrapper re-issues the Ibarrier (here via the intra-step replay
machinery, which re-executes the interrupted wrapper call from
scratch).

The test loop is timed as ``MPI_Test`` (``test_call``) then a pause
(``ibarrier_poll_gap``), round after round.  A round that finds the
barrier incomplete, no control mail and no intent changes nothing, so it runs
inside the event loop (:meth:`~repro.des.kernel.Simulator.poll`): the
rank is resumed only when a poll has something to look at, with the
same events, times and trace as one resume per sleep.  On one
``osu_blocking`` benchmark batch that is 29.9 k rank suspensions
instead of 48.5 k.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from .protocol import CoordinatorLogic, RankProtocol, UnsupportedOperationError

if TYPE_CHECKING:  # pragma: no cover
    from ..mana.session import Session
    from ..simmpi import Communicator

__all__ = ["TwoPhaseCommitProtocol", "TwoPCCoordinatorLogic"]


class TwoPhaseCommitProtocol(RankProtocol):
    """Per-rank 2PC state machine."""

    name = "2pc"
    label = "2PC"
    supports_nonblocking = False

    def __init__(self, session: "Session"):
        super().__init__(session)
        #: ggid -> the shadow communicator its trivial barriers run on.
        self._shadow: dict[int, "Communicator"] = {}

    def on_comm_created(self, comm: "Communicator") -> None:
        """Create the trivial-barrier comm for ``comm``'s group.

        Shadows are created *eagerly* — creating one lazily at the first
        barrier would issue an unwrapped collective in the middle of a
        possibly-pending checkpoint, which is precisely the
        unprotected-collective hazard 2PC exists to prevent.
        """
        ggid = comm.ggid
        if ggid not in self._shadow:
            self._shadow[ggid] = self.session.world.comm_dup(
                comm, self.session.rank, label=f"shadow:{ggid:#x}"
            )

    def prepare(self) -> None:
        """Shadow every communicator registered so far (COMM_WORLD after
        MPI_Init; every rebuilt communicator after a restart)."""
        for _vcid, comm in sorted(self.session._vcomms.items()):
            self.on_comm_created(comm)

    def on_blocking_collective(
        self, ggid: int, members: tuple[int, ...], execute: Callable[[], Any]
    ) -> Any:
        sess = self.session
        sess.sim.sleep(sess.overheads.wrapper_call)
        self.absorb_control()
        if self.intent:
            # Not in the barrier yet: safe point (nobody can be in the
            # real collective if this member hasn't passed the barrier).
            self.park_until_resume()
        # Phase 1: the trivial barrier, an Ibarrier on the group's shadow
        # communicator (so protocol traffic never perturbs the
        # application's collective matching).  None only while a
        # create_group call builds its own group's first communicator:
        # the shadow cannot exist before that comm does.
        shadow = self._shadow.get(ggid)
        barrier_req = None
        if shadow is not None:
            barrier_req = shadow._icollective(sess.rank, "barrier", None)
        gap = sess.overheads.ibarrier_poll_gap
        test = sess.overheads.test_call
        control = sess.control

        def ready() -> bool:
            # What a test-loop round looks at before it sleeps ``gap``.
            return barrier_req.done or len(control) > 0 or self.intent

        while barrier_req is not None:
            sess.sim.poll(test, gap, ready)
            if barrier_req.done:
                break
            self.absorb_control()
            if self.intent:
                # In the barrier with a pending checkpoint: park, but keep
                # polling the barrier — if it completes, every member has
                # entered and this rank must go through the collective.
                outcome = self.park_until_resume(poll=lambda: barrier_req.done)
                if outcome == "poll":
                    break  # barrier completed while parked
                continue  # resumed (checkpoint committed) or unparked
            sess.sim.sleep(gap)
        # Phase 2: the real collective.
        result = execute()
        self.absorb_control()
        if self.intent:
            self.park_until_resume()
        return result

    def on_nonblocking_collective(
        self, ggid: int, members: tuple[int, ...], initiate: Callable[[], Any]
    ) -> Any:
        raise UnsupportedOperationError(
            "MANA's 2PC algorithm does not support non-blocking collective "
            "communication (see the paper, Sections 2.2 and 5.2); "
            "use the CC protocol"
        )


class TwoPCCoordinatorLogic(CoordinatorLogic):
    """2PC needs no Algorithm-1 phase: intent goes straight out and ranks
    park at their trivial barriers."""

    collects_seq_reports = False

    def compute_targets(self, reports: dict[int, dict[int, int]]) -> dict[int, int]:
        return {}
