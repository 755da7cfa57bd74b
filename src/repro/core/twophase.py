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

from typing import Any, Callable

from .protocol import CoordinatorLogic, RankProtocol, UnsupportedOperationError

__all__ = ["TwoPhaseCommitProtocol", "TwoPCCoordinatorLogic"]


class TwoPhaseCommitProtocol(RankProtocol):
    """Per-rank 2PC state machine."""

    name = "2pc"
    supports_nonblocking = False
    adds_wrapper_cost = True

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
        # Phase 1: the trivial barrier.  (None for groups that cannot have
        # a shadow communicator — create_group comms — a documented
        # limitation carried over from MANA 2019.)
        barrier_req = sess.protocol_ibarrier(ggid)
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
