"""The Collective Clock (CC) algorithm — the paper's contribution.

Steady state (Section 4.2.1): every interposed collective call costs one
wrapper entry plus a local sequence-number increment.  **No network
operations are executed**, which is why the runtime overhead stays near
zero in Figures 5-8.

Checkpoint time (Sections 4.2.2-4.2.4): the coordinator collects each
rank's SEQ table (Algorithm 1), computes per-ggid global maxima as
targets, and ranks continue executing until every target is reached
(Condition A'); executing past a target raises it and pushes updates to
the group's peers (the SEND step of Algorithm 2), with
``wait_for_new_targets`` (Algorithm 3) at wrapper entry and exit.

Non-blocking collectives (Section 4.3): SEQ is incremented at
*initiation*; incomplete requests are drained with an MPI_Test loop once
the safe state is reached (see :mod:`repro.core.drain`).
"""

from __future__ import annotations

from typing import Any, Callable

from .protocol import CoordinatorLogic, RankProtocol

__all__ = ["CollectiveClockProtocol", "CCCoordinatorLogic"]


class CollectiveClockProtocol(RankProtocol):
    """Per-rank CC state machine."""

    name = "cc"
    label = "CC"
    supports_nonblocking = True

    # ------------------------------------------------------------------ #
    # Wrappers (Algorithm 2)
    # ------------------------------------------------------------------ #

    def on_blocking_collective(
        self, ggid: int, members: tuple[int, ...], execute: Callable[[], Any]
    ) -> Any:
        sess = self.session
        # All virtual-time costs are charged *before* the control-plane
        # check so that nothing yields between absorbing control and the
        # increment+execute: otherwise a checkpoint intent delivered in
        # that window produces an increment that neither the rank nor the
        # coordinator's out-of-band SEQ read accounts for — the buried
        # operation would deadlock the drain.
        sess.sim.sleep(sess.overheads.wrapper_call + sess.overheads.seq_increment)
        self.wait_for_new_targets()
        self._increment_and_maybe_propagate(ggid, members)
        result = execute()
        self.wait_for_new_targets()
        return result

    def on_nonblocking_collective(
        self, ggid: int, members: tuple[int, ...], initiate: Callable[[], Any]
    ) -> Any:
        # The CC algorithm assumes an initiated non-blocking operation is
        # already executing in the background, so SEQ is bumped here, at
        # initiation (Section 4.3.1).  The two wrapper crossings (this
        # one plus the completion call's) are the extra constant cost
        # discussed in Section 5.1.2.
        sess = self.session
        sess.sim.sleep(sess.overheads.wrapper_call + sess.overheads.seq_increment)
        self.wait_for_new_targets()
        self._increment_and_maybe_propagate(ggid, members)
        vreq = initiate()
        self.wait_for_new_targets()
        return vreq

    def _increment_and_maybe_propagate(self, ggid: int, members: tuple[int, ...]) -> None:
        # No sim yields in here: atomic with the preceding absorb (see
        # on_blocking_collective).
        sess = self.session
        seq_val = sess.seq.increment(ggid)
        if self.intent and self.targets_known and seq_val > sess.seq.target_of(ggid):
            sess.seq.raise_target(ggid, seq_val)
            self._send_target_updates(ggid, seq_val, members)

    def _send_target_updates(self, ggid: int, value: int, members: tuple[int, ...]) -> None:
        """SEND step of Algorithm 2: inform the peer processes — found
        locally via the group registry (MPI_Group_translate_ranks in the
        paper) — that the target moved."""
        sess = self.session
        for peer in members:
            if peer != sess.rank:
                sess.send_control(peer, ("target_update", ggid, value))

    # ------------------------------------------------------------------ #
    # Algorithm 3
    # ------------------------------------------------------------------ #

    def wait_for_new_targets(self) -> None:
        """Return immediately if the rank must keep executing (some
        SEQ < TARGET, Condition A'); otherwise park until a new target
        arrives or the checkpoint commits.

        Before the targets are known the rank also parks (pre-increment):
        proceeding in that window could bury an increment inside a
        blocking collective where no target update can be sent, while a
        peer parks at the stale target — deadlock.  The coordinator reads
        SEQ tables out-of-band (the MANA checkpoint-thread semantics), so
        any increment made *before* the intent was delivered is already
        reflected in the incoming targets.
        """
        self.absorb_control()
        if not self.intent:
            return
        if self.targets_known and not self.session.seq.all_targets_reached():
            return
        self.park_until_resume()

    # ------------------------------------------------------------------ #
    # Checkpoint reactions
    # ------------------------------------------------------------------ #

    def on_intent(self) -> None:
        # Algorithm 1's SEQ collection is performed *out-of-band* by the
        # coordinator (the analog of MANA's checkpoint thread reading the
        # wrapper state from shared memory) — see
        # CheckpointCoordinator.request_checkpoint.  Nothing to do here.
        pass

    def on_targets(self, targets: dict[int, int]) -> None:
        sess = self.session
        # Algorithm 1 computes targets "for all G in *local* MPI groups":
        # the coordinator broadcasts the global map, and each rank keeps
        # only the groups it belongs to.  Installing a foreign group's
        # target would leave it permanently unreached (SEQ stays 0) and
        # the rank would never park.
        local = {g: t for g, t in targets.items() if g in sess.ggids}
        sess.seq.set_targets(local)
        self.targets_known = True
        # Defensive overshoot propagation: if this rank already ran past
        # a freshly computed target (it kept executing between its report
        # and the target distribution), move the cut forward immediately.
        for ggid in list(sess.seq.seq):
            if sess.seq.overshoot(ggid):
                value = sess.seq.seq_of(ggid)
                sess.seq.raise_target(ggid, value)
                if ggid in sess.ggids:
                    self._send_target_updates(ggid, value, sess.ggids.members(ggid))

    def on_target_update(self, ggid: int, value: int) -> bool:
        self.session.ctrl_received += 1
        return self.session.seq.raise_target(ggid, value)

    def ready_to_park(self) -> bool:
        return self.session.seq.all_targets_reached()

    def on_resume(self) -> None:
        super().on_resume()
        self.session.seq.clear_targets()


class CCCoordinatorLogic(CoordinatorLogic):
    """Algorithm 1's global step: per-ggid max over all ranks' SEQ."""

    collects_seq_reports = True

    def compute_targets(self, reports: dict[int, dict[int, int]]) -> dict[int, int]:
        targets: dict[int, int] = {}
        for table in reports.values():
            for ggid, seq in table.items():
                if seq > targets.get(ggid, 0):
                    targets[ggid] = seq
        return targets
