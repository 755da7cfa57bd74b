"""Unit and scenario tests for the checkpoint coordinator state machine."""

import pytest

from repro.apps.base import MpiApp
from repro.core.protocol import ProtocolError
from repro.des import Simulator
from repro.harness.runner import launch_run, restart_run
from repro.mana import CheckpointCoordinator
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)


class Chain(MpiApp):
    """All-collective app for chained checkpoint scenarios."""

    name = "chain"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0
        ctx.declare_memory(8 << 20)

    def step(self, ctx, i):
        ctx.compute_jittered(4e-6, i)
        v = ctx.world.allreduce(float(ctx.rank + i))
        ctx.state["acc"] = ctx.state["acc"] + v

    def finalize(self, ctx):
        return ctx.state["acc"]


class TestCoordinatorUnit:
    def test_request_without_sessions_rejected(self):
        with Simulator() as sim:
            coord = CheckpointCoordinator(sim, "cc")
            with pytest.raises(ProtocolError):
                coord.request_checkpoint()

    def test_unknown_protocol_rejected(self):
        with Simulator() as sim:
            with pytest.raises(ValueError):
                CheckpointCoordinator(sim, "3pc")

    def test_idle_coordinator_rejects_stray_messages(self):
        with Simulator() as sim:
            coord = CheckpointCoordinator(sim, "cc")
            with pytest.raises(ProtocolError):
                coord.deliver(("parked", 0, 1, 0, 0))

    def test_finished_tracked_while_idle(self):
        with Simulator() as sim:
            coord = CheckpointCoordinator(sim, "cc")
            coord.deliver(("finished", 0))
            assert coord.finished_ranks == {0}


class TestCheckpointLifecycles:
    def test_phase_timestamps_ordered(self):
        probe = launch_run(lambda: Chain(niters=20), 4, protocol="cc", seed=1)
        r = launch_run(
            lambda: Chain(niters=20), 4, protocol="cc", seed=1,
            checkpoint_at=[probe.runtime * 0.5], storage=STORAGE,
        )
        rec = r.checkpoints[0]
        assert rec.t_request <= rec.t_targets <= rec.t_quiesced
        assert rec.t_quiesced <= rec.t_drained <= rec.t_written <= rec.t_resumed
        assert rec.drain_time >= 0
        assert rec.total_image_bytes == 4 * (8 << 20)

    def test_2pc_has_no_target_phase(self):
        probe = launch_run(lambda: Chain(niters=20), 4, protocol="2pc", seed=1)
        r = launch_run(
            lambda: Chain(niters=20), 4, protocol="2pc", seed=1,
            checkpoint_at=[probe.runtime * 0.5], storage=STORAGE,
        )
        rec = r.checkpoints[0]
        assert rec.committed
        assert rec.t_targets is None  # 2PC skips Algorithm 1
        assert not rec.seq_reports

    def test_deferred_second_request(self):
        """A request landing mid-checkpoint is queued, not refused."""
        probe = launch_run(lambda: Chain(niters=30), 4, protocol="cc", seed=1)
        t = probe.runtime * 0.3
        r = launch_run(
            lambda: Chain(niters=30), 4, protocol="cc", seed=1,
            checkpoint_at=[t, t * 1.0001], storage=STORAGE,  # nearly simultaneous
        )
        committed = [c for c in r.checkpoints if c.committed]
        assert len(committed) == 2
        assert committed[0].t_written <= committed[1].t_request

    def test_job_chaining(self):
        """The paper's motivating use case: chain resource allocations by
        checkpoint -> restart -> checkpoint -> restart."""
        factory = lambda: Chain(niters=40)
        native = launch_run(factory, 4, protocol="native", seed=8)
        leg1 = launch_run(
            factory, 4, protocol="cc", seed=8,
            checkpoint_at=[native.runtime * 0.25], storage=STORAGE,
        )
        images1 = leg1.committed_images()
        leg2 = restart_run(
            factory, images1, seed=8, storage=STORAGE,
            checkpoint_at=[leg1.restart_ready_time + native.runtime * 0.3],
        )
        images2 = leg2.committed_images()
        # The second leg's snapshot is strictly later in the program.
        assert images2[0].load()["app_state"]["iter"] >= images1[0].load()["app_state"]["iter"]
        leg3 = restart_run(factory, images2, seed=8, storage=STORAGE)
        assert leg3.per_rank == native.per_rank

    def test_checkpoint_counts_per_session(self):
        probe = launch_run(lambda: Chain(niters=25), 4, protocol="cc", seed=1)
        ts = [probe.runtime * 0.2, probe.runtime * 0.6]
        r = launch_run(
            lambda: Chain(niters=25), 4, protocol="cc", seed=1,
            checkpoint_at=ts, storage=STORAGE,
        )
        assert len([c for c in r.checkpoints if c.committed]) == 2


class TestRestartValidation:
    def test_wrong_protocol_restart_rejected(self):
        probe = launch_run(lambda: Chain(niters=10), 4, protocol="cc", seed=1)
        r = launch_run(
            lambda: Chain(niters=10), 4, protocol="cc", seed=1,
            checkpoint_at=[probe.runtime / 2], storage=STORAGE,
        )
        images = r.committed_images()
        with pytest.raises(ValueError, match="taken under"):
            launch_run(
                lambda: Chain(niters=10), 4, protocol="2pc",
                restore_images=images,
            )

    def test_wrong_nprocs_restart_rejected(self):
        probe = launch_run(lambda: Chain(niters=10), 4, protocol="cc", seed=1)
        r = launch_run(
            lambda: Chain(niters=10), 4, protocol="cc", seed=1,
            checkpoint_at=[probe.runtime / 2], storage=STORAGE,
        )
        images = r.committed_images()
        partial = {k: v for k, v in images.items() if k < 2}
        with pytest.raises(ValueError):
            launch_run(lambda: Chain(niters=10), 2, protocol="cc",
                       restore_images=partial)


class UnevenTail(MpiApp):
    """Ranks share ``shared`` collective steps, then every rank except 0
    computes a communication-free tail — rank 0 finishes first, opening
    the request-races-completion window."""

    name = "uneven_tail"

    def __init__(self, niters=12, shared=6):
        super().__init__(niters)
        self.shared = shared

    def setup(self, ctx):
        ctx.state["acc"] = 0.0

    def step(self, ctx, i):
        if i < self.shared:
            ctx.compute(2e-6)
            ctx.state["acc"] = ctx.state["acc"] + ctx.world.allreduce(float(i))
        elif ctx.rank != 0:
            ctx.compute(5e-6)

    def finalize(self, ctx):
        return ctx.now()


class TestCheckpointThroughCompletion:
    """A rank exiting before the cut quiesces is checkpointed *through*:
    its proxy reports it trivially parked and the round commits a
    terminal image for it (the round used to abort — and before that,
    deadlock every surviving rank on its control mailbox)."""

    def _finish_times(self, protocol):
        r = launch_run(lambda: UnevenTail(), 4, protocol=protocol, seed=3)
        return r, list(r.rank_finish_times)

    @pytest.mark.parametrize("protocol", ["cc", "2pc"])
    def test_request_racing_first_finisher_commits(self, protocol):
        base, finish = self._finish_times(protocol)
        t_first = min(finish)
        # Request just before rank 0 exits: the intent is still in flight
        # (one control latency away) when the rank is gone.
        t_req = t_first - 1e-6
        r = launch_run(
            lambda: UnevenTail(), 4, protocol=protocol, seed=3,
            checkpoint_at=[t_req], storage=STORAGE,
        )
        assert len(r.checkpoints) == 1
        rec = r.checkpoints[0]
        assert rec.committed
        assert not rec.aborted and not rec.abort_reason
        assert rec.images[0].finished  # the early finisher's terminal image
        # The survivors resumed and the job completed every iteration.
        assert r.per_rank  # finalize ran on every rank

    def test_request_before_window_still_commits(self):
        base, finish = self._finish_times("cc")
        r = launch_run(
            lambda: UnevenTail(), 4, protocol="cc", seed=3,
            checkpoint_at=[min(finish) * 0.5], storage=STORAGE,
        )
        assert [c.committed for c in r.checkpoints] == [True]
        assert not any(im.finished for im in r.checkpoints[0].images.values())

    def test_deferred_requests_behind_completion_round_all_commit(self):
        """Every deferred request drains to its own committed record,
        each snapshotting a (progressively more) finished world."""
        base, finish = self._finish_times("cc")
        t_req = min(finish) - 1e-6
        r = launch_run(
            lambda: UnevenTail(), 4, protocol="cc", seed=3,
            checkpoint_at=[t_req, t_req + 1e-7, t_req + 2e-7], storage=STORAGE,
        )
        # All three attempts exist; none deadlocked; all committed.
        assert len(r.checkpoints) == 3
        assert all(c.committed and not c.abort_reason for c in r.checkpoints)
        assert all(c.images[0].finished for c in r.checkpoints)

    def test_request_after_all_finished_commits_terminal_set(self):
        base, finish = self._finish_times("cc")
        r = launch_run(
            lambda: UnevenTail(), 4, protocol="cc", seed=3,
            checkpoint_at=[max(finish) + 1e-4], storage=STORAGE,
        )
        rec = r.checkpoints[0]
        assert rec.committed
        assert rec.images and all(im.finished for im in rec.images.values())

    def test_abort_round_still_releases_parked_ranks(self):
        """The abort path is no longer reached by the state machine but
        stays wired as a safety valve: drive it directly and check the
        record + release semantics survive."""
        from repro.des import Simulator
        from repro.mana import CheckpointCoordinator

        with Simulator() as sim:
            coord = CheckpointCoordinator(sim, "cc")
            coord.sessions = {}  # no ranks: exercise the bookkeeping only
            coord._record = rec = __import__(
                "repro.mana.coordinator", fromlist=["CheckpointRecord"]
            ).CheckpointRecord(ckpt_id=0, protocol="cc", t_request=0.0)
            coord.records.append(rec)
            coord._state = "draining"
            coord._abort_round("injected fault")
            assert rec.aborted and rec.abort_reason == "injected fault"
            assert coord.state == "idle"
