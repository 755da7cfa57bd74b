"""Unit tests for the session's record/replay machinery and the
virtual-request helpers — the substitute for MANA's raw memory snapshot."""

import pytest

from repro.apps.base import MpiApp
from repro.core.protocol import ProtocolError
from repro.des import ProcessFailed
from repro.harness.runner import launch_run, restart_run
from repro.mana.vcomm import test_all as v_test_all
from repro.mana.vcomm import wait_all as v_wait_all
from repro.mana.vcomm import wait_any as v_wait_any
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)


class WaitFamilyApp(MpiApp):
    """Uses the Waitall/Waitany/Testall helpers over non-blocking ops
    (the paper's Example 6.35 pattern: many outstanding collectives)."""

    name = "waitfamily"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0

    def step(self, ctx, i):
        reqs = [ctx.world.iallreduce(float(ctx.rank + i + k)) for k in range(4)]
        ctx.compute_jittered(3e-6, i)
        mode = i % 3
        if mode == 0:
            values = v_wait_all(reqs)
            total = sum(values)
        elif mode == 1:
            total = 0.0
            remaining = list(reqs)
            while remaining:
                idx, value = v_wait_any(remaining)
                total += value
                remaining.pop(idx)
        else:
            while True:
                flag, values = v_test_all(reqs)
                if flag:
                    total = sum(values)
                    break
                ctx.compute(1e-6)
        ctx.state["acc"] = ctx.state["acc"] + total

    def finalize(self, ctx):
        return ctx.state["acc"]


class TestWaitFamily:
    def test_results_match_native(self):
        n = launch_run(lambda: WaitFamilyApp(niters=9), 4, protocol="native", seed=4)
        c = launch_run(lambda: WaitFamilyApp(niters=9), 4, protocol="cc", seed=4)
        assert c.per_rank == n.per_rank

    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_checkpoint_restart(self, frac):
        factory = lambda: WaitFamilyApp(niters=9)
        native = launch_run(factory, 4, protocol="native", seed=4)
        ck = launch_run(
            factory, 4, protocol="cc", seed=4,
            checkpoint_at=[native.runtime * frac], storage=STORAGE,
        )
        rs = restart_run(factory, ck.committed_images(), seed=4, storage=STORAGE)
        assert rs.per_rank == native.per_rank

    def test_wait_any_empty_rejected(self):
        class Bad(MpiApp):
            name = "bad"

            def step(self, ctx, i):
                v_wait_any([])

        with pytest.raises(ProcessFailed) as ei:
            launch_run(lambda: Bad(niters=1), 2, protocol="cc", seed=0)
        assert isinstance(ei.value.original, ValueError)


class CarriedRequestApp(MpiApp):
    """Every step waits on the non-blocking allreduce the *previous*
    step initiated and leaves a fresh one pending across the boundary
    (the handle travels in ``ctx.state``).  Also records how many
    entries the session's request table held at each step."""

    name = "carried"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0
        ctx.state["req"] = None
        ctx.state["table_sizes"] = []

    def step(self, ctx, i):
        ctx.compute_jittered(3e-6, i)
        burst = v_wait_all(
            [ctx.world.iallreduce(float(ctx.rank + i + k)) for k in range(3)]
        )
        carried = ctx.state["req"]
        got = carried.wait() if carried is not None else 0.0
        req = ctx.world.iallreduce(float(ctx.rank * i))
        size = len(ctx._session._vreqs)
        # ---- commit block ----
        ctx.state["acc"] = ctx.state["acc"] + got + sum(burst)
        ctx.state["req"] = req
        ctx.state["table_sizes"] = ctx.state["table_sizes"] + [size]

    def finalize(self, ctx):
        return {
            "acc": ctx.state["acc"] + ctx.state["req"].wait(),
            "max_table": max(ctx.state["table_sizes"]),
        }


class TestRequestTableStaysBounded:
    """Completed requests leave the table at the step boundary: only
    pending receives and requests the replay window references are ever
    restored, so anything else just pins payloads (the fig6 OOM)."""

    FACTORY = staticmethod(lambda: CarriedRequestApp(niters=24))

    @pytest.mark.parametrize("protocol", ["native", "cc"])
    def test_table_does_not_grow_with_steps(self, protocol):
        run = launch_run(self.FACTORY, 4, protocol=protocol, seed=2)
        # 3 burst requests + the carried one + the fresh one, at any of
        # the 24 steps (it was 4 x steps before the prune).
        assert [r["max_table"] for r in run.per_rank] == [5] * 4

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_request_carried_across_a_boundary_survives_restart(self, frac):
        acc = lambda run: [r["acc"] for r in run.per_rank]
        native = launch_run(self.FACTORY, 4, protocol="native", seed=2)
        ck = launch_run(
            self.FACTORY, 4, protocol="cc", seed=2,
            checkpoint_at=[native.runtime * frac], storage=STORAGE,
        )
        assert acc(ck) == acc(native)
        rs = restart_run(self.FACTORY, ck.committed_images(), seed=2, storage=STORAGE)
        assert acc(rs) == acc(native)


class VridLogApp(MpiApp):
    """Carries one non-blocking allreduce across every boundary, like
    :class:`CarriedRequestApp`, and returns the virtual request id of
    every request it initiated, in order."""

    name = "vrid-log"

    def setup(self, ctx):
        ctx.state["req"] = None
        ctx.state["vrids"] = []

    def step(self, ctx, i):
        ctx.compute_jittered(3e-6, i)
        carried = ctx.state["req"]
        if carried is not None:
            carried.wait()
        burst = [ctx.world.iallreduce(float(ctx.rank + k)) for k in range(2)]
        v_wait_all(burst)
        req = ctx.world.iallreduce(float(ctx.rank * i))
        # ---- commit block ----
        ctx.state["req"] = req
        ctx.state["vrids"] = ctx.state["vrids"] + [r.vrid for r in (*burst, req)]

    def finalize(self, ctx):
        ctx.state["req"].wait()
        return ctx.state["vrids"]


class TestRequestNumberingSurvivesRestart:
    """A restarted session numbers new requests from the image's
    ``next_vrid``: a fresh request never takes the id of one carried
    across the cut, so the ids match the uninterrupted run's."""

    FACTORY = staticmethod(lambda: VridLogApp(niters=10))

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_restart_issues_the_uninterrupted_ids(self, frac):
        plain = launch_run(self.FACTORY, 3, protocol="cc", seed=1)
        ck = launch_run(
            self.FACTORY, 3, protocol="cc", seed=1,
            checkpoint_at=[plain.runtime * frac], storage=STORAGE,
        )
        images = ck.committed_images()
        for image in images.values():
            table = image.load()["vreq_table"]
            assert image.stats["next_vrid"] > max(table, default=0)
        rs = restart_run(self.FACTORY, images, seed=1, storage=STORAGE)
        assert rs.per_rank == plain.per_rank


class CarriedIrecvApp(MpiApp):
    """Rank 1 posts ``irecv(source=0, tag=i)`` in step *i*, keeps the
    handle in ``ctx.state`` and waits on it at the top of step *i+1*.
    Ranks 0 and 2 follow the world allreduce with compute and an
    allreduce on a communicator that excludes rank 1 — a wrapper they
    can park at before rank 0 sends tag *i*, so the cut finds rank 1
    waiting on a receive that is still pending."""

    name = "carried-irecv"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0
        ctx.state["req"] = None
        ctx.state["pair"] = ctx.world.split(None if ctx.rank == 1 else 0)

    def step(self, ctx, i):
        got, req = 0.0, None
        if ctx.rank == 1:
            carried = ctx.state["req"]
            got = carried.wait() if carried is not None else 0.0
            req = ctx.world.irecv(source=0, tag=i)
        total = ctx.world.allreduce(float(ctx.rank + i))
        if ctx.rank != 1:
            ctx.compute(2e-5)
            total += ctx.state["pair"].allreduce(float(i))
            if ctx.rank == 0:
                ctx.world.send(float(10 * i + 1), dest=1, tag=i)
        # ---- commit block ----
        ctx.state["acc"] = ctx.state["acc"] + got + total
        ctx.state["req"] = req

    def finalize(self, ctx):
        last = ctx.state["req"]
        return ctx.state["acc"] + (last.wait() if last is not None else 0.0)


class TestPendingIrecvCarriedAcrossABoundary:
    """The handle the application unpickles from ``app_state`` must be
    the request the restarted session re-posts, not a copy of it."""

    FACTORY = staticmethod(lambda: CarriedIrecvApp(niters=8))

    @pytest.mark.parametrize("k", range(1, 20))
    def test_restart_at_every_cut_matches_the_uninterrupted_run(self, k):
        plain = launch_run(self.FACTORY, 3, protocol="cc", seed=5)
        ck = launch_run(
            self.FACTORY, 3, protocol="cc", seed=5,
            checkpoint_at=(plain.runtime * k / 20,), storage=STORAGE,
        )
        assert ck.per_rank == plain.per_rank
        rs = restart_run(self.FACTORY, ck.committed_images(), seed=5, storage=STORAGE)
        assert rs.per_rank == plain.per_rank


class NonDeterministicStep(MpiApp):
    """Violates the replay contract: mutates state *before* its MPI calls
    and branches on that state, so re-executing an interrupted step takes
    a different path than the original.  The machinery must fail loudly
    instead of silently corrupting state."""

    name = "nondet"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0

    def step(self, ctx, i):
        ctx.compute_jittered(3e-6, i)
        first_time = not ctx.state.get(f"started_{i}", False)
        ctx.state[f"started_{i}"] = True  # contract violation: pre-call write
        if first_time:
            ctx.state["acc"] = ctx.state["acc"] + ctx.world.allreduce(1.0)
        else:
            # Replay path: a different MPI call than the original.
            ctx.world.recv(source=(ctx.rank + 1) % ctx.nprocs)
        ctx.world.barrier()

    def finalize(self, ctx):
        return ctx.state["acc"]


def test_divergent_replay_detected():
    from repro.des import DeadlockError

    factory = lambda: NonDeterministicStep(niters=10)
    probe = launch_run(factory, 2, protocol="cc", seed=0)
    ck = launch_run(
        factory, 2, protocol="cc", seed=0,
        checkpoint_at=[probe.runtime * 0.5], storage=STORAGE,
    )
    images = ck.committed_images()
    # Only meaningful when the snapshot landed mid-step with calls to
    # replay; guaranteed here because every step has three wrapped calls.
    if all(im.call_index == im.boundary_index for im in images.values()):
        pytest.skip("cut landed exactly on a boundary")
    # The violation must fail LOUDLY: either the replay machinery flags
    # the divergence (cut inside the replay window) or the mismatched
    # communication deadlocks the simulation (cut at the window edge).
    with pytest.raises((ProcessFailed, DeadlockError)) as ei:
        restart_run(factory, images, seed=0, storage=STORAGE)
    if isinstance(ei.value, ProcessFailed):
        assert isinstance(ei.value.original, ProtocolError)
        msg = str(ei.value.original)
        assert "divergence" in msg or "replay" in msg


class TestImageWindowContents:
    def test_replay_window_positions(self):
        """boundary_index <= call_index and the log covers the window."""

        class Stepper(MpiApp):
            name = "stepper"

            def setup(self, ctx):
                ctx.state["x"] = 0.0

            def step(self, ctx, i):
                ctx.compute_jittered(4e-6, i)
                a = ctx.world.allreduce(1.0)
                b = ctx.world.allreduce(2.0)
                ctx.state["x"] = ctx.state["x"] + a + b

            def finalize(self, ctx):
                return ctx.state["x"]

        factory = lambda: Stepper(niters=12)
        probe = launch_run(factory, 4, protocol="cc", seed=1)
        ck = launch_run(
            factory, 4, protocol="cc", seed=1,
            checkpoint_at=[probe.runtime * 0.5], storage=STORAGE,
        )
        for im in ck.committed_images().values():
            assert im.boundary_index <= im.call_index
            assert len(im.load()["call_log"]) >= im.call_index - im.boundary_index
            assert im.counts["call_log"] == len(im.load()["call_log"])


class CreationLogApp(MpiApp):
    """Builds a communicator with each op the creation log records — a
    ``split`` that leaves rank 0 out (``None`` colour), a ``dup`` and a
    ``create_group`` over ranks 0-2 — and uses each every step, so a
    restart must replay all three against the fresh world before the
    application resumes."""

    name = "creation-log"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0
        ctx.state["odd"] = ctx.world.split(
            None if ctx.rank == 0 else ctx.rank % 2, key=-ctx.rank
        )
        ctx.state["dup"] = ctx.world.dup()
        ctx.state["low"] = (
            ctx.world.create_group((0, 1, 2)) if ctx.rank < 3 else None
        )

    def step(self, ctx, i):
        ctx.compute_jittered(3e-6, i)
        total = ctx.world.allreduce(float(ctx.rank + i))
        odd, low = ctx.state["odd"], ctx.state["low"]
        if odd is not None:
            # Weighted by position: the split's key order shows.
            ranks = odd.allgather(float(ctx.rank))
            total += sum(k * r for k, r in enumerate(ranks)) * i
        dup = ctx.state["dup"]
        total += dup.allreduce(float(ctx.rank))
        # Same tag on both contexts, received in the other order: the
        # dup must be a communicator of its own.
        if ctx.rank == 0:
            dup.send(1.0, dest=1, tag=7)
            ctx.world.send(2.0, dest=1, tag=7)
        elif ctx.rank == 1:
            total += 10 * ctx.world.recv(source=0, tag=7) + dup.recv(source=0, tag=7)
        if low is not None:
            total += low.allreduce(float(i * low.rank()))
        ctx.state["acc"] = ctx.state["acc"] + total

    def finalize(self, ctx):
        return ctx.state["acc"]


class TestCreationLogReplay:
    """Every creation op the log holds replays at restart: split (with a
    rank that got no communicator), dup and create_group."""

    FACTORY = staticmethod(lambda: CreationLogApp(niters=10))

    @pytest.mark.parametrize("frac", [0.05, 0.3, 0.5, 0.7])
    @pytest.mark.parametrize("protocol", ["cc", "2pc"])
    def test_restart_matches_the_uninterrupted_run(self, protocol, frac):
        plain = launch_run(self.FACTORY, 4, protocol=protocol, seed=2)
        ck = launch_run(
            self.FACTORY, 4, protocol=protocol, seed=2,
            checkpoint_at=[plain.runtime * frac], storage=STORAGE,
        )
        images = ck.committed_images()
        ops = {entry[0] for entry in images[1].creation_log}
        assert ops == {"split", "dup", "create_group"}
        assert images[0].creation_log[0][:3] == ("split", 0, None)
        rs = restart_run(self.FACTORY, images, seed=2, storage=STORAGE)
        assert rs.per_rank == plain.per_rank
