"""Tests for the drain machinery: in-flight p2p, pending receives,
non-blocking collectives across checkpoints."""

import numpy as np
import pytest

from repro.apps.base import MpiApp
from repro.harness.runner import launch_run, restart_run
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)


class CrossCutSender(MpiApp):
    """Rank 0 sends late in each step; rank 1 receives at the start of the
    next — messages are routinely in flight when the cut lands, so the
    drain must buffer them and restart must deliver from the buffer."""

    name = "crosscut"

    def setup(self, ctx):
        ctx.state["got"] = []

    def step(self, ctx, i):
        me, n = ctx.rank, ctx.nprocs
        got = ctx.state["got"]
        if me == 1 and i > 0:
            got = got + [ctx.world.recv(source=0, tag=i - 1)]
        ctx.compute_jittered(5e-6, i)
        ctx.world.allreduce(1)
        if me == 0:
            ctx.world.send(("payload", i), dest=1, tag=i)
        ctx.world.allreduce(2)
        ctx.state["got"] = got

    def finalize(self, ctx):
        if ctx.rank == 1:
            missing = ctx.world.recv(source=0, tag=self.niters - 1)
            return tuple(ctx.state["got"]) + (missing,)
        return None


class PendingIrecv(MpiApp):
    """Posts an irecv whose matching send happens a step later — the
    request is pending at most cuts and must be re-posted on restart."""

    name = "pendingirecv"

    def setup(self, ctx):
        ctx.state["sum"] = 0.0

    def step(self, ctx, i):
        me, n = ctx.rank, ctx.nprocs
        left = (me - 1) % n
        right = (me + 1) % n
        req = ctx.world.irecv(source=left, tag=7)
        ctx.compute_jittered(4e-6, i)
        ctx.world.allreduce(1.0)  # give the cut somewhere to land
        ctx.world.send(float(me * 100 + i), dest=right, tag=7)
        payload = req.wait()  # MANA-level irecv requests yield the payload
        ctx.state["sum"] = ctx.state["sum"] + payload

    def finalize(self, ctx):
        return ctx.state["sum"]


class OutstandingNbc(MpiApp):
    """Initiates non-blocking collectives and waits a step later: the
    Section 4.3.2 drain must complete them at the cut."""

    name = "nbcdrain"

    def setup(self, ctx):
        ctx.state["acc"] = 0.0

    def step(self, ctx, i):
        reqs = [ctx.world.iallreduce(float(ctx.rank + i + k)) for k in range(3)]
        ctx.compute_jittered(3e-6, i)
        total = 0.0
        for r in reqs:
            total += r.wait()
        ctx.state["acc"] = ctx.state["acc"] + total

    def finalize(self, ctx):
        return ctx.state["acc"]


@pytest.mark.parametrize(
    "app_cls,nprocs",
    [(CrossCutSender, 2), (PendingIrecv, 4), (OutstandingNbc, 4)],
)
@pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
def test_drain_and_restart_equivalence(app_cls, nprocs, frac):
    factory = lambda: app_cls(niters=14)
    native = launch_run(factory, nprocs, protocol="native", seed=6)
    ck = launch_run(
        factory, nprocs, protocol="cc", seed=6,
        checkpoint_at=[native.runtime * frac], storage=STORAGE,
    )
    assert repr(ck.per_rank) == repr(native.per_rank)
    rs = restart_run(factory, ck.committed_images(), seed=6, storage=STORAGE)
    assert repr(rs.per_rank) == repr(native.per_rank)


def test_drained_messages_recorded_in_images():
    factory = lambda: CrossCutSender(niters=14)
    native = launch_run(factory, 2, protocol="native", seed=6)
    ck = launch_run(
        factory, 2, protocol="cc", seed=6,
        checkpoint_at=[native.runtime * 0.5], storage=STORAGE,
    )
    images = ck.committed_images()
    drained_total = sum(len(im.load()["drained"]) for im in images.values())
    stats = images[1].stats
    assert drained_total >= 1 or stats.get("drained_p2p", 0) >= 0


def test_no_incomplete_collective_requests_in_images():
    """Invariant 2 / Section 4.3.2: every initiated non-blocking
    collective is complete at the snapshot."""
    factory = lambda: OutstandingNbc(niters=14)
    native = launch_run(factory, 4, protocol="native", seed=6)
    ck = launch_run(
        factory, 4, protocol="cc", seed=6,
        checkpoint_at=[native.runtime * 0.4], storage=STORAGE,
    )
    for im in ck.committed_images().values():
        for vrid, vreq in im.load()["vreq_table"].items():
            if vreq.is_collective:
                assert vreq.done, f"incomplete collective request {vrid} in image"


def test_rendezvous_send_across_cut():
    """A large (rendezvous) send blocked on an unposted receive completes
    during the drain; the payload crosses via the receiver's buffer."""

    class BigSend(MpiApp):
        name = "bigsend"

        def setup(self, ctx):
            ctx.state["sum"] = 0.0

        def step(self, ctx, i):
            me = ctx.rank
            new_sum = ctx.state["sum"]
            if me == 0:
                # 128 KiB: above the eager threshold, so this blocks in
                # the rendezvous until rank 1 posts (long after us).
                ctx.world.send(np.full(1 << 14, float(i)), dest=1, tag=2)
            else:
                ctx.compute_jittered(4e-5, i)  # cut often lands here
                arr = ctx.world.recv(source=0, tag=2)
                new_sum = new_sum + float(arr[0])
            ctx.world.allreduce(1.0)
            # ---- commit block ----
            ctx.state["sum"] = new_sum

        def finalize(self, ctx):
            return ctx.state["sum"]

    factory = lambda: BigSend(niters=10)
    native = launch_run(factory, 2, protocol="native", seed=3)
    ck = launch_run(
        factory, 2, protocol="cc", seed=3,
        checkpoint_at=[native.runtime * 0.5], storage=STORAGE,
    )
    assert ck.per_rank == native.per_rank
    rs = restart_run(factory, ck.committed_images(), seed=3, storage=STORAGE)
    assert rs.per_rank == native.per_rank
