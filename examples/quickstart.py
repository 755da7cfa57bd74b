"""Quickstart: run an MPI app under the Collective Clock protocol and
take a transparent checkpoint.

    python examples/quickstart.py

Shows the three execution modes of the reproduction (native / 2PC / CC),
a mid-run checkpoint, and a restart from the images — the end-to-end
story of the paper in ~60 lines of user code.
"""

from repro.apps.base import MpiApp
from repro.harness.runner import launch_run, restart_run
from repro.netmodel import StorageModel


class RingReduce(MpiApp):
    """A toy app: ring p2p exchange plus a global reduction per step."""

    name = "ring-reduce"

    def setup(self, ctx):
        ctx.state["total"] = 0

    def step(self, ctx, i):
        me, n = ctx.rank, ctx.nprocs
        ctx.compute_jittered(5e-6, i)  # model some local work
        token = ctx.world.sendrecv(
            me * 100 + i, dest=(me + 1) % n, source=(me - 1) % n,
            sendtag=1, recvtag=1,
        )
        step_sum = ctx.world.allreduce(token)
        # commit block: state writes last, derived from call results
        ctx.state["total"] = ctx.state["total"] + step_sum

    def finalize(self, ctx):
        return ctx.state["total"]


def main() -> None:
    nprocs, niters = 8, 50
    factory = lambda: RingReduce(niters=niters)

    print("1) native run (no checkpoint support) ...")
    native = launch_run(factory, nprocs, protocol="native", seed=42)
    print(f"   result={native.per_rank[0]}  runtime={native.runtime * 1e3:.3f} ms")

    print("2) same app under MANA/2PC and MANA/CC wrappers ...")
    tpc = launch_run(factory, nprocs, protocol="2pc", seed=42)
    cc = launch_run(factory, nprocs, protocol="cc", seed=42)
    assert tpc.per_rank == cc.per_rank == native.per_rank
    print(
        f"   2PC overhead: {(tpc.runtime / native.runtime - 1) * 100:6.2f} %   "
        f"CC overhead: {(cc.runtime / native.runtime - 1) * 100:6.2f} %"
    )

    print("3) CC run with a checkpoint at mid-run ...")
    storage = StorageModel(base_latency=0.001)
    ck = launch_run(
        factory, nprocs, protocol="cc", seed=42,
        checkpoint_at=[native.runtime * 0.5], storage=storage,
    )
    record = ck.checkpoints[0]
    images = record.images
    print(
        f"   checkpoint committed at t={record.t_written:.6f}s "
        f"(drain {1e6 * (record.t_quiesced - record.t_request):.1f} us); "
        f"snapshot taken at iteration {images[0].load()['app_state']['iter']}/{niters}"
    )

    print("4) restart from the images in a fresh 'lower half' ...")
    rs = restart_run(factory, images, seed=42, storage=storage)
    assert rs.per_rank == native.per_rank
    print(f"   restart result={rs.per_rank[0]}  == native result: OK")


if __name__ == "__main__":
    main()
