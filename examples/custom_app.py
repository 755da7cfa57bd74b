"""Writing your own checkpointable MPI application.

    python examples/custom_app.py

Demonstrates the full application contract: persistent state in
``ctx.state`` (including virtual communicator handles and numpy arrays),
sub-communicators, overlapping groups, non-blocking collectives, the
gather-then-commit step structure, and per-step deterministic RNG —
everything needed for the intra-step replay machinery to restart the
app exactly.
"""

import numpy as np

from repro.apps.base import MpiApp
from repro.harness.runner import launch_run, restart_run
from repro.netmodel import StorageModel


class BlockJacobi(MpiApp):
    """A block-Jacobi-flavoured iteration on a 2D process grid.

    Each step: neighbour halo exchange on the world ring, a row-wise
    reduction on a split communicator, a non-blocking global residual
    reduction overlapped with the local update, and a deterministic
    perturbation drawn from the step RNG.
    """

    name = "block-jacobi"

    def __init__(self, niters=30, block=32):
        super().__init__(niters)
        self.block = block

    def setup(self, ctx):
        # Sub-communicators are created once, in setup, and the virtual
        # handles live in checkpointed state.
        rows = max(int(np.sqrt(ctx.nprocs)), 1)
        ctx.state["row"] = ctx.world.split(color=ctx.rank // rows, key=ctx.rank)
        rng = ctx.step_rng(-1, "init")
        ctx.state["x"] = rng.standard_normal(self.block)
        ctx.state["residuals"] = []
        ctx.declare_memory(128 << 20)

    def step(self, ctx, i):
        s = ctx.state
        x = s["x"]
        me, n = ctx.rank, ctx.nprocs

        # 1. Halo exchange (p2p) with ring neighbours.
        left, right = (me - 1) % n, (me + 1) % n
        ghost_l = ctx.world.sendrecv(x[:4], dest=left, source=right, sendtag=1, recvtag=1)
        ghost_r = ctx.world.sendrecv(x[-4:], dest=right, source=left, sendtag=2, recvtag=2)

        # 2. Row-wise mean (blocking collective on the sub-communicator).
        row_mean = s["row"].allreduce(float(x.mean())) / s["row"].size

        # 3. Local smoothing, overlapped with the global residual norm.
        res_req = ctx.world.iallreduce(float(x @ x))
        ctx.compute_jittered(2e-5, i, "smooth")
        noise = ctx.step_rng(i, "perturb").normal(0, 1e-3, x.shape)
        x_new = 0.9 * x + 0.1 * row_mean + noise
        x_new[:4] += 1e-6 * ghost_r
        x_new[-4:] += 1e-6 * ghost_l
        residual = float(np.sqrt(res_req.wait()))

        # 4. Commit block: all state writes, derived from locals, at the
        #    very end of the step and after the last MPI call.
        s["x"] = x_new
        s["residuals"] = s["residuals"] + [round(residual, 9)]

    def finalize(self, ctx):
        return {
            "x_norm": round(float(np.linalg.norm(ctx.state["x"])), 9),
            "last_residuals": tuple(ctx.state["residuals"][-3:]),
        }


def main() -> None:
    nprocs = 9
    factory = lambda: BlockJacobi(niters=30)
    storage = StorageModel(base_latency=0.001)

    native = launch_run(factory, nprocs, protocol="native", seed=11)
    print("native:", native.per_rank[0])

    ck = launch_run(
        factory, nprocs, protocol="cc", seed=11,
        checkpoint_at=[native.runtime * 0.6], storage=storage,
    )
    assert repr(ck.per_rank) == repr(native.per_rank)
    images = ck.committed_images()
    print(f"checkpoint at iteration {images[0].load()['app_state']['iter']}/30")

    rs = restart_run(factory, images, seed=11, storage=storage)
    assert repr(rs.per_rank) == repr(native.per_rank)
    print("restart reproduces native results:", rs.per_rank[0])


if __name__ == "__main__":
    main()
