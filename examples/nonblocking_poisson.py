"""The non-blocking-collective Poisson solver: why CC matters.

    python examples/nonblocking_poisson.py

The paper's Poisson solver (conjugate gradient with Iallreduce /
Iallgather only) is the workload class MANA's 2PC algorithm simply
cannot checkpoint — non-blocking collectives don't tolerate inserted
barriers.  This example shows 2PC refusing the app, CC running it with
sub-1% overhead, and a checkpoint landing while reductions are in
flight (the Section 4.3.2 drain completes them first).
"""

from repro.apps import PoissonCG
from repro.core import UnsupportedOperationError
from repro.des import ProcessFailed
from repro.harness.runner import launch_run, restart_run
from repro.netmodel import StorageModel


def main() -> None:
    nprocs = 8
    factory = lambda: PoissonCG(niters=40, local_n=48, rel_error=1e-4)

    native = launch_run(factory, nprocs, protocol="native", seed=3)
    out = native.per_rank[0]
    print(
        f"native CG: {out['iters_run']} iterations, converged={out['converged']}, "
        f"rel residual={out['rel_residual']:.2e}"
    )

    print("\ntrying MANA/2PC ...")
    try:
        launch_run(factory, nprocs, protocol="2pc", seed=3)
    except ProcessFailed as exc:
        assert isinstance(exc.original, UnsupportedOperationError)
        print(f"  2PC refused, as in the paper: {exc.original}")

    print("\nrunning under MANA/CC ...")
    cc = launch_run(factory, nprocs, protocol="cc", seed=3)
    overhead = (cc.runtime / native.runtime - 1) * 100
    print(f"  CC overhead: {overhead:.2f}% (paper: <1%)")

    print("\ncheckpoint mid-solve, then restart ...")
    storage = StorageModel(base_latency=0.01)
    ck = launch_run(
        factory, nprocs, protocol="cc", seed=3,
        checkpoint_at=[native.runtime * 0.4], storage=storage,
    )
    images = ck.committed_images()
    it = images[0].load()["app_state"]["iter"]
    print(f"  snapshot at CG iteration {it}; in-flight reductions drained")
    rs = restart_run(factory, images, seed=3, storage=storage)
    assert repr(rs.per_rank) == repr(native.per_rank)
    print("  restarted solve converges to the identical solution: OK")


if __name__ == "__main__":
    main()
