"""Checkpoint/restart of the collective-intensive miniVASP workload.

    python examples/checkpoint_restart_vasp.py

Reproduces the paper's headline scenario: VASP is the very-high
collective-rate application (Table 1) where MANA's old 2PC algorithm
hurt most; the CC algorithm checkpoints it with near-zero steady-state
overhead.  This example measures both protocols' runtime overhead,
takes a checkpoint under CC, persists the image set to disk (one
digest-verified archive), and restarts from it.
"""

import tempfile
from pathlib import Path

from repro.apps import MiniVasp
from repro.harness.runner import launch_run, restart_run
from repro.mana import load_checkpoint_set, save_checkpoint_set
from repro.netmodel import StorageModel


def main() -> None:
    nprocs, niters = 16, 10
    factory = lambda: MiniVasp(niters=niters)
    storage = StorageModel()  # Lustre-like defaults

    native = launch_run(factory, nprocs, protocol="native", ppn=8, seed=7)
    print(
        f"native miniVASP: runtime={native.runtime:.4f}s  "
        f"coll rate={native.coll_rate:.0f}/s  p2p rate={native.p2p_rate:.0f}/s"
    )

    for protocol in ("2pc", "cc"):
        run = launch_run(factory, nprocs, protocol=protocol, ppn=8, seed=7)
        overhead = (run.runtime / native.runtime - 1) * 100
        print(f"{protocol.upper():>4}: runtime={run.runtime:.4f}s  overhead={overhead:5.2f}%")

    print("\ncheckpointing under CC at 50% of the run ...")
    ck = launch_run(
        factory, nprocs, protocol="cc", ppn=8, seed=7,
        checkpoint_at=[native.runtime * 0.5], storage=storage,
    )
    rec = ck.checkpoints[0]
    print(
        f"  drain-to-safe-state: {1e3 * (rec.t_quiesced - rec.t_request):.3f} ms "
        f"(the CC topological sort at work)\n"
        f"  total checkpoint time: {rec.checkpoint_time:.2f} s "
        f"({rec.total_image_bytes / (1 << 30):.1f} GiB of images)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        (path,) = save_checkpoint_set(rec.images, tmp)
        print(
            f"  wrote {len(rec.images)} rank images to "
            f"{Path(tmp).name}/{path.name} ({path.stat().st_size >> 10} KiB)"
        )
        images = load_checkpoint_set(tmp)
        rs = restart_run(factory, images, ppn=8, seed=7, storage=storage)
        print(
            f"  restart: lower half rebuilt and app resumed by "
            f"t={rs.restart_ready_time:.2f}s"
        )
        assert repr(rs.per_rank) == repr(native.per_rank)
        print("  restarted run reproduces the native results exactly: OK")


if __name__ == "__main__":
    main()
