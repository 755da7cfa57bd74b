"""Tests for checkpoint images: what an image holds (the upper half and
nothing of the lower), which image sets a restart accepts, and checkpoint-set
persistence (the archive format's own round-trip and corruption table
live in tests/harness/test_image_tier.py)."""

import numpy as np
import pytest

from repro.apps import CoMD
from repro.apps.base import MpiApp
from repro.harness.runner import launch_run, restart_run
from repro.mana import (
    CheckpointImage,
    ImageError,
    load_checkpoint_set,
    save_checkpoint_set,
)
from repro.mana.image import pack_image_set
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)


def make_image(rank=0, nprocs=4, ckpt_id=0, **kw):
    return CheckpointImage.seal(
        rank=rank, nprocs=nprocs, protocol="cc", ckpt_id=ckpt_id,
        app_state={"iter": 7, "x": np.arange(4.0)},
        call_log=[], drained=[], vreq_table={}, final_result=None, **kw,
    )


class TestCheckpointSet:
    def test_save_load_roundtrip(self, tmp_path):
        images = {r: make_image(rank=r) for r in range(4)}
        paths = save_checkpoint_set(images, tmp_path)
        assert [p.name for p in paths] == ["ckpt_0.img"]
        loaded = load_checkpoint_set(tmp_path, ckpt_id=0)
        assert sorted(loaded) == [0, 1, 2, 3]
        state = loaded[2].load()["app_state"]
        assert state["iter"] == 7
        assert state["x"].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_incomplete_set_rejected_on_save(self, tmp_path):
        images = {r: make_image(rank=r) for r in (0, 2)}  # missing 1, 3
        with pytest.raises(ImageError, match="cover"):
            save_checkpoint_set(images, tmp_path)

    def test_incomplete_set_rejected_on_load(self, tmp_path):
        images = {r: make_image(rank=r) for r in (0, 1, 3)}
        (tmp_path / "ckpt_0.img").write_bytes(pack_image_set(images))
        with pytest.raises(ImageError, match="missing"):
            load_checkpoint_set(tmp_path)

    def test_mixed_protocols_rejected_on_load(self, tmp_path):
        images = {r: make_image(rank=r, nprocs=2) for r in range(2)}
        images[1].protocol = "2pc"
        (tmp_path / "ckpt_0.img").write_bytes(pack_image_set(images))
        with pytest.raises(ImageError, match="inconsistent protocols"):
            load_checkpoint_set(tmp_path)

    def test_corrupt_archive_rejected_on_load(self, tmp_path):
        (path,) = save_checkpoint_set(
            {r: make_image(rank=r, nprocs=2) for r in range(2)}, tmp_path
        )
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ImageError, match="digest"):
            load_checkpoint_set(tmp_path)

    def test_wrong_checkpoint_id_rejected_on_load(self, tmp_path):
        (path,) = save_checkpoint_set(
            {r: make_image(rank=r, nprocs=2, ckpt_id=1) for r in range(2)}, tmp_path
        )
        path.rename(tmp_path / "ckpt_0.img")
        with pytest.raises(ImageError, match="ckpt id"):
            load_checkpoint_set(tmp_path, ckpt_id=0)

    def test_empty_set_rejected(self, tmp_path):
        with pytest.raises(ImageError):
            save_checkpoint_set({}, tmp_path)
        with pytest.raises(ImageError):
            load_checkpoint_set(tmp_path)

    def test_multiple_checkpoint_ids_coexist(self, tmp_path):
        save_checkpoint_set({r: make_image(rank=r, nprocs=2, ckpt_id=0) for r in range(2)}, tmp_path)
        save_checkpoint_set({r: make_image(rank=r, nprocs=2, ckpt_id=1) for r in range(2)}, tmp_path)
        a = load_checkpoint_set(tmp_path, ckpt_id=0)
        b = load_checkpoint_set(tmp_path, ckpt_id=1)
        assert a[0].ckpt_id == 0 and b[0].ckpt_id == 1


class TestEndToEndImagePersistence:
    def test_disk_roundtrip_restart(self, tmp_path):
        """Checkpoint to real files, load, restart — full MANA loop."""
        from repro.apps.base import MpiApp
        from repro.harness.runner import launch_run, restart_run
        from repro.netmodel import StorageModel

        class Counter(MpiApp):
            name = "counter"

            def setup(self, ctx):
                ctx.state["total"] = 0

            def step(self, ctx, i):
                ctx.compute_jittered(1e-6, i)
                v = ctx.world.allreduce(ctx.rank + i)
                ctx.state["total"] = ctx.state["total"] + v

            def finalize(self, ctx):
                return ctx.state["total"]

        storage = StorageModel(base_latency=1e-4)
        native = launch_run(lambda: Counter(niters=20), 4, protocol="native", seed=9)
        r = launch_run(
            lambda: Counter(niters=20), 4, protocol="cc", seed=9,
            checkpoint_at=[native.runtime / 2], storage=storage,
        )
        save_checkpoint_set(r.committed_images(), tmp_path)
        images = load_checkpoint_set(tmp_path)
        rs = restart_run(lambda: Counter(niters=20), images, seed=9, storage=storage)
        assert rs.per_rank == native.per_rank


class SmallApp(MpiApp):
    name = "small"

    def setup(self, ctx):
        ctx.state["acc"] = 0
        ctx.state["sub"] = ctx.world.split(color=ctx.rank % 2, key=ctx.rank)

    def step(self, ctx, i):
        ctx.compute_jittered(2e-6, i)
        ctx.state["acc"] = ctx.state["acc"] + ctx.state["sub"].allreduce(1)

    def finalize(self, ctx):
        return ctx.state["acc"]


@pytest.fixture(scope="module")
def checkpointed_run():
    probe = launch_run(lambda: SmallApp(niters=16), 4, protocol="cc", seed=0)
    return launch_run(
        lambda: SmallApp(niters=16), 4, protocol="cc", seed=0,
        checkpoint_at=[probe.runtime / 2], storage=STORAGE,
    )


def test_image_carries_wrapper_state(checkpointed_run):
    images = checkpointed_run.committed_images()
    for rank, im in images.items():
        assert im.seq_table["seq"], "SEQ table must be checkpointed"
        assert im.ggid_peers, "group registry must be checkpointed"
        assert im.creation_log, "comm-creation log must be checkpointed"
        assert im.load()["app_state"]["acc"] > 0


def test_image_app_state_contains_virtual_comm(checkpointed_run):
    from repro.mana import VirtualComm

    im = checkpointed_run.committed_images()[0]
    assert isinstance(im.load()["app_state"]["sub"], VirtualComm)


def test_image_is_frozen_at_snapshot(checkpointed_run):
    """Post-resume execution must not mutate the captured image."""
    images = checkpointed_run.committed_images()
    # The app ran 16 iterations total, but the snapshot was mid-run.
    iters = {im.load()["app_state"]["iter"] for im in images.values()}
    assert iters != {16}, "image captured final state, not snapshot state"


@pytest.mark.parametrize("leak", ["world", "communicator"])
def test_sealing_refuses_a_lower_half_reference(leak):
    """The leak guard: an upper half that references the lower half
    (the simulated world, or one of its raw communicators) cannot be
    cut into an image."""
    from repro.des import Simulator
    from repro.mana import Session
    from repro.netmodel import make_topology
    from repro.simmpi import World

    with Simulator() as sim:
        world = World(sim, make_topology(2))
        sess = Session(world, 0, "cc")
        sess.app_state["k"] = 1
        sess.build_image()  # a clean upper half cuts
        sess.app_state["leak"] = world if leak == "world" else world.comm_world
        with pytest.raises(ImageError, match="lower-half reference"):
            sess.build_image()


class TestRestartSetValidation:
    """``launch_run`` checks every image of a restart set, not just
    rank 0's: one checkpoint's set, each image under its own rank."""

    FACTORY = staticmethod(lambda: CoMD(niters=8, memory_bytes=1 << 20))

    def _images(self, protocol):
        probe = launch_run(self.FACTORY, 4, protocol=protocol, seed=5)
        return launch_run(
            self.FACTORY, 4, protocol=protocol, seed=5,
            checkpoint_at=[probe.runtime / 2], storage=STORAGE,
        ).committed_images()

    def test_mixed_protocol_set_rejected(self):
        cc, twopc = self._images("cc"), self._images("2pc")
        mixed = {0: cc[0], 1: twopc[1], 2: cc[2], 3: twopc[3]}
        with pytest.raises(ValueError, match="rank 1's image was taken under '2pc'"):
            restart_run(self.FACTORY, mixed, seed=5, storage=STORAGE)

    def test_swapped_ranks_rejected(self):
        images = self._images("cc")
        swapped = {0: images[1], 1: images[0], 2: images[2], 3: images[3]}
        with pytest.raises(ValueError, match=r"restore_images\[0\] is rank 1's"):
            restart_run(self.FACTORY, swapped, seed=5, storage=STORAGE)

    def test_mixed_checkpoint_ids_rejected(self):
        images = self._images("cc")
        images[2].ckpt_id = 1
        with pytest.raises(ValueError, match="rank 2's image is from checkpoint 1"):
            restart_run(self.FACTORY, images, seed=5, storage=STORAGE)
