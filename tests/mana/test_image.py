"""Tests for checkpoint-set persistence (the archive format's own
round-trip and corruption table live in tests/harness/test_image_tier.py)."""

import numpy as np
import pytest

from repro.mana import (
    CheckpointImage,
    ImageError,
    load_checkpoint_set,
    save_checkpoint_set,
)
from repro.mana.image import pack_image_set


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
