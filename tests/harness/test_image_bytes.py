"""An image is bytes from birth: the design, pinned.

A rank's heavy half is pickled once, at the cut
(``CheckpointImage.seal``), and unpickled once, at restore
(``CheckpointImage.load``); the coordinator's record, the archive, the
cache's image tier and a pool hop in between move those bytes.  These
tests pin that, and the failure modes that moved with it: every
decoding failure is an :class:`ImageError`, and a tier-fed set that does
not restore is a miss.
"""

import hashlib
import os
import pickle
import struct
import sys
import threading
import types
import zlib

import numpy as np
import pytest

from repro.apps.base import MpiApp
from repro.des import ProcessFailed
from repro.harness import ExperimentEngine, ResultCache
from repro.harness.runner import launch_run, restart_run
from repro.harness.spec import execute, run_result_to_dict
from repro.mana import (
    CheckpointImage,
    ImageError,
    load_checkpoint_set,
    save_checkpoint_set,
)
from repro.mana.image import ARCHIVE_VERSION, pack_image_set, unpack_image_set
from repro.netmodel import StorageModel
from test_image_tier import _ckpt_spec, _restart_spec

STORAGE = StorageModel(base_latency=1e-4)
NPROCS = 3


class Tally:
    """Application state that counts its own serializations."""

    pickled = 0
    unpickled = 0

    def __init__(self):
        self.total = 0

    def __getstate__(self):
        Tally.pickled += 1
        return {"total": self.total}

    def __setstate__(self, state):
        Tally.unpickled += 1
        self.total = state["total"]


class TallyApp(MpiApp):
    name = "tally"

    def setup(self, ctx):
        ctx.state["tally"] = Tally()
        ctx.state["grid"] = np.zeros(4)

    def step(self, ctx, i):
        ctx.compute_jittered(2e-6, i)
        v = ctx.world.allreduce(ctx.rank + i)
        ctx.state["tally"].total += v
        ctx.state["grid"] += 1.0  # in place: the cut must have copied it

    def finalize(self, ctx):
        return ctx.state["tally"].total


def _checkpointed():
    factory = lambda: TallyApp(niters=16)
    plain = launch_run(factory, NPROCS, protocol="cc", seed=4)
    ck = launch_run(
        factory, NPROCS, protocol="cc", seed=4,
        checkpoint_at=[plain.runtime / 2], storage=STORAGE,
    )
    assert ck.per_rank == plain.per_rank
    return plain, ck


def test_one_pickle_per_rank_at_the_cut_one_unpickle_per_restore(tmp_path):
    """checkpoint -> put_images -> get_images -> restart serializes each
    rank's state exactly once and deserializes it exactly once."""
    Tally.pickled = Tally.unpickled = 0
    plain, ck = _checkpointed()
    assert (Tally.pickled, Tally.unpickled) == (NPROCS, 0)

    cache = ResultCache(tmp_path)
    assert cache.put_images("ab" * 32, ck) == 1
    images = cache.get_images("ab" * 32, 0)
    assert images is not None
    assert (Tally.pickled, Tally.unpickled) == (NPROCS, 0)

    rs = restart_run(
        lambda: TallyApp(niters=16), images, seed=4, storage=STORAGE
    )
    assert rs.per_rank == plain.per_rank
    assert (Tally.pickled, Tally.unpickled) == (NPROCS, NPROCS)


def test_state_mutated_after_the_cut_does_not_change_the_image():
    _, ck = _checkpointed()
    for image in ck.committed_images().values():
        state = image.load()["app_state"]
        assert 0 < state["iter"] < 16
        # ``grid`` kept being incremented in place until the run ended.
        assert state["grid"].tolist() == [float(state["iter"])] * 4
        assert state["tally"].total < ck.per_rank[image.rank]


def test_restarting_twice_from_one_set_is_identical():
    plain, ck = _checkpointed()
    images = ck.committed_images()
    frozen = {rank: image.payload for rank, image in images.items()}
    first, second = (
        restart_run(lambda: TallyApp(niters=16), images, seed=4, storage=STORAGE)
        for _ in range(2)
    )
    assert run_result_to_dict(first) == run_result_to_dict(second)
    assert first.per_rank == plain.per_rank
    assert {rank: image.payload for rank, image in images.items()} == frozen
    # Every load is its own copy.
    assert images[0].load()["app_state"] is not images[0].load()["app_state"]


def test_a_loaded_set_is_borrowed_and_restarts_twice_identically(tmp_path):
    plain, ck = _checkpointed()
    save_checkpoint_set(ck.committed_images(), tmp_path)
    ckpt_id = ck.committed_images()[0].ckpt_id
    images = load_checkpoint_set(tmp_path, ckpt_id)
    frozen = {rank: image.payload for rank, image in images.items()}
    first, second = (
        restart_run(lambda: TallyApp(niters=16), images, seed=4, storage=STORAGE)
        for _ in range(2)
    )
    assert run_result_to_dict(first) == run_result_to_dict(second)
    assert first.per_rank == plain.per_rank
    assert {rank: image.payload for rank, image in images.items()} == frozen


class LeakyApp(TallyApp):
    """Rank 1 keeps a lower-half-like object (nothing that holds a lock
    pickles) in its state."""

    def setup(self, ctx):
        super().setup(ctx)
        if ctx.rank == 1:
            ctx.state["leak"] = threading.Lock()


def test_lower_half_object_in_state_fails_at_the_cut_naming_the_rank():
    factory = lambda: LeakyApp(niters=16)
    plain = launch_run(factory, NPROCS, protocol="cc", seed=4)
    with pytest.raises(ProcessFailed) as caught:
        launch_run(
            factory, NPROCS, protocol="cc", seed=4,
            checkpoint_at=[plain.runtime / 2], storage=STORAGE,
        )
    assert isinstance(caught.value.original, ImageError)
    assert "rank 1" in str(caught.value.original)


# --------------------------------------------------------------------- #
# Decoding failures are ImageErrors, and misses
# --------------------------------------------------------------------- #

def _vanishing(value):
    """An object whose class lives in a module that stops importing."""
    module = types.ModuleType("repro_test_vanishing")
    exec("class Gone:\n    def __init__(self, v):\n        self.v = v", module.__dict__)
    sys.modules[module.__name__] = module
    return module.Gone(value), lambda: sys.modules.pop(module.__name__)


def _sealed(rank=0, nprocs=1, app_state=None, **meta):
    return CheckpointImage.seal(
        rank=rank, nprocs=nprocs, protocol="cc", ckpt_id=0,
        app_state=app_state or {"iter": 1},
        call_log=[], drained=[], vreq_table={}, final_result=None, **meta,
    )


def test_archive_naming_a_missing_module_is_an_image_error(tmp_path):
    gone, forget = _vanishing(3)
    raw = pack_image_set({0: _sealed(stats={"note": gone})})
    (tmp_path / "ckpt_0.img").write_bytes(raw)
    assert unpack_image_set(raw)[0].stats["note"].v == 3
    forget()
    with pytest.raises(ImageError, match="undecodable"):
        unpack_image_set(raw)
    with pytest.raises(ImageError, match="undecodable"):
        load_checkpoint_set(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    path = cache.image_path_for("cd" * 32, 0)
    path.parent.mkdir(parents=True)
    path.write_bytes(raw)
    assert cache.get_images("cd" * 32, 0) is None


def test_payload_naming_a_missing_module_fails_restore_naming_the_rank():
    _, ck = _checkpointed()
    images = ck.committed_images()
    gone, forget = _vanishing(5)
    images[1].payload = pickle.dumps({"app_state": gone})
    forget()
    # The archive itself is fine: payloads are opaque bytes to it.
    images = unpack_image_set(pack_image_set(images))
    assert images[0].load()["app_state"]["iter"] > 0
    with pytest.raises(ImageError, match="rank 1"):
        images[1].load()
    with pytest.raises(ImageError, match="rank 1"):
        restart_run(lambda: TallyApp(niters=16), images, seed=4, storage=STORAGE)


def test_stripped_image_cannot_restore():
    image = CheckpointImage(rank=2, nprocs=3, protocol="cc", ckpt_id=0)
    with pytest.raises(ImageError, match="rank 2"):
        image.load()


def _assert_tier_miss_resimulates(tmp_path, parent, cold):
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    warm = engine.run(_restart_spec(parent))
    assert engine.last_stats.executed == 1  # the parent ran inside the job
    assert engine.last_stats.images_reused == 0
    assert run_result_to_dict(warm) == run_result_to_dict(cold)


def test_tier_set_that_does_not_restore_is_a_miss(tmp_path):
    """Valid digest, valid image map, one rank's payload names a module
    that no longer imports: the restart re-simulates its parent and
    equals the cold result."""
    parent = _ckpt_spec()
    cold = execute(_restart_spec(parent))
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(parent)
    path = cache.image_path_for(parent, 0)
    images = unpack_image_set(path.read_bytes())
    gone, forget = _vanishing(7)
    images[1].payload = pickle.dumps({"app_state": gone})
    path.write_bytes(pack_image_set(images))
    forget()
    assert ResultCache(tmp_path).get_images(parent, 0) is not None
    _assert_tier_miss_resimulates(tmp_path, parent, cold)


def test_version_2_archive_is_a_miss_and_the_next_put_overwrites_it(tmp_path):
    parent = _ckpt_spec()
    cold = execute(_restart_spec(parent))
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(parent)
    path = cache.image_path_for(parent, 0)
    assert path.parent.parent.name == "v2-images"
    # What the previous format wrote: version 2, a zlib-deflated pickle.
    body = zlib.compress(pickle.dumps({0: "image", 1: "image"}))
    path.write_bytes(
        struct.pack("<8sIQ32s", b"MANAPYA1", 2, len(body),
                    hashlib.sha256(body).digest()) + body
    )
    with pytest.raises(ImageError, match="unsupported version 2"):
        unpack_image_set(path.read_bytes())
    fresh = ResultCache(tmp_path)
    assert fresh.has_images(parent, 0) and fresh.get_images(parent, 0) is None
    _assert_tier_miss_resimulates(tmp_path, parent, cold)

    fresh.put(parent, execute(parent))
    assert struct.unpack_from("<8sI", path.read_bytes())[1] == ARCHIVE_VERSION == 3
    assert sorted(fresh.get_images(parent, 0)) == [0, 1]


def test_images_that_crossed_a_spawn_pool_restart_identically(tmp_path):
    parents = [_ckpt_spec(seed=0), _ckpt_spec(seed=1)]
    pooled = ExperimentEngine(jobs=2).run_batch(parents)
    for parent in parents:
        local = execute(parent)
        here = local.committed_images()
        there = pooled[parent].committed_images()
        assert {r: im.payload for r, im in here.items()} == {
            r: im.payload for r, im in there.items()
        }
        restart = _restart_spec(parent)
        assert run_result_to_dict(
            execute(restart, {parent: pooled[parent]})
        ) == run_result_to_dict(execute(restart, {parent: local}))


def test_save_checkpoint_set_replaces_atomically(tmp_path, monkeypatch):
    """A write that dies midway leaves the previous archive for that id
    readable (``path.write_bytes`` truncated it first)."""
    images = {0: _sealed()}
    (path,) = save_checkpoint_set(images, tmp_path)
    good = path.read_bytes()

    def dying_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(OSError):
        save_checkpoint_set({0: _sealed(app_state={"iter": 2})}, tmp_path)
    monkeypatch.undo()
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt_0.img"]
    assert load_checkpoint_set(tmp_path)[0].load()["app_state"] == {"iter": 1}
