"""Tests for split-process semantics: upper half saved, lower half not."""

import pytest

from repro.apps.base import MpiApp
from repro.harness.runner import launch_run
from repro.mana import verify_image_is_upper_half_only
from repro.mana.splitproc import lower_half_of, split_view, upper_half_of
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)


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


def test_images_contain_no_lower_half(checkpointed_run):
    """The decisive property: images pickle cleanly, which is impossible
    if any lower-half object (simulator, world, engine, thread) leaked."""
    for rank, image in checkpointed_run.committed_images().items():
        nbytes = verify_image_is_upper_half_only(image)
        assert nbytes > 0


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


def test_split_view_inventories():
    """upper_half_of/lower_half_of classify state correctly on a live
    session (constructed directly, no run needed)."""
    from repro.des import Simulator
    from repro.mana import Session
    from repro.simmpi import World

    with Simulator() as sim:
        world = World(sim, nprocs=2)
        sess = Session(world, 0, "cc")
        sess.app_state["k"] = 1
        view = split_view(sess)
        assert view.upper["app_state"] == {"k": 1}
        assert "seq_table" in view.upper
        assert view.lower["world"] is world
        assert view.lower["simulator"] is sim
        import pickle

        with pytest.raises(Exception):
            pickle.dumps(view.lower)  # the lower half must NOT pickle
        pickle.dumps(view.upper)  # the upper half must
