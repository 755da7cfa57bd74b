"""A run frees itself: with the cyclic collector off, nothing a finished
``launch_run`` built survives its return — on success, after a
checkpoint, on a restart, after a crash fault, and when the run raises.

``launch_run`` used to end in a full-heap ``gc.collect()`` because a run
left process <-> closure <-> session <-> world cycles behind (444
objects for one 8-rank CC ``osu_overlap``).  Each layer now cuts its own
back-references in a ``close()`` chained from ``launch_run``'s
``finally``, so this census must read zero.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.apps.base import MpiApp
from repro.apps.registry import make_app_factory
from repro.core import PROTOCOLS
from repro.des import DeadlockError, ProcessFailed
from repro.des.errors import SchedulingError
from repro.harness.runner import launch_run
from repro.harness.spec import RunSpec, execute
from repro.netmodel import ModelParams, OverheadCosts, StorageModel, make_topology

NPROCS = 8
SEED = 1
APPS = {
    "osu_overlap": dict(niters=14, kind="alltoall", nbytes=1024),
    "minivasp": dict(niters=3),
    "comd": dict(niters=3),  # the halo-exchange (p2p) app
}
MODES = ("plain", "checkpoint", "restart", "crash", "deadlock", "runaway")


class _Deserter(MpiApp):
    """Runs the wrapped app, except that rank 0 walks off after its
    first step into a receive nobody ever sends — the rest of the job
    blocks on it mid-traffic."""

    def __init__(self, inner: MpiApp):
        super().__init__(inner.niters)
        self.inner = inner
        self.name = inner.name

    def setup(self, ctx):
        self.inner.setup(ctx)

    def step(self, ctx, i):
        if ctx.rank == 0 and i == 1:
            ctx.world.recv(source=1, tag=987654)
        self.inner.step(ctx, i)

    def finalize(self, ctx):
        return self.inner.finalize(ctx)


@pytest.fixture
def collector_restored():
    """Tests here switch the cyclic collector off; whatever happens, the
    next test gets it back."""
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def _supported(app: str, protocol: str, mode: str) -> bool:
    if protocol == "native" and mode in ("checkpoint", "restart"):
        return False  # no wrapper layer to checkpoint
    if protocol == "2pc" and app == "osu_overlap":
        return False  # 2PC cannot wrap non-blocking collectives (NA cells)
    if protocol == "2pc" and mode == "deadlock":
        return False  # 2PC ranks poll a trivial barrier: a livelock ('runaway')
    return True


CASES = [
    (app, protocol, mode)
    for app in APPS
    for protocol in PROTOCOLS
    for mode in MODES
    if _supported(app, protocol, mode)
]


def _prepare(app: str, protocol: str, mode: str):
    """Everything the measured run needs that is not the run itself
    (probe, parent checkpoint run), built while the collector is still
    on; returns the zero-argument measured run."""
    factory = make_app_factory(app, **APPS[app])
    kwargs = dict(protocol=protocol, seed=SEED)
    if mode == "plain":
        return lambda: launch_run(factory, NPROCS, **kwargs)
    if mode == "deadlock":
        def deadlock():
            with pytest.raises(DeadlockError):
                launch_run(lambda: _Deserter(factory()), NPROCS, **kwargs)
        return deadlock
    if mode == "runaway":
        def runaway():
            with pytest.raises(SchedulingError, match="max_events"):
                launch_run(factory, NPROCS, max_events=100, **kwargs)
        return runaway
    probe = launch_run(factory, NPROCS, **kwargs)
    if mode == "crash":
        def crash():
            res = launch_run(
                factory, NPROCS, crash_at={3: probe.runtime * 0.5}, **kwargs
            )
            assert res.crashed_ranks == [3]
        return crash
    at = [probe.runtime * 0.5]
    if mode == "checkpoint":
        def checkpoint():
            res = launch_run(factory, NPROCS, checkpoint_at=at, **kwargs)
            assert res.checkpoints[0].committed
        return checkpoint
    assert mode == "restart"
    images = launch_run(
        factory, NPROCS, checkpoint_at=at, **kwargs
    ).committed_images()
    return lambda: launch_run(factory, NPROCS, restore_images=images, **kwargs)


@pytest.mark.parametrize("app,protocol,mode", CASES)
def test_run_leaves_nothing_for_the_cycle_collector(
    app, protocol, mode, collector_restored
):
    run = _prepare(app, protocol, mode)
    run()  # warm: imports, lazily built module state
    gc.collect()
    gc.disable()
    run()
    assert gc.collect() == 0


def test_payloads_die_before_the_caller_regains_control(collector_restored):
    born: list[weakref.ref] = []

    class Traffic(MpiApp):
        name = "traffic"

        def step(self, ctx, i):
            payload = np.full(4096, float(ctx.rank))
            born.append(weakref.ref(payload))
            right = (ctx.rank + 1) % ctx.nprocs
            left = (ctx.rank - 1) % ctx.nprocs
            pending = ctx.world.irecv(source=left, tag=i)
            ctx.world.isend(payload, dest=right, tag=i)
            ctx.state["last"] = float(pending.wait()[0])
            req = ctx.world.iallreduce(payload)
            ctx.compute(1e-6)
            req.wait()

    gc.collect()
    gc.disable()
    result = launch_run(lambda: Traffic(niters=4), 4, protocol="cc", seed=SEED)
    assert len(born) == 16
    assert [ref() for ref in born] == [None] * 16
    assert result.per_rank == [None] * 4 and result.sim_events > 0


class TestTeardownTouchesOnlyWhatTheRunBuilt:
    """``params``/``topo``/``storage``/``restore_images`` belong to the
    caller and the ``RunResult`` is what the caller gets: teardown must
    leave all of them exactly as they were."""

    @staticmethod
    def _inputs(nprocs=NPROCS):
        params = ModelParams(overheads=OverheadCosts(wrapper_call=3e-7))
        return dict(
            params=params,
            topo=make_topology(nprocs, ppn=4, params=params),
            storage=StorageModel(base_latency=1e-4),
        )

    @staticmethod
    def _frozen(inputs) -> dict:
        return {name: pickle.dumps(value) for name, value in inputs.items()}

    def test_success_checkpoint_and_restart(self):
        factory = make_app_factory("comd", **APPS["comd"])
        inputs = self._inputs()
        before = self._frozen(inputs)
        probe = launch_run(factory, NPROCS, protocol="cc", seed=SEED, **inputs)
        ckpt = launch_run(
            factory, NPROCS, protocol="cc", seed=SEED,
            checkpoint_at=[probe.runtime * 0.5], **inputs,
        )
        assert self._frozen(inputs) == before
        assert inputs["params"].overheads.wrapper_call == 3e-7

        # The result's records, images and per-rank results are intact.
        record = ckpt.checkpoints[0]
        assert record.committed and sorted(record.images) == list(range(NPROCS))
        assert all(im.load()["app_state"]["iter"] >= 0 for im in record.images.values())
        assert all(r is not None for r in ckpt.per_rank)
        assert ckpt.per_rank == probe.per_rank

        images = ckpt.committed_images()
        images_before = pickle.dumps(images)
        restarted = launch_run(
            factory, NPROCS, protocol="cc", seed=SEED,
            restore_images=images, **inputs,
        )
        assert pickle.dumps(images) == images_before
        assert self._frozen(inputs) == before
        assert restarted.per_rank == probe.per_rank

    def test_error_paths(self):
        factory = make_app_factory("comd", **APPS["comd"])
        inputs = self._inputs()
        before = self._frozen(inputs)
        with pytest.raises(DeadlockError):
            launch_run(
                lambda: _Deserter(factory()), NPROCS, protocol="cc",
                seed=SEED, **inputs,
            )
        with pytest.raises(SchedulingError, match="max_events"):
            launch_run(
                factory, NPROCS, protocol="cc", seed=SEED, max_events=100,
                **inputs,
            )
        assert self._frozen(inputs) == before

    def test_crash_fault_run(self):
        # The staggered-completion app with a small image: the round
        # commits mid-run, then a rank dies before the job ends.
        nprocs = 4
        factory = make_app_factory(
            "earlyexit", niters=12, shared=4, leavers=1, memory_bytes=1 << 20
        )
        inputs = self._inputs(nprocs)
        before = self._frozen(inputs)
        kwargs = dict(protocol="cc", seed=3, **inputs)
        probe = launch_run(factory, nprocs, **kwargs)
        at = [probe.runtime * 0.3]
        graceful = launch_run(factory, nprocs, checkpoint_at=at, **kwargs)
        resumed = graceful.checkpoints[0].t_resumed
        res = launch_run(
            factory, nprocs, checkpoint_at=at,
            crash_at={1: (resumed + graceful.runtime) / 2}, **kwargs,
        )
        assert self._frozen(inputs) == before
        assert res.crashed_ranks == [1]
        assert res.per_rank[1] is None and res.per_rank[0] == probe.per_rank[0]
        assert res.rank_finish_times[1] is None
        assert res.rank_finish_times[0] == probe.rank_finish_times[0]
        assert len(res.drain_leftover) == nprocs
        (record,) = res.checkpoints
        assert record.committed and sorted(record.images) == list(range(nprocs))
        assert record.images[0].finished and not record.images[1].finished


def test_a_failed_body_is_the_one_cycle_left_to_the_collector(collector_restored):
    # A failed process keeps its exception, whose traceback frames reach
    # the run: the documented exception to the rule (the engine's
    # once-per-wave collection is its backstop).  Pinned so that a change
    # to it is a decision, not an accident.
    factory = make_app_factory("osu_overlap", **APPS["osu_overlap"])
    gc.collect()
    gc.disable()
    with pytest.raises(ProcessFailed):
        launch_run(factory, NPROCS, protocol="2pc", seed=SEED)
    assert gc.collect() > 0

    # The one failure that is an expected outcome — an NA cell — drops
    # its traceback where `execute` turns it into a result, so a batch
    # full of NA cells frees itself too.
    spec = RunSpec.create(
        "osu_overlap", NPROCS, app_kwargs=APPS["osu_overlap"],
        protocol="2pc", seed=SEED,
    )
    assert execute(spec).na_reason
    assert gc.collect() == 0
