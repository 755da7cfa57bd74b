"""The experiment runner: launch an app under a protocol, measure, checkpoint.

``launch_run`` covers every execution mode the paper's evaluation needs:

* native / 2PC / CC protocol selection,
* optional checkpoint requests at given virtual times (Figure 9),
* restart from a set of checkpoint images (restart-time measurement and
  transparency tests),
* per-run virtual-time, call-rate, and checkpoint statistics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..des import Gate, Simulator
from ..des.errors import DeadlockError
from ..mana import CheckpointCoordinator, CheckpointImage, CheckpointRecord, Session
from ..mana.vcomm import session_scope
from ..netmodel import ModelParams, StorageModel, Topology, make_topology
from ..scenarios import Scenario, resolve_scenario
from ..simmpi import World
from ..apps.base import AppContext, MpiApp

__all__ = ["RunResult", "launch_run", "restart_run"]


@dataclass
class RunResult:
    """Everything measured in one simulated job."""

    app: str
    protocol: str
    nprocs: int
    nnodes: int
    #: Virtual seconds from all-ranks-started to last rank finished.
    runtime: float
    per_rank: list[Any]
    coll_calls: int
    p2p_calls: int
    checkpoints: list[CheckpointRecord] = field(default_factory=list)
    #: Restart-only: modelled image-read time charged before resume.
    restart_read_time: float = 0.0
    #: Restart-only: virtual time at which the last rank finished
    #: rebuilding its lower half (the paper's "restart time").
    restart_ready_time: float = 0.0
    #: Virtual time each rank's application returned (index = rank).
    #: ``min()`` is the earliest completion — the instant the
    #: request-races-completion window opens (see
    #: ``RunSpec.checkpoint_completion_fracs``).
    rank_finish_times: list[float | None] = field(default_factory=list)
    sim_events: int = 0
    #: Ranks hard-killed by fault injection (``crash_at``).  A crashed
    #: run's ``per_rank`` and ``rank_finish_times`` carry ``None`` holes
    #: at the crashed (and never-finished) indices.
    crashed_ranks: list[int] = field(default_factory=list)
    #: Per-rank drain-buffer conservation counters (index = rank):
    #: messages restored into the buffer at restart, messages pulled in
    #: by this run's drain phases, messages consumed from the buffer by
    #: the application, and messages still buffered at job end.  For
    #: every rank, restored + buffered == consumed + leftover must hold
    #: (the drain-conservation oracle checks exactly this).
    drain_restored: list[int] = field(default_factory=list)
    drain_buffered: list[int] = field(default_factory=list)
    drain_consumed: list[int] = field(default_factory=list)
    drain_leftover: list[int] = field(default_factory=list)
    #: Non-empty when the protocol could not wrap the application (the
    #: paper's NA cells): the UnsupportedOperationError message.  Such a
    #: result carries no measurements.
    na_reason: str = ""

    @property
    def ok(self) -> bool:
        """True when the job actually ran (NA cells are not ok)."""
        return not self.na_reason

    @property
    def coll_rate(self) -> float:
        """Mean collective calls per second per rank (Table 1)."""
        if self.runtime <= 0:
            return 0.0
        return self.coll_calls / self.nprocs / self.runtime

    @property
    def p2p_rate(self) -> float:
        if self.runtime <= 0:
            return 0.0
        return self.p2p_calls / self.nprocs / self.runtime

    def committed_images(self, index: int = -1) -> dict[int, CheckpointImage]:
        committed = [r for r in self.checkpoints if r.committed]
        if not committed:
            raise ValueError("run committed no checkpoints")
        return committed[index].images


def _confine_to_current_cpu() -> "set[int] | None":
    """Narrow the calling thread's CPU affinity to the CPU it is on.

    The kernel runs exactly one carrier thread at a time, so spreading
    a simulation's carriers over cores buys nothing and turns every
    cross-rank hand-off into a cross-core futex wake plus a GIL
    hand-off (2-4x the wall time of the same run on one CPU).  Every
    carrier a ``spawn`` binds runs under the spawner's mask: a new
    carrier inherits it, a pooled one is re-pinned to it (or, if the OS
    refuses, passed over for a new one).  So narrowing the launcher
    before the first ``spawn`` confines the whole simulation.
    Returns the mask to restore, or ``None`` when nothing was changed
    (already on one CPU, no affinity API, or the OS refused).
    """
    try:
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            return None
        with open("/proc/thread-self/stat") as fh:
            # Field 39 (``processor``), counted past the parenthesised
            # command name, which may itself contain spaces.
            cpu = int(fh.read().rpartition(")")[2].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return mask


def launch_run(
    app_factory: Callable[[], MpiApp],
    nprocs: int,
    *,
    protocol: str = "native",
    topo: Topology | None = None,
    params: ModelParams | None = None,
    ppn: int | None = None,
    seed: int = 0,
    checkpoint_at: Sequence[float] = (),
    storage: StorageModel | None = None,
    restore_images: dict[int, CheckpointImage] | None = None,
    max_events: int | None = None,
    crash_at: dict[int, float] | None = None,
    scenario: "str | Scenario | None" = None,
) -> RunResult:
    """Run one simulated MPI job to completion and return measurements.

    Args:
        app_factory: zero-argument callable producing the app instance
            (one per rank, so per-rank state never aliases).
        nprocs: number of MPI ranks.
        protocol: ``"native"``, ``"2pc"``, or ``"cc"``.
        checkpoint_at: virtual times at which the coordinator requests a
            checkpoint (requires a non-native protocol).
        restore_images: restart from this checkpoint set instead of a
            fresh start; the modelled image-read time is charged before
            ranks resume.
        crash_at: fault injection — hard-kill ``rank`` at virtual time
            ``crash_at[rank]``.  The kill is a no-op if the rank already
            finished (racing a crash against completion is safe).  The
            surviving ranks eventually block on the corpse; that
            deadlock is the crash's expected teardown and ends the run.
        scenario: a :class:`~repro.scenarios.Scenario` (or its canonical
            string) perturbing the run — fabric choice, per-message link
            noise, straggler compute factors.  The perturbations are a
            pure function of (scenario, seed), so equal specs stay
            byte-identical wherever they run.
    """
    scn = resolve_scenario(scenario)
    if topo is None:
        if scn is not None:
            topo = scn.make_topology(nprocs, ppn=ppn, params=params)
        else:
            topo = make_topology(nprocs, ppn=ppn, params=params)
    if scn is not None:
        topo = scn.wrap_topology(topo, seed=seed)
    if topo.nprocs != nprocs:
        raise ValueError(f"topology is for {topo.nprocs} ranks, asked for {nprocs}")
    if checkpoint_at and protocol == "native":
        raise ValueError("native runs cannot be checkpointed (no wrapper layer)")
    if crash_at:
        bad = [r for r in crash_at if not 0 <= r < nprocs]
        if bad:
            raise ValueError(f"crash_at names nonexistent rank(s) {sorted(bad)}")
        if any(t < 0 for t in crash_at.values()):
            raise ValueError("crash_at times must be >= 0")
    if restore_images is not None:
        if sorted(restore_images) != list(range(nprocs)):
            raise ValueError("restore_images must cover every rank")
        if restore_images[0].nprocs != nprocs:
            raise ValueError(
                f"images were taken on {restore_images[0].nprocs} ranks, "
                f"cannot restart on {nprocs}"
            )
        img_protocol = restore_images[0].protocol
        if img_protocol != protocol:
            raise ValueError(
                f"images were taken under {img_protocol!r}, cannot restart as {protocol!r}"
            )

    sim = Simulator(seed=seed, max_events=max_events)
    # Every layer of this run that owns back-references, in teardown
    # order (the kernel first: unwinding carriers still touch the rest).
    layers: list[Any] = [sim]
    affinity = _confine_to_current_cpu()
    try:
        world = World(sim, topo)
        layers.append(world)
        storage = storage or StorageModel()
        coordinator = None
        if protocol != "native":
            coordinator = CheckpointCoordinator(
                sim, protocol, storage=storage, nnodes=topo.nnodes
            )
            layers.append(coordinator)

        sessions: dict[int, Session] = {}
        restart_read_time = 0.0
        if restore_images is None:
            for rank in range(nprocs):
                sessions[rank] = Session(world, rank, protocol, coordinator)
        else:
            total_bytes = sum(im.declared_bytes for im in restore_images.values())
            restart_read_time = storage.read_time(total_bytes, topo.nnodes)
            for rank in range(nprocs):
                sessions[rank] = Session.from_image(
                    world, restore_images[rank], coordinator
                )
        if scn is not None:
            factors = scn.compute_factors(nprocs)
            if factors is not None:
                for rank in range(nprocs):
                    sessions[rank].compute_factor = float(factors[rank])
        for sess in sessions.values():
            sess.wire_peers(sessions)
        layers.extend(sessions.values())

        gate = Gate(sim, nprocs, label="mpi_init")
        procs = {}
        apps = {rank: app_factory() for rank in range(nprocs)}
        ready_times: list[float] = []
        finish_times: dict[int, float] = {}

        def make_body(rank: int) -> Callable[[], Any]:
            def body() -> Any:
                sess = sessions[rank]
                with session_scope(sess):
                    gate.arrive_and_wait()
                    if restore_images is not None:
                        # Read the image back from storage, then rebuild
                        # the lower half (fresh communicators, re-posted
                        # receives) before the application resumes.
                        sim.sleep(restart_read_time)
                        sess.rebuild_lower()
                        sess.prepare_protocol()
                        ready_times.append(sim.now())
                        if sess.finished:
                            # Checkpointed through rank completion: the
                            # rank was finished at the cut and stays
                            # finished.  It still rebuilt its lower half
                            # above — communicator creation is collective,
                            # so surviving ranks replaying shared comms
                            # need this rank in the allgather — then it
                            # re-announces completion (arming the new
                            # coordinator's proxy for future rounds) and
                            # reports the restored terminal result.
                            finish_times[rank] = sim.now()
                            sess.on_app_finished()
                            return sess.final_result
                    else:
                        sess.prepare_protocol()
                    ctx = AppContext(sess, seed=seed)
                    result = apps[rank].run(ctx)
                    # Stash the terminal result *before* announcing
                    # completion: a checkpoint racing this rank's exit
                    # snapshots it into the finished image.  The finish
                    # instant is the application's return time — not the
                    # exit of any checkpoint the announcement parks into.
                    sess.final_result = result
                    finish_times[rank] = sim.now()
                    sess.on_app_finished()
                    return result

            return body

        for rank in range(nprocs):
            proc = sim.spawn(make_body(rank), name=f"rank{rank}")
            world.register_process(proc, rank)
            procs[rank] = proc

        if coordinator is not None:
            coordinator.attach(sessions, procs)
            for t in checkpoint_at:
                sim.call_at(t, coordinator.request_checkpoint)

        crashed: set[int] = set()
        if crash_at:
            def make_crash(rank: int) -> Callable[[], None]:
                def do_crash() -> None:
                    # A rank whose application has returned has finished
                    # (its process may still be parked in a checkpoint
                    # the completion announcement joined): the kill
                    # loses the race, as it does against an exited one.
                    if rank in finish_times or not sim.kill_process(procs[rank]):
                        return
                    crashed.add(rank)
                    if coordinator is not None:
                        # The failure detector notices after one control
                        # latency (the same delay any rank->coordinator
                        # message would pay).
                        latency = sessions[rank].overheads.control_latency
                        sim.call_after(
                            latency, lambda: coordinator.on_rank_crashed(rank)
                        )

                return do_crash

            for rank, t in sorted(crash_at.items()):
                sim.call_at(t, make_crash(rank))

        try:
            end = sim.run()
        except DeadlockError:
            if not crashed:
                raise
            # Survivors blocked on the corpse with no pending events:
            # this is the crash's expected teardown, not a protocol bug.
            # The job ends where the simulation stopped making progress.
            end = sim.now()
        app0 = apps[0]
        ranks = range(nprocs)
        return RunResult(
            app=app0.name,
            protocol=protocol,
            nprocs=nprocs,
            nnodes=topo.nnodes,
            runtime=end,
            per_rank=[procs[r].result if procs[r].done else None for r in ranks],
            coll_calls=world.stats.total_coll(),
            p2p_calls=world.stats.total_p2p(),
            checkpoints=list(coordinator.records) if coordinator else [],
            restart_read_time=restart_read_time,
            restart_ready_time=max(ready_times) if ready_times else 0.0,
            rank_finish_times=[finish_times.get(r) for r in ranks],
            sim_events=sim.event_count,
            crashed_ranks=sorted(crashed),
            drain_restored=[sessions[r].drain_restored for r in ranks],
            drain_buffered=[sessions[r].drain_buffered for r in ranks],
            drain_consumed=[sessions[r].drain_consumed for r in ranks],
            drain_leftover=[len(sessions[r].drain_buffer) for r in ranks],
        )
    finally:
        # Each layer cuts its own back-references; refcounting then frees the run.
        for layer in layers:
            layer.close()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)


def restart_run(
    app_factory: Callable[[], MpiApp],
    images: dict[int, CheckpointImage],
    *,
    topo: Topology | None = None,
    params: ModelParams | None = None,
    ppn: int | None = None,
    seed: int = 0,
    storage: StorageModel | None = None,
    checkpoint_at: Sequence[float] = (),
    scenario: "str | Scenario | None" = None,
) -> RunResult:
    """Restart a job from a checkpoint set (a fresh lower half, as in
    MANA: a new 'trivial' MPI job adopts the images)."""
    nprocs = len(images)
    protocol = images[0].protocol
    return launch_run(
        app_factory,
        nprocs,
        protocol=protocol,
        topo=topo,
        params=params,
        ppn=ppn,
        seed=seed,
        storage=storage,
        restore_images=images,
        checkpoint_at=checkpoint_at,
        scenario=scenario,
    )
