"""The kernel's carrier pool: simulated processes run on OS threads that
outlive them.  A spawn binds an idle carrier (re-pinned to the
spawner's CPU mask) or starts a new one; a process that ends, however it
ends, gives its carrier back before control leaves it.  Every carrier
runs under ``SCHED_BATCH`` where the OS grants it, and nothing else
does."""

import _thread
import os
import sys
import threading
import time

import pytest

from repro.des import ProcessFailed, Simulator, kernel
from repro.harness.experiments import plan_fig5a
from repro.harness.spec import execute, run_result_to_dict

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity API and two allowed CPUs",
)
needs_sched_batch = pytest.mark.skipif(
    not hasattr(os, "SCHED_BATCH"), reason="needs the SCHED_BATCH policy"
)


def _mask():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _policy():
    return os.sched_getscheduler(0)


def _job(nprocs, probe=_mask):
    """One run of ``nprocs`` processes that interleave; returns what
    ``probe`` (by default the CPU mask) read in each process's body."""
    with Simulator() as sim:
        procs = []
        for i in range(nprocs):
            def body(i=i):
                sim.sleep(0.1 * (i % 3))
                sim.sleep(1.0)
                return probe()
            procs.append(sim.spawn(body, name=f"p{i}"))
        sim.run()
    return [p.result for p in procs]


def test_sequential_runs_start_each_carrier_once(carrier_pool, thread_starts):
    for _ in range(5):
        _job(8)
    assert len(thread_starts) == 8
    assert len(carrier_pool) == 8


@needs_two_cpus
def test_a_reused_carrier_runs_under_the_spawners_mask(
    carrier_pool, thread_starts
):
    before = os.sched_getaffinity(0)
    a, b = sorted(before)[:2]
    try:
        os.sched_setaffinity(0, {a})
        assert _job(1) == [{a}]
        os.sched_setaffinity(0, {b})
        assert _job(1) == [{b}]
    finally:
        os.sched_setaffinity(0, before)
    assert len(thread_starts) == 1  # the second body ran on the first carrier


@needs_two_cpus
def test_a_refused_repin_starts_a_fresh_carrier(
    carrier_pool, thread_starts, monkeypatch
):
    before = os.sched_getaffinity(0)
    a, b = sorted(before)[:2]
    set_mask = os.sched_setaffinity

    def refuse(pid, mask):
        raise PermissionError("no")

    try:
        set_mask(0, {a})
        _job(1)
        set_mask(0, {b})
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert _job(1) == [{b}]
    finally:
        set_mask(0, before)
    assert len(thread_starts) == 2
    # The refused carrier stays parked under {a}, beside the fresh one.
    assert sorted(sorted(c.mask) for c in carrier_pool) == [[a], [b]]


def test_every_way_a_process_ends_gives_its_carrier_back(
    carrier_pool, thread_starts
):
    sim = Simulator()

    def victim():
        sim.sleep(10.0)

    def killer():
        sim.sleep(1.0)
        sim.kill_process(crashed)

    def fails():
        sim.sleep(2.0)
        raise RuntimeError("boom")

    crashed = sim.spawn(victim, name="crashed")
    sim.spawn(killer, name="killer")
    blocked = sim.spawn(lambda: sim.block("forever"), name="blocked")
    sim.spawn(fails, name="failed")
    late = sim.spawn(lambda: None, name="late", start_at=50.0)
    with pytest.raises(ProcessFailed):
        sim.run()
    assert crashed.crashed and blocked.alive and late.alive
    assert len(carrier_pool) == 2  # the killer's and the failed body's
    sim.close()
    assert not any(p.alive for p in sim.processes)
    assert len(carrier_pool) == 5
    _job(5)
    assert len(thread_starts) == 5


def test_a_job_larger_than_the_bound_shrinks_back_to_it(
    carrier_pool, thread_starts
):
    def alive():
        return sum(t.is_alive() for t, _ in thread_starts)

    _job(kernel._POOL_MAX + 3)
    assert len(thread_starts) == kernel._POOL_MAX + 3
    assert len(carrier_pool) == kernel._POOL_MAX
    # The three carriers that found the pool full exit on their own.
    deadline = time.monotonic() + 10.0
    while alive() > kernel._POOL_MAX:
        assert time.monotonic() < deadline, alive()
        time.sleep(0.01)
    assert alive() == kernel._POOL_MAX


def test_a_carrier_thread_that_dies_unstarted_fails_the_spawn(
    carrier_pool, monkeypatch
):
    # An address space at its limit can hold a new thread's stack but
    # not its first Python frame: the thread dies before it runs.  The
    # spawn then fails as for a thread that could not be started at
    # all, instead of waiting forever for it to report in.
    real_start = _thread.start_new_thread

    def start(function, args):
        return real_start(lambda: None, ())  # never runs ``function``

    monkeypatch.setattr(_thread, "start_new_thread", start)
    raised = []

    def spawn():
        with Simulator() as sim:
            try:
                sim.spawn(lambda: None, name="p")
            except RuntimeError as exc:
                raised.append(exc)

    launcher = threading.Thread(target=spawn, daemon=True)
    launcher.start()
    launcher.join(timeout=30)
    assert not launcher.is_alive(), "the spawn is still waiting"
    assert [str(exc) for exc in raised] == ["can't start new thread"]
    assert carrier_pool == []


def test_simulations_on_concurrent_threads_never_share_a_carrier(carrier_pool):
    # More launching threads than a two-core host has cores, and a
    # short switch interval, so pool pops and parks interleave as often
    # as they can.
    launchers, rounds = 3, 5
    barrier = threading.Barrier(launchers, timeout=30)
    seen = [[set() for _ in range(rounds)] for _ in range(launchers)]
    errors = []

    def launch(d):
        try:
            for k in range(rounds):
                carriers = seen[d][k]
                with Simulator() as sim:
                    def body(i):
                        carriers.add(threading.get_ident())
                        sim.sleep(1.0)
                        if i == 0:
                            # Every process of every simulation is bound
                            # to a carrier here, parked or running.
                            barrier.wait()
                        carriers.add(threading.get_ident())

                    for i in range(4):
                        sim.spawn(body, i)
                    sim.run()
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=launch, args=(d,)) for d in range(launchers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for k in range(rounds):
        used = [seen[d][k] for d in range(launchers)]
        assert [len(c) for c in used] == [4] * launchers
        assert len(set().union(*used)) == 4 * launchers  # pairwise disjoint
    assert len({id(c) for c in carrier_pool}) == len(carrier_pool)


def _twopc_cell():
    plan = plan_fig5a(procs=(4,), kinds=("bcast",), sizes=(1024,), iters=20)
    (spec,) = [s for s in plan.specs if s.protocol == "2pc"]
    return spec


@needs_sched_batch
def test_every_body_runs_under_sched_batch(carrier_pool):
    assert _job(4, _policy) == [os.SCHED_BATCH] * 4


@needs_sched_batch
def test_a_refused_policy_changes_no_result(carrier_pool, monkeypatch):
    spec = _twopc_cell()
    inherited = _policy()

    def refuse(pid, policy, param):
        raise PermissionError("no")

    with monkeypatch.context() as m:
        m.setattr(os, "sched_setscheduler", refuse)
        refused = execute(spec)
    # Retire the refused carriers, so the granted run starts its own.
    with kernel._pool_lock:
        parked = carrier_pool[:]
        carrier_pool.clear()
    assert parked and {os.sched_getscheduler(c.tid) for c in parked} == {inherited}
    for carrier in parked:
        carrier.lock.release()

    granted = execute(spec)
    assert {os.sched_getscheduler(c.tid) for c in carrier_pool} == {os.SCHED_BATCH}
    assert granted.sim_events == refused.sim_events
    assert run_result_to_dict(granted) == run_result_to_dict(refused)


@needs_sched_batch
def test_the_launching_thread_keeps_its_policy(carrier_pool):
    before = _policy()
    execute(_twopc_cell())
    assert _policy() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_with_an_empty_pool(carrier_pool):
    _job(2)
    assert len(carrier_pool) == 2
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports by exit code
        code = 1
        try:
            if not kernel._idle:
                policies = _job(2, _policy)
                code = 0 if len(kernel._idle) == 2 else 2
                if hasattr(os, "SCHED_BATCH") and policies != [os.SCHED_BATCH] * 2:
                    code = 3  # the child's fresh carriers set it themselves
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(carrier_pool) == 2
