"""The kernel's carrier pool: simulated processes run on OS threads that
outlive them.  A spawn binds an idle carrier (re-pinned to the
spawner's CPU mask) or starts a new one; a process that ends, however it
ends, gives its carrier back before control leaves it."""

import os
import sys
import threading
import time

import pytest

from repro.des import ProcessFailed, Simulator, kernel

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity API and two allowed CPUs",
)


def _mask():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _job(nprocs):
    """One run of ``nprocs`` processes that interleave; returns each
    process's CPU mask as its body saw it."""
    with Simulator() as sim:
        procs = []
        for i in range(nprocs):
            def body(i=i):
                sim.sleep(0.1 * (i % 3))
                sim.sleep(1.0)
                return _mask()
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
    baseline = threading.active_count()
    _job(kernel._POOL_MAX + 3)
    assert len(thread_starts) == kernel._POOL_MAX + 3
    assert len(carrier_pool) == kernel._POOL_MAX
    # The three carriers that found the pool full exit on their own.
    deadline = time.monotonic() + 10.0
    while threading.active_count() > baseline + kernel._POOL_MAX:
        assert time.monotonic() < deadline, threading.active_count()
        time.sleep(0.01)
    assert sum(t.is_alive() for t, _ in thread_starts) == kernel._POOL_MAX


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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_with_an_empty_pool(carrier_pool):
    _job(2)
    assert len(carrier_pool) == 2
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports by exit code
        code = 1
        try:
            if not kernel._idle:
                _job(2)
                code = 0 if len(kernel._idle) == 2 else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(carrier_pool) == 2
