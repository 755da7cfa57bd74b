"""Unit tests for the discrete-event kernel: clock, processes, determinism."""

import pytest

from repro.des import (
    INTERRUPTED,
    DeadlockError,
    NotInProcessError,
    ProcessFailed,
    SchedulingError,
    SimClosedError,
    Simulator,
    Tracer,
)


def test_empty_run_returns_zero():
    with Simulator() as sim:
        assert sim.run() == 0.0
        assert sim.now() == 0.0


def test_single_process_advances_clock():
    with Simulator() as sim:
        times = []

        def body():
            times.append(sim.now())
            sim.sleep(2.5)
            times.append(sim.now())
            sim.sleep(0.5)
            times.append(sim.now())

        sim.spawn(body)
        end = sim.run()
    assert times == [0.0, 2.5, 3.0]
    assert end == 3.0


def test_process_result_stored():
    with Simulator() as sim:
        proc = sim.spawn(lambda: 41 + 1)
        sim.run()
    assert proc.done
    assert proc.result == 42


def test_two_processes_interleave_in_time_order():
    with Simulator() as sim:
        order = []

        def worker(tag, dt):
            for i in range(3):
                sim.sleep(dt)
                order.append((tag, sim.now()))

        sim.spawn(worker, "a", 1.0)
        sim.spawn(worker, "b", 0.4)
        sim.run()
    assert [tag for tag, _ in order] == ["b", "b", "a", "b", "a", "a"]
    assert [t for _, t in order] == pytest.approx([0.4, 0.8, 1.0, 1.2, 2.0, 3.0])


def test_same_time_ties_broken_by_schedule_order():
    with Simulator() as sim:
        order = []

        def worker(tag):
            sim.sleep(1.0)
            order.append(tag)

        sim.spawn(worker, "first")
        sim.spawn(worker, "second")
        sim.spawn(worker, "third")
        sim.run()
    assert order == ["first", "second", "third"]


def test_spawn_start_at_defers_start():
    with Simulator() as sim:
        started = []
        sim.spawn(lambda: started.append(sim.now()), start_at=5.0)
        sim.run()
    assert started == [5.0]


def test_run_until_pauses_clock():
    with Simulator() as sim:
        hits = []

        def body():
            for _ in range(10):
                sim.sleep(1.0)
                hits.append(sim.now())

        sim.spawn(body)
        t = sim.run(until=3.5)
        assert t == 3.5
        assert hits == [1.0, 2.0, 3.0]
        t = sim.run()
        assert t == 10.0
        assert len(hits) == 10


def test_exception_in_process_propagates_with_name():
    with Simulator() as sim:
        def bad():
            sim.sleep(1.0)
            raise ValueError("boom")

        sim.spawn(bad, name="failing-rank")
        with pytest.raises(ProcessFailed) as exc_info:
            sim.run()
    assert "failing-rank" in str(exc_info.value)
    assert isinstance(exc_info.value.original, ValueError)


def test_deadlock_detected_and_reported():
    with Simulator() as sim:
        def stuck():
            sim.block("waiting-for-godot")

        sim.spawn(stuck, name="estragon")
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
    msg = str(exc_info.value)
    assert "estragon" in msg
    assert "waiting-for-godot" in msg


def test_block_and_wake_between_processes():
    with Simulator() as sim:
        log = []

        def sleeper():
            sim.block("handoff")
            log.append(("woke", sim.now()))

        proc = sim.spawn(sleeper)

        def waker():
            sim.sleep(2.0)
            sim.wake(proc)
            log.append(("waker-done", sim.now()))

        sim.spawn(waker)
        sim.run()
    assert ("woke", 2.0) in log


def test_interruptible_sleep_cut_short():
    with Simulator() as sim:
        outcome = {}

        def sleeper():
            res = sim.sleep(100.0, interruptible=True)
            outcome["result"] = res
            outcome["time"] = sim.now()

        target = sim.spawn(sleeper)

        def interrupter():
            sim.sleep(3.0)
            assert target.interrupt() is True

        sim.spawn(interrupter)
        sim.run()
    assert outcome["result"] is INTERRUPTED
    assert outcome["time"] == 3.0


def test_non_interruptible_sleep_ignores_interrupt():
    with Simulator() as sim:
        outcome = {}

        def sleeper():
            res = sim.sleep(5.0)
            outcome["result"] = res
            outcome["time"] = sim.now()

        target = sim.spawn(sleeper)

        def interrupter():
            sim.sleep(1.0)
            assert target.interrupt() is False

        sim.spawn(interrupter)
        sim.run()
    assert outcome["result"] is None
    assert outcome["time"] == 5.0


def test_call_after_runs_callback_in_order():
    with Simulator() as sim:
        hits = []
        sim.call_after(2.0, lambda: hits.append(("b", sim.now())))
        sim.call_after(1.0, lambda: hits.append(("a", sim.now())))
        sim.run()
    assert hits == [("a", 1.0), ("b", 2.0)]


def test_timer_cancel():
    with Simulator() as sim:
        hits = []
        timer = sim.call_after(1.0, lambda: hits.append("fired"))
        timer.cancel()
        sim.run()
    assert hits == []


def test_call_at_past_raises():
    with Simulator() as sim:
        def body():
            sim.sleep(5.0)

        sim.spawn(body)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(1.0, lambda: None)


def test_negative_sleep_raises():
    with Simulator() as sim:
        def body():
            sim.sleep(-1.0)

        sim.spawn(body)
        with pytest.raises(ProcessFailed):
            sim.run()


def test_process_side_ops_require_process_context():
    with Simulator() as sim:
        with pytest.raises(NotInProcessError):
            sim.sleep(1.0)
        with pytest.raises(NotInProcessError):
            sim.current_process()


def test_closed_simulator_rejects_operations():
    sim = Simulator()
    sim.close()
    with pytest.raises(SimClosedError):
        sim.spawn(lambda: None)
    with pytest.raises(SimClosedError):
        sim.run()
    sim.close()  # idempotent


def test_close_kills_blocked_processes():
    sim = Simulator()
    cleanup = []

    def stuck():
        try:
            sim.block("never")
        finally:
            cleanup.append("unwound")

    proc = sim.spawn(stuck)
    with pytest.raises(DeadlockError):
        sim.run()
    sim.close()
    assert cleanup == ["unwound"]
    assert not proc.alive


def test_determinism_event_count_fingerprint():
    def build_and_run():
        with Simulator(seed=7) as sim:
            order = []

            def worker(tag, dt, n):
                for _ in range(n):
                    sim.sleep(dt)
                    order.append((tag, sim.now()))

            for i in range(5):
                sim.spawn(worker, i, 0.1 * (i + 1), 4)
            sim.run()
            return order, sim.event_count

    first = build_and_run()
    second = build_and_run()
    assert first == second


def test_max_events_guard():
    with Simulator(max_events=10) as sim:
        def spin():
            while True:
                sim.sleep(1.0)

        sim.spawn(spin)
        with pytest.raises(SchedulingError, match="max_events"):
            sim.run()


def test_tracer_records_lifecycle():
    tracer = Tracer()
    with Simulator(tracer=tracer) as sim:
        def body():
            sim.sleep(1.0)

        sim.spawn(body, name="tracee")
        sim.run()
    kinds = {r.kind for r in tracer}
    assert "spawn" in kinds
    assert "sleep" in kinds
    assert "exit" in kinds
    assert all(r.process in ("tracee", "<kernel>") for r in tracer)


def test_many_processes_scale():
    # 300 processes each sleeping a few times: exercises the thread
    # handshake at a scale comparable to a mid-size simulated job.
    with Simulator() as sim:
        done = []

        def body(i):
            sim.sleep(float(i % 7) * 0.01)
            sim.sleep(0.5)
            done.append(i)

        for i in range(300):
            sim.spawn(body, i)
        sim.run()
    assert len(done) == 300


def test_nested_run_rejected():
    with Simulator() as sim:
        def body():
            with pytest.raises(SchedulingError):
                sim.run()

        sim.spawn(body)
        sim.run()


def test_checkpoint_yield_lets_same_time_events_run():
    with Simulator() as sim:
        log = []

        def a():
            log.append("a1")
            sim.checkpoint_yield()
            log.append("a2")

        def b():
            log.append("b1")

        sim.spawn(a)
        sim.spawn(b)
        sim.run()
    assert log == ["a1", "b1", "a2"]


def test_on_exit_callback():
    with Simulator() as sim:
        events = []

        def short():
            sim.sleep(1.0)

        proc = sim.spawn(short)
        proc.on_exit(lambda: events.append(("exited", sim.now())))
        sim.run()
    assert events == [("exited", 1.0)]


def test_on_exit_after_done_fires_immediately():
    with Simulator() as sim:
        proc = sim.spawn(lambda: None)
        sim.run()
        fired = []
        proc.on_exit(lambda: fired.append(True))
        assert fired == [True]


def test_carrier_threads_start_on_the_small_stack(monkeypatch):
    # CPython reads threading.stack_size() when a thread *starts*; the
    # kernel used to bracket the Thread constructor instead, so every
    # carrier got the platform default (8 MiB mappings on Linux).
    import threading

    from repro.des import kernel

    seen = []
    real_start = threading.Thread.start

    def start(thread):
        seen.append((thread.name, threading.stack_size()))
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    before = threading.stack_size()
    with Simulator() as sim:
        sim.spawn(lambda: sim.sleep(1.0), name="a")
        sim.spawn(lambda: None, name="b")
        assert threading.stack_size() == before  # restored after each spawn
        sim.run()
    assert seen == [("sim:a", kernel._STACK_SIZE), ("sim:b", kernel._STACK_SIZE)]
    assert threading.stack_size() == before
