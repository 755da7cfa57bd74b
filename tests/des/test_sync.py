"""Unit tests for the simulation-side synchronization primitives."""

import pytest

from repro.des import TIMEOUT, Gate, Mailbox, ProcessFailed, Simulator, Waiter
from repro.des.errors import SchedulingError


class TestWaiter:
    def test_fire_then_wait_returns_value(self):
        with Simulator() as sim:
            results = []

            def body():
                w = Waiter(sim)
                w.fire("early")
                results.append(w.wait())

            sim.spawn(body)
            sim.run()
        assert results == ["early"]

    def test_wait_then_fire_wakes(self):
        with Simulator() as sim:
            w = Waiter(sim, label="x")
            results = []

            def waiter_proc():
                results.append((w.wait(), sim.now()))

            def firer():
                sim.sleep(3.0)
                w.fire(99)

            sim.spawn(waiter_proc)
            sim.spawn(firer)
            sim.run()
        assert results == [(99, 3.0)]

    def test_double_fire_raises(self):
        with Simulator() as sim:
            w = Waiter(sim)
            w.fire(1)
            with pytest.raises(SchedulingError):
                w.fire(2)

    def test_timeout_expires(self):
        with Simulator() as sim:
            w = Waiter(sim)
            results = []

            def body():
                results.append((w.wait(timeout=2.0), sim.now()))

            sim.spawn(body)
            sim.run()
        assert results == [(TIMEOUT, 2.0)]

    def test_fire_before_timeout_cancels_timer(self):
        with Simulator() as sim:
            w = Waiter(sim)
            results = []

            def body():
                results.append((w.wait(timeout=10.0), sim.now()))

            def firer():
                sim.sleep(1.0)
                w.fire("ok")

            sim.spawn(body)
            sim.spawn(firer)
            end = sim.run()
        assert results == [("ok", 1.0)]
        assert end == 1.0  # the timeout timer must not keep the sim alive

    def test_two_waiters_on_one_cell_rejected(self):
        with Simulator() as sim:
            w = Waiter(sim)

            def one():
                w.wait()

            def two():
                sim.sleep(0.1)
                w.wait()

            sim.spawn(one)
            sim.spawn(two)
            with pytest.raises(ProcessFailed):
                sim.run()

    def test_peek_and_fired(self):
        with Simulator() as sim:
            w = Waiter(sim)
            assert not w.fired
            w.fire({"k": 1})
            assert w.fired
            assert w.peek() == {"k": 1}


class TestMailbox:
    def test_fifo_order(self):
        with Simulator() as sim:
            mb = Mailbox(sim)
            got = []

            def consumer():
                for _ in range(3):
                    got.append(mb.get())

            def producer():
                for i in range(3):
                    sim.sleep(1.0)
                    mb.put(i)

            sim.spawn(consumer)
            sim.spawn(producer)
            sim.run()
        assert got == [0, 1, 2]

    def test_put_before_get(self):
        with Simulator() as sim:
            mb = Mailbox(sim)
            mb.put("a")
            mb.put("b")
            got = []
            sim.spawn(lambda: got.extend([mb.get(), mb.get()]))
            sim.run()
        assert got == ["a", "b"]

    def test_delayed_put_models_latency(self):
        with Simulator() as sim:
            mb = Mailbox(sim)
            got = []

            def consumer():
                got.append((mb.get(), sim.now()))

            sim.spawn(consumer)
            mb.put("msg", delay=2.5)
            sim.run()
        assert got == [("msg", 2.5)]

    def test_get_timeout(self):
        with Simulator() as sim:
            mb = Mailbox(sim)
            got = []
            sim.spawn(lambda: got.append(mb.get(timeout=1.5)))
            sim.run()
        assert got == [TIMEOUT]

    def test_delivery_racing_expiry_requeues_item(self):
        # Regression: a deliver landing at the *same instant* as a get
        # timeout — after the expiry event but before the getter's
        # resume — used to fire the timed-out getter's waiter, handing
        # the item to a process that observes itself as having given up.
        # The expiry event must deregister the getter immediately so the
        # item is re-queued for the next taker, not lost into a dead
        # waiter.
        with Simulator() as sim:
            mb = Mailbox(sim)
            got = []

            def getter():
                got.append((mb.get(timeout=1.0), sim.now()))

            def putter():
                # Wake event scheduled after the getter's timeout timer:
                # at t=1.0 the timer fires first, then this delivery,
                # then the getter's resume.
                sim.sleep(1.0)
                mb.put("late")

            sim.spawn(getter)
            sim.spawn(putter)
            sim.run()
            assert got == [(TIMEOUT, 1.0)]
            assert len(mb) == 1
            assert mb.try_get() == (True, "late")

    def test_try_get(self):
        with Simulator() as sim:
            mb = Mailbox(sim)
            assert mb.try_get() == (False, None)
            mb.put(5)
            assert mb.try_get() == (True, 5)
            assert len(mb) == 0

    def test_multiple_getters_fifo(self):
        with Simulator() as sim:
            mb = Mailbox(sim)
            got = []

            def consumer(i):
                got.append((i, mb.get()))

            sim.spawn(consumer, 0)
            sim.spawn(consumer, 1)

            def producer():
                sim.sleep(1.0)
                mb.put("x")
                mb.put("y")

            sim.spawn(producer)
            sim.run()
        assert got == [(0, "x"), (1, "y")]


class TestGate:
    def test_gate_releases_all_at_last_arrival(self):
        with Simulator() as sim:
            gate = Gate(sim, 3)
            times = []

            def body(i):
                sim.sleep(float(i))
                gate.arrive_and_wait()
                times.append((i, sim.now()))

            for i in range(3):
                sim.spawn(body, i)
            sim.run()
        assert sorted(times) == [(0, 2.0), (1, 2.0), (2, 2.0)]

    def test_gate_overfill_raises(self):
        with Simulator() as sim:
            gate = Gate(sim, 1)

            def body():
                gate.arrive_and_wait()
                gate.arrive_and_wait()

            sim.spawn(body)
            with pytest.raises(ProcessFailed):
                sim.run()

    def test_gate_needs_positive_n(self):
        with Simulator() as sim:
            with pytest.raises(SchedulingError):
                Gate(sim, 0)
