"""Execution-backend seam: selection rules + cross-backend determinism.

Every backend must reproduce the ``threads`` reference schedule exactly
— same virtual end time, same ``event_count`` fingerprint, same
process-visible interleavings.  These tests run a representative
workload mix (sleeps, wake/block handoffs, kills, interrupts, failures,
close-mid-run) under each backend importable in this interpreter and
compare against hard-coded expectations so a lone backend in a stripped
environment is still checked against the reference, not just itself.
"""

import pytest

from repro.des import (
    INTERRUPTED,
    DeadlockError,
    ProcessFailed,
    Simulator,
    available_backends,
    greenlet_available,
    resolve_backend,
)
from repro.des.backends import ENV_VAR

def _churn_workload(sim):
    """A deterministic mix of sleeps, handoffs, and spawn churn.

    Returns the trace list; the exact contents (and the simulator's
    ``event_count``) are pinned by the tests below.
    """
    trace = []

    def ticker(tag, dt, n):
        for _ in range(n):
            sim.sleep(dt)
            trace.append((tag, sim.now()))

    def spawner():
        for i in range(3):
            sim.sleep(1.0)
            sim.spawn(ticker, f"child{i}", 0.25, 2)

    sim.spawn(ticker, "a", 1.0, 4)
    sim.spawn(ticker, "b", 0.7, 5)
    sim.spawn(spawner)
    return trace


@pytest.mark.parametrize("backend", available_backends())
class TestCrossBackendDeterminism:
    EXPECTED_END = 4.0
    EXPECTED_EVENTS = 42

    def test_churn_schedule_pinned(self, backend):
        with Simulator(backend=backend) as sim:
            trace = _churn_workload(sim)
            end = sim.run()
            events = sim.event_count
        assert end == self.EXPECTED_END
        assert events == self.EXPECTED_EVENTS
        # Same-instant ties break by schedule order on every backend.
        assert trace[:3] == [("b", 0.7), ("a", 1.0), ("child0", 1.25)]
        assert ("child2", 3.5) in trace

    def test_block_wake_handoff(self, backend):
        with Simulator(backend=backend) as sim:
            order = []

            def sleeper():
                order.append(("blocked", sim.now()))
                sim.block()
                order.append(("woken", sim.now()))

            proc = sim.spawn(sleeper)

            def waker():
                sim.sleep(2.0)
                sim.wake(proc)

            sim.spawn(waker)
            end = sim.run()
        assert end == 2.0
        assert order == [("blocked", 0.0), ("woken", 2.0)]

    def test_interrupt_cuts_sleep_short(self, backend):
        with Simulator(backend=backend) as sim:
            got = []

            def sleeper():
                got.append((sim.sleep(10.0, interruptible=True), sim.now()))

            proc = sim.spawn(sleeper)
            sim.spawn(lambda: (sim.sleep(1.0), proc.interrupt()))
            end = sim.run()
        assert got == [(INTERRUPTED, 1.0)]
        assert end == 1.0

    def test_process_failure_propagates(self, backend):
        with Simulator(backend=backend) as sim:

            def boom():
                sim.sleep(1.0)
                raise RuntimeError("kaput")

            sim.spawn(boom, name="bomb")
            with pytest.raises(ProcessFailed, match="bomb"):
                sim.run()

    def test_deadlock_detected(self, backend):
        with Simulator(backend=backend) as sim:
            sim.spawn(sim.block)
            with pytest.raises(DeadlockError):
                sim.run()

    def test_close_reaps_blocked_processes(self, backend):
        sim = Simulator(backend=backend)
        cleanup = []

        def body():
            try:
                sim.block()
            finally:
                cleanup.append("reaped")

        sim.spawn(body)
        with pytest.raises(DeadlockError):
            sim.run()
        sim.close()
        assert cleanup == ["reaped"]

    def test_backend_property_reports_concrete_name(self, backend):
        with Simulator(backend=backend) as sim:
            assert sim.backend == backend

    def test_run_result_and_exception_surfacing(self, backend):
        # run() return value must come back through the backend's
        # scheduler-handoff path, not just the no-process fast path.
        with Simulator(backend=backend) as sim:
            sim.spawn(lambda: sim.sleep(3.25))
            assert sim.run() == 3.25
            # A second run() on the drained sim stays consistent.
            assert sim.run() == 3.25


class TestResolution:
    def test_auto_prefers_greenlet_else_threads(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        expected = "greenlet" if greenlet_available() else "threads"
        assert resolve_backend(None) == expected
        assert resolve_backend("auto") == expected

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "inline")
        assert resolve_backend(None) == "inline"
        with Simulator() as sim:
            assert sim.backend == "inline"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "inline")
        assert resolve_backend("threads") == "threads"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("fibers")

    def test_malformed_env_var_names_itself(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fibers")
        with pytest.raises(ValueError, match=rf"\${ENV_VAR}='fibers'"):
            resolve_backend(None)

    @pytest.mark.skipif(greenlet_available(), reason="greenlet is installed")
    def test_explicit_greenlet_missing_is_loud(self):
        with pytest.raises(ImportError, match="greenlet"):
            resolve_backend("greenlet")

    def test_available_backends_always_has_reference(self):
        avail = available_backends()
        assert "threads" in avail and "inline" in avail
        assert ("greenlet" in avail) == greenlet_available()


class TestBackendIsAnArgument:
    """The engine's backend choice travels with the job as a plain
    argument — there is no ambient process-wide backend to leak into
    (or out of) an execution."""

    def test_execute_backend_argument_leaves_no_ambient_state(self, monkeypatch):
        from repro.harness.spec import RunSpec, execute, run_result_to_dict

        monkeypatch.delenv(ENV_VAR, raising=False)
        spec = RunSpec.create("comd", 2, app_kwargs={"niters": 3})
        before = resolve_backend(None)
        inline = execute(spec, backend="inline")
        assert resolve_backend(None) == before
        threads = execute(spec, backend="threads")
        assert resolve_backend(None) == before
        assert run_result_to_dict(inline) == run_result_to_dict(threads)

    def test_backend_argument_reaches_the_simulator(self, monkeypatch):
        from repro.des import kernel
        from repro.harness.spec import RunSpec, execute

        monkeypatch.setenv(ENV_VAR, "threads")
        seen = []
        real_init = kernel.Simulator.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            seen.append(self.backend)

        monkeypatch.setattr(kernel.Simulator, "__init__", spy)
        # A restart re-simulates its parent: both runs get the argument.
        parent = RunSpec.create(
            "comd", 2, app_kwargs={"niters": 3}, protocol="cc",
            checkpoint_fractions=(0.5,),
        )
        restart = RunSpec.create(
            "comd", 2, app_kwargs={"niters": 3}, protocol="cc",
            restart_of=parent,
        )
        execute(restart, backend="inline")
        assert seen and set(seen) == {"inline"}
