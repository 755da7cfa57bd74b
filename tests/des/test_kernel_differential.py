"""The src kernel against the thread-handoff reference, case by case.

Each case builds a small workload on a fresh simulator, drives it with
:func:`_run` (which records either the end time or the raised type and
message), and returns whatever the processes observed.  Every case runs
under ``repro.des.Simulator`` **and** ``reference_kernel.ReferenceSimulator``
and is held to (a) its own hard-coded expectation, so neither kernel is
only ever compared with the other, and (b) full agreement on outcome,
``event_count``, the kernel trace and the final process states.
"""

import gc
import weakref

import pytest

from reference_kernel import ReferenceSimulator
from repro.des import INTERRUPTED, Simulator, Tracer

KERNELS = {"src": Simulator, "reference": ReferenceSimulator}


def _run(sim, until=None):
    """One ``sim.run()`` as a comparable value."""
    try:
        return ("end", sim.run(until))
    except Exception as exc:  # noqa: BLE001 - the type IS the observation
        return ("raised", type(exc).__name__, str(exc))


def _observe(kernel, case):
    tracer = Tracer()
    sim = kernel(tracer=tracer, **getattr(case, "sim_kwargs", {}))
    try:
        obs = {
            "seen": case(sim),
            "events": sim.event_count,
            "now": sim.now(),
            "states": [(p.name, p.state) for p in sim.processes],
        }
    finally:
        sim.close()
    # Read after close() so the teardown kills are compared too.
    obs["trace"] = [(r.time, r.kind, r.process, r.detail) for r in tracer]
    return obs


# --------------------------------------------------------------------- #
# Cases: a workload plus its pinned expectation on the observation
# --------------------------------------------------------------------- #

def churn(sim):
    """Sleeps, same-instant ties and spawn churn from inside a process."""
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
    return [_run(sim), trace]


def check_churn(obs):
    outcome, trace = obs["seen"]
    assert outcome == ("end", 4.0)
    assert obs["events"] == 42
    # Same-instant ties break by schedule order.
    assert trace[:3] == [("b", 0.7), ("a", 1.0), ("child0", 1.25)]
    assert ("child2", 3.5) in trace


def block_wake(sim):
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
    return [_run(sim), order]


def check_block_wake(obs):
    assert obs["seen"] == [("end", 2.0), [("blocked", 0.0), ("woken", 2.0)]]


def interrupt(sim):
    got = []

    def sleeper():
        got.append((sim.sleep(10.0, interruptible=True) is INTERRUPTED, sim.now()))

    proc = sim.spawn(sleeper)
    sim.spawn(lambda: (sim.sleep(1.0), proc.interrupt()))
    return [_run(sim), got]


def check_interrupt(obs):
    assert obs["seen"] == [("end", 1.0), [(True, 1.0)]]


def process_failure(sim):
    def boom():
        sim.sleep(1.0)
        raise RuntimeError("kaput")

    sim.spawn(boom, name="bomb")
    sim.spawn(lambda: sim.sleep(3.0), name="bystander")
    # The failure is reported once; the next run() finishes the rest.
    return [_run(sim), _run(sim)]


def check_process_failure(obs):
    first, second = obs["seen"]
    assert first == (
        "raised", "ProcessFailed", "process 'bomb' failed: RuntimeError('kaput')"
    )
    assert second == ("end", 3.0)
    assert dict(obs["states"]) == {"bomb": "killed", "bystander": "done"}


def deadlock_then_close(sim):
    cleanup = []

    def body():
        try:
            sim.block("forever")
        finally:
            cleanup.append("reaped")

    sim.spawn(body, name="stuck")
    outcome = _run(sim)
    sim.close()  # must unwind the blocked stack
    return [outcome, cleanup]


def check_deadlock_then_close(obs):
    outcome, cleanup = obs["seen"]
    assert outcome[:2] == ("raised", "DeadlockError")
    assert "stuck<-[forever]" in outcome[2]
    assert cleanup == ["reaped"]
    assert obs["states"] == [("stuck", "killed")]


def rerun_drained(sim):
    # run()'s value must come back through the hand-off path, and a
    # second run() on the drained simulator stays consistent.
    sim.spawn(lambda: sim.sleep(3.25))
    return [_run(sim), _run(sim)]


def check_rerun_drained(obs):
    assert obs["seen"] == [("end", 3.25), ("end", 3.25)]


def run_until_twice(sim):
    marks = []

    def body(tag, dt):
        for _ in range(3):
            sim.sleep(dt)
            marks.append((tag, sim.now()))

    sim.spawn(body, "x", 1.0)
    sim.spawn(body, "y", 1.5)
    first = _run(sim, until=2.0)
    mid = (list(marks), sim.event_count)
    return [first, mid, _run(sim, until=3.0), _run(sim), marks]


def check_run_until_twice(obs):
    first, (mid_marks, mid_events), second, last, marks = obs["seen"]
    assert (first, second, last) == (("end", 2.0), ("end", 3.0), ("end", 4.5))
    assert mid_marks == [("x", 1.0), ("y", 1.5), ("x", 2.0)]
    assert mid_events == 8
    assert marks[-1] == ("y", 4.5)


def max_events(sim):
    def spin():
        while True:
            sim.sleep(1.0)

    sim.spawn(spin, name="spin")
    return [_run(sim)]


def check_max_events(obs):
    assert obs["seen"] == [(
        "raised", "SchedulingError",
        "exceeded max_events=10; possible runaway protocol loop",
    )]
    assert obs["events"] == 11
    assert obs["states"] == [("spin", "ready")]  # its 11th event was its resume


def kill_from_timer(sim):
    seen = []

    def victim():
        seen.append("victim started")
        sim.sleep(5.0)
        seen.append("victim survived")  # must never happen

    def mourner():
        proc.on_exit(lambda: seen.append(("exit seen", sim.now())))
        sim.sleep(3.0)
        seen.append(("mourner done", sim.now(), proc.crashed))

    proc = sim.spawn(victim, name="victim")
    sim.spawn(mourner, name="mourner")
    sim.call_after(2.0, lambda: seen.append(("killed", sim.kill_process(proc))))
    # The corpse's own wake at t=5 is inert but still an event.
    return [_run(sim), seen]


def check_kill_from_timer(obs):
    outcome, seen = obs["seen"]
    assert outcome == ("end", 5.0)
    assert seen == [
        "victim started",
        ("exit seen", 2.0),
        ("killed", True),
        ("mourner done", 3.0, True),
    ]
    assert dict(obs["states"]) == {"victim": "crashed", "mourner": "done"}


def spawn_inside(sim):
    seen = []

    def child(tag):
        seen.append((tag, "start", sim.now()))
        sim.sleep(0.5)
        seen.append((tag, "end", sim.now()))

    def parent():
        sim.sleep(1.0)
        sim.spawn(child, "now")
        sim.spawn(child, "later", start_at=4.0)
        seen.append(("parent", "spawned", sim.now()))
        sim.sleep(0.0)
        seen.append(("parent", "resumed", sim.now()))

    sim.spawn(parent)
    return [_run(sim), seen]


def check_spawn_inside(obs):
    outcome, seen = obs["seen"]
    assert outcome == ("end", 4.5)
    assert seen == [
        ("parent", "spawned", 1.0),
        ("now", "start", 1.0),
        ("parent", "resumed", 1.0),
        ("now", "end", 1.5),
        ("later", "start", 4.0),
        ("later", "end", 4.5),
    ]


def callback_raises(sim):
    """A timer callback raises while a process's carrier may be driving
    the loop: run() raises that exception, unchanged, and the process is
    left blocked — it is not the one that failed."""
    def boom():
        raise RuntimeError("callback boom")

    sim.call_after(1.0, boom)
    sim.spawn(lambda: sim.sleep(2.0), name="innocent")
    first = _run(sim)
    blamed = [(p.name, p.state) for p in sim.processes]
    return [first, blamed, _run(sim)]


def check_callback_raises(obs):
    first, blamed, second = obs["seen"]
    assert first == ("raised", "RuntimeError", "callback boom")
    assert blamed == [("innocent", "blocked")]
    assert second == ("end", 2.0)
    assert obs["states"] == [("innocent", "done")]


def self_kill_then_suspend(sim):
    """A process crashes itself and then suspends: it dies on its own
    carrier at the next resume, and the rest of the simulation goes on."""
    seen = []

    def suicidal():
        seen.append(("self-kill", sim.kill_process(sim.current_process())))
        sim.sleep(2.0)
        seen.append("unreachable")

    def other():
        sim.sleep(5.0)
        seen.append(("other done", sim.now()))

    sim.spawn(suicidal, name="suicidal")
    sim.spawn(other, name="other")
    return [_run(sim), seen]


def check_self_kill_then_suspend(obs):
    outcome, seen = obs["seen"]
    assert outcome == ("end", 5.0)
    assert seen == [("self-kill", True), ("other done", 5.0)]
    assert dict(obs["states"]) == {"suicidal": "killed", "other": "done"}


def poll_rounds(sim):
    """Two polls beside a ticker: one whose ready() turns true after
    three empty rounds, one killed inside a gap sleep.  The src kernel
    runs the empty rounds as event-loop callbacks, the reference resumes
    the process for each; the schedules must agree."""
    seen = []
    flag = []

    def poller():
        sim.poll(0.1, 1.0, lambda: bool(flag))
        seen.append(("returned", sim.now()))

    def doomed():
        sim.poll(0.1, 1.0, lambda: False)
        seen.append("unreachable")

    def ticker():
        for _ in range(8):
            sim.sleep(0.6)
            seen.append(("tick", sim.now()))

    sim.spawn(poller, name="poller")
    victim = sim.spawn(doomed, name="doomed")
    sim.spawn(ticker, name="ticker")
    sim.call_at(3.0, lambda: flag.append(True))
    sim.call_at(2.5, lambda: seen.append(("killed", sim.kill_process(victim))))
    return [_run(sim), seen]


def check_poll_rounds(obs):
    outcome, seen = obs["seen"]
    assert outcome == ("end", pytest.approx(4.8))
    assert ("killed", True) in seen and "unreachable" not in seen
    assert [t for tag, t in seen if tag == "returned"] == [pytest.approx(3.4)]
    assert dict(obs["states"]) == {
        "poller": "done", "doomed": "crashed", "ticker": "done"
    }
    assert obs["events"] == 46  # as the explicit sleep loop makes


max_events.sim_kwargs = {"max_events": 10}

CASES = [
    (churn, check_churn),
    (block_wake, check_block_wake),
    (interrupt, check_interrupt),
    (process_failure, check_process_failure),
    (deadlock_then_close, check_deadlock_then_close),
    (rerun_drained, check_rerun_drained),
    (run_until_twice, check_run_until_twice),
    (max_events, check_max_events),
    (kill_from_timer, check_kill_from_timer),
    (spawn_inside, check_spawn_inside),
    (callback_raises, check_callback_raises),
    (self_kill_then_suspend, check_self_kill_then_suspend),
    (poll_rounds, check_poll_rounds),
]
_case_ids = [case.__name__ for case, _check in CASES]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case, check", CASES, ids=_case_ids)
def test_pinned_expectation(case, check, kernel):
    check(_observe(KERNELS[kernel], case))


@pytest.mark.parametrize("case, _check", CASES, ids=_case_ids)
def test_src_kernel_matches_reference(case, _check):
    src = _observe(Simulator, case)
    ref = _observe(ReferenceSimulator, case)
    assert src["trace"], "tracer recorded nothing: the comparison is vacuous"
    assert src == ref


# --------------------------------------------------------------------- #
# Teardown: both process classes go through the one Simulator.close()
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("kernel", KERNELS)
def test_close_frees_the_run_and_keeps_its_answers(kernel):
    """After ``close()`` refcounting alone frees what the processes ran
    (bodies, queued callbacks, what they closed over) — with one process
    done, one killed while blocked and one still sleeping — while the
    accessors a caller reads after a run keep answering.  A second
    ``close()`` is a no-op."""

    class Payload:
        pass

    payload = Payload()
    alive = weakref.ref(payload)
    sim = KERNELS[kernel](seed=3)

    def worker(data):
        sim.sleep(1.0)
        return ("done", data is not None)

    def stuck(data):
        sim.block("never")

    def sleeper(data):
        sim.sleep(50.0, interruptible=True)

    procs = [
        sim.spawn(worker, payload, name="worker"),
        sim.spawn(stuck, payload, name="stuck"),
        sim.spawn(sleeper, data=payload, name="sleeper"),
    ]
    sim.call_after(99.0, lambda: payload)  # still queued at close
    procs[0].on_exit(lambda: payload)
    procs[1].on_exit(lambda: payload)  # never fired: killed by close()
    assert sim.run(until=2.0) == 2.0
    events = sim.event_count
    del payload, worker, stuck, sleeper

    gc.collect()
    gc.disable()
    try:
        assert alive() is not None
        sim.close()
        assert alive() is None, "close() left the run to the cycle collector"
    finally:
        gc.enable()

    def answers():
        return (
            [(p.name, p.state, p.result, p.exception) for p in sim.processes],
            sim.event_count,
            sim.now(),
        )

    assert answers() == (
        [
            ("worker", "done", ("done", True), None),
            ("stuck", "killed", None, None),
            ("sleeper", "killed", None, None),
        ],
        events,
        2.0,
    )
    assert [p.alive for p in procs] == [False] * 3
    assert not procs[2].interrupt()
    sim.close()
    assert answers()[1:] == (events, 2.0)
