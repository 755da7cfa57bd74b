"""2PC's trivial-barrier test loop runs its empty polls in the event loop.

``TwoPhaseCommitProtocol`` polls its barrier with ``Simulator.poll``,
which resumes the rank only at a test wake where there is something to
look at.  :class:`_LoopTwoPhase` keeps the loop as it was written
before — a rank resume per ``sleep(test)`` and per ``sleep(gap)`` — and
every case here runs both over the same spec: results, event counts and
the kernel trace must be identical, so the only thing the primitive may
change is how many times a rank is suspended.
"""

import pytest

from repro import core
from repro.core.twophase import TwoPCCoordinatorLogic, TwoPhaseCommitProtocol
from repro.des import Simulator, Tracer
from repro.harness import runner
from repro.harness.experiments import plan_fig5a
from repro.harness.spec import RunSpec, execute, run_result_to_dict


class _LoopTwoPhase(TwoPhaseCommitProtocol):
    """The 2PC wrapper with its test loop spelled out as sleeps."""

    #: ``park_until_resume(poll=...)`` calls: a checkpoint request that
    #: landed while the rank was inside the test loop.
    parks_in_loop = 0

    def on_blocking_collective(self, ggid, members, execute):
        sess = self.session
        sess.sim.sleep(sess.overheads.wrapper_call)
        self.absorb_control()
        if self.intent:
            self.park_until_resume()
        barrier_req = sess.protocol_ibarrier(ggid)
        gap = sess.overheads.ibarrier_poll_gap
        test = sess.overheads.test_call
        while barrier_req is not None:
            sess.sim.sleep(test)
            if barrier_req.done:
                break
            self.absorb_control()
            if self.intent:
                type(self).parks_in_loop += 1
                outcome = self.park_until_resume(poll=lambda: barrier_req.done)
                if outcome == "poll":
                    break
                continue
            sess.sim.sleep(gap)
        result = execute()
        self.absorb_control()
        if self.intent:
            self.park_until_resume()
        return result


def _observe(spec, monkeypatch, *, loop):
    """Execute ``spec`` (and its chain) under a traced kernel: the
    result document, the event count, every simulator's trace, and how
    many times a rank suspended (``Simulator.sleep`` + ``block`` calls)."""
    traces = []
    suspends = [0]

    class Traced(Simulator):
        def __init__(self, **kwargs):
            tracer = Tracer(maxlen=None)
            traces.append(tracer)
            super().__init__(tracer=tracer, **kwargs)

        def sleep(self, delay, **kwargs):
            suspends[0] += 1
            return super().sleep(delay, **kwargs)

        def block(self, reason="blocked"):
            suspends[0] += 1
            return super().block(reason)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "Simulator", Traced)
        if loop:
            patch.setitem(core.PROTOCOLS, "2pc", (_LoopTwoPhase, TwoPCCoordinatorLogic))
        result = execute(spec)
    return {
        "result": run_result_to_dict(result),
        "events": result.sim_events,
        "trace": [
            [(r.time, r.kind, r.process, r.detail) for r in tracer]
            for tracer in traces
        ],
    }, suspends[0]


def _assert_same_schedule(spec, monkeypatch):
    old, old_suspends = _observe(spec, monkeypatch, loop=True)
    new, new_suspends = _observe(spec, monkeypatch, loop=False)
    assert new["trace"] and all(new["trace"]), "no trace: the comparison is vacuous"
    assert new == old
    assert new_suspends < old_suspends
    return new


def _fig5a_2pc_specs():
    plan = plan_fig5a(procs=(4, 8), kinds=("bcast", "allreduce"), sizes=(4, 4096), iters=10)
    return [spec for spec in plan.specs if spec.protocol == "2pc"]


@pytest.mark.parametrize("spec", _fig5a_2pc_specs(), ids=lambda s: s.label())
def test_fig5a_2pc_cells_match_the_sleep_loop(spec, monkeypatch):
    _assert_same_schedule(spec, monkeypatch)


def test_checkpoint_inside_the_test_loop_then_restart_matches(monkeypatch):
    """Checkpoint requests that reach ranks polling their barrier (the
    park-inside-the-loop branch), then a restart from the first image."""
    cell = dict(app_kwargs={"niters": 4}, protocol="2pc", ppn=4)
    parent = RunSpec.create("minivasp", 8, checkpoint_fractions=(0.2, 0.7), **cell)
    spec = RunSpec.create("minivasp", 8, restart_of=parent, restart_ckpt=0, **cell)
    _LoopTwoPhase.parks_in_loop = 0
    seen = _assert_same_schedule(spec, monkeypatch)
    assert _LoopTwoPhase.parks_in_loop > 0, "no request landed inside the test loop"
    assert len(seen["trace"]) >= 3  # probe, checkpointed parent, restart


def test_crash_fault_schedule_matches(monkeypatch):
    spec = RunSpec.create(
        "minivasp", 4, app_kwargs={"niters": 4}, protocol="2pc", ppn=2,
        checkpoint_fractions=(0.2,), crash_fracs=((1, 0.45),),
    )
    seen = _assert_same_schedule(spec, monkeypatch)
    assert seen["result"]["crashed_ranks"] == [1]


def test_16_rank_fig5a_2pc_cell_suspends_once_per_nonempty_poll(monkeypatch):
    """The mechanism, by count: the same events as ever, but a rank
    suspends only when a poll has something to look at.  The sleep loop
    made 4,009 suspensions on this cell; a per-poll resume coming back
    raises the count to that again."""
    (spec,) = [
        spec
        for spec in plan_fig5a(procs=(16,), kinds=("bcast",), sizes=(4,), iters=20).specs
        if spec.protocol == "2pc"
    ]
    seen, suspends = _observe(spec, monkeypatch, loop=False)
    assert seen["events"] == 8355
    assert suspends == 1631
