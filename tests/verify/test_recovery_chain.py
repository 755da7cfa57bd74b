"""The recovery-chain oracle and the fault-schedule recovery axis.

Pinned here: the ``recovery-chain`` oracle sweeps clean over 25+
fuzz-drawn multi-hop schedules, restart-leg crash schedules recover
under a :class:`RecoveryPolicy`, a hypothesis property that *any*
single-crash schedule's recovered fingerprint equals the uninterrupted
run's, draw stability of the ``recovery_crash_fracs`` axis (its
serialized form: ``tests/util/test_codec.py``), and the ``recovery``
anomaly classification.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.fuzz import _shrink_candidates
from repro.harness.recovery import RecoveryError, RecoveryPolicy, run_recovery
from repro.harness.spec import RunSpec, execute
from repro.harness.verify import (
    ORACLES,
    FaultSchedule,
    _classify_exception,
    result_fingerprint,
)
from repro.netmodel import StorageModel

KW = dict(
    app_kwargs={
        "niters": 60, "shared": 4, "leavers": 1, "memory_bytes": 1 << 10,
    },
    protocol="cc",
    seed=3,
    storage=StorageModel(base_latency=1e-6),
)

_BASE_FP = None


def _mk(**overrides):
    kwargs = dict(KW)
    kwargs.update(overrides)
    return RunSpec.create("earlyexit", 4, **kwargs)


def _base_fp():
    global _BASE_FP
    if _BASE_FP is None:
        _BASE_FP = result_fingerprint(execute(_mk()))
    return _BASE_FP


class TestRecoveryChainOracle:
    """The new oracle over a healthy tree: every drawn multi-hop chain
    must end fingerprint-identical to the uninterrupted run, leak no
    images, and conserve drained messages on every hop."""

    @pytest.mark.parametrize("seed", range(25))
    def test_oracle_sweeps_clean(self, seed):
        report = ORACLES["recovery-chain"].check(seed)
        assert report.ok, f"seed {seed}: {report.detail}\n{report.repro}"

    def test_oracle_exercises_restart_leg_crashes(self):
        # Across a pile of seeds the oracle must actually reach the
        # tentpole scenario: a crash landing on a restart leg.
        details = [ORACLES["recovery-chain"].check(s).detail
                   for s in range(12)]
        assert any("restart-leg crash" in d for d in details), details


class TestSeededRestartLegCrash:
    def test_restart_leg_crash_recovers_under_policy(self):
        # The acceptance scenario, straight-line: checkpoint, commit,
        # crash the restart leg mid-flight, recover under a bounded
        # policy, end byte-identical to the uninterrupted run.
        parent = _mk(checkpoint_fractions=(0.2,))
        leg = _mk(restart_of=parent, restart_ckpt=0,
                  crash_fracs=((2, 0.3),))
        outcome = run_recovery(leg, RecoveryPolicy(max_attempts=3))
        assert outcome.completed
        assert outcome.attempts[0].crashed
        assert result_fingerprint(outcome.final_result) == _base_fp()


class TestSingleCrashProperty:
    @settings(max_examples=25)
    @given(
        rank=st.integers(0, 3),
        frac=st.floats(0.05, 1.2),
        ckpt=st.booleans(),
    )
    def test_any_single_crash_recovers_to_uninterrupted(
        self, rank, frac, ckpt
    ):
        # Whatever rank dies, whenever it dies, with or without a
        # checkpoint schedule to restart from: a bounded chain always
        # reaches the uninterrupted run's exact fingerprint.
        overrides = {"crash_fracs": ((rank, round(frac, 4)),)}
        if ckpt:
            overrides["checkpoint_fractions"] = (0.2,)
        outcome = run_recovery(
            _mk(**overrides), RecoveryPolicy(max_attempts=3)
        )
        assert outcome.completed, outcome.describe()
        assert result_fingerprint(outcome.final_result) == _base_fp()


class TestRecoveryScheduleAxis:
    def test_draw_arms_hops_only_with_crashes(self):
        drawn = [FaultSchedule.draw(s) for s in range(80)]
        with_hops = [d for d in drawn if d.recovery_crash_fracs]
        assert with_hops, "the draw never arms a recovery hop"
        assert len(with_hops) < len(drawn), "the draw always arms hops"
        for schedule in with_hops:
            assert schedule.crash_fracs, (
                "recovery hops without an initial crash are meaningless"
            )
            assert 1 <= len(schedule.recovery_crash_fracs) <= 2
            for hop in schedule.recovery_crash_fracs:
                for rank, frac in hop:
                    assert 0 <= rank < schedule.nprocs
                    assert frac > 0
        assert any(len(d.recovery_crash_fracs) == 2 for d in drawn), (
            "multi-hop storms never drawn"
        )

    def test_draw_is_seed_stable(self):
        for seed in range(20):
            assert FaultSchedule.draw(seed) == FaultSchedule.draw(seed)

    def test_shrinker_drops_hops_first(self):
        import dataclasses

        armed = dataclasses.replace(
            FaultSchedule.draw(0),
            crash_fracs=((0, 0.4),),
            recovery_crash_fracs=(((1, 0.5),), ((2, 0.6),)),
        )
        candidates = list(_shrink_candidates(armed))
        assert any(not c.recovery_crash_fracs for c in candidates)
        assert any(len(c.recovery_crash_fracs) == 1 for c in candidates)


class TestAnomalyClassification:
    def test_recovery_error_classifies_as_recovery(self):
        exc = RecoveryError("retry budget (3) exhausted: ...")
        assert _classify_exception(exc) == "recovery"
        # Stringified across a process boundary it must still classify.
        wrapped = RuntimeError(
            "worker died: RecoveryError: retry budget (3) exhausted"
        )
        assert _classify_exception(wrapped) == "recovery"


_SCENARIO_FP = {}


def _scenario_fp(scenario):
    """Uninterrupted-run fingerprint under ``scenario`` (cached).

    A scenario changes the simulated physics, so a faulted chain run
    under one must be compared against a baseline run under the *same*
    scenario — never against the scenario-free fingerprint.
    """
    if scenario not in _SCENARIO_FP:
        _SCENARIO_FP[scenario] = result_fingerprint(
            execute(_mk(scenario=scenario))
        )
    return _SCENARIO_FP[scenario]


class TestScenarioFaultChains:
    """Scenario x fault composition: perturbed physics, same recovery
    guarantees."""

    def test_scenario_baselines_differ_from_flat(self):
        # Sanity for everything below: these chains really do run under
        # perturbed physics, not silently under the flat cluster.  The
        # *application-visible* fingerprint is time-independent by
        # design, so compare the full serialized results (which carry
        # runtimes) instead.
        from repro.harness.spec import run_result_to_dict
        from repro.util.hashing import stable_json_hash

        def full_hash(scenario):
            res = execute(_mk(scenario=scenario))
            return stable_json_hash(run_result_to_dict(res))

        flat = full_hash(None)
        assert full_hash("straggler") != flat
        assert full_hash("degraded-link") != flat

    def test_straggler_crash_recovers_to_straggler_baseline(self):
        # Rank 0 computes 4x slower *and* rank 2 dies mid-run: the
        # bounded chain must still land byte-identical to the
        # uninterrupted straggler run.
        spec = _mk(
            scenario="straggler",
            checkpoint_fractions=(0.2,),
            crash_fracs=((2, 0.5),),
        )
        outcome = run_recovery(spec, RecoveryPolicy(max_attempts=3))
        assert outcome.completed, outcome.describe()
        assert outcome.attempts[0].crashed
        fp = result_fingerprint(outcome.final_result)
        assert fp == _scenario_fp("straggler")

    def test_degraded_link_restart_leg_crash_recovers(self):
        # The acceptance composition: a degraded fabric, a committed
        # checkpoint, and a crash landing on the *restart leg* itself.
        # The scenario rides restart ancestry (with_scenario/replace),
        # so every leg of the chain sees the same broken link.
        parent = _mk(scenario="degraded-link", checkpoint_fractions=(0.2,))
        leg = _mk(
            scenario="degraded-link",
            restart_of=parent,
            restart_ckpt=0,
            crash_fracs=((2, 0.3),),
        )
        outcome = run_recovery(leg, RecoveryPolicy(max_attempts=3))
        assert outcome.completed, outcome.describe()
        assert outcome.attempts[0].crashed
        fp = result_fingerprint(outcome.final_result)
        assert fp == _scenario_fp("degraded-link")

    def test_with_scenario_stamps_restart_ancestry(self):
        parent = _mk(checkpoint_fractions=(0.2,))
        leg = _mk(restart_of=parent, restart_ckpt=0)
        stamped = leg.with_scenario("degraded-link")
        assert stamped.scenario == "degraded-link"
        assert stamped.restart_of.scenario == "degraded-link"


class TestScenarioScheduleAxis:
    """The ``scenario`` fault-schedule axis mirrors the recovery axis:
    drawn sometimes, serialized only when set, shrunk away first."""

    def test_draw_arms_scenarios_sometimes(self):
        from repro.scenarios import SCENARIOS

        drawn = [FaultSchedule.draw(s) for s in range(80)]
        armed = [d for d in drawn if d.scenario]
        assert armed, "the draw never arms a scenario"
        assert len(armed) < len(drawn), "the draw always arms a scenario"
        for schedule in armed:
            assert schedule.scenario in SCENARIOS
        assert len({d.scenario for d in armed}) > 1, (
            "the draw is stuck on one scenario"
        )

    def test_shrinker_drops_scenario_first(self):
        import dataclasses

        armed = dataclasses.replace(
            FaultSchedule.draw(0), scenario="degraded-link"
        )
        first = next(iter(_shrink_candidates(armed)))
        assert first.scenario is None
        assert first == dataclasses.replace(armed, scenario=None)

    def test_recovery_oracle_passes_under_scenario(self):
        # A scenario-armed schedule with a real crash chain: the
        # recovery-chain oracle must still verify the perturbed run
        # against its own (same-scenario) uninterrupted baseline.
        import dataclasses

        base = FaultSchedule.draw(0)
        schedule = dataclasses.replace(
            base,
            scenario="straggler",
            crash_fracs=((1, 0.4),),
            recovery_crash_fracs=(((2, 0.5),),),
        )
        report = ORACLES["recovery-chain"].check_schedule(schedule)
        assert report.ok, report.detail
