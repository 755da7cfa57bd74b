"""The bounded-retry recovery planner, unit- and integration-level.

Pinned here: policy validation, image-restart vs
degrade-to-scratch planning, multi-hop crash storms under a retry
budget, chain content-hashing, the engine's auto-recovery seam — and
byte-identity of a full recovery chain in-process and over a
two-worker pool.
"""

import json

import pytest

from repro.harness.engine import ExperimentEngine
from repro.harness.recovery import (
    RecoveryError,
    RecoveryOutcome,
    RecoveryPolicy,
    run_recovery,
)
from repro.harness.spec import RunSpec, execute, run_result_to_dict
from repro.harness.verify import result_fingerprint
from repro.netmodel import StorageModel

# Tuned so the graceful checkpoint commits mid-run (~0.27 of the
# runtime) with ranks 1-3 still alive after the commit: a crash at 0.35
# lands *after* a committed image exists, so recovery restarts from it.
KW = dict(
    app_kwargs={
        "niters": 60, "shared": 4, "leavers": 1, "memory_bytes": 1 << 10,
    },
    protocol="cc",
    seed=3,
    storage=StorageModel(base_latency=1e-6),
)


def _mk(**overrides):
    kwargs = dict(KW)
    kwargs.update(overrides)
    return RunSpec.create("earlyexit", 4, **kwargs)


def _crash_spec():
    return _mk(checkpoint_fractions=(0.2,), crash_fracs=((1, 0.35),))


@pytest.fixture(scope="module")
def base_fp():
    return result_fingerprint(execute(_mk()))


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RecoveryPolicy(max_attempts=0)


class TestRecoveryChains:
    def test_crash_after_commit_restarts_from_image(self, base_fp):
        outcome = run_recovery(_crash_spec())
        assert outcome.completed
        assert [a.restarted_from for a in outcome.attempts] == [
            "initial", "image",
        ]
        assert outcome.attempts[0].crashed
        assert outcome.attempts[1].spec.restart_of is not None
        assert result_fingerprint(outcome.final_result) == base_fp

    def test_crash_without_commit_degrades_to_scratch(self, base_fp):
        # No checkpoint schedule anywhere in the chain: nothing ever
        # commits, so the only recovery is re-running from scratch.
        outcome = run_recovery(_mk(crash_fracs=((1, 0.4),)))
        assert outcome.completed
        assert [a.restarted_from for a in outcome.attempts] == [
            "initial", "scratch",
        ]
        assert outcome.attempts[1].spec.restart_of is None
        assert result_fingerprint(outcome.final_result) == base_fp

    def test_multi_hop_storm_crash_restart_crash(self, base_fp):
        # The first recovery leg is crashed too (a restart-leg crash);
        # the second gets through.  Both restart from the same image.
        outcome = run_recovery(
            _crash_spec(),
            RecoveryPolicy(max_attempts=4),
            leg_faults=[((2, 0.4),)],
        )
        assert outcome.completed
        assert [a.restarted_from for a in outcome.attempts] == [
            "initial", "image", "image",
        ]
        assert outcome.attempts[1].result.crashed_ranks == [2]
        assert result_fingerprint(outcome.final_result) == base_fp

    def test_budget_exhaustion_is_reported_not_raised(self):
        # Every leg crashes; the budget runs dry after two recovery legs.
        outcome = run_recovery(
            _crash_spec(),
            RecoveryPolicy(max_attempts=2),
            leg_faults=[((2, 0.1),), ((3, 0.1),)],
        )
        assert not outcome.completed
        assert outcome.recovery_legs == 2
        assert outcome.final_result.crashed_ranks
        assert "budget exhausted" in outcome.describe()

    def test_crashed_restart_leg_relaunches_from_parent_image(self, base_fp):
        # The *initial* spec is itself a restart leg that dies mid-
        # restart.  Its own run commits nothing, but relaunching it
        # still adopts the parent's committed image — that is an image
        # recovery, not a scratch one.
        parent = _mk(checkpoint_fractions=(0.2,))
        leg = _mk(restart_of=parent, restart_ckpt=0,
                  crash_fracs=((2, 0.3),))
        outcome = run_recovery(leg)
        assert outcome.completed
        assert [a.restarted_from for a in outcome.attempts] == [
            "initial", "image",
        ]
        assert result_fingerprint(outcome.final_result) == base_fp

    def test_chain_key_is_deterministic_and_discriminating(self):
        plain = run_recovery(_crash_spec())
        again = run_recovery(_crash_spec())
        stormy = run_recovery(
            _crash_spec(),
            RecoveryPolicy(max_attempts=4),
            leg_faults=[((2, 0.4),)],
        )
        assert plain.chain_key() == again.chain_key()
        assert plain.chain_key() != stormy.chain_key()

    def test_empty_outcome_raises(self):
        with pytest.raises(RecoveryError, match="empty"):
            RecoveryOutcome().final_result


class TestEngineAutoRecovery:
    def test_engine_recovers_crashed_jobs(self, base_fp):
        spec = _crash_spec()
        eng = ExperimentEngine(cache=None, progress=False, recovery=True)
        results = eng.run_batch([spec])
        assert results[spec].crashed_ranks == []
        assert result_fingerprint(results[spec]) == base_fp
        assert eng.last_stats.recoveries == 1
        assert eng.last_stats.recovery_attempts == 1
        assert "1 crashed jobs recovered" in eng.last_stats.summary()

    def test_recovery_off_by_default(self):
        spec = _crash_spec()
        eng = ExperimentEngine(cache=None, progress=False)
        results = eng.run_batch([spec])
        assert results[spec].crashed_ranks == [1]
        assert eng.last_stats.recoveries == 0

    def test_per_batch_opt_in_and_opt_out(self):
        spec = _crash_spec()
        eng = ExperimentEngine(cache=None, progress=False)
        assert eng.run_batch([spec], recover=True)[spec].crashed_ranks == []
        eng = ExperimentEngine(cache=None, progress=False, recovery=True)
        assert eng.run_batch(
            [spec], recover=False
        )[spec].crashed_ranks == [1]

    def test_engine_run_recovery_uses_custom_policy(self):
        eng = ExperimentEngine(cache=None, progress=False)
        outcome = eng.run_recovery(
            _crash_spec(),
            RecoveryPolicy(max_attempts=1),
            leg_faults=[((2, 0.1),)],
        )
        assert not outcome.completed
        assert outcome.recovery_legs == 1


class TestBackendByteIdentity:
    """One recovery chain — in-process and over a pool — identical
    bytes."""

    LEG_FAULTS = [((2, 0.4),)]

    def _chain(self, engine):
        return run_recovery(
            _crash_spec(),
            RecoveryPolicy(max_attempts=4),
            leg_faults=self.LEG_FAULTS,
            engine=engine,
        )

    def _final_bytes(self, outcome):
        return json.dumps(
            run_result_to_dict(outcome.final_result), sort_keys=True
        )

    def test_chain_identical_across_all_backends(self):
        reference = self._chain(ExperimentEngine(cache=None, progress=False))
        assert reference.completed

        pooled = self._chain(
            ExperimentEngine(cache=None, progress=False, jobs=2)
        )

        assert self._final_bytes(pooled) == self._final_bytes(reference)
        assert pooled.chain_key() == reference.chain_key()
        assert [a.restarted_from for a in pooled.attempts] == [
            a.restarted_from for a in reference.attempts
        ]
