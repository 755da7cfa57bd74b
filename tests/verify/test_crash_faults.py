"""Crash-fault injection, differentially.

A hard-killed rank must behave like a rank that *never participated*
from the kill instant on: no finish, no result, no proxy answering for
it, in-flight rounds aborted with a crash-specific reason (and no
leaked images), later requests aborted instantly — while everything
that committed *before* the crash stays a valid restart point whose
recovery is fingerprint-identical to a graceful run's.
"""

import pytest

from repro.harness import FaultSchedule
from repro.harness.spec import RunSpec, SpecError, execute
from repro.harness.verify import ORACLES, result_fingerprint
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)
APP_KWARGS = {"niters": 12, "shared": 4, "leavers": 1, "memory_bytes": 1 << 20}


def _spec(**overrides):
    kwargs = dict(
        app_kwargs=APP_KWARGS, protocol="cc", seed=3, storage=STORAGE
    )
    kwargs.update(overrides)
    return RunSpec.create("earlyexit", 4, **kwargs)


@pytest.fixture(scope="module")
def base_result():
    return execute(_spec())


class TestCrashSemantics:
    def test_crashed_rank_is_not_a_finished_rank(self, base_result):
        spec = _spec(crash_fracs=((1, 0.4),))
        res = execute(spec, {_spec(): base_result})
        assert res.crashed_ranks == [1]
        assert res.per_rank[1] is None
        assert res.rank_finish_times[1] is None
        # The other ranks genuinely ran (either finished before being
        # torn down with the job, or died blocked on the corpse).
        assert res.runtime > 0

    def test_crash_racing_completion_loses_gracefully(self, base_result):
        # A kill scheduled long after every rank finished is a no-op:
        # same results as the uninterrupted run, no corpse.
        spec = _spec(crash_fracs=((2, 50.0),))
        res = execute(spec, {_spec(): base_result})
        assert res.crashed_ranks == []
        assert result_fingerprint(res) == result_fingerprint(base_result)

    def test_request_after_crash_aborts_as_never_participated(self, base_result):
        # Crash early, request late: the coordinator must refuse the
        # round outright — the corpse cannot intend, quiesce, or drain.
        spec = _spec(
            crash_fracs=((1, 0.2),), checkpoint_completion_fracs=(0.95,)
        )
        res = execute(spec, {_spec(): base_result})
        assert res.crashed_ranks == [1]
        assert len(res.checkpoints) == 1
        rec = res.checkpoints[0]
        assert rec.aborted and not rec.committed
        assert "crashed" in rec.abort_reason
        assert not rec.images

    def test_mid_round_crash_aborts_with_crash_reason(self, base_result):
        # Request at t=0 (round in flight immediately), crash mid-round:
        # the abort reason must name the crash, not a generic failure,
        # and the record must hold no partial images.
        spec = _spec(
            crash_fracs=((2, 0.5),), checkpoint_fractions=(0.01,)
        )
        res = execute(spec, {_spec(): base_result})
        assert res.crashed_ranks == [2]
        assert len(res.checkpoints) == 1
        rec = res.checkpoints[0]
        assert rec.aborted
        assert "crashed" in rec.abort_reason
        assert not rec.images

    def test_restart_specs_accept_crash_faults(self):
        # Crash faults on restart legs are first-class: the fractions
        # anchor on the restart leg's *own* crash-free runtime (its
        # probe_spec keeps restart_of but drops schedules and crash).
        parent = _spec(checkpoint_completion_fracs=(0.9,))
        spec = _spec(restart_of=parent, crash_fracs=((0, 0.5),))
        assert spec.crash_fracs == ((0, 0.5),)
        assert "(restart)" in spec.label() and "(crash)" in spec.label()
        probe = spec.probe_spec()
        assert probe is not None
        assert probe.restart_of == parent and not probe.crash_fracs

    def test_crash_fracs_validated(self):
        with pytest.raises(SpecError, match="nonexistent rank"):
            _spec(crash_fracs=((7, 0.5),))
        with pytest.raises(SpecError, match="more than once"):
            _spec(crash_fracs=((1, 0.5), (1, 0.7)))
        with pytest.raises(SpecError, match="positive"):
            _spec(crash_fracs=((1, -0.5),))


class TestCrashDifferential:
    """Crash-after-commit vs graceful: the committed image can't tell."""

    def test_restart_past_crash_matches_graceful_restart(self, base_result):
        # Graceful leg: checkpoint, commit, restart.
        graceful = _spec(checkpoint_fractions=(0.3,))
        deps = {_spec(): base_result}
        graceful_res = execute(graceful, deps)
        commits = [r for r in graceful_res.checkpoints if r.committed]
        assert commits, "graceful run must commit for this differential"
        deps[graceful] = graceful_res
        graceful_restart = execute(
            _spec(restart_of=graceful, restart_ckpt=0), deps
        )

        # Crash leg: same request, but a rank dies *after* the commit
        # completes (anchored off the graceful run's resume instant, in
        # units of the probe runtime — exactly how crash_fracs convert).
        late_frac = commits[0].t_resumed * 1.1 / base_result.runtime
        crashed = _spec(
            checkpoint_fractions=(0.3,),
            crash_fracs=((1, round(late_frac, 6)),),
        )
        crashed_res = execute(crashed, deps)
        crash_commits = [r for r in crashed_res.checkpoints if r.committed]
        assert crash_commits, "the pre-crash commit must survive the crash"
        assert crash_commits[0].ckpt_id == commits[0].ckpt_id
        deps[crashed] = crashed_res
        crash_restart = execute(_spec(restart_of=crashed, restart_ckpt=0), deps)

        want = result_fingerprint(base_result)
        assert result_fingerprint(graceful_restart) == want
        assert result_fingerprint(crash_restart) == want

    def test_crash_mid_restart_leg_leaves_image_intact(self, base_result):
        # Kill a rank *during the restart leg itself* — while survivors
        # rebuild their lower half, replay comm creation, and drain
        # restored p2p.  The leg must tear down like any crashed run
        # (corpse recorded, drains conserved) and the parent's committed
        # image must stay a valid restart point afterwards.
        parent = _spec(checkpoint_fractions=(0.3,))
        deps = {_spec(): base_result}
        parent_res = execute(parent, deps)
        assert [r for r in parent_res.checkpoints if r.committed]
        deps[parent] = parent_res

        leg = _spec(restart_of=parent, restart_ckpt=0,
                    crash_fracs=((1, 0.3),))
        res = execute(leg, deps)
        assert res.crashed_ranks == [1]
        assert res.per_rank[1] is None
        for rank in range(res.nprocs):
            assert (
                res.drain_restored[rank] + res.drain_buffered[rank]
                == res.drain_consumed[rank] + res.drain_leftover[rank]
            ), f"rank {rank} leaked or forged drained messages"

        # The crash consumed nothing: relaunching the same restart leg
        # (crash-free) from the same image still reproduces the base run.
        clean = execute(_spec(restart_of=parent, restart_ckpt=0), deps)
        assert result_fingerprint(clean) == result_fingerprint(base_result)

    def test_drain_conservation_holds_across_crash(self, base_result):
        spec = _spec(
            crash_fracs=((1, 0.6),), checkpoint_completion_fracs=(0.9,)
        )
        res = execute(spec, {_spec(): base_result})
        for rank in range(res.nprocs):
            assert (
                res.drain_restored[rank] + res.drain_buffered[rank]
                == res.drain_consumed[rank] + res.drain_leftover[rank]
            ), f"rank {rank} leaked or forged drained messages"


class TestCrashOracles:
    """The two new oracles sweep clean over a healthy tree."""

    @pytest.mark.parametrize("seed", range(6))
    def test_crash_fault_oracle(self, seed):
        report = ORACLES["crash-fault"].check(seed)
        assert report.ok, f"seed {seed}: {report.detail}\n{report.repro}"
        assert "late leg" in report.detail

    @pytest.mark.parametrize("seed", [61, 73])
    def test_kill_landing_after_the_app_returned_loses_the_race(self, seed):
        # Both seeds kill rank 0 ~30 us into the run, after its
        # application returned but while its process is still parked in
        # the completion announcement: it used to come out both a corpse
        # and a finisher.  A rank whose application returned finished.
        report = ORACLES["crash-fault"].check(seed)
        assert report.ok, f"seed {seed}: {report.detail}\n{report.repro}"

    @pytest.mark.parametrize("seed", range(6))
    def test_drain_conservation_oracle(self, seed):
        report = ORACLES["drain-conservation"].check(seed)
        assert report.ok, f"seed {seed}: {report.detail}\n{report.repro}"

    def test_schedule_draw_covers_crashes(self):
        drawn = [FaultSchedule.draw(s) for s in range(40)]
        with_crash = [d for d in drawn if d.crash_fracs]
        assert with_crash, "the draw never arms a crash"
        assert len(with_crash) < len(drawn), "the draw always arms a crash"
        for d in with_crash:
            assert 1 <= len(d.crash_fracs) <= 2
            for rank, frac in d.crash_fracs:
                assert 0 <= rank < d.nprocs
                assert frac > 0


class TestMultiRankCrashes:
    """Two corpses in one job: the coordinator must reclaim *both*
    debt sets, not just the first casualty's."""

    def test_two_corpses_in_one_round_reclaim_both(self, base_result):
        # Request immediately so the round is in flight when both kills
        # land.  The first corpse aborts the round; the second arrives
        # with the coordinator already idle and must be absorbed (its
        # drain/commit debt was cleared with the round) rather than
        # tripping a protocol error.
        spec = _spec(
            crash_fracs=((1, 0.5), (2, 0.55)),
            checkpoint_fractions=(0.01,),
        )
        res = execute(spec, {_spec(): base_result})
        assert res.crashed_ranks == [1, 2]
        assert len(res.checkpoints) == 1
        rec = res.checkpoints[0]
        assert rec.aborted and not rec.committed
        assert "crashed" in rec.abort_reason
        assert not rec.images

    def test_two_corpses_then_late_request_still_aborts_cleanly(
        self, base_result
    ):
        # A request issued after both deaths: neither corpse can intend
        # or drain, so the round aborts instantly — and the fact that it
        # *can* abort (instead of waiting on state a dead rank still
        # "owes") is the reclamation under test.
        spec = _spec(
            crash_fracs=((0, 0.2), (3, 0.25)),
            checkpoint_completion_fracs=(0.95,),
        )
        res = execute(spec, {_spec(): base_result})
        assert res.crashed_ranks == [0, 3]
        assert len(res.checkpoints) == 1
        rec = res.checkpoints[0]
        assert rec.aborted and "crashed" in rec.abort_reason

    def test_double_crash_conserves_drained_messages(self, base_result):
        spec = _spec(
            crash_fracs=((1, 0.45), (2, 0.5)),
            checkpoint_completion_fracs=(0.9,),
        )
        res = execute(spec, {_spec(): base_result})
        for rank in range(res.nprocs):
            assert (
                res.drain_restored[rank] + res.drain_buffered[rank]
                == res.drain_consumed[rank] + res.drain_leftover[rank]
            ), f"rank {rank} leaked or forged drained messages"

    def test_draw_emits_multi_rank_crashes_on_distinct_ranks(self):
        drawn = [FaultSchedule.draw(s) for s in range(300)]
        multi = [s for s in drawn if len(s.crash_fracs) >= 2]
        assert multi, "the draw must exercise simultaneous failures"
        for schedule in multi:
            ranks = [r for r, _ in schedule.crash_fracs]
            assert len(set(ranks)) == len(ranks)
            assert all(0 <= r < schedule.nprocs for r in ranks)
