"""The verification subsystem itself: schedules, oracle API, catalog."""

import pytest

from repro.harness import FaultSchedule
from repro.harness.spec import RunSpec, spec_hash
from repro.harness.verify import (
    LEG_MAX_EVENTS,
    ORACLES,
    OracleMismatch,
    program_position_for,
    result_fingerprint,
    run_oracles,
)


class TestFaultSchedule:
    def test_draw_is_deterministic(self):
        assert FaultSchedule.draw(11) == FaultSchedule.draw(11)
        assert FaultSchedule.draw(11) != FaultSchedule.draw(12)

    def test_draw_covers_both_protocols_and_depths(self):
        drawn = [FaultSchedule.draw(s) for s in range(40)]
        assert {d.protocol for d in drawn} == {"cc", "2pc"}
        assert {d.restart_depth for d in drawn} == {1, 2}
        assert any(d.mid_fracs for d in drawn)
        assert any(not d.mid_fracs for d in drawn)
        # The racing window is actually sampled on both sides of 1.0.
        fracs = [f for d in drawn for f in d.completion_fracs]
        assert min(fracs) < 1.0 < max(fracs)

    def test_specs_are_valid_and_deduplicable(self):
        schedule = FaultSchedule.draw(3)
        base = schedule.uninterrupted_spec()
        ckpt = schedule.checkpoint_spec()
        # The checkpoint run's probe IS the baseline: one simulation.
        assert ckpt.probe_spec() == base
        chain = schedule.restart_chain(base_runtime=1.0)
        assert len(chain) == schedule.restart_depth
        assert chain[0].restart_of == ckpt

    def test_fault_fields_enter_the_content_hash(self):
        """Perturbing only the completion-race instants must change the
        spec hash (cache cells are per fault schedule), while a spec
        without the field keeps its pre-existing hash shape."""
        plain = RunSpec.create("earlyexit", 4, protocol="cc", seed=0)
        a = RunSpec.create(
            "earlyexit", 4, protocol="cc", seed=0,
            checkpoint_completion_fracs=(0.99,),
        )
        b = RunSpec.create(
            "earlyexit", 4, protocol="cc", seed=0,
            checkpoint_completion_fracs=(1.01,),
        )
        assert len({spec_hash(plain), spec_hash(a), spec_hash(b)}) == 3

    def test_completion_fracs_validated(self):
        from repro.harness.spec import SpecError

        with pytest.raises(SpecError, match="positive"):
            RunSpec.create(
                "earlyexit", 4, protocol="cc",
                checkpoint_completion_fracs=(-0.5,),
            )
        with pytest.raises(SpecError, match="native"):
            RunSpec.create(
                "earlyexit", 4, checkpoint_completion_fracs=(0.9,)
            )


class TestOracleCatalog:
    def test_catalog_names_and_descriptions(self):
        assert set(ORACLES) == {
            "rank-completion",
            "safe-cut",
            "drain-conservation",
            "crash-fault",
            "recovery-chain",
            "scenario-invariance",
        }
        for name, oracle in ORACLES.items():
            assert oracle.name == name
            assert oracle.description

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            run_oracles(["no-such-oracle"], [0])

    @pytest.mark.parametrize("name", ["safe-cut", "scenario-invariance"])
    def test_single_seed_check_passes(self, name):
        report = ORACLES[name].check(1)
        assert report.ok, report.detail
        assert report.detail

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_every_leg_runs_under_the_event_guard(self, name, monkeypatch):
        # A leg that outruns the leg bound is a typed deadlock report
        # with the usual one-paste repro, not a hung verify.
        monkeypatch.setattr("repro.harness.verify.LEG_MAX_EVENTS", 50)
        report = ORACLES[name].check(0)
        assert report.kind == "deadlock", report.detail
        assert "max_events=50" in report.detail
        assert report.repro == (
            f"repro-mpi verify --oracle {name} --seeds 1 --base-seed 0"
        )

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_every_leg_carries_the_leg_bound(self, name, monkeypatch):
        # Not only the first leg: every spec an oracle or a recovery
        # chain executes, and every ancestor execute resolves for it.
        import repro.harness.recovery as recovery_mod
        import repro.harness.verify as verify_mod

        legs = []
        for mod in (verify_mod, recovery_mod):
            def spy(spec, *args, _real=mod.execute, **kwargs):
                legs.append(spec)
                return _real(spec, *args, **kwargs)

            monkeypatch.setattr(mod, "execute", spy)
        reports = run_oracles([name], range(5))
        assert all(r.ok for r in reports), [r.detail for r in reports]
        assert legs
        for spec in legs:
            for leg in (spec, *spec.ancestors()):
                assert leg.max_events == LEG_MAX_EVENTS, leg.label()

    def test_run_oracles_progress_and_order(self):
        seen = []
        reports = run_oracles(
            ["safe-cut"], [0, 1], progress=lambda r: seen.append(r.seed)
        )
        assert seen == [0, 1]
        assert all(r.ok for r in reports)

    def test_oracle_crash_becomes_a_failing_report(self):
        """A simulator-level fault (ProtocolError, deadlock, spec error)
        must surface as a failing report with its repro command — not
        crash the sweep and lose the remaining seeds + artifact."""
        from repro.core.protocol import ProtocolError
        from repro.harness.verify import Oracle

        class Crashes(Oracle):
            name = "crashes"
            description = "stub"

            def verify(self, schedule):
                raise ProtocolError("rank 2 wedged")

        report = Crashes().check(9)
        assert not report.ok
        assert "oracle crashed: ProtocolError: rank 2 wedged" in report.detail
        assert "--base-seed 9" in report.repro

    def test_parallel_fanout_byte_identical_to_serial(self):
        """--jobs N is a pure wall-time knob: the (oracle, seed) grid
        fans out over spawned workers, but the report sequence and every
        field in it must match the serial sweep exactly."""
        names, seeds = ["safe-cut", "drain-conservation"], [0, 1]
        serial_seen, parallel_seen = [], []
        serial = run_oracles(
            names, seeds, jobs=1,
            progress=lambda r: serial_seen.append((r.oracle, r.seed)),
        )
        parallel = run_oracles(
            names, seeds, jobs=2,
            progress=lambda r: parallel_seen.append((r.oracle, r.seed)),
        )
        assert serial == parallel
        assert serial_seen == parallel_seen


class TestHelpers:
    def test_position_inversion_round_trip(self):
        from repro.apps.scheduled import ScheduledMix

        app = ScheduledMix(niters=6, nprocs=4, schedule_seed=9)
        program = app.offline_program()
        for rank in range(4):
            for pos in range(len(program.ops[rank]) + 1):
                counts = program.counts_at(rank, pos)
                assert program_position_for(program, rank, counts) == pos

    def test_unreachable_counts_raise(self):
        from repro.apps.scheduled import ScheduledMix

        program = ScheduledMix(niters=4, nprocs=4, schedule_seed=0).offline_program()
        with pytest.raises(OracleMismatch):
            program_position_for(program, 0, {0xDEAD: 3})

    def test_result_fingerprint_ignores_timing(self):
        from repro.harness.runner import RunResult

        a = RunResult(app="x", protocol="cc", nprocs=2, nnodes=1,
                      runtime=1.0, per_rank=[1.5, 2.5], coll_calls=10,
                      p2p_calls=0, sim_events=100)
        b = RunResult(app="x", protocol="cc", nprocs=2, nnodes=1,
                      runtime=9.0, per_rank=[1.5, 2.5], coll_calls=99,
                      p2p_calls=5, sim_events=7)
        assert result_fingerprint(a) == result_fingerprint(b)
        b.per_rank = [1.5, 2.50001]
        assert result_fingerprint(a) != result_fingerprint(b)
