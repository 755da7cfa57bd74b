"""The fault fuzzer: corpus DB, shrinking, classification, CLI, and a
real mutation check (a deliberately-broken session must yield a corpus
entry whose repro command reproduces in one paste)."""

import json
import shutil
import tempfile
import time
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.cli import main
from repro.harness.fuzz import (
    CorpusDB,
    CorpusEntry,
    replay_entry,
    run_fuzz,
    schedule_key,
    shrink_schedule,
)
from repro.harness.verify import (
    ORACLES,
    FaultSchedule,
    Oracle,
    OracleMismatch,
    _classify_exception,
)
from repro.util.codec import decode, encode


def _entry(schedule: FaultSchedule, oracle: str = "stub", **overrides) -> CorpusEntry:
    fields = dict(
        key=schedule_key(schedule, oracle),
        oracle=oracle,
        seed=schedule.seed,
        kind="mismatch",
        detail="stub detail",
        repro=f"repro-mpi verify --oracle {oracle} --seeds 1 "
              f"--base-seed {schedule.seed}",
        schedule=encode(schedule),
        shrunk_from=encode(schedule),
        shrink_steps=0,
        found_at=0.0,
    )
    fields.update(overrides)
    return CorpusEntry(**fields)


class TestScheduleKey:
    def test_key_is_content_addressed(self):
        a = FaultSchedule(seed=1)
        b = FaultSchedule(seed=1, crash_fracs=((0, 0.5),))
        assert schedule_key(a, "x") != schedule_key(b, "x")
        assert schedule_key(a, "x") != schedule_key(a, "y")
        assert schedule_key(a, "x") == schedule_key(a, "x")


class TestCorpusDB:
    def test_add_load_round_trip(self, tmp_path):
        db = CorpusDB(tmp_path / "corpus")
        entry = _entry(FaultSchedule(seed=7))
        assert db.add(entry)
        assert entry.key in db
        assert db.load(entry.key) == entry
        assert len(db) == 1

    def test_duplicate_minimized_schedule_dedupes(self, tmp_path):
        db = CorpusDB(tmp_path / "corpus")
        schedule = FaultSchedule(seed=7)
        assert db.add(_entry(schedule))
        # Re-finding the same minimized anomaly (even from a different
        # originating seed) must not grow the corpus.
        assert not db.add(_entry(schedule, seed=99))
        assert len(db) == 1

    def test_unknown_key_raises_with_inventory(self, tmp_path):
        db = CorpusDB(tmp_path / "corpus")
        with pytest.raises(KeyError, match="no corpus entry"):
            db.load("feedbeef")


class CorpusLifecycle(RuleBasedStateMachine):
    """Insert / dedupe / reload must agree with an in-memory model."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="corpus-state-")
        self.db = CorpusDB(self.root)
        self.model: dict = {}

    schedules = st.builds(
        FaultSchedule,
        seed=st.integers(0, 5),
        nprocs=st.integers(3, 5),
        restart_depth=st.integers(1, 2),
        crash_fracs=st.sampled_from([(), ((0, 0.5),), ((1, 0.25),)]),
    )

    @rule(schedule=schedules, oracle=st.sampled_from(["a", "b"]))
    def add(self, schedule, oracle):
        entry = _entry(schedule, oracle)
        added = self.db.add(entry)
        assert added == (entry.key not in self.model)
        self.model.setdefault(entry.key, entry)

    @rule()
    def reload_from_disk(self):
        fresh = CorpusDB(self.root)
        assert set(fresh.keys()) == set(self.model)

    @invariant()
    def entries_match_model(self):
        assert len(self.db) == len(self.model)
        for key, entry in self.model.items():
            assert self.db.load(key) == entry

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


def test_corpus_lifecycle_stateful():
    run_state_machine_as_test(CorpusLifecycle)


# --------------------------------------------------------------------- #
# Stub oracles for loop/shrink/replay behaviour
# --------------------------------------------------------------------- #

class _FailsOnCrash(Oracle):
    """Fails iff the schedule carries a crash — shrinkable down to a
    single crash event on the minimal world."""

    name = "fails-on-crash"
    description = "test stub"

    def verify(self, schedule):
        if schedule.crash_fracs:
            raise OracleMismatch(f"crash present: {schedule.crash_fracs}")
        return "no crash, ok"


class _Wedges(Oracle):
    name = "wedges"
    description = "test stub"

    def verify(self, schedule):
        from repro.des.errors import SchedulingError

        raise SchedulingError("simulation exceeded max_events=50000")


@pytest.fixture
def stub_oracles(monkeypatch):
    monkeypatch.setitem(ORACLES, "fails-on-crash", _FailsOnCrash())
    monkeypatch.setitem(ORACLES, "wedges", _Wedges())


class TestClassification:
    def test_deadlock_classes(self):
        from repro.des.errors import DeadlockError, SchedulingError

        assert _classify_exception(DeadlockError("stuck")) == "deadlock"
        assert _classify_exception(SchedulingError("max_events hit")) == "deadlock"
        # By type only: a message that merely names a deadlock is not one.
        assert _classify_exception(RuntimeError("... max_events ...")) == "crash"
        assert _classify_exception(RuntimeError("DeadlockError: x")) == "crash"
        assert _classify_exception(ValueError("boom")) == "crash"

    def test_wedged_schedule_is_a_deadlock_anomaly_with_repro(self, stub_oracles):
        report = ORACLES["wedges"].check(5)
        assert not report.ok
        assert report.kind == "deadlock"
        assert "simulation wedged" in report.detail
        assert "--base-seed 5" in report.repro


class TestShrinking:
    def test_shrink_strictly_reduces(self, stub_oracles):
        original = FaultSchedule(
            seed=4,
            nprocs=5,
            niters=14,
            shared=5,
            leavers=3,
            completion_fracs=(0.913371, 1.04489),
            mid_fracs=(0.41,),
            restart_depth=2,
            restart_ckpt=1,
            crash_fracs=((3, 0.777777),),
        )
        minimized, steps = shrink_schedule(
            ORACLES["fails-on-crash"], original, "mismatch"
        )
        assert steps >= 1
        # Everything irrelevant to the failure is gone; the crash stays.
        assert minimized.crash_fracs
        assert minimized.mid_fracs == ()
        assert len(minimized.completion_fracs) == 1
        assert minimized.restart_depth == 1
        assert minimized.restart_ckpt == 0
        assert minimized.nprocs == 3
        assert minimized.crash_fracs == ((0, 0.8),)
        # And the minimized schedule still fails the same way.
        report = ORACLES["fails-on-crash"].check_schedule(minimized)
        assert not report.ok and report.kind == "mismatch"

    def test_shrink_keeps_original_when_kind_would_change(self, monkeypatch):
        class FlipsKind(Oracle):
            name = "flips"
            description = "stub"

            def verify(self, schedule):
                # Any simplification turns the mismatch into a crash —
                # a *different* anomaly the shrinker must not chase.
                if schedule == original:
                    raise OracleMismatch("original fails")
                raise ValueError("simplified schedules crash instead")

        original = FaultSchedule(seed=0, crash_fracs=((0, 0.5),))
        minimized, steps = shrink_schedule(FlipsKind(), original, "mismatch")
        assert minimized == original
        assert steps == 0


class TestFuzzLoop:
    def test_healthy_oracle_yields_no_anomalies(self, tmp_path, stub_oracles):
        corpus = CorpusDB(tmp_path / "corpus")
        stats = run_fuzz(
            corpus, iters=3, base_seed=100, oracles=["fails-on-crash"],
        )
        # Seeds 100.. may or may not draw crashes; any drawn crash IS
        # the stub's trigger, so select seeds without one.
        crashy = [
            s for s in range(100, 103) if FaultSchedule.draw(s).crash_fracs
        ]
        assert len(stats.anomalies) == len(crashy)
        assert stats.iterations == 3
        assert stats.checks == 3

    def test_anomaly_is_shrunk_persisted_and_deduped(self, tmp_path, stub_oracles):
        corpus = CorpusDB(tmp_path / "corpus")
        # Find a seed whose draw carries a crash (the stub's trigger).
        seed = next(s for s in range(100) if FaultSchedule.draw(s).crash_fracs)
        stats = run_fuzz(
            corpus, iters=1, base_seed=seed, oracles=["fails-on-crash"],
        )
        assert len(stats.anomalies) == 1 and stats.new_entries == 1
        entry = stats.anomalies[0]
        assert entry.kind == "mismatch"
        assert entry.shrink_steps >= 1
        assert entry.schedule != entry.shrunk_from
        assert decode(FaultSchedule, entry.schedule).crash_fracs
        assert corpus.load(entry.key) == entry
        # The same anomaly on a rerun dedupes instead of growing.
        again = run_fuzz(
            corpus, iters=1, base_seed=seed, oracles=["fails-on-crash"],
        )
        assert again.duplicates == 1 and again.new_entries == 0
        assert len(corpus) == 1

    def test_replay_reproduces_until_fixed(self, tmp_path, stub_oracles, monkeypatch):
        corpus = CorpusDB(tmp_path / "corpus")
        seed = next(s for s in range(100) if FaultSchedule.draw(s).crash_fracs)
        stats = run_fuzz(
            corpus, iters=1, base_seed=seed, oracles=["fails-on-crash"],
        )
        key = stats.anomalies[0].key
        assert not replay_entry(corpus, key).ok
        # "Fix the bug": the oracle stops failing; replay now passes.
        monkeypatch.setattr(
            _FailsOnCrash, "verify", lambda self, schedule: "fixed"
        )
        assert replay_entry(corpus, key).ok

    def test_budget_stops_the_loop(self, tmp_path, stub_oracles, monkeypatch):
        corpus = CorpusDB(tmp_path / "corpus")
        ticks = iter(x * 10.0 for x in range(1000))
        monkeypatch.setattr(
            "repro.harness.fuzz.time",
            SimpleNamespace(monotonic=lambda: next(ticks), time=time.time),
        )
        stats = run_fuzz(corpus, budget=25.0, oracles=["fails-on-crash"])
        assert stats.iterations >= 1
        assert stats.iterations < 1000

    def test_requires_some_budget(self, tmp_path):
        with pytest.raises(ValueError, match="iters, budget, or both"):
            run_fuzz(CorpusDB(tmp_path / "corpus"))

    def test_unknown_oracle_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown oracle"):
            run_fuzz(CorpusDB(tmp_path / "c"), iters=1, oracles=["nope"])

    def test_fuzz_parallel_matches_serial(self, tmp_path):
        serial_corpus = CorpusDB(tmp_path / "serial")
        serial = run_fuzz(
            serial_corpus, iters=3, oracles=["safe-cut", "drain-conservation"]
        )
        parallel_corpus = CorpusDB(tmp_path / "parallel")
        parallel = run_fuzz(
            parallel_corpus,
            iters=3,
            oracles=["safe-cut", "drain-conservation"],
            jobs=2,
        )
        assert parallel.iterations == serial.iterations
        assert parallel.checks == serial.checks
        assert sorted(e.key for e in parallel_corpus.entries()) == sorted(
            e.key for e in serial_corpus.entries()
        )
        assert [e.key for e in parallel.anomalies] == [
            e.key for e in serial.anomalies
        ]


class TestBrokenSessionMutation:
    """Acceptance: a deliberately-broken tree yields a corpus entry whose
    repro command reproduces in one paste, and shrinking reduced it."""

    @pytest.fixture
    def lossy_session(self, monkeypatch):
        # The bug: messages taken out of the drain buffer are no longer
        # counted as consumed — the conservation ledger leaks.
        from repro.mana.session import Session

        real_take = Session._buffer_take

        def lossy_take(self, vcid, source, tag):
            hit = real_take(self, vcid, source, tag)
            if hit is not None:
                self.drain_consumed -= 1
            return hit

        monkeypatch.setattr(Session, "_buffer_take", lossy_take)

    def test_fuzzer_finds_shrinks_and_reproduces(
        self, tmp_path, lossy_session, capsys
    ):
        corpus = CorpusDB(tmp_path / "corpus")
        # Seed 1's schedule drains messages through its cut, so the
        # broken ledger is visible to the conservation oracle.
        stats = run_fuzz(
            corpus, iters=1, base_seed=1, oracles=["drain-conservation"],
        )
        assert len(stats.anomalies) == 1
        entry = stats.anomalies[0]
        assert entry.kind == "mismatch"
        assert "imbalance" in entry.detail
        # Shrinking strictly reduced the schedule (and what remains
        # still fails the same way — shrink_schedule guarantees it).
        assert entry.shrink_steps >= 1
        assert entry.schedule != entry.shrunk_from

        # The repro command is one paste: run it through the real CLI.
        argv = entry.repro.split()
        assert argv[0] == "repro-mpi"
        rc = main(argv[1:] + ["--quiet",
                              "--artifact", str(tmp_path / "art.json")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "drain imbalance" in out


class TestFuzzCli:
    def test_iters_run_exits_zero_when_clean(self, tmp_path, capsys):
        rc = main([
            "fuzz", "--iters", "1", "--oracle", "safe-cut",
            "--corpus", str(tmp_path / "corpus"), "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 anomalies" in out

    def test_wedged_leg_exits_one_as_a_deadlock_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every oracle leg runs under the leg bound: a leg that outruns
        # it is a typed deadlock anomaly, not a hung fuzzer.
        monkeypatch.setattr("repro.harness.verify.LEG_MAX_EVENTS", 50)
        corpus_dir = tmp_path / "corpus"
        assert main([
            "fuzz", "--iters", "1", "--no-shrink", "--oracle", "safe-cut",
            "--corpus", str(corpus_dir), "--quiet",
        ]) == 1
        [entry] = CorpusDB(corpus_dir).entries()
        assert entry.kind == "deadlock"
        assert "max_events=50" in entry.detail
        assert "deadlock: safe-cut seed=0" in capsys.readouterr().out

    def test_anomaly_exits_one_and_prints_replay(
        self, tmp_path, stub_oracles, capsys
    ):
        seed = next(s for s in range(100) if FaultSchedule.draw(s).crash_fracs)
        args = [
            "fuzz", "--iters", "1", "--base-seed", str(seed),
            "--oracle", "fails-on-crash",
            "--corpus", str(tmp_path / "corpus"), "--quiet",
        ]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "mismatch: fails-on-crash" in out
        assert "--replay" in out
        # Duplicates still fail the run: a known-failing corpus entry
        # is still an anomaly on this tree.
        assert main(args) == 1
        assert "1 duplicate" in capsys.readouterr().out

    def test_replay_cli_round_trip(self, tmp_path, stub_oracles, capsys):
        seed = next(s for s in range(100) if FaultSchedule.draw(s).crash_fracs)
        corpus_dir = str(tmp_path / "corpus")
        main([
            "fuzz", "--iters", "1", "--base-seed", str(seed),
            "--oracle", "fails-on-crash", "--corpus", corpus_dir, "--quiet",
        ])
        capsys.readouterr()
        key = CorpusDB(corpus_dir).keys()[0]
        rc = main(["fuzz", "--corpus", corpus_dir, "--replay", key])
        assert rc == 1
        assert "still fails" in capsys.readouterr().out

    def test_replay_unknown_key_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fuzz", "--corpus", str(tmp_path / "c"),
                  "--replay", "feedbeef"])

    def test_replay_of_an_oracle_gone_from_the_catalog_is_a_usage_error(
        self, tmp_path, capsys
    ):
        # Exit 1 means "still fails"; a stale entry must not look like one.
        corpus = CorpusDB(tmp_path / "corpus")
        entry = _entry(FaultSchedule(seed=3), oracle="no-longer-here")
        corpus.add(entry)
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--corpus", str(corpus.root), "--replay", entry.key])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'no-longer-here'" in err and "rank-completion" in err

    def test_list_renders_inventory(self, tmp_path, capsys):
        corpus = CorpusDB(tmp_path / "corpus")
        corpus.add(_entry(FaultSchedule(seed=3)))
        rc = main(["fuzz", "--corpus", str(tmp_path / "corpus"), "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mismatch" in out and "1 corpus entry" in out

    def test_list_tags_entries_of_oracles_gone_from_the_catalog(
        self, tmp_path, capsys
    ):
        # `engine` was an oracle once; its entries can only replay as a
        # usage error, so they are stale rather than open anomalies.
        corpus = CorpusDB(tmp_path / "corpus")
        gone = _entry(FaultSchedule(seed=3), oracle="engine")
        live = _entry(FaultSchedule(seed=4), oracle="safe-cut")
        corpus.add(gone)
        corpus.add(live)
        assert main(["fuzz", "--corpus", str(corpus.root), "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (gone_line,) = [l for l in lines if l.startswith(gone.key)]
        (live_line,) = [l for l in lines if l.startswith(live.key)]
        assert "stale" in gone_line.split()
        assert "stale" not in live_line.split()
        assert lines[-1] == (
            f"2 corpus entries in {corpus.root} (1 open, 1 stale)"
        )

    def test_missing_budget_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fuzz", "--corpus", str(tmp_path / "c")])

    def test_entries_are_valid_json_with_schema(self, tmp_path, stub_oracles):
        seed = next(s for s in range(100) if FaultSchedule.draw(s).crash_fracs)
        corpus_dir = tmp_path / "corpus"
        main([
            "fuzz", "--iters", "1", "--base-seed", str(seed),
            "--oracle", "fails-on-crash", "--corpus", str(corpus_dir),
            "--quiet",
        ])
        (path,) = (corpus_dir / "entries").glob("*.json")
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert data["key"] == path.stem
        assert decode(FaultSchedule, data["schedule"]).crash_fracs
