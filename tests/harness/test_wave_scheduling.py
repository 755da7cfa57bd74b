"""Cost-model wave scheduling: recorded times, heuristic fallback,
longest-pole-first ordering, and the prediction hit-rate stat."""

import json

import pytest

from repro.harness import ExperimentEngine, ResultCache
from repro.harness.engine import HEURISTIC_SECONDS_PER_UNIT, EngineStats
from repro.harness.spec import RunSpec, spec_hash


def _spec(nprocs=2, niters=4, seed=0, protocol="native"):
    return RunSpec.create(
        "osu",
        nprocs,
        app_kwargs={"niters": niters, "kind": "bcast", "nbytes": 8,
                    "blocking": True},
        protocol=protocol,
        seed=seed,
    )


# --------------------------------------------------------------------- #
# cost_hint
# --------------------------------------------------------------------- #

def test_cost_hint_scales_with_nprocs_and_niters():
    assert _spec(nprocs=4, niters=10).cost_hint() == 40.0
    assert _spec(nprocs=2, niters=10).cost_hint() < _spec(4, 10).cost_hint()
    assert _spec(nprocs=4, niters=5).cost_hint() < _spec(4, 10).cost_hint()


def test_cost_hint_surcharges_checkpoints_and_restarts():
    base = RunSpec.create("poisson", 4, protocol="cc", seed=1)
    ckpt = RunSpec.create(
        "poisson", 4, protocol="cc", seed=1, checkpoint_fractions=(0.5,)
    )
    assert ckpt.cost_hint() > base.cost_hint()
    parent = RunSpec.create(
        "poisson", 4, protocol="cc", seed=1, checkpoint_at=(0.5,)
    )
    restart = RunSpec.create(
        "poisson", 4, protocol="cc", seed=1, restart_of=parent
    )
    assert restart.cost_hint() > 0


# --------------------------------------------------------------------- #
# Recorded times in the cache
# --------------------------------------------------------------------- #

def test_execution_records_wall_time_in_cache(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    engine = ExperimentEngine(jobs=1, cache=cache)
    engine.run_batch([spec])
    recorded = cache.recorded_time(spec)
    assert recorded is not None and recorded > 0
    # Sidecar survives a cache clear.
    assert cache.clear() == 1
    fresh = ResultCache(tmp_path)
    assert fresh.recorded_time(spec) == pytest.approx(recorded)


def test_warm_get_harvests_elapsed_from_entry_document(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec(seed=3)
    ExperimentEngine(jobs=1, cache=cache).run_batch([spec])
    # Drop the sidecar; the entry document still carries "elapsed".
    cache.timings_path.unlink()
    fresh = ResultCache(tmp_path)
    assert fresh.recorded_time(spec) is None
    assert fresh.get(spec) is not None
    assert fresh.recorded_time(spec) is not None


def test_timings_file_is_not_counted_as_a_cache_entry(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec(seed=4)
    ExperimentEngine(jobs=1, cache=cache).run_batch([spec])
    assert len(cache) == 1
    assert cache.timings_path.exists()
    data = json.loads(cache.timings_path.read_text())
    assert list(data) == [spec_hash(spec)]


# --------------------------------------------------------------------- #
# One sidecar merge-write per wave
# --------------------------------------------------------------------- #

@pytest.fixture
def sidecar_writes(monkeypatch):
    """Every ``atomic_write`` of a timing sidecar, as it happens."""
    from repro.harness import cache as cache_mod

    writes = []
    real = cache_mod.atomic_write

    def spy(path, data):
        if path.name.endswith("-timings.json"):
            writes.append(path)
        return real(path, data)

    monkeypatch.setattr(cache_mod, "atomic_write", spy)
    return writes


def test_a_wave_of_puts_writes_the_sidecar_once(tmp_path, sidecar_writes):
    cache = ResultCache(tmp_path)
    specs = [_spec(seed=s) for s in range(5)]
    ExperimentEngine(jobs=1, cache=cache).run_batch(specs)
    assert sidecar_writes == [cache.timings_path]
    fresh = ResultCache(tmp_path)
    assert all(fresh.recorded_time(spec) is not None for spec in specs)

    # A chain is one write per *executed* wave (probe, then the
    # checkpoint run); a warm rerun executes nothing and writes nothing.
    del sidecar_writes[:]
    ckpt = RunSpec.create(
        "osu", 2, app_kwargs=dict(_spec().app_kwargs), protocol="cc",
        checkpoint_fractions=(0.5,),
    )
    engine = ExperimentEngine(jobs=1, cache=cache)
    engine.run_batch([ckpt])
    assert engine.last_stats.executed == 2
    assert len(sidecar_writes) == 2
    engine.run_batch([ckpt] + specs)
    assert engine.last_stats.executed == 0
    assert len(sidecar_writes) == 2

    # Outside a wave a put still persists its own time immediately
    # (an oracle check in a pool worker puts through a cache object of
    # its own).
    ResultCache(tmp_path).put(_spec(seed=9), fresh.get(specs[0]), elapsed=0.5)
    assert len(sidecar_writes) == 3
    assert ResultCache(tmp_path).recorded_time(_spec(seed=9)) == 0.5


def test_concurrent_writer_between_waves_loses_nothing(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    engine = ExperimentEngine(jobs=1, cache=cache)
    foreign_keys = []
    real_wave = engine._execute_wave

    def wave_after_a_foreign_write(pending, resolved):
        # Another process records a time while this engine's in-memory
        # view (loaded during wave ordering) is already stale.
        key = f"{len(foreign_keys):064x}"
        ResultCache(tmp_path).record_time(key, 2.5 + len(foreign_keys))
        foreign_keys.append(key)
        return real_wave(pending, resolved)

    monkeypatch.setattr(engine, "_execute_wave", wave_after_a_foreign_write)
    ckpt = RunSpec.create(
        "osu", 2, app_kwargs=dict(_spec().app_kwargs), protocol="cc",
        checkpoint_fractions=(0.5,),
    )
    engine.run_batch([ckpt, _spec(seed=1)])
    assert len(foreign_keys) == 2
    on_disk = json.loads(cache.timings_path.read_text())
    assert [on_disk[key][0] for key in foreign_keys] == [2.5, 3.5]
    for spec in (ckpt, ckpt.probe_spec(), _spec(seed=1)):
        assert spec_hash(spec) in on_disk


def test_times_are_flushed_when_a_wave_raises(tmp_path, monkeypatch, sidecar_writes):
    from repro.harness import engine as engine_mod

    real = engine_mod._execute_job
    good, bad = _spec(nprocs=4, seed=1), _spec(nprocs=2, seed=2)

    def job(spec, *args):
        if spec == bad:
            raise RuntimeError("job blew up mid-wave")
        return real(spec, *args)

    monkeypatch.setattr(engine_mod, "_execute_job", job)
    engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
    with pytest.raises(RuntimeError, match="mid-wave"):
        engine.run_batch([bad, good])  # longest pole first: good runs first
    assert len(sidecar_writes) == 1
    fresh = ResultCache(tmp_path)
    assert fresh.recorded_time(good) is not None
    assert fresh.recorded_time(bad) is None


def test_evictions_stick_across_a_batched_wave(tmp_path):
    cache = ResultCache(tmp_path)
    engine = ExperimentEngine(jobs=1, cache=cache)
    kept, pruned, dropped = (_spec(seed=s) for s in (1, 2, 3))
    engine.run_batch([kept, pruned, dropped])
    assert cache.prune([pruned]) == 1
    assert cache.drop_timings([spec_hash(dropped)]) == 1
    # A later wave's single merge-write must not resurrect either.
    engine.run_batch([_spec(seed=4)])
    on_disk = json.loads(cache.timings_path.read_text())
    assert sorted(on_disk) == sorted(
        spec_hash(spec) for spec in (kept, _spec(seed=4))
    )
    fresh = ResultCache(tmp_path)
    assert fresh.recorded_time(pruned) is None
    assert fresh.recorded_time(dropped) is None


# --------------------------------------------------------------------- #
# Wave ordering
# --------------------------------------------------------------------- #

def test_wave_orders_longest_pole_first_by_heuristic(monkeypatch):
    executed = []
    from repro.harness import engine as engine_mod

    real = engine_mod._execute_job

    def spy(spec, deps, guard, *args):
        executed.append(spec)
        return real(spec, deps, guard, *args)

    monkeypatch.setattr(engine_mod, "_execute_job", spy)
    small = _spec(nprocs=2, niters=2, seed=5)
    large = _spec(nprocs=4, niters=6, seed=5)
    medium = _spec(nprocs=2, niters=6, seed=5)
    engine = ExperimentEngine(jobs=1)
    engine.run_batch([small, large, medium])
    assert executed == [large, medium, small]
    stats = engine.last_stats
    assert stats.predicted_heuristic == 3
    assert stats.predicted_recorded == 0
    assert stats.prediction_hit_rate == 0.0


def test_wave_prefers_recorded_times_over_heuristic(tmp_path, monkeypatch):
    executed = []
    from repro.harness import engine as engine_mod

    real = engine_mod._execute_job

    def spy(spec, deps, guard, *args):
        executed.append(spec)
        return real(spec, deps, guard, *args)

    monkeypatch.setattr(engine_mod, "_execute_job", spy)
    # Heuristic says `big` is the long pole; recorded history says the
    # opposite.  History must win.
    small = _spec(nprocs=2, niters=2, seed=6)
    big = _spec(nprocs=4, niters=8, seed=6)
    cache = ResultCache(tmp_path)
    cache.record_time(small, 30.0)
    cache.record_time(big, 0.001)
    engine = ExperimentEngine(jobs=1, cache=cache)
    engine.run_batch([small, big])
    assert executed == [small, big]
    stats = engine.last_stats
    assert stats.predicted_recorded == 2
    assert stats.prediction_hit_rate == 1.0
    assert "100% costs from history" in stats.summary()


def test_mixed_recorded_and_heuristic_costs_sort_together(tmp_path):
    # A recorded 1000s job must outrank any realistic heuristic value,
    # and a recorded 1µs job must sink below it.
    slow = _spec(nprocs=2, niters=2, seed=7)
    unknown = _spec(nprocs=4, niters=8, seed=7)
    cache = ResultCache(tmp_path)
    cache.record_time(slow, 1000.0)
    engine = ExperimentEngine(jobs=1, cache=cache)
    stats = EngineStats()
    cost_slow = engine._predicted_cost(slow, stats)
    cost_unknown = engine._predicted_cost(unknown, stats)
    assert cost_slow == 1000.0
    assert cost_unknown == pytest.approx(
        unknown.cost_hint() * HEURISTIC_SECONDS_PER_UNIT
    )
    assert cost_slow > cost_unknown


def test_parallel_results_unaffected_by_wave_order(tmp_path):
    specs = [_spec(nprocs=2, niters=3, seed=s) for s in (0, 1, 2, 3)]
    serial = ExperimentEngine(jobs=1).run_batch(specs)
    cache = ResultCache(tmp_path)
    # Seed adversarial recorded times to scramble the schedule.
    for i, spec in enumerate(specs):
        cache.record_time(spec, float(len(specs) - i))
    scrambled = ExperimentEngine(jobs=2, cache=cache).run_batch(specs)
    from repro.harness.spec import run_result_to_dict

    for spec in specs:
        assert run_result_to_dict(serial[spec]) == run_result_to_dict(
            scrambled[spec]
        )
