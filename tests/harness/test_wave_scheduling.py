"""Wave scheduling: ``cost_hint`` orders every wave longest pole first,
and a run's wall time is recorded in its cache entry alone."""

import json
import pickle

import pytest

from repro.des.errors import DeadlockError, SchedulingError
from repro.harness import ExperimentEngine, ResultCache
from repro.harness.spec import RunSpec, run_result_to_dict, spec_hash


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
    ckpt = RunSpec.create(
        "osu", 2, app_kwargs=dict(_spec().app_kwargs), protocol="cc",
        checkpoint_fractions=(0.5,),
    )
    engine = ExperimentEngine(jobs=1, cache=cache)
    engine.run_batch([spec, ckpt])
    assert cache.image_count() == 1
    recorded = cache.recorded_time(spec)
    assert recorded is not None and recorded > 0
    # The entry is the one record of the time.
    assert recorded == pickle.loads(cache.path_for(spec).read_bytes())["elapsed"]
    assert cache.prune([spec]) == 1
    assert cache.recorded_time(spec) is None
    assert cache.recorded_time(ckpt) is not None
    assert cache.clear() == 2
    assert cache.recorded_time(ckpt) is None
    # Nothing is kept next to the entries and the image tier.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v2", "v2-images"]


def test_fresh_cache_reads_elapsed_from_entry_document(tmp_path):
    spec = _spec(seed=3)
    ExperimentEngine(jobs=1, cache=ResultCache(tmp_path)).run_batch([spec])
    # A new cache object holds no state of its own: no ``get`` first.
    fresh = ResultCache(tmp_path)
    entry = pickle.loads(fresh.path_for(spec).read_bytes())
    assert fresh.recorded_time(spec) == entry["elapsed"] > 0


def test_timings_file_is_not_counted_as_a_cache_entry(tmp_path):
    spec = _spec(seed=4)
    # A sidecar an earlier version left behind, claiming a bogus time.
    stale = tmp_path / "v2-timings.json"
    text = json.dumps({spec_hash(spec): [1000.0, 1.0]})
    stale.write_text(text)
    cache = ResultCache(tmp_path)
    ExperimentEngine(jobs=1, cache=cache).run_batch([spec])
    assert len(cache) == 1
    assert cache.recorded_time(spec) < 1000.0
    assert cache.clear() == 1
    assert cache.recorded_time(spec) is None
    assert stale.read_text() == text


def test_entries_are_kept_when_a_wave_raises(tmp_path, monkeypatch):
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
    fresh = ResultCache(tmp_path)
    assert fresh.get(good) is not None
    assert fresh.recorded_time(good) is not None
    assert fresh.recorded_time(bad) is None
    assert len(fresh) == 1


@pytest.mark.parametrize("error", [DeadlockError, SchedulingError])
def test_wedged_job_reraises_its_type_with_its_name(monkeypatch, error):
    from repro.harness import engine as engine_mod

    def wedge(spec, *args, **kwargs):
        raise error("simulation wedged")

    monkeypatch.setattr(engine_mod, "execute", wedge)
    spec = _spec(seed=8)
    with pytest.raises(error) as exc:
        ExperimentEngine(jobs=1).run_batch([spec])
    assert str(exc.value) == (
        f"{spec.label()} [{spec_hash(spec)}]: simulation wedged"
    )
    assert type(exc.value.__cause__) is error


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
    ExperimentEngine(jobs=1).run_batch([small, large, medium])
    assert executed == [large, medium, small]


def test_parallel_results_unaffected_by_wave_order(tmp_path, monkeypatch):
    from repro.harness import engine as engine_mod

    specs = [_spec(nprocs=2, niters=3, seed=s) for s in (0, 1, 2, 3)]
    serial = ExperimentEngine(jobs=1).run_batch(specs)
    # Equal costs submitted in reverse: the stable sort keeps that
    # order, so the pool receives the wave scrambled.
    dispatched = []
    real_fan_out = engine_mod.fan_out

    def spy(payloads, **kw):
        dispatched.extend(payload["spec"] for payload in payloads)
        return real_fan_out(payloads, **kw)

    monkeypatch.setattr(engine_mod, "fan_out", spy)
    scrambled = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path)).run_batch(
        specs[::-1]
    )
    assert dispatched == specs[::-1]
    for spec in specs:
        assert run_result_to_dict(serial[spec]) == run_result_to_dict(
            scrambled[spec]
        )
