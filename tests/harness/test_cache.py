"""Tests for the on-disk result cache."""

import json

import pytest

from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.spec import (
    SCHEMA_VERSION,
    RunSpec,
    execute,
    job_from_dict,
    job_to_dict,
    spec_hash,
)
from repro.util.codec import CodecError


def _spec(**overrides):
    base = dict(app="comd", nprocs=2, app_kwargs={"niters": 3}, seed=0)
    base.update(overrides)
    return RunSpec.create(base.pop("app"), base.pop("nprocs"), **base)


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    assert cache.get(spec) is None
    result = execute(spec)
    path = cache.put(spec, result)
    assert path.exists()
    # Sharded layout: v<SCHEMA>/<first-two-hex-of-hash>/<hash>.json
    assert path.parent.name == path.stem[:2]
    assert path.parent.parent.name == f"v{SCHEMA_VERSION}"
    assert path.stem == spec_hash(spec)
    cached = cache.get(spec)
    assert cached is not None
    assert cached.runtime == result.runtime
    assert cached.per_rank == result.per_rank
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_different_specs_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path)
    a, b = _spec(seed=0), _spec(seed=1)
    cache.put(a, execute(a))
    assert cache.get(b) is None


def _with_images(document, images):
    result = json.loads(json.dumps(document["result"]))
    result["checkpoints"][0]["images"] = images
    return {**document, "result": result}


#: Ways a ``{"spec": ..., "result": ...}`` document — a cache entry, or
#: one dep of a simulation job — goes wrong.  The first two are not JSON at
#: all (text, written as it stands), which only a file can be.
MALFORMED = [
    ("not-json", lambda doc: "{not json"),
    ("truncated", lambda doc: json.dumps(doc)[: len(json.dumps(doc)) // 2]),
    ("no-result", lambda doc: {"spec": doc["spec"]}),
    ("result-is-a-list", lambda doc: {**doc, "result": []}),
    ("result-is-a-number", lambda doc: {**doc, "result": 3}),
    ("images-is-a-list", lambda doc: _with_images(doc, [])),
    ("other-schema", lambda doc: {
        **doc, "result": {**doc["result"], "schema": SCHEMA_VERSION + 1},
    }),
]


def _malformed(rows):
    return pytest.mark.parametrize(
        "mangle", [m for _, m in rows], ids=[name for name, _ in rows]
    )


@_malformed(MALFORMED)
def test_malformed_entry_is_a_miss_and_is_overwritten(tmp_path, mangle):
    cache = ResultCache(tmp_path)
    spec = _spec(protocol="cc", checkpoint_fractions=(0.5,))
    result = execute(spec)
    path = cache.put(spec, result)
    bad = mangle(json.loads(path.read_text()))
    path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    assert cache.get(spec) is None
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    cache.put(spec, result)
    assert cache.get(spec).runtime == result.runtime


@_malformed(MALFORMED[2:])
def test_malformed_job_dep_is_a_codec_error(mangle):
    parent = _spec(protocol="cc", checkpoint_fractions=(0.5,))
    spec = _spec(protocol="cc", restart_of=parent)
    job = job_to_dict(spec, {parent: execute(parent)}, guard=7)
    assert job_from_dict(json.loads(json.dumps(job)))[0::2] == (spec, 7)
    with pytest.raises(CodecError):
        job_from_dict({**job, "deps": [mangle(job["deps"][0])]})


def test_job_dep_travels_without_image_payloads():
    parent = _spec(protocol="cc", checkpoint_fractions=(0.5,))
    spec = _spec(protocol="cc", restart_of=parent)
    result = execute(parent)
    job = json.loads(json.dumps(job_to_dict(spec, {parent: result}, guard=7)))
    [(dep, back)] = job_from_dict(job)[1].items()
    assert dep == parent and back.runtime == result.runtime
    [sent], [received] = result.checkpoints, back.checkpoints
    assert sorted(received.images) == sorted(sent.images)
    assert all(image.payload is not None for image in sent.images.values())
    assert all(image.payload is None for image in received.images.values())


def test_job_codec_ignores_a_sim_backend():
    spec = _spec()
    job = job_to_dict(spec, guard=10**8, sim_backend="threads")
    assert job == job_to_dict(spec, guard=10**8)
    assert job_from_dict(json.loads(json.dumps(job))) == (spec, {}, 10**8)


def test_job_from_dict_refuses_a_check_job():
    job = {**job_to_dict(_spec(), guard=7), "kind": "check"}
    with pytest.raises(CodecError, match="not a simulation job"):
        job_from_dict(job)


def test_entry_is_inspectable_json(tmp_path):
    """Cache entries carry the spec for debuggability."""
    cache = ResultCache(tmp_path)
    spec = _spec()
    path = cache.put(spec, execute(spec))
    document = json.loads(path.read_text())
    assert document["spec"]["app"] == "comd"
    assert document["result"]["nprocs"] == 2


def test_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    for seed in range(3):
        spec = _spec(seed=seed)
        cache.put(spec, execute(spec))
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0
    assert cache.get(_spec(seed=0)) is None


def test_default_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro-mpi"


class TestTimingEviction:
    """The timing sidecar is capped and tracks prune evictions
    (regression: it was merge-on-write only and grew without bound)."""

    def test_prune_drops_evicted_timings(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = _spec(seed=0), _spec(seed=1)
        cache.put(a, execute(a), elapsed=0.5)
        cache.put(b, execute(b), elapsed=0.7)
        assert cache.timing_count() == 2
        assert cache.prune([a]) == 1
        assert cache.recorded_time(a) is None
        assert cache.recorded_time(b) == 0.7
        fresh = ResultCache(tmp_path)
        assert fresh.timing_count() == 1
        assert fresh.recorded_time(b) == 0.7

    def test_clear_still_keeps_timings(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute(spec), elapsed=0.5)
        cache.clear()
        assert ResultCache(tmp_path).recorded_time(spec) == 0.5

    def test_sidecar_capped_oldest_first(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache_mod

        monkeypatch.setattr(cache_mod, "TIMINGS_MAX_ENTRIES", 5)
        cache = ResultCache(tmp_path)
        specs = [_spec(seed=i) for i in range(8)]
        for i, spec in enumerate(specs):
            cache.record_time(spec, 0.1 + i)
        assert cache.timing_count() == 5
        # The most recent records survive; the earliest were evicted.
        assert cache.recorded_time(specs[0]) is None
        assert cache.recorded_time(specs[-1]) == 0.1 + 7

    def test_merge_does_not_resurrect_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = _spec(seed=0), _spec(seed=1)
        cache.record_time(a, 0.5)
        cache.drop_timings([spec_hash(a)])
        cache.record_time(b, 0.7)  # merge-on-write happens here
        fresh = ResultCache(tmp_path)
        assert fresh.recorded_time(a) is None
        assert fresh.recorded_time(b) == 0.7


class TestAgeAndSizePrune:
    def _populate(self, tmp_path, n=4):
        import os
        import time as _time

        cache = ResultCache(tmp_path)
        result = execute(_spec())
        paths = []
        for i in range(n):
            spec = _spec(seed=100 + i)
            path = cache.put(spec, result, elapsed=0.5)
            # Deterministic, well-separated mtimes: oldest first.
            stamp = _time.time() - (n - i) * 1000
            os.utime(path, (stamp, stamp))
            paths.append((spec, path))
        return cache, paths

    def test_prune_older_than(self, tmp_path):
        cache, paths = self._populate(tmp_path)
        # Entries are 4000/3000/2000/1000 seconds old: evict > 2500s.
        removed = cache.prune_older_than(2500)
        assert removed == 2
        assert not paths[0][1].exists() and not paths[1][1].exists()
        assert paths[2][1].exists() and paths[3][1].exists()
        assert cache.recorded_time(paths[0][0]) is None
        assert cache.recorded_time(paths[3][0]) == 0.5

    def test_prune_to_max_entries_keeps_newest(self, tmp_path):
        cache, paths = self._populate(tmp_path)
        assert cache.prune_to_max_entries(1) == 3
        assert len(cache) == 1
        assert paths[-1][1].exists()
        assert cache.recorded_time(paths[-1][0]) == 0.5

    def test_prune_to_max_entries_noop_when_under(self, tmp_path):
        cache, _paths = self._populate(tmp_path, n=2)
        assert cache.prune_to_max_entries(10) == 0
        assert len(cache) == 2

    def test_empty_cache_prunes_cleanly(self, tmp_path):
        cache = ResultCache(tmp_path / "nope")
        assert cache.prune_older_than(10) == 0
        assert cache.prune_to_max_entries(0) == 0


def test_get_and_put_hash_the_spec_once(tmp_path, monkeypatch):
    """``spec_hash`` canonicalises the whole restart chain and dominates
    a warm read; each cache operation must pay for it exactly once."""
    import repro.harness.cache as cache_mod

    calls = []

    def counting(spec):
        calls.append(spec)
        return spec_hash(spec)

    monkeypatch.setattr(cache_mod, "spec_hash", counting)
    cache = ResultCache(tmp_path)
    spec = _spec()
    result = execute(spec)
    cache.put(spec, result, elapsed=0.25)
    assert len(calls) == 1
    del calls[:]
    assert cache.get(spec) is not None
    assert len(calls) == 1
