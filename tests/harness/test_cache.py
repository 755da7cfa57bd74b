"""Tests for the on-disk result cache."""

import json
import os
import pickle
import pickletools

import pytest

from repro.harness import ExperimentEngine
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.experiments import plan_fig6
from repro.harness.spec import (
    SCHEMA_VERSION,
    RunSpec,
    execute,
    job_from_dict,
    job_to_dict,
    run_result_from_dict,
    run_result_to_dict,
    spec_hash,
    spec_to_dict,
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
    # Sharded layout: v<SCHEMA>/<first-two-hex-of-hash>/<hash>.pkl
    assert path.parent.name == path.stem[:2]
    assert path.parent.parent.name == f"v{SCHEMA_VERSION}"
    assert path.stem == spec_hash(spec) and path.suffix == ".pkl"
    cached = cache.get(spec)
    assert cached is not None
    assert cached.runtime == result.runtime
    assert cached.per_rank == result.per_rank


def test_different_specs_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path)
    a, b = _spec(seed=0), _spec(seed=1)
    cache.put(a, execute(a))
    assert cache.get(b) is None


def _with_images(document, images):
    result = json.loads(json.dumps(document["result"]))
    result["checkpoints"][0]["images"] = images
    return {**document, "result": result}


def _half(document):
    data = pickle.dumps(document, protocol=5)
    return data[: len(data) // 2]


#: A pickle stream that, unpickled without restriction, calls
#: ``os.system("true")``: protocol 0's GLOBAL, a MARK'd tuple, REDUCE.
CALLS_OS_SYSTEM = b"cos\nsystem\n(S'true'\ntR."

#: Ways a ``{"spec": ..., "result": ...}`` document — a cache entry, or
#: one dep of a simulation job — goes wrong.  The first three are not
#: documents at all (bytes, written as they stand), which only a file
#: can be.
MALFORMED = [
    ("not-a-pickle", lambda doc: b"\x00{not a pickle"),
    ("truncated", _half),
    ("names-a-global", lambda doc: CALLS_OS_SYSTEM),
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
def test_malformed_entry_is_a_miss_and_is_overwritten(
    tmp_path, monkeypatch, mangle
):
    # A global the unpickler resolved would be called: it never is.
    calls = []
    monkeypatch.setattr(os, "system", calls.append)
    cache = ResultCache(tmp_path)
    spec = _spec(protocol="cc", checkpoint_fractions=(0.5,))
    result = execute(spec)
    path = cache.put(spec, result)
    bad = mangle(pickle.loads(path.read_bytes()))
    path.write_bytes(bad if isinstance(bad, bytes) else pickle.dumps(bad))
    assert cache.get(spec) is None
    assert calls == []
    cache.put(spec, result)
    assert cache.get(spec).runtime == result.runtime


#: Opcodes that import a name, call something or hand off to a hook:
#: a stored document of dicts, lists, strings and numbers has none.
CODE_OPCODES = {
    "GLOBAL", "STACK_GLOBAL", "REDUCE", "BUILD", "INST", "OBJ", "NEWOBJ",
    "NEWOBJ_EX", "EXT1", "EXT2", "EXT4", "PERSID", "BINPERSID",
}


def _chain_and_osu_cell():
    """Every leg of a small checkpoint -> restart chain of miniVASP
    under CC with real state (probe, checkpoint, restart), and one
    non-blocking OSU cell, each with its result."""
    common = dict(
        app_kwargs={"niters": 3, "bands": 4, "npw": 64},
        protocol="cc", ppn=4, seed=0,
    )
    ckpt = RunSpec.create("minivasp", 4, checkpoint_fractions=(0.75,), **common)
    restart = RunSpec.create("minivasp", 4, restart_of=ckpt, **common)
    [osu, *_] = plan_fig6(procs=(4,), kinds=("bcast",), sizes=(1024,),
                          iters=3).specs
    legs = {}
    legs[restart] = execute(restart, legs)
    legs[osu] = execute(osu)
    assert len(legs) == 4 and ckpt in legs
    return legs


def _committed_checkpoint():
    """One CC run of comd with a committed checkpoint, and its result."""
    spec = _spec(protocol="cc", checkpoint_fractions=(0.5,))
    return {spec: execute(spec)}


@pytest.mark.parametrize(
    "legs", [_committed_checkpoint, _chain_and_osu_cell],
    ids=["committed-checkpoint", "chain-and-osu-cell"],
)
def test_stored_entry_is_plain_data(tmp_path, legs):
    cache = ResultCache(tmp_path)
    with_images = 0
    for spec, result in legs().items():
        data = cache.put(spec, result, elapsed=0.5).read_bytes()
        ops = {op.name for op, _, _ in pickletools.genops(data)}
        assert not ops & CODE_OPCODES, spec.label()
        stored = pickle.loads(data)["result"]["checkpoints"]
        for record, document in zip(result.checkpoints, stored):
            if record.committed and record.images:
                with_images += 1
                assert sorted(document["images"]) == sorted(
                    str(r) for r in record.images
                )
    # Image metadata is in the documents the opcodes were checked over.
    assert with_images


def test_pickled_entry_decodes_like_its_json_round_trip(tmp_path):
    """The entry format is invisible to every caller: what ``get``
    returns is what the JSON form of the same document decodes to."""
    cache = ResultCache(tmp_path)
    for spec, result in _chain_and_osu_cell().items():
        cache.put(spec, result, elapsed=0.5)
        from_pickle = cache.get(spec)
        from_json = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert from_pickle == from_json
        assert run_result_to_dict(from_pickle) == run_result_to_dict(from_json)


def test_json_entry_of_an_older_tree_is_ignored(tmp_path):
    spec = _spec(seed=5)
    result = execute(spec)
    cache = ResultCache(tmp_path)
    key = spec_hash(spec)
    old = cache.version_dir / key[:2] / f"{key}.json"
    old.parent.mkdir(parents=True)
    text = json.dumps(
        {"spec": spec_to_dict(spec), "result": run_result_to_dict(result),
         "elapsed": 0.5},
        separators=(",", ":"),
    )
    old.write_text(text)
    assert cache.get(spec) is None and cache.recorded_time(spec) is None
    assert len(cache) == 0 and cache.total_bytes() == 0
    assert cache.prune_to_max_entries(0) == 0
    engine = ExperimentEngine(jobs=1, cache=cache)
    engine.run_batch([spec])
    assert engine.last_stats.executed == 1
    assert cache.path_for(spec).suffix == ".pkl"
    assert cache.get(spec).runtime == result.runtime
    assert len(cache) == 1
    assert cache.total_bytes() == cache.path_for(spec).stat().st_size
    assert cache.clear() == 1
    assert old.read_text() == text


@_malformed(MALFORMED[3:])
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


def test_entry_is_an_inspectable_document(tmp_path):
    """Cache entries carry the spec for debuggability."""
    cache = ResultCache(tmp_path)
    spec = _spec()
    path = cache.put(spec, execute(spec))
    with open(path, "rb") as fh:
        document = pickle.load(fh)
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


class TestRecordedTime:
    """A spec's wall time lives in its entry and leaves with it."""

    def test_prune_drops_recorded_time(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = _spec(seed=0), _spec(seed=1)
        cache.put(a, execute(a), elapsed=0.5)
        cache.put(b, execute(b), elapsed=0.7)
        assert cache.prune([a]) == 1
        assert cache.recorded_time(a) is None
        assert cache.recorded_time(b) == 0.7
        fresh = ResultCache(tmp_path)
        assert fresh.recorded_time(a) is None
        assert fresh.recorded_time(b) == 0.7

    def test_clear_drops_recorded_times(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute(spec), elapsed=0.5)
        assert cache.clear() == 1
        assert ResultCache(tmp_path).recorded_time(spec) is None
        # Re-putting records the new time, never an old one.
        cache.put(spec, execute(spec), elapsed=0.25)
        assert ResultCache(tmp_path).recorded_time(spec) == 0.25

    @pytest.mark.parametrize("elapsed", [None, 0.0])
    def test_entry_without_elapsed_has_no_recorded_time(self, tmp_path, elapsed):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute(spec), elapsed=elapsed)
        assert cache.get(spec) is not None
        assert cache.recorded_time(spec) is None


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
