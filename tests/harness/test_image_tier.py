"""The result cache's image tier and the warm-restart fast path.

Three layers under test:

* the archive format — ``pack_image_set``/``unpack_image_set``
  round-trip arbitrary upper-half state and refuse anything corrupt
  (property test);
* the :class:`ResultCache` tier — image sets written on ``put``, served
  to restarts, and evicted together with their entries;
* the engine short-circuit — a warm restart-chain batch simulates zero
  parent jobs and produces results byte-identical to a cold recompute.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import ExperimentEngine, FaultSchedule, ResultCache, Sweep
from repro.harness.runner import restart_run
from repro.harness.spec import (
    ImageTier,
    RunSpec,
    execute,
    run_result_to_dict,
    spec_hash,
)
from repro.mana.image import (
    CheckpointImage,
    ImageError,
    pack_image_set,
    unpack_image_set,
)
from repro.netmodel import StorageModel

#: Burst-buffer-ish storage so checkpoint phases stay fast at test scale.
STORAGE = StorageModel(
    per_node_bandwidth=8.0e9, aggregate_bandwidth=2.0e10, base_latency=1e-3
)


def _ckpt_spec(**overrides):
    base = dict(
        app="poisson",
        nprocs=2,
        app_kwargs={"niters": 4, "memory_bytes": 1 << 20},
        protocol="cc",
        seed=0,
        checkpoint_fractions=(0.5,),
        storage=STORAGE,
    )
    base.update(overrides)
    return RunSpec.create(base.pop("app"), base.pop("nprocs"), **base)


def _restart_spec(parent, **overrides):
    return RunSpec.create(
        parent.app,
        parent.nprocs,
        app_kwargs=dict(parent.app_kwargs),
        protocol=parent.protocol,
        seed=parent.seed,
        storage=parent.storage,
        restart_of=parent,
        **overrides,
    )


# --------------------------------------------------------------------- #
# Archive format round-trip (property test)
# --------------------------------------------------------------------- #

#: JSON-ish upper-half state: what application ``state`` dicts hold,
#: minus numpy arrays (added deterministically below — hypothesis and
#: array equality don't mix well inside recursive strategies).
_payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)


def _assert_images_equal(a: CheckpointImage, b: CheckpointImage) -> None:
    for name in (
        "rank",
        "nprocs",
        "protocol",
        "ckpt_id",
        "seq_table",
        "ggid_peers",
        "creation_log",
        "call_index",
        "boundary_index",
        "pending_recvs",
        "remaining_compute",
        "declared_bytes",
        "stats",
        "counts",
        "payload",
    ):
        assert getattr(a, name) == getattr(b, name), name
    heavy_a, heavy_b = a.load(), b.load()
    for name in ("call_log", "drained", "vreq_table", "final_result"):
        assert heavy_a[name] == heavy_b[name], name
    assert set(heavy_a["app_state"]) == set(heavy_b["app_state"])
    for key, value in heavy_a["app_state"].items():
        other = heavy_b["app_state"][key]
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other)
        else:
            assert value == other


@settings(max_examples=25, deadline=None)
@given(state=_payloads, ranks=st.integers(1, 4), data=st.data())
def test_pack_unpack_round_trip(state, ranks, data):
    images = {}
    for rank in range(ranks):
        images[rank] = CheckpointImage.seal(
            rank=rank,
            nprocs=ranks,
            protocol="cc",
            ckpt_id=data.draw(st.integers(0, 5)),
            app_state={
                "payload": state,
                "grid": np.arange(6, dtype=np.float64) * (rank + 1),
            },
            call_log=[("c", "op", rank)],
            drained=[state],
            vreq_table={},
            final_result=state,
            seq_table={7: rank},
            ggid_peers={7: list(range(ranks))},
            pending_recvs=[rank],
            remaining_compute=data.draw(
                st.floats(0, 1e3, allow_nan=False)
            ),
            declared_bytes=rank << 20,
            stats={"calls": rank},
        )
    restored = unpack_image_set(pack_image_set(images))
    assert set(restored) == set(images)
    for rank in images:
        _assert_images_equal(images[rank], restored[rank])
        # What the cut froze is what comes back, not merely the same bytes.
        assert restored[rank].load()["app_state"]["payload"] == state
        assert restored[rank].counts["app_state"] == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw[:10],  # truncated header
        lambda raw: b"NOTMAGIC" + raw[8:],  # wrong magic
        lambda raw: raw[:-5],  # truncated payload
        lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]),  # flipped bit
        lambda raw: raw[:8] + b"\x63\0\0\0" + raw[12:],  # unknown version
        lambda raw: b"",  # empty file
    ],
)
def test_unpack_rejects_corruption(mutate):
    images = {0: CheckpointImage(rank=0, nprocs=1, protocol="cc", ckpt_id=0)}
    raw = pack_image_set(images)
    with pytest.raises(ImageError):
        unpack_image_set(mutate(raw))


# --------------------------------------------------------------------- #
# ResultCache tier behavior
# --------------------------------------------------------------------- #

def test_put_stores_image_blobs(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _ckpt_spec()
    result = execute(spec)
    assert [r for r in result.checkpoints if r.committed]
    cache.put(spec, result)
    assert cache.image_count() == 1
    assert cache.has_images(spec, 0)
    assert not cache.has_images(spec, 1)
    assert cache.image_bytes() > 0
    restored = cache.get_images(spec, 0)
    assert restored is not None
    assert set(restored) == set(result.checkpoints[-1].images)


def test_uncheckpointed_put_stores_nothing(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec.create("comd", 2, app_kwargs={"niters": 3})
    cache.put(spec, execute(spec))
    assert cache.image_count() == 0


def test_corrupt_or_legacy_blob_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _ckpt_spec()
    cache.put(spec, execute(spec))
    path = cache.image_path_for(spec, 0)
    path.write_bytes(b"LEGACY-FORMAT-NOT-AN-ARCHIVE")
    assert cache.get_images(spec, 0) is None
    # has_images may still say True (existence probe); execution falls
    # back to re-simulating the parent, so the restart still works —
    # and the failed load is NOT reported as tier reuse.
    restart = _restart_spec(spec, checkpoint_fractions=())
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    warm = engine.run(restart)
    assert warm.ok
    assert engine.last_stats.images_reused == 0


def test_prune_and_clear_evict_blobs(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _ckpt_spec()
    cache.put(spec, execute(spec))
    assert cache.image_count() == 1
    assert cache.prune([spec]) == 1
    assert cache.image_count() == 0

    cache.put(spec, execute(spec))
    cache.clear()
    assert cache.image_count() == 0


def test_prune_to_max_entries_takes_blobs_along(tmp_path):
    cache = ResultCache(tmp_path)
    old, new = _ckpt_spec(seed=0), _ckpt_spec(seed=1)
    import os
    import time as _time

    cache.put(old, execute(old))
    stamp = _time.time() - 3600
    os.utime(cache.path_for(old), (stamp, stamp))
    os.utime(cache.image_path_for(old, 0), (stamp, stamp))
    cache.put(new, execute(new))
    assert cache.prune_to_max_entries(1) == 1
    assert not cache.path_for(old).exists()
    assert not cache.has_images(old, 0)
    assert cache.has_images(new, 0)


def test_prune_older_than_ages_blobs_on_their_own_clock(tmp_path):
    import os
    import time as _time

    cache = ResultCache(tmp_path)
    spec = _ckpt_spec()
    cache.put(spec, execute(spec))
    stamp = _time.time() - 7200
    os.utime(cache.image_path_for(spec, 0), (stamp, stamp))
    # The entry is fresh; only the image set is stale.
    assert cache.prune_older_than(3600) == 0
    assert cache.path_for(spec).exists()
    assert cache.image_count() == 0


def test_prune_images_to_max_bytes_evicts_oldest_first(tmp_path):
    import os
    import time as _time

    cache = ResultCache(tmp_path)
    old, new = _ckpt_spec(seed=0), _ckpt_spec(seed=1)
    cache.put(old, execute(old))
    stamp = _time.time() - 3600
    os.utime(cache.image_path_for(old, 0), (stamp, stamp))
    cache.put(new, execute(new))
    total = cache.image_bytes()
    new_size = cache.image_path_for(new, 0).stat().st_size
    assert cache.prune_images_to_max_bytes(total - 1) == 1
    assert not cache.has_images(old, 0)
    assert cache.has_images(new, 0)
    assert cache.prune_images_to_max_bytes(new_size) == 0
    assert cache.prune_images_to_max_bytes(0) == 1
    with pytest.raises(ValueError):
        cache.prune_images_to_max_bytes(-1)


# --------------------------------------------------------------------- #
# One file per committed (spec, index); the pointer/blob layout is a miss
# --------------------------------------------------------------------- #

def test_tier_holds_one_file_per_committed_checkpoint(tmp_path):
    """After a cold probe -> checkpoint -> restart chain the tier holds
    exactly the committed (spec, index) pairs, as sharded ``.img`` files
    and nothing else."""
    parent = _ckpt_spec(checkpoint_fractions=(0.3, 0.7))
    restart = _restart_spec(parent, checkpoint_fractions=())
    cache = ResultCache(tmp_path)
    results = ExperimentEngine(cache=cache).run_batch([parent, restart])
    committed = [r for r in results[parent].checkpoints if r.committed]
    assert committed
    expected = {cache.image_path_for(parent, k) for k in range(len(committed))}
    on_disk = {p for p in cache.images_dir.rglob("*") if p.is_file()}
    assert on_disk == expected
    assert cache.image_count() == len(expected)
    assert not (cache.images_dir / "blobs").exists()


def test_stale_pointer_layout_is_a_miss_that_resimulates(tmp_path):
    """A cache written before the tier stored archives directly holds a
    65-byte digest pointer at the ``.img`` path and the archive under
    ``blobs/``.  That reads as a miss: the restart re-simulates its
    parent inside its own job and equals the cold result; the pointer
    leaves with its entry like any image file.  ``blobs/`` is never read
    or touched."""
    parent = _ckpt_spec()
    restart = _restart_spec(parent, checkpoint_fractions=())
    cold = execute(restart)

    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(parent)
    image = cache.image_path_for(parent, 0)
    archive = image.read_bytes()
    digest = archive[20:52].hex()  # the header's SHA-256 field
    old_blob = cache.images_dir / "blobs" / digest[:2] / f"{digest}.blob"
    old_blob.parent.mkdir(parents=True)
    old_blob.write_bytes(archive)
    image.write_bytes(digest.encode() + b"\n")
    assert len(image.read_bytes()) == 65

    fresh = ResultCache(tmp_path)
    assert fresh.has_images(parent, 0)  # existence probe only
    assert fresh.get_images(parent, 0) is None
    engine = ExperimentEngine(cache=fresh)
    warm = engine.run(restart)
    assert engine.last_stats.images_reused == 0
    assert run_result_to_dict(warm) == run_result_to_dict(cold)

    assert fresh.prune([parent]) == 1
    assert not image.exists()
    fresh.clear()
    assert old_blob.read_bytes() == archive


# --------------------------------------------------------------------- #
# Warm-restart fast path: differential and engine-level tests
# --------------------------------------------------------------------- #

def _restart_pair(seed):
    """A checkpointed parent and its restart: the hand-built minivasp
    cell (``seed=None``) or a :class:`FaultSchedule`-drawn earlyexit one."""
    if seed is None:
        parent = _ckpt_spec(app="minivasp", nprocs=4, ppn=2)
        return parent, _restart_spec(parent, ppn=2, checkpoint_fractions=())
    schedule = FaultSchedule.draw(seed)
    parent = schedule.checkpoint_spec()
    return parent, schedule.restart_spec(parent, schedule.restart_ckpt)


#: Drawn seeds: 1 adopts a request that lands after the first rank exit
#: (its image set holds terminal snapshots of finished ranks), 25 is
#: 2PC, and 29 runs under the degraded-link scenario.
@pytest.mark.parametrize(
    "seed", [None, 1, 25, 29],
    ids=["minivasp", "drawn-1", "drawn-25", "drawn-29"],
)
def test_warm_restart_is_byte_identical_to_cold(tmp_path, seed):
    """A restart fed from the image tier must equal a cold recompute."""
    parent, restart = _restart_pair(seed)

    # Cold: no cache anywhere; the parent is simulated inline.
    cold = execute(restart)

    # Warm: parent's result and images cached, restart executed fresh
    # by a separate engine (fresh cache object, no in-memory deps).
    parent_res = ExperimentEngine(cache=ResultCache(tmp_path)).run(parent)
    if seed == 1:
        adopted = [r for r in parent_res.checkpoints if r.committed]
        images = adopted[restart.restart_ckpt].images.values()
        assert any(image.finished for image in images)
    warm_engine = ExperimentEngine(cache=ResultCache(tmp_path))
    warm = warm_engine.run(restart)
    assert warm_engine.last_stats.executed == 1
    assert warm_engine.last_stats.images_reused == 1

    as_bytes = lambda r: json.dumps(run_result_to_dict(r), sort_keys=True)
    assert as_bytes(cold) == as_bytes(warm)


def test_warm_restart_chain_sweep_simulates_zero_parents(tmp_path):
    sweep = Sweep(
        "warm_restart",
        axes={"protocol": ("2pc", "cc"), "restart": (False, True)},
        base={
            # comd blocks on every collective, so BOTH protocols commit
            # a checkpoint (poisson would make the 2pc column NA).
            "app": "comd",
            "nprocs": 2,
            "niters": 4,
            "memory_bytes": 1 << 20,
            "seed": 0,
            "checkpoint_fractions": 0.5,
            "storage": STORAGE,
        },
    )
    restarts = [s for s in sweep.specs() if s.restart_of is not None]
    assert len(restarts) == 2

    cold_engine = ExperimentEngine(cache=ResultCache(tmp_path))
    cold = cold_engine.run_sweep(sweep)
    # ckpt cells + probes + restarts all simulate once, nothing reused.
    assert cold_engine.last_stats.images_reused == 0

    # A fully warm rerun executes nothing at all.
    rerun_engine = ExperimentEngine(cache=ResultCache(tmp_path))
    rerun_engine.run_sweep(sweep)
    assert rerun_engine.last_stats.executed == 0

    # Evict only the restart cells: the warm engine re-executes exactly
    # those, as wave-0 work, with ZERO parent simulations.
    assert ResultCache(tmp_path).prune(restarts) == len(restarts)
    warm_engine = ExperimentEngine(cache=ResultCache(tmp_path))
    warm = warm_engine.run_sweep(sweep)
    stats = warm_engine.last_stats
    assert stats.executed == len(restarts)
    assert stats.images_reused == len(restarts)
    assert f"{len(restarts)} restarts fed from image tier" in stats.summary()

    for spec in restarts:
        assert run_result_to_dict(warm[spec]) == run_result_to_dict(cold[spec])


def test_short_circuit_skips_missing_parent_entirely(tmp_path):
    """Even the parent's *result* is unnecessary: images alone feed the
    restart, so a parent whose JSON entry was evicted (but whose image
    set survived) is neither simulated nor required."""
    parent = _ckpt_spec()
    restart = _restart_spec(parent, checkpoint_fractions=())
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(parent)
    # Drop the parent's JSON entry but keep its image set.
    cache.path_for(parent).unlink()
    assert cache.has_images(parent, 0)

    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    result = engine.run(restart)
    assert result.ok
    assert engine.last_stats.executed == 1  # the restart alone
    assert engine.last_stats.images_reused == 1


def test_parallel_warm_restart_matches_serial(tmp_path):
    parent_a = _ckpt_spec(seed=0)
    parent_b = _ckpt_spec(seed=1)
    restarts = [
        _restart_spec(parent_a, checkpoint_fractions=()),
        _restart_spec(parent_b, checkpoint_fractions=()),
    ]
    ExperimentEngine(cache=ResultCache(tmp_path)).run_batch(
        [parent_a, parent_b]
    )
    ResultCache(tmp_path)  # warm tier on disk

    serial_engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
    serial = serial_engine.run_batch(restarts)
    ResultCache(tmp_path).prune(restarts)
    parallel_engine = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path))
    parallel = parallel_engine.run_batch(restarts)
    assert parallel_engine.last_stats.images_reused == 2
    for spec in restarts:
        assert run_result_to_dict(serial[spec]) == run_result_to_dict(
            parallel[spec]
        )


def test_restart_ckpt_out_of_range_still_raises(tmp_path):
    """A tier miss (index beyond what the parent committed) falls back
    to the strict re-simulation path and its error message."""
    from repro.harness.spec import SpecError

    parent = _ckpt_spec()
    bad = _restart_spec(parent, checkpoint_fractions=(), restart_ckpt=7)
    cache = ResultCache(tmp_path)
    ExperimentEngine(cache=cache).run(parent)
    with pytest.raises(SpecError, match="out of range"):
        ExperimentEngine(cache=ResultCache(tmp_path)).run(bad)


def test_no_cache_engine_unchanged(tmp_path):
    """Without a cache there is no tier: the chain still executes."""
    parent = _ckpt_spec()
    restart = _restart_spec(parent, checkpoint_fractions=())
    engine = ExperimentEngine()
    result = engine.run(restart)
    assert result.ok
    assert engine.last_stats.images_reused == 0
    assert spec_hash(restart)  # smoke: hashing restart chains still works


def test_pre_sharding_files_are_a_clean_miss(tmp_path):
    """The sharded layout is the only one.  Whatever an older version
    left directly under the version directories — a flat entry, a flat
    image file — or next to them — a timing sidecar — is not an error,
    not served, not counted, and never rewritten."""
    cache = ResultCache(tmp_path)
    spec = _ckpt_spec()
    result = execute(spec)
    cache.put(spec, result, elapsed=0.5)
    key = spec_hash(spec)

    # Demote every file to where (and how) older versions stored it.
    entry = cache.path_for(spec)
    image = cache.image_path_for(spec, 0)
    flat_entry = cache.version_dir / entry.name
    flat_image = cache.images_dir / image.name
    flat_entry.write_bytes(entry.read_bytes())
    flat_image.write_bytes(image.read_bytes())
    entry.unlink()
    image.unlink()
    sidecar = tmp_path / "v2-timings.json"
    sidecar.write_text(json.dumps({key: [1.5, 0.0]}))
    left_behind = {
        path: path.read_bytes() for path in (flat_entry, flat_image, sidecar)
    }

    fresh = ResultCache(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.get_images(spec, 0) is None
    assert fresh.recorded_time(spec) is None
    assert len(fresh) == 0 and fresh.total_bytes() == 0
    assert fresh.image_count() == 0 and fresh.image_bytes() == 0
    assert fresh.prune([spec]) == 0
    assert fresh.prune_to_max_entries(0) == 0
    assert fresh.prune_images_to_max_bytes(0) == 0
    assert fresh.clear() == 0
    for path, content in left_behind.items():
        assert path.read_bytes() == content

    # A fresh store lands in the shards and is served from there.
    fresh.put(spec, result, elapsed=0.25)
    assert fresh.get(spec) is not None
    assert fresh.recorded_time(spec) == 0.25
    assert fresh.get_images(spec, 0) is not None
    assert len(fresh) == 1 and fresh.image_count() == 1
    for path, content in left_behind.items():
        assert path.read_bytes() == content


# --------------------------------------------------------------------- #
# A tier-fed restart owns the set it was served
# --------------------------------------------------------------------- #

def test_tier_fed_restart_releases_the_set_it_was_served(tmp_path, monkeypatch):
    """The set the tier reads for a restart is that restart's own: every
    payload is gone once the run is over, and the result still equals a
    cold restart, whose parent result (borrowed from ``deps``) keeps its
    images."""
    parent = _ckpt_spec(app="minivasp", nprocs=4, ppn=2)
    restart = _restart_spec(parent, ppn=2, checkpoint_fractions=())
    deps = {}
    cold = execute(restart, deps)
    assert all(
        image.payload is not None
        for image in deps[parent].committed_images(restart.restart_ckpt).values()
    )

    ExperimentEngine(cache=ResultCache(tmp_path)).run(parent)
    served = []
    get_images = ResultCache.get_images

    def capture(self, spec, index):
        images = get_images(self, spec, index)
        served.append(images)
        return images

    monkeypatch.setattr(ResultCache, "get_images", capture)
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    warm = engine.run(restart)
    assert engine.last_stats.images_reused == 1
    [images] = served
    assert sorted(images) == list(range(parent.nprocs))
    assert all(image.payload is None for image in images.values())
    assert run_result_to_dict(warm) == run_result_to_dict(cold)


def _traced_peak(run):
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tier_fed_restart_does_not_hold_its_images_beside_the_state():
    """Both restarts unpickle the same archive while traced; the borrowed
    set lives through the whole run, the tier-fed one is released rank
    by rank, so its peak is lower by about the set's payload bytes."""
    parent = _ckpt_spec(
        app="minivasp", nprocs=4, ppn=2,
        app_kwargs={"niters": 4, "bands": 8, "npw": 2048},
    )
    restart = _restart_spec(parent, ppn=2, checkpoint_fractions=())
    blob = pack_image_set(execute(parent).committed_images(restart.restart_ckpt))
    payload_bytes = sum(
        len(image.payload) for image in unpack_image_set(blob).values()
    )
    assert payload_bytes > 1 << 21

    def borrowed():
        restart_run(
            restart.app_factory(), unpack_image_set(blob), ppn=restart.ppn,
            seed=restart.seed, storage=restart.storage, params=restart.params,
        )

    def tier_fed():
        tier = ImageTier(lambda spec, index: unpack_image_set(blob))
        execute(restart, images=tier)
        assert tier.served == 1

    borrowed(), tier_fed()  # warm every lazy import and memo first
    saved = _traced_peak(borrowed) - _traced_peak(tier_fed)
    assert saved >= 0.8 * payload_bytes, (saved, payload_bytes)
