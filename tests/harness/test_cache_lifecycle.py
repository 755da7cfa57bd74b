"""ResultCache lifecycle invariants under arbitrary operation orders.

A hypothesis *stateful* test drives one cache through interleaved
``put`` / ``get`` / ``prune`` / ``clear`` / timing-merge / reload
operations and asserts, after every step:

* the timings sidecar never resurrects a pruned hash (``prune`` evicts
  the hash and the merge-on-write must not bring it back) until the
  spec is genuinely re-put;
* image sets never orphan: every file in the image tier belongs to a
  live entry (images leave with their entry on every eviction path);
* ``get`` returns exactly the entries the model says are live, and the
  store's entry count matches.

The simulated results are computed once per test session (simulation is
the slow part; the lifecycle under test is pure file bookkeeping).
"""

import json
from functools import lru_cache

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.harness import ResultCache
from repro.harness.spec import RunSpec, execute, run_result_to_dict, spec_hash
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-3)


@lru_cache(maxsize=1)
def _pool():
    """(spec, result) pairs: three image-bearing runs + one plain run.

    Re-putting a spec overwrites its image set in place.
    """
    specs = [
        RunSpec.create(
            "earlyexit",
            3,
            app_kwargs={"niters": 8, "shared": 3, "memory_bytes": 1 << 18},
            protocol="cc",
            seed=seed,
            checkpoint_fractions=(0.5,),
            storage=STORAGE,
        )
        for seed in (0, 1)
    ] + [
        RunSpec.create(
            "earlyexit",
            3,
            app_kwargs={"niters": 8, "shared": 3, "memory_bytes": 1 << 18},
            protocol="2pc",
            seed=0,
            checkpoint_fractions=(0.4,),
            storage=STORAGE,
        ),
        RunSpec.create("comd", 2, app_kwargs={"niters": 3}),
    ]
    return [(spec, execute(spec)) for spec in specs]


_INDEX = st.integers(0, 3)


class CacheLifecycle(RuleBasedStateMachine):
    @initialize(tmp=st.uuids())
    def setup(self, tmp):
        import tempfile

        self._dir = tempfile.mkdtemp(prefix=f"cache-life-{tmp.hex[:8]}-")
        self.cache = ResultCache(self._dir)
        self.pool = _pool()
        self.hashes = [spec_hash(spec) for spec, _ in self.pool]
        #: Model state.
        self.live: set[int] = set()
        self.pruned_timing_hashes: set[str] = set()

    # -- operations ----------------------------------------------------- #

    @rule(i=_INDEX, elapsed=st.floats(0.001, 5.0))
    def put(self, i, elapsed):
        spec, result = self.pool[i]
        self.cache.put(spec, result, elapsed=elapsed)
        self.live.add(i)
        self.pruned_timing_hashes.discard(self.hashes[i])

    @rule(i=_INDEX)
    def get(self, i):
        spec, result = self.pool[i]
        hit = self.cache.get(spec)
        if i in self.live:
            assert hit is not None
            assert run_result_to_dict(hit) == json.loads(
                json.dumps(run_result_to_dict(result))
            )
        else:
            assert hit is None

    @rule(i=_INDEX)
    def prune_one(self, i):
        spec, _ = self.pool[i]
        removed = self.cache.prune([spec])
        assert removed == (1 if i in self.live else 0)
        self.live.discard(i)
        self.pruned_timing_hashes.add(self.hashes[i])

    @rule()
    def clear(self):
        self.cache.clear()
        # clear() keeps timings by design — only prune evicts them.
        self.live.clear()

    @rule(i=_INDEX, seconds=st.floats(0.001, 2.0))
    def merge_foreign_timing(self, i, seconds):
        """A concurrent engine sharing the directory records a time;
        our cache's next write must merge it without resurrecting
        anything our cache pruned."""
        foreign = ResultCache(self._dir)
        spec, _ = self.pool[i]
        if self.hashes[i] not in self.pruned_timing_hashes:
            foreign.record_time(spec, seconds)

    @rule(keep=st.integers(0, 3))
    def prune_to_max_entries(self, keep):
        before = len(self.live)
        removed = self.cache.prune_to_max_entries(keep)
        assert removed == max(0, before - keep)
        if removed:
            # Oldest-first eviction: the model only tracks membership, so
            # resync from disk (hash -> index is bijective).
            remaining = {p.stem for p in self.cache._entry_files()}
            evicted = {
                i for i in self.live if self.hashes[i] not in remaining
            }
            for i in evicted:
                self.pruned_timing_hashes.add(self.hashes[i])
            self.live -= evicted

    @rule()
    def reload(self):
        """A fresh process opens the same directory: disk state alone
        must uphold every invariant."""
        self.cache = ResultCache(self._dir)

    # -- invariants ------------------------------------------------------ #

    @invariant()
    def entry_count_matches_model(self):
        assert len(self.cache) == len(self.live)

    @invariant()
    def pruned_hashes_never_resurrect_in_timings(self):
        on_disk = ResultCache(self._dir)._read_timings_file()
        ghosts = self.pruned_timing_hashes & set(on_disk)
        assert not ghosts, f"pruned hashes back in the sidecar: {ghosts}"

    @invariant()
    def image_sets_never_orphan(self):
        owners = {p.name.split(".")[0] for p in self.cache._image_files()}
        orphans = owners - {self.hashes[i] for i in self.live}
        assert not orphans, f"image sets on disk without an entry: {orphans}"

    @invariant()
    def live_entries_have_resolvable_images(self):
        for i in self.live:
            spec, result = self.pool[i]
            committed = [r for r in result.checkpoints if r.committed]
            for index in range(len(committed)):
                assert self.cache.has_images(spec, index)
                assert self.cache.get_images(spec, index) is not None


CacheLifecycle.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestCacheLifecycle = CacheLifecycle.TestCase


def test_prune_evicts_timing_recorded_by_concurrent_writer(tmp_path):
    """Deterministic form of the resurrection race the state machine
    found: cache A's timings view is loaded (and stale) when writer B
    records a time; A's prune must still evict it from *disk* — the
    stale in-memory pop finds nothing, so the rewrite has to happen on
    request, not on hit."""
    spec, result = _pool()[0]
    a = ResultCache(tmp_path)
    a.put(spec, result, elapsed=1.0)  # loads + writes A's timings view
    a.prune([spec])

    b = ResultCache(tmp_path)  # concurrent engine sharing the directory
    b.record_time(spec, 2.5)
    assert spec_hash(spec) in ResultCache(tmp_path)._read_timings_file()

    a.prune([spec])  # A's in-memory view no longer holds the hash
    on_disk = ResultCache(tmp_path)._read_timings_file()
    assert spec_hash(spec) not in on_disk


def test_reput_refreshes_image_age(tmp_path):
    """An image set an old put stored must not age-evict right after a
    fresh put of the same spec: the re-put rewrites the file, so its
    age restarts."""
    import os
    import time as _time

    cache = ResultCache(tmp_path)
    spec, result = _pool()[0]
    cache.put(spec, result)
    image = cache.image_path_for(spec, 0)
    stamp = _time.time() - 7200
    os.utime(image, (stamp, stamp))

    cache.put(spec, result)
    assert image.stat().st_mtime > stamp + 3600
    assert cache.prune_images_older_than(3600) == 0
    assert cache.get_images(spec, 0) is not None
