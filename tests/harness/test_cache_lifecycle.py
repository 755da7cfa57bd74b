"""ResultCache lifecycle invariants under arbitrary operation orders.

A hypothesis *stateful* test drives one cache through interleaved
``put`` / ``get`` / ``prune`` / ``clear`` / reload operations and
asserts, after every step:

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

    # -- operations ----------------------------------------------------- #

    @rule(i=_INDEX, elapsed=st.floats(0.001, 5.0))
    def put(self, i, elapsed):
        spec, result = self.pool[i]
        self.cache.put(spec, result, elapsed=elapsed)
        self.live.add(i)

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

    @rule()
    def clear(self):
        self.cache.clear()
        self.live.clear()

    @rule(keep=st.integers(0, 3))
    def prune_to_max_entries(self, keep):
        before = len(self.live)
        removed = self.cache.prune_to_max_entries(keep)
        assert removed == max(0, before - keep)
        if removed:
            # Oldest-first eviction: the model only tracks membership, so
            # resync from disk (hash -> index is bijective).
            remaining = {p.stem for p in self.cache._entry_files()}
            self.live = {i for i in self.live if self.hashes[i] in remaining}

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


def test_prune_evicts_entry_a_concurrent_writer_put_back(tmp_path):
    """Cache A prunes a spec, writer B (another engine sharing the
    directory) stores it again, and A's next prune must still evict it
    and its image set from disk: a cache acts on the directory, never on
    a view of it loaded earlier."""
    spec, result = _pool()[0]
    a = ResultCache(tmp_path)
    a.put(spec, result, elapsed=1.0)
    assert a.prune([spec]) == 1

    b = ResultCache(tmp_path)
    b.put(spec, result, elapsed=2.5)
    assert a.recorded_time(spec) == 2.5
    assert a.has_images(spec, 0)

    assert a.prune([spec]) == 1
    fresh = ResultCache(tmp_path)
    assert fresh.recorded_time(spec) is None
    assert not fresh.has_images(spec, 0)
    assert fresh.image_count() == 0


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
