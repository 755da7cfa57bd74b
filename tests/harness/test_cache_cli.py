"""The ``repro-mpi cache`` subcommand: stats, clear, prune."""

import pytest

from repro.cli import main
from repro.harness import ExperimentEngine, ResultCache
from repro.harness.experiments import plan_fig6
from repro.harness.spec import RunSpec, execute


def _populate_fig6_defaults(cache_dir):
    """Simulate (tiny subset of) fig6's default plan into the cache."""
    plan = plan_fig6()
    cache = ResultCache(cache_dir)
    # Executing the full default plan is slow; seed the cache by storing
    # a real result under several default-plan spec hashes instead.
    small = plan.specs[0]
    engine = ExperimentEngine(jobs=1, cache=cache)
    result = engine.run(small)
    for spec in plan.specs[1:6]:
        cache.put(spec, result, elapsed=0.5)
    return cache, 6


def test_cache_stats_reports_entries_and_image_tier(tmp_path, capsys):
    cache, n = _populate_fig6_defaults(tmp_path)
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"entries:        {n}" in out
    assert "image sets:     0" in out
    assert str(tmp_path) in out


def test_cache_clear_removes_entries_and_image_sets(tmp_path, capsys):
    cache, n = _populate_fig6_defaults(tmp_path)
    ckpt = RunSpec.create("comd", 2, app_kwargs={"niters": 3}, protocol="cc",
                          checkpoint_fractions=(0.5,))
    cache.put(ckpt, execute(ckpt), elapsed=0.5)
    assert cache.image_count() == 1
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"removed {n + 1} cache entries" in out
    fresh = ResultCache(tmp_path)
    assert len(fresh) == 0 and fresh.image_count() == 0
    assert fresh.recorded_time(ckpt) is None


def test_cache_prune_figure_removes_only_that_figure(tmp_path, capsys):
    cache, n = _populate_fig6_defaults(tmp_path)
    # An unrelated (non-default-plan) entry must survive the prune.
    other = RunSpec.create("poisson", 2, app_kwargs={"niters": 2}, seed=99)
    result = ExperimentEngine(jobs=1).run(other)
    cache.put(other, result)
    assert main(["cache", "prune", "--figure", "fig6",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"pruned {n}/" in out
    fresh = ResultCache(tmp_path)
    assert len(fresh) == 1  # only the unrelated entry remains
    assert fresh.get(other) is not None


def test_cache_prune_requires_known_figure(tmp_path):
    with pytest.raises(SystemExit):
        main(["cache", "prune", "--figure", "nope", "--cache-dir", str(tmp_path)])


@pytest.mark.parametrize("action", [
    ["stats"], ["clear"], ["prune", "--max-entries", "1"],
])
def test_cache_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys, action):
    path = tmp_path / "not-a-dir"
    path.write_text("keep me")
    with pytest.raises(SystemExit) as exc:
        main(["cache", *action, "--cache-dir", str(path)])
    assert exc.value.code == 2
    assert f"cannot use cache directory {path}" in capsys.readouterr().err
    assert path.read_text() == "keep me"


def test_missing_cache_dir_is_an_empty_cache(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
    assert "entries:        0" in capsys.readouterr().out
    assert not missing.exists()


def test_cache_requires_action(tmp_path):
    with pytest.raises(SystemExit):
        main(["cache"])


class TestPruneByAgeAndCount:
    def _aged_cache(self, tmp_path, n=3):
        import os
        import time as _time

        from repro.harness.spec import RunSpec

        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(jobs=1, cache=cache)
        base = RunSpec.create("poisson", 2, app_kwargs={"niters": 2}, seed=50)
        result = engine.run(base)
        paths = []
        for i in range(n):
            spec = RunSpec.create("poisson", 2, app_kwargs={"niters": 2}, seed=60 + i)
            path = cache.put(spec, result, elapsed=0.5)
            stamp = _time.time() - (n - i) * 1000
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return paths

    def test_prune_older_than_cli(self, tmp_path, capsys):
        self._aged_cache(tmp_path)
        assert main(["cache", "prune", "--older-than", "2500s",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 entry older than 2500s" in out

    def test_prune_max_entries_cli(self, tmp_path, capsys):
        self._aged_cache(tmp_path)
        assert main(["cache", "prune", "--max-entries", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "beyond the newest 2" in out
        assert len(ResultCache(tmp_path)) == 2

    def test_prune_requires_some_selector(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])

    def test_bad_duration_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--older-than", "soon",
                  "--cache-dir", str(tmp_path)])
