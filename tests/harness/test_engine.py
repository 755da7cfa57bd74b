"""Tests for the batch experiment engine: dedupe, waves, caching,
parallel equality, and the plan/fold experiment drivers."""

import pytest

from repro.des import SchedulingError
from repro.harness import (
    ExperimentEngine,
    ResultCache,
    RunSpec,
    run_plans,
)
from repro.harness.experiments import (
    plan_fig5b,
    plan_fig7,
    plan_fig8,
    plan_fig9,
    plan_table1,
)


def _spec(**overrides):
    base = dict(app="comd", nprocs=2, app_kwargs={"niters": 3}, seed=0)
    base.update(overrides)
    return RunSpec.create(base.pop("app"), base.pop("nprocs"), **base)


class TestEngineCore:
    def test_dedupes_identical_specs(self):
        engine = ExperimentEngine()
        results = engine.run_batch([_spec(), _spec(), _spec(seed=1)])
        stats = engine.last_stats
        assert stats.submitted == 3
        assert stats.unique == 2
        assert stats.deduped == 1
        assert stats.executed == 2
        assert set(results) == {_spec(), _spec(seed=1)}

    def test_chain_adds_dependency_jobs_once(self):
        ckpt = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        restart = _spec(protocol="cc", restart_of=ckpt)
        engine = ExperimentEngine()
        results = engine.run_batch([ckpt, restart])
        stats = engine.last_stats
        # probe is the only extra job; ckpt itself was submitted.
        assert stats.chained == 1
        assert stats.executed == 3
        assert results[restart].restart_ready_time > 0
        committed = [r for r in results[ckpt].checkpoints if r.committed]
        assert committed

    def test_na_is_captured_not_raised(self):
        spec = RunSpec.create(
            "poisson", 2, app_kwargs={"niters": 3}, protocol="2pc"
        )
        result = ExperimentEngine().run(spec)
        assert not result.ok
        assert "non-blocking" in result.na_reason

    def test_max_events_guard_trips(self):
        with pytest.raises(SchedulingError, match="max_events=10"):
            ExperimentEngine().run(_spec(max_events=10))

    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = ExperimentEngine(cache=cache)
        first = cold.run(_spec())
        assert cold.last_stats.executed == 1
        warm = ExperimentEngine(cache=cache)
        second = warm.run(_spec())
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cache_hits == 1
        assert second.runtime == first.runtime


class TestParallel:
    def test_parallel_equals_serial(self):
        specs = [
            _spec(app_kwargs={"niters": n}, seed=s, protocol=proto)
            for n in (3, 4)
            for s in (0, 1)
            for proto in ("native", "cc")
        ]
        serial = ExperimentEngine(jobs=1).run_batch(specs)
        parallel = ExperimentEngine(jobs=2).run_batch(specs)
        assert set(serial) == set(parallel)
        for spec in serial:
            assert serial[spec].runtime == parallel[spec].runtime
            assert serial[spec].sim_events == parallel[spec].sim_events
            assert serial[spec].per_rank == parallel[spec].per_rank


class TestPlans:
    def test_cross_figure_dedupe(self):
        """Batching figures launches fewer unique jobs than cells: the
        miniVASP cells shared by Table 1, Figure 7, and Figure 8 (same
        app config, layout, protocol, and seed) simulate once."""
        plans = [
            plan_table1(nprocs=8, ppn=8),
            plan_fig7(nprocs=8, ppn=8, repeats=1),
            plan_fig8(procs=(8,), ppn=8, repeats=1),
        ]
        engine = ExperimentEngine()
        results = run_plans(plans, engine)
        stats = engine.last_stats
        assert stats.unique < stats.submitted
        assert stats.deduped >= 4  # vasp x3 protocols + poisson native
        assert [r.name for r in results] == ["table1", "fig7", "fig8"]

    def test_batched_equals_individual(self):
        """Folding from a shared batch gives the same tables as running
        each figure alone."""
        make = lambda: [
            plan_fig7(nprocs=4, ppn=4, repeats=1),
            plan_fig8(procs=(4,), ppn=4, repeats=1, niters=6),
        ]
        combined = run_plans(make(), ExperimentEngine())
        alone = [run_plans([p], ExperimentEngine())[0] for p in make()]
        assert [r.render() for r in combined] == [r.render() for r in alone]

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        plans = lambda: [plan_fig9(nodes=(1,), ppn=2, niters=5)]
        cold = ExperimentEngine(cache=cache)
        first = run_plans(plans(), cold)[0]
        assert cold.last_stats.executed > 0
        warm = ExperimentEngine(cache=cache)
        second = run_plans(plans(), warm)[0]
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cache_hits > 0
        assert second.render() == first.render()

    def test_fig5b_records_na_reason_in_notes(self):
        result = run_plans(
            [plan_fig5b(procs=(4,), kinds=("allreduce",), sizes=(4,), iters=8)],
            ExperimentEngine(),
        )[0]
        assert result.rows[0][3] == "NA"
        assert "NA[iallreduce/4B/4/2pc]" in result.notes
        assert "non-blocking" in result.notes

    def test_fig7_records_na_reason_in_notes(self):
        result = run_plans(
            [plan_fig7(nprocs=4, ppn=4, repeats=1)], ExperimentEngine()
        )[0]
        assert "NA[poisson/2pc]" in result.notes
