"""Tests for the declarative Sweep DSL (`repro.harness.sweep`)."""

import pytest

from repro.apps import resolve_app_name
from repro.harness import (
    MASKS,
    ExperimentEngine,
    ResultCache,
    Sweep,
    SweepError,
)
from repro.harness.spec import RunSpec, SpecError, spec_hash


def tiny_sweep(**overrides) -> Sweep:
    kwargs = dict(
        axes={
            "app": ("comd", "poisson"),
            "protocol": ("native", "2pc", "cc"),
            "nprocs": (2,),
        },
        base={"niters": 2, "seed": 0},
        mask=MASKS["2pc-nonblocking"],
    )
    kwargs.update(overrides)
    return Sweep("tiny", **kwargs)


class TestExpansion:
    def test_cartesian_order_is_declaration_order(self):
        sweep = Sweep(
            "order",
            axes={"a": (1, 2), "b": ("x", "y")},
            base={"app": "comd", "nprocs": 2, "niters": 2},
            meta=("a", "b"),
        )
        points = [[v for _, v in c.point] for c in sweep.cells()]
        assert points == [
            ["comd", 2, 2, 1, "x"],
            ["comd", 2, 2, 1, "y"],
            ["comd", 2, 2, 2, "x"],
            ["comd", 2, 2, 2, "y"],
        ]

    def test_expansion_is_hash_stable(self):
        """Two identical declarations expand to identical cells, spec
        hashes, and sweep signatures (no set/dict-order dependence)."""
        a, b = tiny_sweep(), tiny_sweep()
        assert [c.point for c in a.cells()] == [c.point for c in b.cells()]
        assert [spec_hash(s) for s in a.specs()] == [
            spec_hash(s) for s in b.specs()
        ]
        assert a.signature() == b.signature()

    def test_signature_tracks_every_knob(self):
        base = tiny_sweep().signature()
        assert tiny_sweep(base={"niters": 3, "seed": 0}).signature() != base
        assert tiny_sweep(mask=None).signature() != base

    def test_set_axis_rejected(self):
        with pytest.raises(SweepError, match="ordered sequence"):
            Sweep("bad", axes={"nprocs": {2, 4}})

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="no values"):
            Sweep("bad", axes={"nprocs": ()})

    def test_unknown_app_fails_whole_sweep(self):
        sweep = Sweep(
            "bad",
            axes={"app": ("comdd",)},
            base={"nprocs": 2, "niters": 2},
        )
        with pytest.raises(ValueError, match="unknown app"):
            sweep.cells()

    def test_app_aliases_resolve_to_canonical_specs(self):
        assert resolve_app_name("vasp") == "minivasp"
        assert resolve_app_name("LJ") == "lammps"
        # Identity is canonical at the spec layer: alias spellings hash,
        # dedupe, and cache as the same job.
        assert RunSpec.create(
            "vasp", 2, app_kwargs={"niters": 2}
        ) == RunSpec.create("minivasp", 2, app_kwargs={"niters": 2})
        alias = Sweep(
            "alias", axes={"app": ("vasp",)}, base={"nprocs": 2, "niters": 2}
        )
        canonical = Sweep(
            "alias", axes={"app": ("minivasp",)}, base={"nprocs": 2, "niters": 2}
        )
        assert [spec_hash(s) for s in alias.specs()] == [
            spec_hash(s) for s in canonical.specs()
        ]

    def test_dedup_preserves_first_occurrence_order(self):
        sweep = Sweep(
            "dup",
            axes={"n_ckpts": (1, 2), "protocol": ("native", "cc")},
            base={"app": "comd", "nprocs": 2, "niters": 2, "seed": 0},
            derive={
                "checkpoint_fractions": lambda p: ()
                if p["protocol"] == "native"
                else (0.5,),
            },
            meta=("n_ckpts",),
        )
        # 4 cells but native and cc specs are identical across n_ckpts.
        assert len(sweep.cells()) == 4
        assert len(sweep.specs()) == 2

    def test_derive_collision_with_axis_rejected(self):
        with pytest.raises(SweepError, match="collides"):
            Sweep(
                "bad",
                axes={"nprocs": (2,)},
                derive={"nprocs": lambda p: 4},
            )

    def test_meta_must_name_something(self):
        with pytest.raises(SweepError, match="meta key"):
            tiny_sweep(meta=("nope",))


class TestMasking:
    def test_mask_produces_na_cells_not_crashes(self):
        sweep = tiny_sweep()
        na = [c for c in sweep.cells() if c.spec is None]
        assert len(na) == 1
        cell = na[0]
        assert cell.values["app"] == "poisson"
        assert cell.values["protocol"] == "2pc"
        assert "non-blocking" in cell.na_reason

    def test_spec_error_becomes_na_cell(self):
        """native x checkpoint_fractions is illegal spec-wise; the sweep
        annotates instead of raising."""
        sweep = Sweep(
            "illegal",
            axes={"protocol": ("native", "cc")},
            base={
                "app": "comd",
                "nprocs": 2,
                "niters": 2,
                "checkpoint_fractions": (0.5,),
            },
        )
        cells = sweep.cells()
        assert cells[0].spec is None
        assert "native" in cells[0].na_reason
        assert cells[1].spec is not None

    def test_memory_limit_mask(self):
        reason = MASKS["paper-memory-limit"](
            {"kind": "alltoall", "nbytes": 1 << 20, "nprocs": 32}
        )
        assert reason and "memory" in reason
        assert (
            MASKS["paper-memory-limit"](
                {"kind": "bcast", "nbytes": 1 << 20, "nprocs": 32}
            )
            is None
        )


class TestFromPoint:
    def test_extra_keys_become_app_kwargs(self):
        spec = RunSpec.from_point(
            {"app": "osu", "nprocs": 4, "protocol": "cc", "niters": 5,
             "kind": "bcast", "nbytes": 1024}
        )
        kwargs = dict(spec.app_kwargs)
        assert kwargs == {"niters": 5, "kind": "bcast", "nbytes": 1024}

    def test_scalar_schedule_promoted(self):
        spec = RunSpec.from_point(
            {"app": "comd", "nprocs": 2, "protocol": "cc", "niters": 2,
             "checkpoint_fractions": 0.5}
        )
        assert spec.checkpoint_fractions == (0.5,)

    def test_restart_builds_chain(self):
        spec = RunSpec.from_point(
            {"app": "comd", "nprocs": 2, "protocol": "cc", "niters": 2,
             "checkpoint_fractions": (0.5,), "restart": True}
        )
        assert spec.restart_of is not None
        assert spec.checkpoint_fractions == ()
        assert spec.restart_of.checkpoint_fractions == (0.5,)

    def test_restart_without_schedule_rejected(self):
        with pytest.raises(SpecError, match="restart=True"):
            RunSpec.from_point(
                {"app": "comd", "nprocs": 2, "protocol": "cc", "restart": True}
            )

    def test_missing_app_axis_reported(self):
        with pytest.raises(SpecError, match="missing the 'app' axis"):
            RunSpec.from_point({"nprocs": 2})


class TestExecutionAndFold:
    def test_run_sweep_is_one_deduplicated_batch(self):
        engine = ExperimentEngine()
        sweep = tiny_sweep()
        results = engine.run_sweep(sweep)
        stats = engine.last_stats
        assert stats.submitted == len(sweep.specs()) == 5
        assert stats.executed == 5
        assert set(results) == set(sweep.specs())

    def test_warm_rerun_executes_zero_simulations(self, tmp_path):
        sweep = tiny_sweep()
        cold = ExperimentEngine(cache=ResultCache(tmp_path))
        cold.run_sweep(sweep)
        assert cold.last_stats.executed == len(sweep.specs())
        warm = ExperimentEngine(cache=ResultCache(tmp_path))
        warm_results = warm.run_sweep(tiny_sweep())
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cache_hits == len(sweep.specs())
        # And the fold still renders from cached results.
        table = sweep.fold(warm_results)
        assert len(table.rows) == len(sweep.cells())

    def test_flat_fold_rows_and_na_notes(self):
        engine = ExperimentEngine()
        sweep = tiny_sweep()
        result = sweep.fold(engine.run_sweep(sweep))
        assert result.headers[:5] == ["niters", "seed", "app", "protocol", "nprocs"]
        assert len(result.rows) == 6
        na_rows = [r for r in result.rows if "NA" in r]
        assert len(na_rows) == 1
        assert "NA[" in result.notes and "non-blocking" in result.notes

    def test_pivot_fold_overheads_and_series(self):
        engine = ExperimentEngine()
        sweep = tiny_sweep()
        result = sweep.fold(
            engine.run_sweep(sweep),
            pivot="protocol",
            baseline="native",
            x_axis="nprocs",
        )
        assert result.headers[:2] == ["app", "nprocs"]
        assert "2pc %" in result.headers and "cc %" in result.headers
        assert len(result.rows) == 2  # comd, poisson
        labels = {s.name for s in result.series}
        assert "comd/2pc %" in labels and "poisson/cc %" in labels
        assert "poisson/2pc %" not in labels  # NA cell produces no series

    def test_pivot_validation(self):
        sweep = tiny_sweep()
        with pytest.raises(SweepError, match="not a sweep axis"):
            sweep.fold({}, pivot="niters")
        with pytest.raises(SweepError, match="baseline"):
            sweep.fold({}, pivot="protocol", baseline="mpi")
        with pytest.raises(SweepError, match="x_axis"):
            sweep.fold({}, pivot="protocol", x_axis="protocol")

    def test_unknown_metric_rejected(self):
        with pytest.raises(SweepError, match="unknown metric"):
            tiny_sweep().fold({}, metrics=("walltime",))

    def test_fold_requires_matching_results(self):
        engine = ExperimentEngine()
        small = Sweep(
            "small", axes={"protocol": ("native",)},
            base={"app": "comd", "nprocs": 2, "niters": 2},
        )
        results = engine.run_sweep(small)
        with pytest.raises(SweepError, match="missing sweep cell"):
            tiny_sweep().fold(results)

    def test_sweep_plan_batches_with_figures(self):
        """Sweep.plan rides run_plans like any figure plan."""
        from repro.harness import run_plans

        engine = ExperimentEngine()
        plan = tiny_sweep().plan()
        (result,) = run_plans([plan], engine)
        assert result.name == "tiny"
        assert engine.last_stats.submitted == 5

    def test_scenario_study_shapes(self):
        """The ≤20-line scale-grid study: one deduplicated batch, native
        baseline shared, NA where the paper says NA."""
        from repro.harness import STUDIES

        engine = ExperimentEngine()
        plan = STUDIES["scale_grid"](apps=("comd", "poisson"), procs=(2,))
        (result,) = run_plans_single(plan, engine)
        rows = {tuple(r[:2]): r for r in result.rows}
        assert ("poisson", 2) in rows
        assert rows[("poisson", 2)][result.headers.index("2pc runtime (s)")] == "NA"
        assert engine.last_stats.executed == len(plan.specs)


def run_plans_single(plan, engine):
    from repro.harness import run_plans

    return run_plans([plan], engine)
