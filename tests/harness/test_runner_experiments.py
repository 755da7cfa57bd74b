"""Tests for the runner, experiment drivers, and CLI."""

import os
import re

import pytest

from repro.apps import make_app_factory
from repro.apps.base import MpiApp
from repro.harness import PLANNERS, run_plans
from repro.harness.runner import RunResult, launch_run


class TestRunner:
    def test_run_result_fields(self):
        r = launch_run(make_app_factory("comd", niters=4), 4, seed=0)
        assert isinstance(r, RunResult)
        assert r.nprocs == 4
        assert r.runtime > 0
        assert r.coll_calls > 0 and r.p2p_calls > 0
        assert r.sim_events > 0
        assert len(r.per_rank) == 4

    def test_rates(self):
        r = launch_run(make_app_factory("comd", niters=8), 4, seed=0)
        assert r.coll_rate == pytest.approx(r.coll_calls / 4 / r.runtime)
        assert r.p2p_rate == pytest.approx(r.p2p_calls / 4 / r.runtime)

    def test_topology_mismatch_rejected(self):
        from repro.netmodel import make_topology

        with pytest.raises(ValueError):
            launch_run(
                make_app_factory("comd", niters=1), 4, topo=make_topology(8)
            )

    def test_committed_images_without_checkpoint_raises(self):
        r = launch_run(make_app_factory("comd", niters=2), 2, seed=0)
        with pytest.raises(ValueError):
            r.committed_images()

    def test_deterministic_runs(self):
        a = launch_run(make_app_factory("comd", niters=6), 4, seed=5)
        b = launch_run(make_app_factory("comd", niters=6), 4, seed=5)
        assert a.runtime == b.runtime
        assert a.sim_events == b.sim_events

    def test_seed_changes_timing(self):
        a = launch_run(make_app_factory("comd", niters=6), 4, seed=5)
        b = launch_run(make_app_factory("comd", niters=6), 4, seed=6)
        assert a.runtime != b.runtime


class _AffinityProbe(MpiApp):
    """Reports the CPU mask its rank's carrier thread runs under."""

    name = "affinity-probe"

    def __init__(self, fail=False):
        super().__init__(niters=1)
        self.fail = fail

    def step(self, ctx, i):
        ctx.world.barrier()
        if self.fail:
            raise RuntimeError("boom")

    def finalize(self, ctx):
        return sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity API and two allowed CPUs",
)
class TestCpuConfinement:
    """One carrier runs at a time, so a simulation is confined to the
    CPU its launcher is on — and the launcher's mask comes back."""

    def test_every_rank_runs_on_one_cpu_and_the_mask_is_restored(self):
        before = os.sched_getaffinity(0)
        run = launch_run(_AffinityProbe, 4, seed=0)
        assert os.sched_getaffinity(0) == before
        assert len(run.per_rank[0]) == 1
        assert run.per_rank == [run.per_rank[0]] * 4
        assert set(run.per_rank[0]) <= before

    def test_mask_is_restored_when_the_run_raises(self):
        from repro.des import ProcessFailed

        before = os.sched_getaffinity(0)
        with pytest.raises(ProcessFailed):
            launch_run(lambda: _AffinityProbe(fail=True), 2, seed=0)
        assert os.sched_getaffinity(0) == before

    def test_refusal_by_the_os_is_not_an_error(self, monkeypatch):
        def refuse(pid, mask):
            raise PermissionError("no")

        before = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        run = launch_run(_AffinityProbe, 2, seed=0)
        assert run.per_rank == [sorted(before)] * 2


def _figure(name, **kwargs):
    return run_plans([PLANNERS[name](**kwargs)])[0]


class TestExperiments:
    def test_registry_covers_every_table_and_figure(self):
        assert set(PLANNERS) == {
            "table1", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9"
        }

    def test_table1_shape(self):
        res = _figure("table1", nprocs=8)
        assert len(res.rows) == 6
        apps = [row[0] for row in res.rows]
        assert apps[0].startswith("osu")
        rendered = res.render()
        assert "coll calls/s" in rendered
        # Poisson's p2p column is NA, as in the paper.
        poisson_row = next(r for r in res.rows if r[0] == "poisson")
        assert poisson_row[2] == "NA"

    def test_fig5b_reports_na_for_2pc(self):
        res = _figure("fig5b", procs=(4,), kinds=("allreduce",), sizes=(4,), iters=10)
        assert all(row[3] == "NA" for row in res.rows)
        assert "NA" in res.render()

    def test_render_series_table(self):
        res = _figure("fig9", nodes=(1, 2), ppn=2, niters=5)
        text = res.render()
        assert "nodes" in text
        assert "CC ckpt" in text


class TestCli:
    def test_cli_table1(self, capsys):
        from repro.cli import main

        assert main(["table1", "--nprocs", "8", "--no-cache", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "minivasp" in out
        # The engine-stats one-liner follows every experiment.
        assert "engine:" in out
        assert "jobs submitted" in out

    def test_cli_cache_and_jobs_flags(self, capsys, tmp_path):
        from repro.cli import main

        argv = ["table1", "--nprocs", "4", "--ppn", "4", "--quiet",
                "--cache-dir", str(tmp_path), "--jobs", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "6 cache hits" in warm
        assert "0 simulated" in warm
        # Rendered tables identical between cold parallel and warm runs.
        assert cold.split("[table1")[0] == warm.split("[table1")[0]

    def test_cli_repeats_flag(self, capsys):
        from repro.cli import main

        assert main(["fig8", "--procs", "4", "--ppn", "4", "--repeats", "1",
                     "--no-cache", "--quiet"]) == 0
        out = capsys.readouterr().out
        # 1 repeat x 3 protocols x 1 proc count = 3 jobs.
        assert "3 jobs submitted" in out

    def test_cli_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_help_names_every_command(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in [*PLANNERS, "all", "cache", "sweep", "verify", "fuzz"]:
            assert re.search(rf"^\s+{command}\s", out, re.MULTILINE), command
        for command in ["serve", "worker"]:
            assert not re.search(rf"^\s+{command}\s", out, re.MULTILINE), command

    def test_figure_help_shows_only_its_planners_flags(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["fig9", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--nodes" in out and "--procs" not in out
        # The description is the planner's docstring summary line.
        assert "Checkpoint and restart times, 2PC vs CC" in out

    def test_all_applies_each_flag_to_the_figures_that_take_it(self):
        from repro.cli import _parser, _planner_kwargs

        args = _parser().parse_args(
            ["all", "--procs", "4", "--nprocs", "4", "--repeats", "1"]
        )
        assert {
            name: _planner_kwargs(PLANNERS[name], args) for name in args.figures
        } == {
            "fig5a": {"procs": (4,), "repeats": 1, "seed": 0},
            "fig5b": {"procs": (4,), "seed": 0},
            "fig6": {"procs": (4,), "seed": 0},
            "fig7": {"nprocs": 4, "repeats": 1, "seed": 0},
            "fig8": {"procs": (4,), "repeats": 1, "seed": 0},
            "fig9": {"seed": 0},
            "table1": {"nprocs": 4, "seed": 0},
        }
