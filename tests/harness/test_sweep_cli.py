"""The ``repro-mpi sweep`` subcommand: axes, studies, cache, golden output."""

import json
import re

import pytest

from repro.cli import main

TINY = [
    "sweep",
    "--axis", "app=comd,poisson",
    "--axis", "protocol=native,2pc,cc",
    "--axis", "nprocs=2",
    "--base", "niters=2",
    "--pivot", "protocol",
    "--baseline", "native",
    "--quiet",
]


#: The paper's headline scenario as a sweep axis: checkpoint parents and
#: restart cells in one deduplicated batch.
RESTART_CHAIN = [
    "sweep",
    "--axis", "protocol=2pc,cc",
    "--axis", "restart=false,true",
    "--base", "app=comd", "--base", "nprocs=2", "--base", "niters=4",
    "--base", "checkpoint_fractions=0.5",
    "--quiet",
]

#: The scenario registry's cells are cache citizens like any other.
SCENARIO = [
    "sweep",
    "--axis", "scenario=none,fat-tree,dragonfly,straggler,jitter,degraded-link",
    "--axis", "protocol=2pc,cc",
    "--base", "app=earlyexit", "--base", "nprocs=4", "--base", "niters=12",
    "--jobs", "2",
    "--quiet",
]


def _run(argv, capsys):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestSweepCli:
    def test_golden_output(self, tmp_path, capsys):
        """Pin the rendered shape of a tiny sweep (simulations are
        deterministic, so the full table is reproducible)."""
        out = _run(TINY + ["--cache-dir", str(tmp_path)], capsys)
        lines = out.splitlines()
        assert lines[0] == "== Sweep: sweep (6 cells) =="
        header = lines[1]
        assert [c.strip() for c in header.split("|")] == [
            "app", "nprocs", "native runtime (s)", "2pc runtime (s)",
            "cc runtime (s)", "2pc %", "cc %",
        ]
        comd_row = [c.strip() for c in lines[3].split("|")]
        assert comd_row[0] == "comd" and comd_row[1] == "2"
        poisson_row = [c.strip() for c in lines[4].split("|")]
        assert poisson_row[0] == "poisson"
        assert poisson_row[3] == "NA" and poisson_row[5] == "NA"
        assert any(
            line.startswith("NA[poisson/2/2pc]: 2PC does not support")
            for line in lines
        )
        assert any(line.startswith("[sweep:sweep: engine: ") for line in lines)

    @pytest.mark.parametrize(
        "grid", [TINY, RESTART_CHAIN, SCENARIO],
        ids=["protocol-app", "restart-chain", "scenario"],
    )
    def test_output_is_deterministic_and_cache_warm(self, tmp_path, capsys, grid):
        cold = _run(grid + ["--cache-dir", str(tmp_path)], capsys)
        warm = _run(grid + ["--cache-dir", str(tmp_path)], capsys)
        # Identical tables; only the engine-stats/wall-time line differs.
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith("[sweep:")
        ]
        assert strip(cold) == strip(warm)
        # Every cell — restart parents and scenario cells included —
        # resolves from the cache: as many hits as the cold run simulated.
        simulated = int(re.search(r"(\d+) simulated", cold).group(1))
        assert simulated > 0
        assert f"{simulated} cache hits, 0 simulated" in warm

    def test_study_mode(self, tmp_path, capsys):
        out = _run(
            ["sweep", "--study", "ckpt_freq", "--nprocs", "2", "--quiet",
             "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert "Checkpoint frequency: minivasp" in out
        assert "[sweep:ckpt_freq:" in out

    def test_bench_json_record(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        _run(
            TINY + ["--cache-dir", str(tmp_path), "--bench-json", str(bench)],
            capsys,
        )
        records = json.loads(bench.read_text())
        assert records[0]["figures"] == ["sweep:sweep"]
        assert records[0]["engine"]["submitted"] == 5

    def test_axis_and_study_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--study", "scale_grid", "--axis", "nprocs=2"])

    def test_study_rejects_ignored_fold_flags(self):
        """Flags a study cannot honor error out instead of silently
        producing a differently-shaped table."""
        with pytest.raises(SystemExit):
            main(["sweep", "--study", "ckpt_freq", "--metric", "ckpt_time"])
        with pytest.raises(SystemExit):
            main(["sweep", "--study", "ckpt_freq", "--name", "mystudy"])

    def test_requires_axes_or_study(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--quiet"])

    def test_bad_axis_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "nprocs"])

    def test_duplicate_axis_key_rejected(self):
        """A repeated key must not silently collapse to the last value."""
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "nprocs=2", "--axis", "nprocs=4,8",
                  "--base", "app=comd", "--quiet", "--no-cache"])

    def test_procs_flags_rejected_in_axis_mode(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "protocol=native", "--base", "app=comd",
                  "--base", "nprocs=2", "--procs", "8,16", "--quiet",
                  "--no-cache"])

    def test_study_rejects_other_studys_scale_knob(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--study", "ckpt_freq", "--procs", "8,16"])
        with pytest.raises(SystemExit):
            main(["sweep", "--study", "scale_grid", "--nprocs", "8"])

    def test_bad_fold_flags_fail_before_simulating(self, capsys):
        """A typo'd pivot/metric must error up front, not after the grid
        has simulated (validated at plan-bind time)."""
        for flags in (["--pivot", "bogus"], ["--metric", "walltime"],
                      ["--pivot", "protocol", "--baseline", "mpi"],
                      ["--baseline", "native"]):
            with pytest.raises(SystemExit):
                main(["sweep", "--axis", "protocol=native,cc",
                      "--base", "app=comd", "--base", "nprocs=2",
                      "--base", "niters=2", "--quiet", "--no-cache"] + flags)

    def test_sweep_declaration_errors_are_cli_errors(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "app=comdd", "--base", "nprocs=2",
                  "--quiet", "--no-cache"])

    def test_malformed_crash_fracs_fold_to_an_na_cell(self, capsys):
        out = _run(
            ["sweep", "--axis", "protocol=cc", "--base", "app=comd",
             "--base", "nprocs=2", "--base", "niters=3",
             "--base", "crash_fracs=0.5", "--quiet", "--no-cache"],
            capsys,
        )
        assert ("NA[comd/2/3/0.5/0/cc]: crash_fracs must be (rank, frac) "
                "pairs, got 0.5") in out.splitlines()

    def test_value_coercion(self, capsys):
        """bools/ints/floats in axis values reach the spec typed."""
        out = _run(
            ["sweep", "--axis", "blocking=true,false",
             "--base", "app=osu", "--base", "nprocs=2", "--base", "niters=2",
             "--base", "kind=bcast", "--base", "protocol=cc",
             "--quiet", "--no-cache"],
            capsys,
        )
        lines = out.splitlines()
        assert any("True" in l for l in lines) and any("False" in l for l in lines)
