"""``repro-mpi verify`` CLI: verdict lines, exit codes, failing-seed
artifacts, bench records."""

import json

import pytest

from repro.cli import main
from repro.harness.verify import ORACLES, Oracle, OracleMismatch


class _AlwaysFails(Oracle):
    name = "always-fails"
    description = "test stub"
    cache_aware = False

    def verify(self, schedule, engine):
        raise OracleMismatch(f"injected mismatch for seed {schedule.seed}")


class _AlwaysPasses(Oracle):
    name = "always-passes"
    description = "test stub"
    cache_aware = False

    def verify(self, schedule, engine):
        return "stub ok"


@pytest.fixture
def stub_oracles(monkeypatch):
    monkeypatch.setitem(ORACLES, "always-fails", _AlwaysFails())
    monkeypatch.setitem(ORACLES, "always-passes", _AlwaysPasses())


def test_passing_run_exits_zero(stub_oracles, tmp_path, capsys):
    artifact = tmp_path / "failures.json"
    rc = main([
        "verify", "--oracle", "always-passes", "--seeds", "3",
        "--no-cache", "--artifact", str(artifact),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "oracle always-passes: 3/3 seeds ok" in out
    assert not artifact.exists()


def test_mismatch_exits_one_and_writes_derandomized_artifact(
    stub_oracles, tmp_path, capsys
):
    artifact = tmp_path / "failures.json"
    rc = main([
        "verify", "--oracle", "always-fails", "--seeds", "2",
        "--base-seed", "40", "--no-cache", "--quiet",
        "--artifact", str(artifact),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "oracle always-fails: 0/2 seeds ok" in out
    assert "injected mismatch for seed 40" in out
    payload = json.loads(artifact.read_text())
    assert [f["seed"] for f in payload["failures"]] == [40, 41]
    for failure in payload["failures"]:
        assert failure["repro"] == (
            "repro-mpi verify --oracle always-fails --seeds 1 "
            f"--base-seed {failure['seed']}"
        )


def test_mixed_oracles_report_separately(stub_oracles, tmp_path, capsys):
    rc = main([
        "verify", "--oracle", "always-passes", "--oracle", "always-fails",
        "--seeds", "1", "--no-cache", "--quiet",
        "--artifact", str(tmp_path / "f.json"),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "oracle always-passes: 1/1 seeds ok" in out
    assert "oracle always-fails: 0/1 seeds ok" in out


def test_bench_json_records_verdicts(stub_oracles, tmp_path):
    bench = tmp_path / "bench.json"
    rc = main([
        "verify", "--oracle", "always-passes", "--seeds", "2",
        "--no-cache", "--quiet", "--bench-json", str(bench),
        "--artifact", str(tmp_path / "f.json"),
    ])
    assert rc == 0
    records = json.loads(bench.read_text())
    assert records[-1]["figures"] == ["verify:always-passes"]
    assert records[-1]["checks"] == 2
    assert records[-1]["mismatches"] == 0
    assert records[-1]["seeds"] == [0, 2]


def test_unknown_oracle_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--oracle", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_harness_differential_oracle_is_a_usage_error(capsys):
    # Serial-vs-pool equivalence is pinned by the test suite
    # (test_dispatch.py), not checked by ``verify``.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--oracle", "engine"])
    assert exc.value.code == 2
    assert "invalid choice: 'engine'" in capsys.readouterr().err


def test_real_oracle_through_the_cli(tmp_path, capsys):
    rc = main([
        "verify", "--oracle", "rank-completion", "--seeds", "1",
        "--base-seed", "5", "--cache-dir", str(tmp_path), "--quiet",
        "--artifact", str(tmp_path / "f.json"),
    ])
    assert rc == 0
    assert "oracle rank-completion: 1/1 seeds ok" in capsys.readouterr().out


def test_jobs_flag_fans_out_with_identical_summary(tmp_path, capsys):
    # Real oracles only: spawned workers re-import the catalog, so
    # monkeypatched stubs don't exist over there.
    argv_tail = [
        "--oracle", "safe-cut", "--seeds", "2", "--no-cache", "--quiet",
        "--artifact", str(tmp_path / "f.json"),
    ]
    assert main(["verify", *argv_tail]) == 0
    serial_out = capsys.readouterr().out.splitlines()[0]
    assert main(["verify", "--jobs", "2", *argv_tail]) == 0
    parallel_out = capsys.readouterr().out.splitlines()[0]
    assert serial_out == parallel_out == "oracle safe-cut: 2/2 seeds ok"
