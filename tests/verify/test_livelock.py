"""A genuinely livelocked application through ``verify``, ``fuzz`` and
``sweep``.

No guard is patched: the app's ranks reduce forever, and the oracle
legs' own event bound (``LEG_MAX_EVENTS``) is what turns the runaway
into a typed ``deadlock`` verdict within seconds; a sweep point's
``max_events`` does the same for ``sweep``.
"""

import json
import re

import pytest

from repro.apps import APP_FACTORIES
from repro.apps.earlyexit import EarlyExit
from repro.cli import main
from repro.harness.fuzz import CorpusDB
from repro.harness.verify import LEG_MAX_EVENTS


class Livelock(EarlyExit):
    """Every rank calls ``allreduce`` forever: events never run out, so
    neither the deadlock detector nor completion ever stops the run."""

    def step(self, ctx, i):
        while True:
            ctx.world.allreduce(0.0)


@pytest.fixture
def livelocked_earlyexit(monkeypatch):
    monkeypatch.setitem(APP_FACTORIES, "earlyexit", Livelock)


def test_verify_reports_a_livelock_as_a_deadlock(
    tmp_path, capsys, livelocked_earlyexit
):
    artifact = tmp_path / "failures.json"
    assert main([
        "verify", "--oracle", "rank-completion", "--seeds", "1", "--quiet",
        "--artifact", str(artifact),
    ]) == 1
    out = capsys.readouterr().out
    assert "deadlock: rank-completion seed=0" in out
    assert f"exceeded max_events={LEG_MAX_EVENTS}" in out
    assert (
        "reproduce: repro-mpi verify --oracle rank-completion --seeds 1 "
        "--base-seed 0"
    ) in out
    [failure] = json.loads(artifact.read_text())["failures"]
    assert failure["kind"] == "deadlock"


def test_fuzz_writes_a_livelock_as_a_deadlock_entry(
    tmp_path, capsys, livelocked_earlyexit
):
    corpus_dir = tmp_path / "corpus"
    assert main([
        "fuzz", "--iters", "1", "--no-shrink", "--oracle", "rank-completion",
        "--corpus", str(corpus_dir), "--quiet",
    ]) == 1
    [entry] = CorpusDB(corpus_dir).entries()
    assert entry.kind == "deadlock"
    assert f"max_events={LEG_MAX_EVENTS}" in entry.detail
    assert "deadlock: rank-completion seed=0" in capsys.readouterr().out


def test_sweep_stops_a_livelock_at_its_event_bound(capsys, livelocked_earlyexit):
    assert main([
        "sweep", "--axis", "nprocs=2", "--base", "app=earlyexit",
        "--base", "max_events=100000", "--no-cache", "--quiet",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"repro-mpi: error: SchedulingError: earlyexit/native p=2 "
        r"\[[0-9a-f]{16}\]: exceeded max_events=100000; "
        r"possible runaway protocol loop\n",
        captured.err,
    ), captured.err
