"""Acceptance oracle: checkpoint rounds racing rank completion COMMIT,
and restarting from the committed images is byte-identical (determinism
fingerprint) to the uninterrupted run.

This is the ``rank-completion`` oracle swept over 20+ fault-schedule
seeds — each seed drawing its own protocol (cc/2pc), world size,
completion-window request instants (before, at, and after the first
rank exit), deferred-request stacking, and restart depth (including
restart-of-restart chains through terminal snapshots).
"""

import pytest

from repro.harness import FaultSchedule
from repro.harness.verify import ORACLES, RankCompletionOracle

N_SEEDS = 24


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_request_racing_completion_commits_and_restarts_identically(seed):
    report = ORACLES["rank-completion"].check(seed)
    assert report.ok, f"seed {seed}: {report.detail}\nreproduce: {report.repro}"
    # The detail line documents what the seed exercised.
    assert "commit" in report.detail and "fingerprint ok" in report.detail


def test_sweep_actually_exercises_finished_rank_images():
    """Guard against the sweep silently degenerating: a healthy share of
    schedules must land requests in the window where some rank's image
    is a terminal one — and such a schedule really must produce one."""
    from repro.harness.spec import execute

    racing = [
        seed
        for seed in range(N_SEEDS)
        if max(FaultSchedule.draw(seed).completion_fracs) >= 1.0
    ]
    assert len(racing) >= N_SEEDS // 4

    def finished_images(seed):
        result = execute(FaultSchedule.draw(seed).checkpoint_spec())
        return [
            im
            for rec in result.checkpoints
            for im in rec.images.values()
            if im.finished
        ]

    # A racing anchor is necessary but not sufficient: checkpoint
    # overhead (amplified under drawn scenarios like degraded-link)
    # pushes real finish times past the probe's, so some racing seeds
    # legitimately land mid-run.  The sweep degenerates only if NO
    # racing seed commits a terminal image.
    assert any(finished_images(seed) for seed in racing), (
        "no racing schedule committed a finished-rank image"
    )


def test_oracle_reports_are_reproducible():
    oracle = RankCompletionOracle()
    a = oracle.check(7)
    b = oracle.check(7)
    assert a.ok and b.ok
    assert a.detail == b.detail
    assert a.repro == "repro-mpi verify --oracle rank-completion --seeds 1 --base-seed 7"
