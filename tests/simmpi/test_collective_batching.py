"""Vectorized collective completion and shared result assembly.

The batching itself is pinned by the determinism fingerprints (event
counts and result hashes must be byte-identical to the per-member
schedule — see tests/harness/test_determinism_fingerprint.py); these
tests cover the structural claims: same-instant exits fuse into one
queue entry, counts stay fingerprint-stable, and allreduce/allgather
hand every member the same assembled object instead of rebuilding an
identical one per member.
"""

import numpy as np
import pytest

from repro.simmpi import SUM


@pytest.fixture
def run_world(run_ranks):
    """``(per-rank results, event count)`` of a one-node job."""

    def run(nprocs, app):
        res = run_ranks(app, nprocs, ppn=nprocs)
        return res.per_rank, res.sim_events

    return run


def test_allreduce_result_is_shared_across_members(run_world):
    def app(ctx):
        return ctx.world.allreduce([ctx.rank], op=SUM)

    results, _ = run_world(4, app)
    expected = [0 + 1 + 2 + 3]
    assert all(r == expected for r in results)
    # One assembly per site: every member holds the same object.
    assert all(r is results[0] for r in results)


def test_allgather_result_is_shared_across_members(run_world):
    def app(ctx):
        return ctx.world.allgather(ctx.rank * 10)

    results, _ = run_world(4, app)
    assert all(r == [0, 10, 20, 30] for r in results)
    assert all(r is results[0] for r in results)


def test_scan_results_stay_distinct(run_world):
    """Prefix reductions differ per member — no sharing."""

    def app(ctx):
        return ctx.world.scan(ctx.rank + 1, op=SUM)

    results, _ = run_world(4, app)
    assert results == [1, 3, 6, 10]


def test_numpy_allreduce_values_unchanged(run_world):
    def app(ctx):
        return ctx.world.allreduce(np.full(8, float(ctx.rank)), op=SUM)

    results, _ = run_world(4, app)
    for r in results:
        assert np.array_equal(r, np.full(8, 6.0))


def test_barrier_event_count_is_batch_independent(run_world):
    """A barrier releases all members at one instant; the batched
    completion must report the same event count as per-member events
    (one logical completion per member)."""

    def app(ctx):
        ctx.world.barrier()
        return ctx.now()

    _, small = run_world(2, app)
    _, large = run_world(6, app)
    # Each extra rank adds its own logical completion event (plus its
    # spawn/arrival events); if batching collapsed the count, adding
    # ranks would add fewer events than the per-member schedule.
    assert large > small


def test_mixed_exit_times_complete_per_solver_schedule(run_world):
    """Tree-bcast exits are staggered with partial ties: batching only
    groups same-instant exits, so distinct exit times stay distinct and
    every member still sees the root's value."""

    def app(ctx):
        value = ctx.world.bcast("v" if ctx.rank == 0 else None, root=0)
        return (value, ctx.now())

    results, _ = run_world(5, app)
    assert all(v == "v" for v, _ in results)
    times = [t for _, t in results]
    assert len(set(times)) > 1  # staggered exits survived batching
