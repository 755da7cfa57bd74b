"""End-to-end tests of every collective through the application surface."""

import numpy as np
import pytest

from repro.des import ProcessFailed
from repro.mana.vcomm import wait_all
from repro.simmpi import MAX, MIN, PROD, SUM
from repro.simmpi.errors import CollectiveMismatchError


class TestBarrier:
    def test_barrier_synchronizes(self, run_ranks):
        def app(ctx):
            ctx.compute(float(ctx.rank))
            ctx.world.barrier()
            return ctx.now()

        results = run_ranks(app, 4).per_rank
        # Everyone exits after the slowest arrival (t=3).
        assert all(t > 3.0 for t in results)
        assert max(results) - min(results) < 1e-9


class TestBcast:
    def test_value_propagates(self, run_ranks):
        def app(ctx):
            data = {"k": 7} if ctx.rank == 0 else None
            return ctx.world.bcast(data, root=0)

        assert all(r == {"k": 7} for r in run_ranks(app, 4).per_rank)

    def test_nonzero_root(self, run_ranks):
        def app(ctx):
            data = "payload" if ctx.rank == 3 else None
            return ctx.world.bcast(data, root=3)

        assert all(r == "payload" for r in run_ranks(app, 5).per_rank)

    def test_root_does_not_wait_for_stragglers(self, run_ranks):
        def app(ctx):
            me = ctx.rank
            if me == ctx.world.size - 1:
                ctx.compute(10.0)  # straggler leaf
            ctx.world.bcast(b"x" if me == 0 else None, root=0)
            return ctx.now()

        results = run_ranks(app, 8).per_rank
        assert results[0] < 1.0  # root exits fast
        assert results[7] >= 10.0

    def test_numpy_broadcast(self, run_ranks):
        def app(ctx):
            arr = np.arange(4.0) if ctx.rank == 0 else None
            return ctx.world.bcast(arr, root=0).sum()

        assert run_ranks(app, 3).per_rank == [6.0, 6.0, 6.0]


class TestReduceFamily:
    def test_reduce_to_root(self, run_ranks):
        def app(ctx):
            return ctx.world.reduce(ctx.rank + 1, op=SUM, root=0)

        results = run_ranks(app, 4).per_rank
        assert results[0] == 10
        assert results[1:] == [None, None, None]

    def test_reduce_ops(self, run_ranks):
        def app(ctx):
            me = ctx.rank
            return (
                ctx.world.allreduce(me + 1, op=PROD),
                ctx.world.allreduce(me, op=MAX),
                ctx.world.allreduce(me, op=MIN),
            )

        assert run_ranks(app, 3).per_rank[0] == (6, 2, 0)

    def test_allreduce_arrays(self, run_ranks):
        def app(ctx):
            return ctx.world.allreduce(np.full(3, float(ctx.rank)), op=SUM)

        for r in run_ranks(app, 4).per_rank:
            assert r.tolist() == [6.0, 6.0, 6.0]

    def test_scan_prefix(self, run_ranks):
        def app(ctx):
            return ctx.world.scan(ctx.rank + 1, op=SUM)

        assert run_ranks(app, 4).per_rank == [1, 3, 6, 10]

    def test_reduce_scatter(self, run_ranks):
        def app(ctx):
            contributions = [ctx.rank * 10 + j for j in range(ctx.world.size)]
            return ctx.world.reduce_scatter(contributions, op=SUM)

        # Element j is sum over i of (i*10 + j).
        assert run_ranks(app, 3).per_rank == [30 + 0 * 3, 30 + 1 * 3, 30 + 2 * 3]


class TestAlltoallAllgather:
    def test_alltoall_transpose(self, run_ranks):
        def app(ctx):
            return ctx.world.alltoall([(ctx.rank, j) for j in range(ctx.world.size)])

        for me, r in enumerate(run_ranks(app, 4).per_rank):
            assert r == [(j, me) for j in range(4)]

    def test_allgather(self, run_ranks):
        def app(ctx):
            return ctx.world.allgather(ctx.rank ** 2)

        assert all(r == [0, 1, 4, 9, 16] for r in run_ranks(app, 5).per_rank)

    def test_alltoall_wrong_length_raises(self, run_ranks):
        def app(ctx):
            ctx.world.alltoall([0])  # must be comm.size items

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 3)
        assert isinstance(ei.value.original, CollectiveMismatchError)


class TestGatherScatter:
    def test_gather(self, run_ranks):
        def app(ctx):
            return ctx.world.gather(chr(ord("a") + ctx.rank), root=1)

        results = run_ranks(app, 3).per_rank
        assert results[1] == ["a", "b", "c"]
        assert results[0] is None and results[2] is None

    def test_scatter(self, run_ranks):
        def app(ctx):
            objs = [i * 100 for i in range(ctx.world.size)] if ctx.rank == 2 else None
            return ctx.world.scatter(objs, root=2)

        assert run_ranks(app, 4).per_rank == [0, 100, 200, 300]

    def test_scatter_requires_list_at_root(self, run_ranks):
        def app(ctx):
            ctx.world.scatter("not-a-list", root=0)

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 2)
        assert isinstance(ei.value.original, CollectiveMismatchError)


class TestMismatchDetection:
    def test_kind_mismatch(self, run_ranks):
        def app(ctx):
            if ctx.rank == 0:
                ctx.world.barrier()
            else:
                ctx.world.allreduce(1, op=SUM)

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 2)
        assert isinstance(ei.value.original, CollectiveMismatchError)

    def test_root_mismatch(self, run_ranks):
        def app(ctx):
            ctx.world.bcast("x", root=ctx.rank)  # different roots!

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 2)
        assert isinstance(ei.value.original, CollectiveMismatchError)

    def test_op_mismatch(self, run_ranks):
        def app(ctx):
            ctx.world.allreduce(1, op=SUM if ctx.rank == 0 else MAX)

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 2)
        assert isinstance(ei.value.original, CollectiveMismatchError)

    def test_blocking_nonblocking_mix_rejected(self, run_ranks):
        def app(ctx):
            if ctx.rank == 0:
                ctx.world.barrier()
            else:
                ctx.world.ibarrier().wait()

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 2)
        assert isinstance(ei.value.original, CollectiveMismatchError)


class TestNonBlockingCollectives:
    def test_ibcast_overlaps_compute(self, run_ranks):
        def app(ctx):
            me = ctx.rank
            req = ctx.world.ibcast(np.zeros(1 << 14) if me == 0 else None, root=0)
            ctx.compute(1e-3)  # compute while the bcast progresses
            req.wait()
            return ctx.now()

        # The bcast costs far less than the compute: total ~ compute time.
        assert all(abs(t - 1e-3) < 2e-4 for t in run_ranks(app, 4).per_rank)

    def test_iallreduce_result(self, run_ranks):
        def app(ctx):
            return ctx.world.iallreduce(ctx.rank, op=SUM).wait()

        assert run_ranks(app, 4).per_rank == [6, 6, 6, 6]

    def test_ialltoall_and_iallgather(self, run_ranks):
        def app(ctx):
            r1 = ctx.world.ialltoall([ctx.rank] * ctx.world.size)
            r2 = ctx.world.iallgather(ctx.rank * 2)
            return (r1.wait(), r2.wait())

        a2a, ag = run_ranks(app, 3).per_rank[0]
        assert a2a == [0, 1, 2]
        assert ag == [0, 2, 4]

    def test_multiple_outstanding_independent_progress(self, run_ranks):
        """Paper Section 3: outstanding non-blocking collectives progress
        independently; initiating several then waiting works."""

        def app(ctx):
            return wait_all([ctx.world.iallreduce(ctx.rank, op=SUM) for _ in range(4)])

        assert run_ranks(app, 3).per_rank[0] == [3, 3, 3, 3]

    def test_ibarrier_test_loop(self, run_ranks):
        def app(ctx):
            if ctx.rank == 1:
                ctx.compute(5e-4)
            req = ctx.world.ibarrier()
            polls = 0
            while not req.test()[0]:
                polls += 1
                ctx.compute(1e-5)
            return polls

        results = run_ranks(app, 2).per_rank
        assert results[0] > 10  # rank 0 polled while waiting for rank 1
        assert results[1] <= 2


class TestSubCommunicatorCollectives:
    def test_collective_on_split_comm(self, run_ranks):
        def app(ctx):
            half = ctx.world.split(color=ctx.rank // 2, key=ctx.rank)
            return half.allreduce(ctx.rank, op=SUM)

        assert run_ranks(app, 4).per_rank == [1, 1, 5, 5]

    def test_overlapping_groups_via_create_group(self, run_ranks):
        def app(ctx):
            me = ctx.rank
            out = {}
            if me in (0, 1):
                out["a"] = ctx.world.create_group([0, 1]).allreduce(me, op=SUM)
            if me in (1, 2):
                out["b"] = ctx.world.create_group([1, 2]).allreduce(me, op=SUM)
            return out

        results = run_ranks(app, 3).per_rank
        assert results[0] == {"a": 1}
        assert results[1] == {"a": 1, "b": 3}
        assert results[2] == {"b": 3}


class TestCollectiveCounters:
    """Per-rank counts are pinned on the lower half
    (``test_lower_half.py``); this is the job total an app reads."""

    def test_coll_calls_counted(self, run_ranks):
        def app(ctx):
            ctx.world.barrier()
            ctx.world.allreduce(1, op=SUM)
            ctx.world.ibcast("x" if ctx.rank == 0 else None, root=0).wait()

        assert run_ranks(app, 3).coll_calls == 9
