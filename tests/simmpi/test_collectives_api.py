"""End-to-end tests of every collective through the communicator API."""

import numpy as np
import pytest

from repro.des import ProcessFailed, Simulator
from repro.netmodel import make_topology
from repro.simmpi import MAX, MIN, PROD, SUM, World
from repro.simmpi.errors import CollectiveMismatchError


def run_world(nprocs, app, *, ppn=None, seed=0):
    with Simulator(seed=seed) as sim:
        world = World(sim, make_topology(nprocs, ppn=ppn))
        results = world.run(app)
        return results, world, sim.now()


class TestBarrier:
    def test_barrier_synchronizes(self):
        def app(comm):
            comm.world.sim.sleep(float(comm.rank()))
            comm.barrier()
            return comm.world.sim.now()

        results, _, _ = run_world(4, app)
        # Everyone exits after the slowest arrival (t=3).
        assert all(t > 3.0 for t in results)
        assert max(results) - min(results) < 1e-9


class TestBcast:
    def test_value_propagates(self):
        def app(comm):
            data = {"k": 7} if comm.rank() == 0 else None
            return comm.bcast(data, root=0)

        results, _, _ = run_world(4, app)
        assert all(r == {"k": 7} for r in results)

    def test_nonzero_root(self):
        def app(comm):
            data = "payload" if comm.rank() == 3 else None
            return comm.bcast(data, root=3)

        results, _, _ = run_world(5, app)
        assert all(r == "payload" for r in results)

    def test_root_does_not_wait_for_stragglers(self):
        def app(comm):
            me = comm.rank()
            if me == comm.size - 1:
                comm.world.sim.sleep(10.0)  # straggler leaf
            comm.bcast(b"x" if me == 0 else None, root=0)
            return comm.world.sim.now()

        results, _, _ = run_world(8, app)
        assert results[0] < 1.0  # root exits fast
        assert results[7] >= 10.0

    def test_numpy_broadcast(self):
        def app(comm):
            arr = np.arange(4.0) if comm.rank() == 0 else None
            return comm.bcast(arr, root=0).sum()

        results, _, _ = run_world(3, app)
        assert results == [6.0, 6.0, 6.0]


class TestReduceFamily:
    def test_reduce_to_root(self):
        def app(comm):
            return comm.reduce(comm.rank() + 1, op=SUM, root=0)

        results, _, _ = run_world(4, app)
        assert results[0] == 10
        assert results[1:] == [None, None, None]

    def test_reduce_ops(self):
        def app(comm):
            me = comm.rank()
            return (
                comm.allreduce(me + 1, op=PROD),
                comm.allreduce(me, op=MAX),
                comm.allreduce(me, op=MIN),
            )

        results, _, _ = run_world(3, app)
        assert results[0] == (6, 2, 0)

    def test_allreduce_arrays(self):
        def app(comm):
            return comm.allreduce(np.full(3, float(comm.rank())), op=SUM)

        results, _, _ = run_world(4, app)
        for r in results:
            assert r.tolist() == [6.0, 6.0, 6.0]

    def test_scan_prefix(self):
        def app(comm):
            return comm.scan(comm.rank() + 1, op=SUM)

        results, _, _ = run_world(4, app)
        assert results == [1, 3, 6, 10]

    def test_reduce_scatter(self):
        def app(comm):
            contributions = [comm.rank() * 10 + j for j in range(comm.size)]
            return comm.reduce_scatter(contributions, op=SUM)

        results, _, _ = run_world(3, app)
        # Element j is sum over i of (i*10 + j).
        assert results == [30 + 0 * 3, 30 + 1 * 3, 30 + 2 * 3]


class TestAlltoallAllgather:
    def test_alltoall_transpose(self):
        def app(comm):
            return comm.alltoall([(comm.rank(), j) for j in range(comm.size)])

        results, _, _ = run_world(4, app)
        for me, r in enumerate(results):
            assert r == [(j, me) for j in range(4)]

    def test_allgather(self):
        def app(comm):
            return comm.allgather(comm.rank() ** 2)

        results, _, _ = run_world(5, app)
        assert all(r == [0, 1, 4, 9, 16] for r in results)

    def test_alltoall_wrong_length_raises(self):
        def app(comm):
            comm.alltoall([0])  # must be comm.size items

        with pytest.raises(ProcessFailed) as ei:
            run_world(3, app)
        assert isinstance(ei.value.original, CollectiveMismatchError)


class TestGatherScatter:
    def test_gather(self):
        def app(comm):
            return comm.gather(chr(ord("a") + comm.rank()), root=1)

        results, _, _ = run_world(3, app)
        assert results[1] == ["a", "b", "c"]
        assert results[0] is None and results[2] is None

    def test_scatter(self):
        def app(comm):
            objs = [i * 100 for i in range(comm.size)] if comm.rank() == 2 else None
            return comm.scatter(objs, root=2)

        results, _, _ = run_world(4, app)
        assert results == [0, 100, 200, 300]

    def test_scatter_requires_list_at_root(self):
        def app(comm):
            comm.scatter("not-a-list", root=0)

        with pytest.raises(ProcessFailed) as ei:
            run_world(2, app)
        assert isinstance(ei.value.original, CollectiveMismatchError)


class TestMismatchDetection:
    def test_kind_mismatch(self):
        def app(comm):
            if comm.rank() == 0:
                comm.barrier()
            else:
                comm.allreduce(1, op=SUM)

        with pytest.raises(ProcessFailed) as ei:
            run_world(2, app)
        assert isinstance(ei.value.original, CollectiveMismatchError)

    def test_root_mismatch(self):
        def app(comm):
            comm.bcast("x", root=comm.rank())  # different roots!

        with pytest.raises(ProcessFailed) as ei:
            run_world(2, app)
        assert isinstance(ei.value.original, CollectiveMismatchError)

    def test_op_mismatch(self):
        def app(comm):
            comm.allreduce(1, op=SUM if comm.rank() == 0 else MAX)

        with pytest.raises(ProcessFailed) as ei:
            run_world(2, app)
        assert isinstance(ei.value.original, CollectiveMismatchError)

    def test_blocking_nonblocking_mix_rejected(self):
        def app(comm):
            if comm.rank() == 0:
                comm.barrier()
            else:
                comm.ibarrier().wait()

        with pytest.raises(ProcessFailed) as ei:
            run_world(2, app)
        assert isinstance(ei.value.original, CollectiveMismatchError)


class TestNonBlockingCollectives:
    def test_ibcast_overlaps_compute(self):
        def app(comm):
            me = comm.rank()
            req = comm.ibcast(np.zeros(1 << 14) if me == 0 else None, root=0)
            comm.world.sim.sleep(1e-3)  # compute while the bcast progresses
            req.wait()
            return comm.world.sim.now()

        results, _, _ = run_world(4, app)
        # The bcast costs far less than the compute: total ~ compute time.
        assert all(abs(t - 1e-3) < 2e-4 for t in results)

    def test_iallreduce_result(self):
        def app(comm):
            req = comm.iallreduce(comm.rank(), op=SUM)
            return req.wait()

        results, _, _ = run_world(4, app)
        assert results == [6, 6, 6, 6]

    def test_ialltoall_and_iallgather(self):
        def app(comm):
            r1 = comm.ialltoall([comm.rank()] * comm.size)
            r2 = comm.iallgather(comm.rank() * 2)
            return (r1.wait(), r2.wait())

        results, _, _ = run_world(3, app)
        a2a, ag = results[0]
        assert a2a == [0, 1, 2]
        assert ag == [0, 2, 4]

    def test_multiple_outstanding_independent_progress(self):
        """Paper Section 3: outstanding non-blocking collectives progress
        independently; initiating several then waiting works."""

        def app(comm):
            reqs = [comm.iallreduce(comm.rank(), op=SUM) for _ in range(4)]
            from repro.simmpi import wait_all

            return wait_all(comm.world.sim, reqs)

        results, _, _ = run_world(3, app)
        assert results[0] == [3, 3, 3, 3]

    def test_ibarrier_test_loop(self):
        def app(comm):
            me = comm.rank()
            if me == 1:
                comm.world.sim.sleep(5e-4)
            req = comm.ibarrier()
            polls = 0
            while not req.test()[0]:
                polls += 1
                comm.world.sim.sleep(1e-5)
            return polls

        results, _, _ = run_world(2, app)
        assert results[0] > 10  # rank 0 polled while waiting for rank 1
        assert results[1] <= 2


class TestSubCommunicatorCollectives:
    def test_collective_on_split_comm(self):
        def app(comm):
            half = comm.split(color=comm.rank() // 2, key=comm.rank())
            return half.allreduce(comm.rank(), op=SUM)

        results, _, _ = run_world(4, app)
        assert results == [1, 1, 5, 5]

    def test_overlapping_groups_via_create_group(self):
        from repro.simmpi import Group

        def app(comm):
            me = comm.rank()
            out = {}
            if me in (0, 1):
                sub = comm.create_group(Group([0, 1]))
                out["a"] = sub.allreduce(me, op=SUM)
            if me in (1, 2):
                sub = comm.create_group(Group([1, 2]))
                out["b"] = sub.allreduce(me, op=SUM)
            return out

        results, _, _ = run_world(3, app)
        assert results[0] == {"a": 1}
        assert results[1] == {"a": 1, "b": 3}
        assert results[2] == {"b": 3}


class TestCollectiveCounters:
    def test_coll_calls_counted(self):
        def app(comm):
            comm.barrier()
            comm.allreduce(1, op=SUM)
            comm.ibcast("x" if comm.rank() == 0 else None, root=0).wait()
            return None

        _, world, _ = run_world(3, app)
        assert world.stats.coll_calls.tolist() == [3, 3, 3]

    def test_sites_closed_after_run(self):
        def app(comm):
            comm.barrier()

        _, world, _ = run_world(3, app)
        assert world.open_sites() == 0
