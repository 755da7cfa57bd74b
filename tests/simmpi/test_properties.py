"""Property-based tests of simulated-MPI semantics (hypothesis)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simmpi import SUM

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestMessageOrderProperty:
    @_settings
    @given(
        tags=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12)
    )
    def test_same_tag_streams_are_fifo(self, run_ranks, tags):
        """For each tag value, payloads are received in send order."""

        def app(ctx):
            if ctx.rank == 0:
                for i, tag in enumerate(tags):
                    ctx.world.send((tag, i), dest=1, tag=tag)
                return None
            got = {t: [] for t in set(tags)}
            for tag in tags:
                payload = ctx.world.recv(source=0, tag=tag)
                got[tag].append(payload)
            return got

        results = run_ranks(app, 2).per_rank
        got = results[1]
        for tag, items in got.items():
            indices = [i for (t, i) in items]
            assert indices == sorted(indices)
            assert all(t == tag for (t, _i) in items)

    @_settings
    @given(
        n_msgs=st.integers(min_value=1, max_value=10),
        sizes=st.lists(
            st.sampled_from([8, 1024, 32768]), min_size=10, max_size=10
        ),
    )
    def test_mixed_sizes_never_overtake(self, run_ranks, n_msgs, sizes):
        def app(ctx):
            if ctx.rank == 0:
                for i in range(n_msgs):
                    ctx.world.send(np.full(sizes[i] // 8, float(i)), dest=1, tag=0)
                return None
            order = []
            for _ in range(n_msgs):
                arr = ctx.world.recv(source=0, tag=0)
                order.append(int(arr[0]))
            return order

        results = run_ranks(app, 2).per_rank
        assert results[1] == list(range(n_msgs))


class TestCollectiveCorrectnessProperty:
    @_settings
    @given(
        nprocs=st.integers(min_value=2, max_value=9),
        values=st.data(),
    )
    def test_allreduce_equals_numpy(self, run_ranks, nprocs, values):
        contributions = values.draw(
            st.lists(
                st.integers(min_value=-1000, max_value=1000),
                min_size=nprocs,
                max_size=nprocs,
            )
        )

        def app(ctx):
            return ctx.world.allreduce(contributions[ctx.rank], op=SUM)

        results = run_ranks(app, nprocs).per_rank
        assert all(r == sum(contributions) for r in results)

    @_settings
    @given(nprocs=st.integers(min_value=2, max_value=8), root=st.data())
    def test_bcast_delivers_root_value(self, run_ranks, nprocs, root):
        r = root.draw(st.integers(min_value=0, max_value=nprocs - 1))

        def app(ctx):
            value = ("payload", r) if ctx.rank == r else None
            return ctx.world.bcast(value, root=r)

        results = run_ranks(app, nprocs).per_rank
        assert all(x == ("payload", r) for x in results)

    @_settings
    @given(nprocs=st.integers(min_value=2, max_value=7))
    def test_alltoall_is_transpose(self, run_ranks, nprocs):
        def app(ctx):
            me = ctx.rank
            return ctx.world.alltoall([(me, j) for j in range(ctx.world.size)])

        results = run_ranks(app, nprocs).per_rank
        for me, row in enumerate(results):
            assert row == [(j, me) for j in range(nprocs)]

    @_settings
    @given(
        nprocs=st.integers(min_value=2, max_value=6),
        nops=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_random_collective_sequences_terminate_consistently(
        self, run_ranks, nprocs, nops, seed
    ):
        """A random but identical sequence of collectives on every rank
        runs to completion and produces rank-consistent results."""
        rng = np.random.default_rng(seed)
        ops = rng.choice(["barrier", "allreduce", "bcast", "allgather"], size=nops)
        roots = rng.integers(0, nprocs, size=nops)

        def app(ctx):
            out = []
            me = ctx.rank
            for op, root in zip(ops, roots):
                if op == "barrier":
                    ctx.world.barrier()
                    out.append("b")
                elif op == "allreduce":
                    out.append(ctx.world.allreduce(me + 1, op=SUM))
                elif op == "bcast":
                    out.append(ctx.world.bcast(("v", int(root)) if me == root else None, root=int(root)))
                elif op == "allgather":
                    out.append(tuple(ctx.world.allgather(me)))
            return out

        results = run_ranks(app, nprocs).per_rank
        for r in results[1:]:
            # Collective outputs agree across ranks for these rootless /
            # root-consistent ops.
            assert r == results[0]


class TestClockMonotonicity:
    @_settings
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_virtual_time_nonnegative_and_deterministic(self, run_ranks, seed):
        def app(ctx):
            ctx.world.barrier()
            ctx.world.allreduce(ctx.rank, op=SUM)
            return None

        def run_once():
            res = run_ranks(app, 5, seed=seed)
            return res.runtime, res.sim_events

        a = run_once()
        b = run_once()
        assert a == b
        assert a[0] > 0
