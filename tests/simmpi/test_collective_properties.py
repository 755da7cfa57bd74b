"""Property-based correctness of the remaining collectives vs numpy."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simmpi import MAX, MIN, PROD, SUM

_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_settings
@given(
    nprocs=st.integers(2, 8),
    data=st.data(),
)
def test_scan_matches_prefix_sums(run_ranks, nprocs, data):
    values = data.draw(
        st.lists(st.integers(-100, 100), min_size=nprocs, max_size=nprocs)
    )

    def app(ctx):
        return ctx.world.scan(values[ctx.rank], op=SUM)

    results = run_ranks(app, nprocs).per_rank
    expected = np.cumsum(values).tolist()
    assert results == expected


@_settings
@given(nprocs=st.integers(2, 6), data=st.data())
def test_reduce_scatter_matches_columnwise_sum(run_ranks, nprocs, data):
    matrix = data.draw(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=nprocs, max_size=nprocs),
            min_size=nprocs,
            max_size=nprocs,
        )
    )

    def app(ctx):
        return ctx.world.reduce_scatter(matrix[ctx.rank], op=SUM)

    results = run_ranks(app, nprocs).per_rank
    expected = np.sum(matrix, axis=0).tolist()
    assert results == expected


@_settings
@given(nprocs=st.integers(2, 8), data=st.data())
def test_gather_scatter_roundtrip(run_ranks, nprocs, data):
    root = data.draw(st.integers(0, nprocs - 1))
    values = data.draw(
        st.lists(st.integers(-1000, 1000), min_size=nprocs, max_size=nprocs)
    )

    def app(ctx):
        me = ctx.rank
        gathered = ctx.world.gather(values[me], root=root)
        # Root redistributes what it gathered; everyone must get back
        # exactly their own contribution.
        back = ctx.world.scatter(gathered if me == root else None, root=root)
        return back

    results = run_ranks(app, nprocs).per_rank
    assert results == values


@_settings
@given(
    nprocs=st.integers(2, 6),
    op=st.sampled_from([SUM, PROD, MAX, MIN]),
    data=st.data(),
)
def test_reduce_root_matches_allreduce(run_ranks, nprocs, op, data):
    root = data.draw(st.integers(0, nprocs - 1))
    values = data.draw(
        st.lists(st.integers(1, 6), min_size=nprocs, max_size=nprocs)
    )

    def app(ctx):
        me = ctx.rank
        r = ctx.world.reduce(values[me], op=op, root=root)
        a = ctx.world.allreduce(values[me], op=op)
        return (r, a)

    results = run_ranks(app, nprocs).per_rank
    for me, (r, a) in enumerate(results):
        if me == root:
            assert r == a
        else:
            assert r is None


@_settings
@given(nprocs=st.integers(2, 6), rounds=st.integers(1, 4))
def test_nonblocking_initiation_order_consistency(run_ranks, nprocs, rounds):
    """Several outstanding non-blocking collectives initiated in the same
    order on every rank complete with correct, round-specific values."""

    def app(ctx):
        me = ctx.rank
        reqs = []
        for k in range(rounds):
            reqs.append(ctx.world.iallreduce(me * 10 + k))
        return [r.wait() for r in reqs]

    results = run_ranks(app, nprocs).per_rank
    base = sum(r * 10 for r in range(nprocs))
    expected = [base + k * nprocs for k in range(rounds)]
    assert all(r == expected for r in results)


@_settings
@given(
    nprocs=st.integers(3, 7),
    colors=st.data(),
)
def test_split_partition_property(run_ranks, nprocs, colors):
    """comm_split produces a partition: every rank lands in exactly one
    sub-communicator whose members share its color, ordered by key."""
    assignment = colors.draw(
        st.lists(st.integers(0, 2), min_size=nprocs, max_size=nprocs)
    )

    def app(ctx):
        me = ctx.rank
        sub = ctx.world.split(color=assignment[me], key=-me)  # reverse order
        return (sub.world_ranks(), sub.rank())

    results = run_ranks(app, nprocs).per_rank
    for me, (members, subrank) in enumerate(results):
        same_color = [r for r in range(nprocs) if assignment[r] == assignment[me]]
        assert sorted(members) == same_color
        # key=-rank reverses the ordering within the new communicator.
        assert list(members) == sorted(same_color, reverse=True)
        assert members[subrank] == me
