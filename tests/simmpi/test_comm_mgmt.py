"""Tests for communicator management: split, dup, create_group."""

import pytest

from repro.des import ProcessFailed
from repro.mana.vcomm import current_session
from repro.simmpi import IDENT, SUM, Group
from repro.simmpi.errors import CommunicatorError


def context_of(vcomm):
    """The lower-half context id a virtual communicator maps to."""
    return current_session().lower_comm(vcomm.vcid).context_id


class TestSplit:
    def test_split_by_parity(self, run_ranks):
        def app(ctx):
            sub = ctx.world.split(color=ctx.rank % 2, key=ctx.rank)
            return (sub.size, sub.rank(), sub.world_ranks())

        results = run_ranks(app, 4).per_rank
        assert results[0] == (2, 0, (0, 2))
        assert results[1] == (2, 0, (1, 3))
        assert results[2] == (2, 1, (0, 2))
        assert results[3] == (2, 1, (1, 3))

    def test_split_key_reorders(self, run_ranks):
        def app(ctx):
            # Reverse ordering within the new communicator.
            return ctx.world.split(color=0, key=-ctx.rank).rank()

        assert run_ranks(app, 3).per_rank == [2, 1, 0]

    def test_split_undefined_color(self, run_ranks):
        def app(ctx):
            sub = ctx.world.split(color=None if ctx.rank == 0 else 1, key=ctx.rank)
            return None if sub is None else sub.size

        assert run_ranks(app, 3).per_rank == [None, 2, 2]

    def test_members_share_context(self, run_ranks):
        def app(ctx):
            return context_of(ctx.world.split(color=0, key=ctx.rank))

        assert len(set(run_ranks(app, 3).per_rank)) == 1

    def test_two_sequential_splits_distinct(self, run_ranks):
        def app(ctx):
            a = ctx.world.split(color=0, key=ctx.rank)
            b = ctx.world.split(color=0, key=ctx.rank)
            return (context_of(a), context_of(b))

        a_ctx, b_ctx = run_ranks(app, 2).per_rank[0]
        assert a_ctx != b_ctx


class TestDup:
    def test_dup_is_ident_but_new_context(self, run_ranks):
        def app(ctx):
            d = ctx.world.dup()
            same = Group(d.world_ranks()).compare(Group(ctx.world.world_ranks()))
            return (same, context_of(d) != context_of(ctx.world))

        assert all(r == (IDENT, True) for r in run_ranks(app, 3).per_rank)

    def test_dup_isolates_p2p_traffic(self, run_ranks):
        """A message on the dup'd comm must not match a recv on the parent."""

        def app(ctx):
            d = ctx.world.dup()
            if ctx.rank == 0:
                d.send("on-dup", dest=1, tag=5)
                ctx.world.send("on-world", dest=1, tag=5)
                return None
            got_world = ctx.world.recv(source=0, tag=5)
            got_dup = d.recv(source=0, tag=5)
            return (got_world, got_dup)

        assert run_ranks(app, 2).per_rank[1] == ("on-world", "on-dup")


class TestCreateGroup:
    def test_subgroup_comm(self, run_ranks):
        def app(ctx):
            if ctx.rank >= 2:
                return None
            return ctx.world.create_group([0, 1]).allreduce(ctx.rank + 1, op=SUM)

        assert run_ranks(app, 4).per_rank == [3, 3, None, None]

    def test_similar_subgroup_shares_ggid_with_parent_subset(self, run_ranks):
        def app(ctx):
            if ctx.rank >= 2:
                return None
            return ctx.world.create_group([1, 0]).ggid  # reversed order

        results = run_ranks(app, 3).per_rank
        assert results[0] == results[1] == Group([0, 1]).ggid

    def test_nonmember_call_rejected(self, run_ranks):
        def app(ctx):
            if ctx.rank == 1:
                ctx.world.create_group([0])  # rank 1 is not a member

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 2)
        assert isinstance(ei.value.original, CommunicatorError)

    def test_repeated_create_group_instances_distinct(self, run_ranks):
        def app(ctx):
            a = ctx.world.create_group([0, 1])
            b = ctx.world.create_group([0, 1])
            return (context_of(a), context_of(b))

        results = run_ranks(app, 2).per_rank
        a_ctx, b_ctx = results[0]
        assert a_ctx != b_ctx
        assert results[0] == results[1]

    def test_group_outside_parent_rejected(self, run_ranks):
        def app(ctx):
            half = ctx.world.split(color=0 if ctx.rank < 2 else 1, key=ctx.rank)
            if ctx.rank == 0:
                # Group member 3 is not in `half` (ranks {0,1}).
                half.create_group([0, 3])
            return None

        with pytest.raises(ProcessFailed) as ei:
            run_ranks(app, 4)
        assert isinstance(ei.value.original, CommunicatorError)


class TestRankErrors:
    def test_nonmember_rank_call(self, run_ranks):
        """Each rank reads its rank in the split it is a member of."""

        def app(ctx):
            sub = ctx.world.split(color=0 if ctx.rank == 0 else 1, key=0)
            return sub.rank()

        assert run_ranks(app, 2).per_rank == [0, 0]
