"""The lower half's own contract, driven the way the session drives it.

The session is the lower half's one caller and passes its rank into
every call; these tests do the same from plain simulated processes, to
pin what no application sees: per-rank call counters, the
``(payload, Status)`` a receive completes with, collective-site cleanup
and the caller-membership check.
"""

import pytest

from repro.des import Simulator
from repro.netmodel import make_topology
from repro.simmpi import ANY_SOURCE, ANY_TAG, SUM, Group, Status, World
from repro.simmpi.errors import CommunicatorError


def run_lower(nprocs, body):
    """Run ``body(world, rank)`` as one simulated process per rank;
    returns the world (left open) and the per-rank results."""
    with Simulator() as sim:
        world = World(sim, make_topology(nprocs))
        procs = [
            sim.spawn(lambda rank=rank: body(world, rank)) for rank in range(nprocs)
        ]
        sim.run()
        return world, [p.result for p in procs]


def test_isend_irecv_counted_per_rank():
    def body(world, rank):
        comm = world.comm_world
        if rank == 0:
            comm.isend(rank, 1, 1, 0)
            comm.isend(rank, 2, 1, 0)
        else:
            comm.irecv(rank, 0, 0).wait()
            comm.irecv(rank, 0, 0).wait()

    world, _ = run_lower(2, body)
    assert world.stats.p2p_calls.tolist() == [2, 2]
    assert world.stats.total_p2p() == 4


def test_collectives_counted_per_rank():
    def body(world, rank):
        comm = world.comm_world
        comm._collective(rank, "barrier", None)
        comm._collective(rank, "allreduce", 1, op=SUM)
        comm._icollective(rank, "bcast", "x" if rank == 0 else None).wait()

    world, _ = run_lower(3, body)
    assert world.stats.coll_calls.tolist() == [3, 3, 3]


def test_sites_closed_after_run():
    def body(world, rank):
        world.comm_world._collective(rank, "barrier", None)

    world, _ = run_lower(3, body)
    assert world.open_sites() == 0


def test_irecv_completes_with_status():
    def body(world, rank):
        comm = world.comm_world
        if rank == 0:
            comm.isend(rank, b"abc", 1, 17)
            return None
        return comm.irecv(rank, ANY_SOURCE, ANY_TAG).wait()

    _, results = run_lower(2, body)
    assert results[1] == (b"abc", Status(source=0, tag=17, nbytes=3))


def test_calls_take_the_callers_rank_in_the_group():
    """A split communicator translates the caller's world rank to its
    group rank: world rank 2 is group rank 1 of the even half."""

    def body(world, rank):
        sub = world.comm_split(world.comm_world, rank, rank % 2, None)
        if rank == 0:
            sub.isend(rank, "to-group-rank-1", 1, 0)
            return None
        if rank == 2:
            payload, status = sub.irecv(rank, ANY_SOURCE, ANY_TAG).wait()
            return (payload, status.source)
        return None

    _, results = run_lower(4, body)
    assert results[2] == ("to-group-rank-1", 0)


def test_non_member_caller_refused_before_counting():
    with Simulator() as sim:
        world = World(sim, make_topology(2))
        with pytest.raises(CommunicatorError):
            world.comm_world.isend(7, "x", 0, 0)
        with pytest.raises(CommunicatorError):
            world.comm_world.irecv(7, 0, 0)
        assert world.stats.total_p2p() == 0


#: Every other lower-half entry, called for world rank 7 of a 2-rank job.
NON_MEMBER_CALLS = {
    "iprobe": lambda world, comm: comm.iprobe(7, ANY_SOURCE, ANY_TAG),
    "collective": lambda world, comm: comm._collective(7, "barrier", None),
    "icollective": lambda world, comm: comm._icollective(7, "barrier", None),
    "comm_dup": lambda world, comm: world.comm_dup(comm, 7),
    "comm_split": lambda world, comm: world.comm_split(comm, 7, 0, None),
    "comm_create_group": lambda world, comm: world.comm_create_group(
        comm, 7, Group([0, 1])
    ),
}


@pytest.mark.parametrize("call", sorted(NON_MEMBER_CALLS))
def test_every_entry_refuses_a_non_member_caller(call):
    """Refused before the call is counted or joins a collective site."""
    with Simulator() as sim:
        world = World(sim, make_topology(2))
        with pytest.raises(CommunicatorError):
            NON_MEMBER_CALLS[call](world, world.comm_world)
        assert world.stats.total_coll() == 0
        assert world.stats.total_p2p() == 0
        assert world.open_sites() == 0


def test_iprobe_takes_the_callers_rank_and_leaves_the_message():
    def body(world, rank):
        sub = world.comm_split(world.comm_world, rank, rank % 2, None)
        if rank == 0:
            sub.isend(rank, b"abcd", 1, 5)
            return None
        if rank == 2:
            world.sim.sleep(1.0)  # let it arrive
            status = sub.iprobe(rank, ANY_SOURCE, ANY_TAG)
            payload, _ = sub.irecv(rank, status.source, status.tag).wait()
            return (status, payload, sub.iprobe(rank, ANY_SOURCE, ANY_TAG))
        return None

    world, results = run_lower(4, body)
    assert results[2] == (Status(source=0, tag=5, nbytes=4), b"abcd", None)
    # Only the isend and the irecv count; the probe does not.
    assert world.stats.p2p_calls.tolist() == [1, 0, 1, 0]


def test_comm_dup_is_one_allgather_per_member():
    def body(world, rank):
        dup = world.comm_dup(world.comm_world, rank)
        return (id(dup), dup.group.world_ranks, dup.context_id)

    world, results = run_lower(3, body)
    assert len(set(results)) == 1
    _, ranks, context_id = results[0]
    assert ranks == (0, 1, 2)
    assert context_id != world.comm_world.context_id
    assert world.stats.coll_calls.tolist() == [1, 1, 1]
    assert world.open_sites() == 0


def test_comm_create_group_synchronizes_members_only():
    """Only the group's members call; they get one shared communicator,
    and the subgroup barrier is not a counted collective."""

    def body(world, rank):
        if rank not in (1, 3):
            return None
        sub = world.comm_create_group(world.comm_world, rank, Group([3, 1]))
        return (id(sub), sub.group.rank_of(rank))

    world, results = run_lower(4, body)
    assert results[0] is None and results[2] is None
    assert results[1][0] == results[3][0]
    assert (results[3][1], results[1][1]) == (0, 1)
    assert world.stats.total_coll() == 0
