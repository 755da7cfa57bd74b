"""Simulated MPI: a complete MPI-like library over the DES kernel.

This is the substitute for Cray MPICH + Slingshot in the paper's setup.
It implements the semantics the checkpointing protocols rely on:

* non-overtaking point-to-point matching with wildcards and probes,
* blocking collectives with per-algorithm cost structure (rooted trees
  are *not* synchronizing; alltoall/allreduce/barrier are),
* non-blocking collectives with independent background progress,
* communicator/group management (split, dup, create_group,
  translate_ranks, SIMILAR comparison).

Public surface::

    sim = Simulator()
    world = World(sim, nprocs=8)
    def app(comm):
        ...
    results = world.run(app)
"""

from .comm import Communicator
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    BAND,
    BOR,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
    ReduceOp,
    payload_nbytes,
    reduce_payloads,
)
from .errors import (
    CollectiveMismatchError,
    CommunicatorError,
    MatchingError,
    ReduceOpError,
    RequestError,
    SimMpiError,
)
from .group import IDENT, SIMILAR, UNEQUAL, Group
from .matching import MatchingEngine, Status
from .request import (
    Request,
    completed_request,
    test_all,
    wait_all,
    wait_any,
    wait_some,
)
from .world import World, WorldStats

__all__ = [
    "World",
    "WorldStats",
    "Communicator",
    "Group",
    "IDENT",
    "SIMILAR",
    "UNEQUAL",
    "Request",
    "completed_request",
    "test_all",
    "wait_all",
    "wait_any",
    "wait_some",
    "MatchingEngine",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "ReduceOp",
    "payload_nbytes",
    "reduce_payloads",
    "SimMpiError",
    "CommunicatorError",
    "CollectiveMismatchError",
    "ReduceOpError",
    "RequestError",
    "MatchingError",
]
