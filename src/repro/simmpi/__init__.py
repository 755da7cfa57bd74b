"""Simulated MPI: the lower half of the MANA split process.

This is the substitute for Cray MPICH + Slingshot in the paper's setup.
Only the upper half's wrapper layer calls it: :mod:`repro.mana.session`
and the protocol that session runs (2PC's trivial barrier).
Applications program against virtual handles
(:class:`~repro.mana.vcomm.VirtualComm`) and never call in here.  It
implements the semantics the checkpointing protocols rely on:

* non-overtaking point-to-point matching with wildcards and ``iprobe``,
  eager up to 64 KiB and rendezvous above,
* collectives with per-algorithm cost structure (rooted trees are *not*
  synchronizing; alltoall/allreduce/barrier are), blocking or with
  independent background progress,
* communicator/group management (split, dup, create_group,
  translate_ranks, SIMILAR comparison),
* per-rank call counters (Table 1).

Every call that acts for a rank takes the caller's world rank from the
session: ``World(sim, topo)`` is the job, ``comm.isend(me, obj, dest,
tag)`` a send, ``comm._collective(me, "allreduce", x, op=SUM)`` a
collective and ``world.comm_split(comm, me, color, key)`` a new
communicator.
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
from .request import Request
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
