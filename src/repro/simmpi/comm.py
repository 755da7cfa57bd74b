"""Communicators: the user-facing simulated MPI API.

A :class:`Communicator` object is shared by all member processes (the
simulated analog of every rank holding a handle to the same context).
The calling rank is inferred from the current simulated process, so
application code reads like mpi4py::

    def app(comm):
        me = comm.rank()
        right = (me + 1) % comm.size
        comm.send(x, dest=right, tag=7)
        y = comm.recv(source=ANY_SOURCE, tag=7)
        total = comm.allreduce(y, op=SUM)

Both blocking and non-blocking (``i``-prefixed) variants are provided
for every collective the paper's evaluation touches, plus the standard
group/communicator management calls the CC algorithm depends on
(``split``, ``dup``, ``create_group``, ``translate_ranks`` via
:class:`~repro.simmpi.group.Group`).
"""

from __future__ import annotations

from typing import Any, Sequence, TYPE_CHECKING

from .datatypes import ANY_SOURCE, ANY_TAG, SUM, ReduceOp
from .errors import CommunicatorError
from .group import Group
from .request import Request

if TYPE_CHECKING:  # pragma: no cover
    from .collectives import CollectiveSite
    from .matching import Status
    from .world import World

__all__ = ["Communicator"]


class Communicator:
    """A communication context over an ordered group of processes."""

    def __init__(self, world: "World", group: Group, context_id: int, label: str):
        self.world = world
        self.group = group
        self.context_id = context_id
        self.label = label
        self._freed = False

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def ggid(self) -> int:
        """Global group id of the underlying group (paper Section 4.1)."""
        return self.group.ggid

    def rank(self) -> int:
        """Group rank of the calling process."""
        wr = self.world.current_world_rank()
        try:
            return self.group.rank_of(wr)
        except CommunicatorError:
            raise CommunicatorError(
                f"world rank {wr} called {self.label!r} but is not a member"
            ) from None

    def compare(self, other: "Communicator") -> str:
        """MPI_Comm_compare on the underlying groups (IDENT/SIMILAR/UNEQUAL)."""
        return self.group.compare(other.group)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.label} size={self.size} ctx={self.context_id}>"

    def _check_live(self) -> None:
        if self._freed:
            raise CommunicatorError(f"communicator {self.label!r} has been freed")

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking send.  Eager below the threshold, rendezvous above."""
        self._check_live()
        me = self.rank()
        self.world.count_p2p(self.group.world_rank(me))
        self.world.sim.sleep(self.world.tuning.send_overhead)
        req = self.world.engine_for(self).send(me, dest, tag, obj)
        if not req.done:
            req.wait()  # rendezvous send blocks for the receiver

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; completion per eager/rendezvous rules."""
        self._check_live()
        me = self.rank()
        self.world.count_p2p(self.group.world_rank(me))
        return self.world.engine_for(self).send(me, dest, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        result = self._recv_common(source, tag).wait()
        return result[0]

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, "Status"]:
        """Blocking receive returning ``(payload, Status)``."""
        return self._recv_common(source, tag).wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; the request value is ``(payload, Status)``."""
        return self._recv_common(source, tag)

    def _recv_common(self, source: int, tag: int) -> Request:
        self._check_live()
        me = self.rank()
        self.world.count_p2p(self.group.world_rank(me))
        return self.world.engine_for(self).post_recv(me, source, tag)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (deadlock-free halo-exchange building block)."""
        rreq = self.irecv(source=source, tag=recvtag)
        self.send(obj, dest=dest, tag=sendtag)
        payload, _status = rreq.wait()
        return payload

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "Status":
        """Blocking probe: waits for a matching message without consuming it."""
        self._check_live()
        me = self.rank()
        return self.world.engine_for(self).probe(me, source, tag).wait()

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "Status | None":
        """Non-blocking probe of arrived messages."""
        self._check_live()
        me = self.rank()
        return self.world.engine_for(self).iprobe(me, source, tag)

    # ------------------------------------------------------------------ #
    # Blocking collectives
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        self._collective("barrier", None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        return self._collective("bcast", obj, root=root)

    def reduce(self, obj: Any, op: "ReduceOp | str" = SUM, root: int = 0) -> Any:
        return self._collective("reduce", obj, root=root, op=op)

    def allreduce(self, obj: Any, op: "ReduceOp | str" = SUM) -> Any:
        return self._collective("allreduce", obj, op=op)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        return self._collective("alltoall", objs)

    def allgather(self, obj: Any) -> list[Any]:
        return self._collective("allgather", obj)

    def gather(self, obj: Any, root: int = 0) -> "list[Any] | None":
        return self._collective("gather", obj, root=root)

    def scatter(self, objs: "Sequence[Any] | None", root: int = 0) -> Any:
        return self._collective("scatter", objs, root=root)

    def scan(self, obj: Any, op: "ReduceOp | str" = SUM) -> Any:
        return self._collective("scan", obj, op=op)

    def reduce_scatter(self, objs: Sequence[Any], op: "ReduceOp | str" = SUM) -> Any:
        return self._collective("reduce_scatter", objs, op=op)

    # ------------------------------------------------------------------ #
    # Non-blocking collectives (the paper's Section 4.3 subject matter)
    # ------------------------------------------------------------------ #

    def ibarrier(self) -> Request:
        return self._icollective("barrier", None)

    def ibcast(self, obj: Any, root: int = 0) -> Request:
        return self._icollective("bcast", obj, root=root)

    def ireduce(self, obj: Any, op: "ReduceOp | str" = SUM, root: int = 0) -> Request:
        return self._icollective("reduce", obj, root=root, op=op)

    def iallreduce(self, obj: Any, op: "ReduceOp | str" = SUM) -> Request:
        return self._icollective("allreduce", obj, op=op)

    def ialltoall(self, objs: Sequence[Any]) -> Request:
        return self._icollective("alltoall", objs)

    def iallgather(self, obj: Any) -> Request:
        return self._icollective("allgather", obj)

    def igather(self, obj: Any, root: int = 0) -> Request:
        return self._icollective("gather", obj, root=root)

    def iscatter(self, objs: "Sequence[Any] | None", root: int = 0) -> Request:
        return self._icollective("scatter", objs, root=root)

    def iscan(self, obj: Any, op: "ReduceOp | str" = SUM) -> Request:
        return self._icollective("scan", obj, op=op)

    def ireduce_scatter(self, objs: Sequence[Any], op: "ReduceOp | str" = SUM) -> Request:
        return self._icollective("reduce_scatter", objs, op=op)

    # ------------------------------------------------------------------ #
    # Communicator management
    # ------------------------------------------------------------------ #

    def dup(self, label: str | None = None) -> "Communicator":
        """MPI_Comm_dup: a new context over the identical group."""
        return self.world.comm_dup(self, label=label)

    def split(self, color: "int | None", key: int | None = None) -> "Communicator | None":
        """MPI_Comm_split: partition members by ``color``, order by ``key``.

        ``color=None`` (the MPI_UNDEFINED analog) returns ``None`` for
        this rank.
        """
        return self.world.comm_split(self, color, key)

    def create_group(self, group: Group, label: str | None = None) -> "Communicator":
        """MPI_Comm_create_group: collective over ``group`` members only."""
        return self.world.comm_create_group(self, group, label=label)

    def free(self) -> None:
        """Release the communicator handle (bookkeeping only)."""
        self._freed = True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _join(
        self, kind: str, contribution: Any, root: int
    ) -> "tuple[int, Any, CollectiveSite, tuple[int, int]]":
        """Common entry of both collective flavours: count the call and
        find the site it joins.  Returns ``(me, contribution, site, key)``."""
        self._check_live()
        me = self.rank()
        if kind == "scatter" and me != root:
            contribution = [None] * self.size  # non-root contribution is ignored
        self.world.count_coll(self.group.world_rank(me))
        site, key = self.world.site_for_next_call(self, me)
        return me, contribution, site, key

    def _collective(
        self,
        kind: str,
        contribution: Any,
        *,
        root: int = 0,
        op: "ReduceOp | str | None" = None,
    ) -> Any:
        me, contribution, site, key = self._join(kind, contribution, root)
        req = site.arrive(me, kind, contribution, root=root, op=op, blocking=True)
        self.world.gc_site_if_done(key, site)
        return req.wait()

    def _icollective(
        self,
        kind: str,
        contribution: Any,
        *,
        root: int = 0,
        op: "ReduceOp | str | None" = None,
    ) -> Request:
        me, contribution, site, key = self._join(kind, contribution, root)
        # The initiation itself costs a library call.
        self.world.sim.sleep(self.world.tuning.send_overhead)
        req = site.arrive(me, kind, contribution, root=root, op=op, blocking=False)
        self.world.gc_site_if_done(key, site)
        return req
