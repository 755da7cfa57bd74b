"""Communicators: the lower-half handles behind the session's virtual ones.

A :class:`Communicator` object is shared by all member processes (the
simulated analog of every rank holding a handle to the same context).
Its only caller is :mod:`repro.mana.session`, which knows which rank it
wraps, so every call takes the caller's world rank as its first
argument.  Applications never see a communicator: they program against
:class:`~repro.mana.vcomm.VirtualComm`, whose blocking point-to-point
calls and named collectives the session builds from the non-blocking
calls and the two collective entries here.  Communicator creation is
:meth:`~repro.simmpi.world.World.comm_split` and its siblings.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from .group import Group
from .request import Request

if TYPE_CHECKING:  # pragma: no cover
    from .collectives import CollectiveSite
    from .datatypes import ReduceOp
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

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def ggid(self) -> int:
        """Global group id of the underlying group (paper Section 4.1)."""
        return self.group.ggid

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.label} size={self.size} ctx={self.context_id}>"

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def isend(self, caller: int, obj: Any, dest: int, tag: int) -> Request:
        """Non-blocking send; completion per eager/rendezvous rules."""
        me = self.group.rank_of(caller)
        self.world.count_p2p(caller)
        return self.world.engine_for(self).send(me, dest, tag, obj)

    def irecv(self, caller: int, source: int, tag: int) -> Request:
        """Non-blocking receive; the request value is ``(payload, Status)``."""
        me = self.group.rank_of(caller)
        self.world.count_p2p(caller)
        return self.world.engine_for(self).post_recv(me, source, tag)

    def iprobe(self, caller: int, source: int, tag: int) -> "Status | None":
        """Non-blocking probe of arrived messages."""
        return self.world.engine_for(self).iprobe(self.group.rank_of(caller), source, tag)

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def _join(
        self, caller: int, kind: str, contribution: Any, root: int
    ) -> "tuple[int, Any, CollectiveSite, tuple[int, int]]":
        """Common entry of both collective flavours: count the call and
        find the site it joins.  Returns ``(me, contribution, site, key)``."""
        me = self.group.rank_of(caller)
        if kind == "scatter" and me != root:
            contribution = [None] * self.size  # non-root contribution is ignored
        self.world.count_coll(caller)
        site, key = self.world.site_for_next_call(self, me)
        return me, contribution, site, key

    def _collective(
        self,
        caller: int,
        kind: str,
        contribution: Any,
        *,
        root: int = 0,
        op: "ReduceOp | str | None" = None,
    ) -> Any:
        """Blocking collective ``kind``; returns this member's result."""
        me, contribution, site, key = self._join(caller, kind, contribution, root)
        req = site.arrive(me, kind, contribution, root=root, op=op, blocking=True)
        self.world.gc_site_if_done(key, site)
        return req.wait()

    def _icollective(
        self,
        caller: int,
        kind: str,
        contribution: Any,
        *,
        root: int = 0,
        op: "ReduceOp | str | None" = None,
    ) -> Request:
        """Non-blocking collective ``kind``; the request value is this
        member's result."""
        me, contribution, site, key = self._join(caller, kind, contribution, root)
        # The initiation itself costs a library call.
        self.world.sim.sleep(self.world.tuning.send_overhead)
        req = site.arrive(me, kind, contribution, root=root, op=op, blocking=False)
        self.world.gc_site_if_done(key, site)
        return req
