"""The simulated MPI job: contexts, engines, collective sites, counters.

A :class:`World` glues together the DES kernel, the topology/cost model,
the matching engines (one per communicator context), and the collective
sites.  It is the "lower half" of the MANA split process: everything in
here is discarded at checkpoint time and rebuilt at restart.  Ranks are
launched by :func:`repro.harness.runner.launch_run`, and every call that
acts for a rank takes that rank's world rank from its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..des import Simulator, Waiter
from ..netmodel import ClusterTopology
from .collectives import CollectiveSite
from .comm import Communicator
from .errors import CommunicatorError
from .group import Group
from .matching import MatchingEngine

__all__ = ["World", "WorldStats"]


@dataclass
class WorldStats:
    """Per-rank call counters (the Table 1 measurement source)."""

    nprocs: int
    coll_calls: np.ndarray = field(init=False)
    p2p_calls: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.coll_calls = np.zeros(self.nprocs, dtype=np.int64)
        self.p2p_calls = np.zeros(self.nprocs, dtype=np.int64)

    def total_coll(self) -> int:
        return int(self.coll_calls.sum())

    def total_p2p(self) -> int:
        return int(self.p2p_calls.sum())


class World:
    """One simulated MPI job (the lower half)."""

    def __init__(self, sim: Simulator, topo: ClusterTopology):
        self.sim = sim
        self.topo = topo
        self.params = topo.params
        self.tuning = topo.params.tuning
        self.overheads = topo.params.overheads
        self.nprocs = topo.nprocs

        self.stats = WorldStats(self.nprocs)

        self._next_context = 0
        self._engines: dict[int, MatchingEngine] = {}
        self._sites: dict[tuple[int, int], CollectiveSite] = {}
        self._call_counters: dict[int, list[int]] = {}
        self._comm_registry: dict[Any, Communicator] = {}
        self._cg_counters: dict[Any, list[int]] = {}
        self._barriers: dict[Any, dict[str, Any]] = {}

        world_group = Group(range(self.nprocs))
        self.comm_world = self._new_communicator(world_group, "COMM_WORLD")

    def close(self) -> None:
        """Teardown: drop the lower half wholesale — matching engines
        and open collective sites (their pending requests' completion
        hooks point back at the sessions) — and cut every communicator's
        link back here, so refcounting frees the job once its owner lets
        go.  ``stats`` stay readable."""
        self._engines.clear()
        self._sites.clear()
        for comm in (self.comm_world, *self._comm_registry.values()):
            comm.world = None

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #

    def count_coll(self, world_rank: int) -> None:
        self.stats.coll_calls[world_rank] += 1

    def count_p2p(self, world_rank: int) -> None:
        self.stats.p2p_calls[world_rank] += 1

    # ------------------------------------------------------------------ #
    # Contexts, engines, sites
    # ------------------------------------------------------------------ #

    def _new_context_id(self) -> int:
        ctx = self._next_context
        self._next_context += 1
        return ctx

    def _new_communicator(self, group: Group, label: str) -> Communicator:
        comm = Communicator(self, group, self._new_context_id(), label)
        self._engines[comm.context_id] = MatchingEngine(
            self.sim, self.topo, group.world_ranks, label=label
        )
        self._call_counters[comm.context_id] = [0] * group.size
        return comm

    def engine_for(self, comm: Communicator) -> MatchingEngine:
        return self._engines[comm.context_id]

    def site_for_next_call(
        self, comm: Communicator, member: int
    ) -> tuple[CollectiveSite, tuple[int, int]]:
        """The site this member's next collective call on ``comm`` joins.

        MPI matches collectives per communicator in call order, so the
        member's per-communicator call counter is the site index.
        """
        counters = self._call_counters[comm.context_id]
        index = counters[member]
        counters[member] += 1
        key = (comm.context_id, index)
        site = self._sites.get(key)
        if site is None:
            site = CollectiveSite(
                self.sim,
                self.topo,
                self.tuning,
                comm.group.world_ranks,
                index=index,
                label=comm.label,
            )
            self._sites[key] = site
        return site, key

    def gc_site_if_done(self, key: tuple[int, int], site: CollectiveSite) -> None:
        if site.complete:
            self._sites.pop(key, None)

    def open_sites(self) -> int:
        """Number of collective operations with members still unresolved."""
        return len(self._sites)

    # ------------------------------------------------------------------ #
    # Communicator creation (collective operations; ``caller`` is the
    # calling rank's world rank)
    # ------------------------------------------------------------------ #

    def comm_dup(
        self, comm: Communicator, caller: int, label: str | None = None
    ) -> Communicator:
        """MPI_Comm_dup: a new context over the identical group."""
        me = comm.group.rank_of(caller)
        # The pre-call collective counter identifies this dup instance:
        # by MPI rules, all members have issued the same number of prior
        # collectives on this communicator.
        call_no = self._call_counters[comm.context_id][me]
        comm._collective(caller, "allgather", ("dup", call_no))
        key = (comm.context_id, "dup", call_no)
        return self._registry_get_or_create(key, comm.group, label or f"{comm.label}.dup")

    def comm_split(
        self, comm: Communicator, caller: int, color: "int | None", key: int | None
    ) -> "Communicator | None":
        """MPI_Comm_split: partition members by ``color``, order by
        ``key``; ``color=None`` (MPI_UNDEFINED) returns ``None``."""
        me = comm.group.rank_of(caller)
        call_no = self._call_counters[comm.context_id][me]
        sort_key = key if key is not None else me
        entries = comm._collective(caller, "allgather", (color, sort_key, caller))
        if color is None:
            return None
        members = sorted((k, w) for (c, k, w) in entries if c == color)
        group = Group([w for (_k, w) in members])
        reg_key = (comm.context_id, "split", call_no, color)
        label = f"{comm.label}.split({color})"
        return self._registry_get_or_create(reg_key, group, label)

    def comm_create_group(
        self, comm: Communicator, caller: int, group: Group, label: str | None = None
    ) -> Communicator:
        """MPI_Comm_create_group: collective over ``group`` members only."""
        if caller not in group:
            raise CommunicatorError(
                f"world rank {caller} called create_group but is not in the group"
            )
        for w in group.world_ranks:
            if w not in comm.group:
                raise CommunicatorError(
                    f"group member {w} is not part of {comm.label!r}"
                )
        # Per-(parent, group) per-member call counter distinguishes
        # repeated create_group calls over the same subgroup.
        cg_key = (comm.context_id, group.world_ranks)
        counters = self._cg_counters.setdefault(cg_key, [0] * group.size)
        me_idx = group.rank_of(caller)
        call_no = counters[me_idx]
        counters[me_idx] += 1
        key = ("create", comm.context_id, group.world_ranks, call_no)
        self._subgroup_barrier(key, group)
        new_label = label or f"{comm.label}.group{list(group.world_ranks)}"
        return self._registry_get_or_create(key, group, new_label)

    def _registry_get_or_create(self, key: Any, group: Group, label: str) -> Communicator:
        comm = self._comm_registry.get(key)
        if comm is None:
            comm = self._new_communicator(group, label)
            self._comm_registry[key] = comm
        return comm

    def _subgroup_barrier(self, key: Any, group: Group) -> None:
        """Dissemination-cost barrier over a subgroup, outside any context.

        Used by ``create_group``, which synchronizes only the new group's
        members (MPI-3 semantics).
        """
        state = self._barriers.setdefault(key, {"waiters": [], "arrived": 0})
        state["arrived"] += 1
        if state["arrived"] == group.size:
            stage = self.topo.mean_alpha(group.world_ranks) + self.tuning.send_overhead
            rounds = max(1, math.ceil(math.log2(max(group.size, 2))))
            exit_time = self.sim.now() + rounds * stage
            for w in state["waiters"]:
                self.sim.call_at(exit_time, w.fire)
            del self._barriers[key]
            self.sim.sleep(max(exit_time - self.sim.now(), 0.0))
        else:
            w = Waiter(self.sim, label=f"create_group:{key!r}")
            state["waiters"].append(w)
            w.wait()
