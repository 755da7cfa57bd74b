"""Cluster topologies: mapping ranks to nodes and picking link parameters.

The paper's Figure 8 hinges on a topology effect: going from one node
(128 procs) to two nodes (256 procs) raises the *base* cost of
communication (inter-node links appear), which shrinks the *relative*
overhead of checkpointing protocols.  This module provides that effect,
generalized behind a ``node_of``/``link`` interface so scenario classes
(:mod:`repro.scenarios`) can swap in multi-tier fabrics — fat-tree pods,
dragonfly groups — or wrap any topology with per-link perturbations.

Contract every :class:`Topology` obeys: ``node_of`` is total on
``[0, nprocs)``, and ``link(a, b)`` is symmetric and a function of
``(node_of(a), node_of(b))`` only.  The generic ``mean_alpha`` /
``mean_inv_bandwidth`` implementations lean on that contract: they
sample one representative rank per occupied node and weight each link
class by its share of the group's ordered rank pairs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .base import LinkParams, ModelParams

#: Fat-tree core links (pod-to-pod, through the spine) relative to the
#: plain inter-node fabric: longer path, oversubscribed bandwidth.
_CORE_LATENCY_X = 2.5
_CORE_BANDWIDTH_X = 0.5

#: Dragonfly global links (group-to-group optical hops) relative to the
#: plain inter-node fabric: much longer path, heavily shared.
_GLOBAL_LATENCY_X = 4.0
_GLOBAL_BANDWIDTH_X = 0.25


class Topology(ABC):
    """Rank→node placement plus a per-node-pair link model.

    Subclasses provide ``nprocs`` / ``params`` (attributes or
    properties) and implement :meth:`node_of` and :meth:`link`; the
    shared cost helpers (``p2p_time``, ``mean_alpha``,
    ``mean_inv_bandwidth``) are derived here so every topology — block
    clusters, multi-tier fabrics, scenario wrappers — prices messages
    through one code path.
    """

    @abstractmethod
    def node_of(self, rank: int) -> int:
        """Node hosting ``rank``; raises ``ValueError`` out of range."""

    @abstractmethod
    def link(self, a: int, b: int) -> LinkParams:
        """Link parameters between ranks ``a`` and ``b``.

        Must be symmetric and depend only on ``(node_of(a), node_of(b))``.
        """

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def p2p_time(self, src: int, dst: int, nbytes: float) -> float:
        """Transfer time of one point-to-point message."""
        if src == dst:
            # Self-sends only pay a copy, modelled as intra bandwidth.
            return nbytes / self.params.intra.bandwidth
        return self.link(src, dst).transfer_time(nbytes)

    # -- group-mix means ----------------------------------------------- #

    def _link_mix(
        self, ranks: "tuple[int, ...] | None"
    ) -> "dict[LinkParams, int]":
        """Ordered rank-pair count per distinct link class in the group.

        Valid under the class contract (``link`` a function of the node
        pair): one representative rank per occupied node suffices, and
        the per-class weights come from node occupancy counts.
        """
        ranks_iter = range(self.nprocs) if ranks is None else ranks
        groups: "dict[int, list[int]]" = {}  # node -> [rep rank, count]
        for r in ranks_iter:
            entry = groups.get(self.node_of(r))
            if entry is None:
                groups[self.node_of(r)] = [r, 1]
            else:
                entry[1] += 1
        mix: "dict[LinkParams, int]" = {}
        items = sorted(groups.items())
        for i, (_na, (ra, ca)) in enumerate(items):
            if ca > 1:
                lp = self.link(ra, ra)
                mix[lp] = mix.get(lp, 0) + ca * (ca - 1)
            for _nb, (rb, cb) in items[i + 1:]:
                lp = self.link(ra, rb)
                mix[lp] = mix.get(lp, 0) + 2 * ca * cb
        return mix

    @staticmethod
    def _check_group(ranks: "tuple[int, ...] | None", what: str) -> None:
        if ranks is not None and len(ranks) == 0:
            raise ValueError(
                f"{what} is undefined for an empty rank group; pass "
                "ranks=None for the full world or a non-empty tuple"
            )

    def mean_alpha(self, ranks: "tuple[int, ...] | None" = None) -> float:
        """Average latency over the group's rank-pair mix.

        Used by stage-cost formulas (e.g. a dissemination barrier round)
        where partners change every round: we charge the expected link
        latency given the mix of link classes in the group.
        """
        self._check_group(ranks, "mean_alpha")
        n = self.nprocs if ranks is None else len(ranks)
        if n <= 1:
            return self.params.intra.latency
        mix = self._link_mix(ranks)
        total = sum(mix.values())
        return sum(c * lp.latency for lp, c in mix.items()) / total

    def mean_inv_bandwidth(
        self, ranks: "tuple[int, ...] | None" = None
    ) -> float:
        """Average 1/bandwidth over the group's rank-pair mix."""
        self._check_group(ranks, "mean_inv_bandwidth")
        n = self.nprocs if ranks is None else len(ranks)
        if n <= 1:
            return 1.0 / self.params.intra.bandwidth
        mix = self._link_mix(ranks)
        total = sum(mix.values())
        return sum(c / lp.bandwidth for lp, c in mix.items()) / total


@dataclass(frozen=True)
class _BlockTopology(Topology):
    """Shared block placement: rank ``r`` lives on node ``r // ppn``."""

    nprocs: int
    ppn: int
    params: ModelParams

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.ppn < 1:
            raise ValueError(f"ppn must be >= 1, got {self.ppn}")

    @property
    def nnodes(self) -> int:
        return -(-self.nprocs // self.ppn)  # ceil division

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
        return rank // self.ppn


@dataclass(frozen=True)
class ClusterTopology(_BlockTopology):
    """One flat cluster: ``params.intra`` within a node, ``params.inter``
    between any two nodes.

    The ``mean_alpha`` / ``mean_inv_bandwidth`` overrides keep the
    original two-class closed form (not the generic link-mix
    accumulation): with exactly one inter-node link class the two are
    mathematically equal, but the closed form's float evaluation order
    is pinned by years of committed fingerprints — do not "simplify" it
    into the base implementation.
    """

    def link(self, a: int, b: int) -> LinkParams:
        """Link parameters between ranks ``a`` and ``b``."""
        if self.same_node(a, b):
            return self.params.intra
        return self.params.inter

    def _frac_intra(self, ranks: "tuple[int, ...] | None") -> float:
        nprocs = self.nprocs if ranks is None else len(ranks)
        if ranks is None:
            full, rem = divmod(self.nprocs, self.ppn)
            counts = [self.ppn] * full + ([rem] if rem else [])
        else:
            nodes: "dict[int, int]" = {}
            for r in ranks:
                n = self.node_of(r)
                nodes[n] = nodes.get(n, 0) + 1
            counts = list(nodes.values())
        total_pairs = nprocs * (nprocs - 1)
        intra_pairs = sum(c * (c - 1) for c in counts)
        return intra_pairs / total_pairs if total_pairs else 1.0

    def mean_alpha(self, ranks: "tuple[int, ...] | None" = None) -> float:
        """Average latency over the (group's) rank pair mix."""
        self._check_group(ranks, "mean_alpha")
        nprocs = self.nprocs if ranks is None else len(ranks)
        if nprocs <= 1:
            return self.params.intra.latency
        frac_intra = self._frac_intra(ranks)
        return (
            frac_intra * self.params.intra.latency
            + (1.0 - frac_intra) * self.params.inter.latency
        )

    def mean_inv_bandwidth(
        self, ranks: "tuple[int, ...] | None" = None
    ) -> float:
        """Average 1/bandwidth over the group's rank-pair mix."""
        self._check_group(ranks, "mean_inv_bandwidth")
        nprocs = self.nprocs if ranks is None else len(ranks)
        if nprocs <= 1:
            return 1.0 / self.params.intra.bandwidth
        frac_intra = self._frac_intra(ranks)
        return frac_intra / self.params.intra.bandwidth + (1.0 - frac_intra) / self.params.inter.bandwidth


@dataclass(frozen=True)
class FatTreeTopology(_BlockTopology):
    """Two-tier fat-tree: nodes grouped into pods of ``nodes_per_pod``.

    Within a node: ``params.intra``.  Within a pod (edge/aggregation
    switches): ``params.inter``.  Across pods the message climbs to the
    oversubscribed core: ``params.inter`` stretched by
    ``_CORE_LATENCY_X`` / ``_CORE_BANDWIDTH_X``.
    """

    nodes_per_pod: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes_per_pod < 1:
            raise ValueError(
                f"nodes_per_pod must be >= 1, got {self.nodes_per_pod}"
            )
        inter = self.params.inter
        object.__setattr__(
            self,
            "_core",
            LinkParams(
                latency=inter.latency * _CORE_LATENCY_X,
                bandwidth=inter.bandwidth * _CORE_BANDWIDTH_X,
            ),
        )

    def pod_of(self, rank: int) -> int:
        return self.node_of(rank) // self.nodes_per_pod

    def link(self, a: int, b: int) -> LinkParams:
        if self.same_node(a, b):
            return self.params.intra
        if self.pod_of(a) == self.pod_of(b):
            return self.params.inter
        return self._core


@dataclass(frozen=True)
class DragonflyTopology(_BlockTopology):
    """Dragonfly / multi-region: nodes grouped into all-to-all groups of
    ``nodes_per_group``, groups joined by long global (optical) links.

    Within a node: ``params.intra``.  Within a group: ``params.inter``.
    Across groups: ``params.inter`` stretched by ``_GLOBAL_LATENCY_X`` /
    ``_GLOBAL_BANDWIDTH_X`` — the same shape as a multi-region
    deployment with fast regional fabric and slow cross-region pipes.
    """

    nodes_per_group: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes_per_group < 1:
            raise ValueError(
                f"nodes_per_group must be >= 1, got {self.nodes_per_group}"
            )
        inter = self.params.inter
        object.__setattr__(
            self,
            "_global",
            LinkParams(
                latency=inter.latency * _GLOBAL_LATENCY_X,
                bandwidth=inter.bandwidth * _GLOBAL_BANDWIDTH_X,
            ),
        )

    @property
    def ngroups(self) -> int:
        return -(-self.nnodes // self.nodes_per_group)

    def group_of(self, rank: int) -> int:
        return self.node_of(rank) // self.nodes_per_group

    def link(self, a: int, b: int) -> LinkParams:
        if self.same_node(a, b):
            return self.params.intra
        if self.group_of(a) == self.group_of(b):
            return self.params.inter
        return self._global


#: Registered topology classes — the property suite in
#: ``tests/netmodel/test_topology.py`` sweeps every entry.
TOPOLOGIES: "dict[str, type[_BlockTopology]]" = {
    "cluster": ClusterTopology,
    "fat-tree": FatTreeTopology,
    "dragonfly": DragonflyTopology,
}


def make_topology(
    nprocs: int, *, ppn: int | None = None, params: ModelParams | None = None
) -> ClusterTopology:
    """Convenience constructor with Perlmutter-like defaults.

    When ``ppn`` is omitted the whole job is placed on one node if it
    fits in 128 ranks, else packed 128-per-node (Perlmutter CPU nodes).
    """
    if params is None:
        params = ModelParams.perlmutter_like()
    if ppn is None:
        ppn = min(nprocs, 128)
    return ClusterTopology(nprocs=nprocs, ppn=ppn, params=params)
