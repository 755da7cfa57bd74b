"""Topology wrappers: per-message perturbations over any base fabric.

Both wrappers obey the :class:`~repro.netmodel.Topology` contract —
``link`` stays symmetric and a function of the node pair — so the
generic group-mix means keep working.  Determinism: the DES pins event
order by ``(time, seq)``, so the jitter wrapper's per-(src, dst)
message counters advance identically on every run and the
injected noise is a pure function of ``(seed, src, dst, count)``.
"""

from __future__ import annotations

import struct
import zlib

from ..netmodel import LinkParams, Topology

__all__ = ["DegradedLinkTopology", "JitterTopology"]

_U64 = 0xFFFFFFFFFFFFFFFF


def _unit_noise(seed: int, src: int, dst: int, count: int) -> float:
    """Deterministic uniform in ``[0, 1)`` from the message coordinates."""
    key = struct.pack("<QqqQ", seed & _U64, src, dst, count & _U64)
    return zlib.crc32(key) / 4294967296.0


class _TopologyWrapper(Topology):
    """Delegate everything to ``inner``; subclasses override the knob."""

    def __init__(self, inner: Topology):
        self.inner = inner

    @property
    def nprocs(self) -> int:
        return self.inner.nprocs

    @property
    def params(self):
        return self.inner.params

    @property
    def nnodes(self) -> int:
        return self.inner.nnodes

    def node_of(self, rank: int) -> int:
        return self.inner.node_of(rank)

    def link(self, a: int, b: int) -> LinkParams:
        return self.inner.link(a, b)


class JitterTopology(_TopologyWrapper):
    """Seeded per-message latency noise on top of any topology.

    Each distinct (src, dst) message adds ``amp * link latency * u``
    with ``u`` a deterministic uniform drawn from ``(seed, src, dst,
    message count)``.  ``link`` and the group means stay the inner
    topology's clean values — collective stage-cost formulas price the
    *expected* fabric; only realized point-to-point transfers wobble.
    """

    def __init__(self, inner: Topology, *, seed: int, amp: float):
        super().__init__(inner)
        self.seed = int(seed)
        self.amp = float(amp)
        self._counts: "dict[tuple[int, int], int]" = {}

    def p2p_time(self, src: int, dst: int, nbytes: float) -> float:
        base = self.inner.p2p_time(src, dst, nbytes)
        if src == dst or self.amp <= 0.0:
            return base
        count = self._counts.get((src, dst), 0)
        self._counts[(src, dst)] = count + 1
        noise = _unit_noise(self.seed, src, dst, count)
        return base + self.amp * self.inner.link(src, dst).latency * noise

    def mean_alpha(self, ranks=None) -> float:
        return self.inner.mean_alpha(ranks)

    def mean_inv_bandwidth(self, ranks=None) -> float:
        return self.inner.mean_inv_bandwidth(ranks)


class DegradedLinkTopology(_TopologyWrapper):
    """One chosen node pair's link degraded by fixed factors.

    Messages between the pair's nodes pay ``latency_x`` × latency at
    ``bandwidth_x`` × bandwidth; every other link — including traffic
    inside either node — is untouched.  The generic group-mix means
    (inherited from :class:`~repro.netmodel.Topology`) account for the
    degraded class automatically.
    """

    def __init__(
        self,
        inner: Topology,
        *,
        node_a: int,
        node_b: int,
        latency_x: float,
        bandwidth_x: float,
    ):
        super().__init__(inner)
        lo, hi = sorted((node_a % inner.nnodes, node_b % inner.nnodes))
        self.node_a = lo
        self.node_b = hi
        self.latency_x = float(latency_x)
        self.bandwidth_x = float(bandwidth_x)

    def link(self, a: int, b: int) -> LinkParams:
        base = self.inner.link(a, b)
        if self.node_a == self.node_b:
            # The pair collapsed onto one node (tiny world): nothing to
            # degrade — never touch intra-node traffic.
            return base
        na, nb = self.inner.node_of(a), self.inner.node_of(b)
        if (min(na, nb), max(na, nb)) == (self.node_a, self.node_b):
            return LinkParams(
                latency=base.latency * self.latency_x,
                bandwidth=base.bandwidth * self.bandwidth_x,
            )
        return base
