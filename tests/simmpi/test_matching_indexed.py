"""Differential test: indexed matcher vs the pre-PR linear-scan matcher.

``_ReferenceMatcher`` below is the seed repo's ``MatchingEngine`` (linear
scans over unexpected/posted queues), kept as the semantic oracle less
the blocking probe the engine no longer has.  Randomized traffic —
wildcards, rendezvous, iprobes — is replayed against both engines in
twin simulations; every observable (completion values, statuses, times,
queue introspection) must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.des import Simulator
from repro.netmodel import make_topology
from repro.simmpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.simmpi.matching import Envelope, MatchingEngine, Status
from repro.simmpi.request import Request


def _matches(env, source, tag):
    return (source == ANY_SOURCE or source == env.src) and (
        tag == ANY_TAG or tag == env.tag
    )


@dataclass
class _RefPostedRecv:
    seq: int
    dst: int
    source: int
    tag: int
    request: Request
    posted_at: float


class _ReferenceMatcher:
    """The seed repo's linear-scan matching engine (semantic oracle)."""

    def __init__(self, sim, topo, world_ranks, *, eager_threshold=65536):
        self.sim = sim
        self.topo = topo
        self.world_ranks = world_ranks
        self.eager_threshold = eager_threshold
        self._seq = itertools.count()
        self._unexpected: dict[int, list[Envelope]] = {}
        self._posted: dict[int, list[_RefPostedRecv]] = {}

    def in_flight_to(self, dst):
        return list(self._unexpected.get(dst, ()))

    def total_unmatched(self):
        return sum(len(v) for v in self._unexpected.values())

    def pending_recvs(self, dst):
        return len(self._posted.get(dst, ()))

    def send(self, src, dst, tag, payload):
        from repro.simmpi.datatypes import payload_nbytes

        now = self.sim.now()
        nbytes = payload_nbytes(payload)
        transit = self.topo.p2p_time(
            self.world_ranks[src], self.world_ranks[dst], nbytes
        )
        rendezvous = nbytes > self.eager_threshold
        send_req = Request(self.sim, "send")
        env = Envelope(
            seq=next(self._seq),
            src=src,
            dst=dst,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            sent_at=now,
            available_at=now + transit,
            rendezvous=rendezvous,
            send_request=send_req if rendezvous else None,
        )
        if not rendezvous:
            send_req.complete(None)
        matched = self._try_match_posted(env)
        if not matched:
            self._unexpected.setdefault(dst, []).append(env)
        return send_req

    def post_recv(self, dst, source, tag):
        now = self.sim.now()
        queue = self._unexpected.get(dst, [])
        for i, env in enumerate(queue):
            if _matches(env, source, tag):
                queue.pop(i)
                req = Request(self.sim, "recv")
                self._complete_transfer(env, req, posted_at=now)
                return req
        req = Request(self.sim, "recv")
        self._posted.setdefault(dst, []).append(
            _RefPostedRecv(
                seq=next(self._seq),
                dst=dst,
                source=source,
                tag=tag,
                request=req,
                posted_at=now,
            )
        )
        return req

    def iprobe(self, dst, source, tag):
        now = self.sim.now()
        for env in self._unexpected.get(dst, ()):
            if _matches(env, source, tag) and env.available_at <= now + 1e-18:
                return Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
        return None

    def _try_match_posted(self, env):
        posted = self._posted.get(env.dst)
        if not posted:
            return False
        for i, pr in enumerate(posted):
            if _matches(env, pr.source, pr.tag):
                posted.pop(i)
                self._complete_transfer(env, pr.request, posted_at=pr.posted_at)
                return True
        return False

    def _complete_transfer(self, env, recv_req, posted_at):
        now = self.sim.now()
        if env.rendezvous:
            start = max(env.sent_at, posted_at, now)
            transit = self.topo.p2p_time(
                self.world_ranks[env.src], self.world_ranks[env.dst], env.nbytes
            )
            done = start + transit
            env.send_request.complete_at(done, None)
        else:
            done = max(env.available_at, now)
        status = Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
        recv_req.complete_at(done, (env.payload, status))

# --------------------------------------------------------------------- #
# Random traffic scripts
# --------------------------------------------------------------------- #

def _random_script(seed: int, nprocs: int, n_ops: int):
    """A deterministic list of matching-engine operations."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(
            ["send", "send_big", "recv", "recv_wild", "iprobe", "tick"],
            p=[0.3, 0.05, 0.3, 0.1, 0.15, 0.1],
        )
        src = int(rng.integers(nprocs))
        dst = int(rng.integers(nprocs))
        tag = int(rng.integers(4))
        size = int(rng.integers(1, 512))
        ops.append((str(kind), src, dst, tag, size))
    return ops


def _replay(engine_factory, ops, nprocs):
    """Run one script against a fresh engine; return the observation log."""
    topo = make_topology(nprocs, ppn=max(nprocs // 2, 1))
    observations = []
    with Simulator(seed=1) as sim:
        eng = engine_factory(sim, topo, tuple(range(nprocs)))
        pending = []

        def driver():
            for kind, src, dst, tag, size in ops:
                if kind == "send":
                    req = eng.send(src, dst, tag, b"x" * size)
                    pending.append(("send", req))
                elif kind == "send_big":
                    # Above the (lowered) eager threshold: rendezvous.
                    req = eng.send(src, dst, tag, b"y" * (size + 2048))
                    pending.append(("send_big", req))
                elif kind == "recv":
                    pending.append(("recv", eng.post_recv(dst, src, tag)))
                elif kind == "recv_wild":
                    source = ANY_SOURCE if tag % 2 == 0 else src
                    wtag = ANY_TAG if tag % 3 == 0 else tag
                    pending.append(("recv", eng.post_recv(dst, source, wtag)))
                elif kind == "iprobe":
                    status = eng.iprobe(dst, src if tag % 2 else ANY_SOURCE, tag)
                    observations.append(("iprobe", sim.now(), status))
                elif kind == "tick":
                    sim.sleep(1e-5)
                    observations.append(
                        ("queues", sim.now(), eng.total_unmatched(),
                         tuple(eng.pending_recvs(d) for d in range(nprocs)),
                         tuple(tuple((e.seq, e.src, e.tag) for e in eng.in_flight_to(d))
                               for d in range(nprocs)))
                    )
            # Drain what completed; leave genuinely unmatched ops pending.
            sim.sleep(1.0)
            for kind, req in pending:
                observations.append((kind, req.done, req.value if req.done else None))

        sim.spawn(driver, name="driver")
        sim.run()
    return observations


def _norm(obs):
    """Completion values contain Status dataclasses; make them comparable."""
    out = []
    for item in obs:
        out.append(repr(item))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_indexed_matcher_equals_reference_on_random_traffic(seed):
    nprocs = 4
    ops = _random_script(seed, nprocs, n_ops=160)

    def indexed(sim, topo, ranks):
        return MatchingEngine(sim, topo, ranks, eager_threshold=2048)

    def reference(sim, topo, ranks):
        return _ReferenceMatcher(sim, topo, ranks, eager_threshold=2048)

    got = _norm(_replay(indexed, ops, nprocs))
    want = _norm(_replay(reference, ops, nprocs))
    assert got == want


def _wildcard_flood_script(seed: int, nprocs: int, n_ops: int):
    """Traffic shaped to stress the wildcard index: many distinct
    ``(src, tag)`` buckets per destination, wildcard-heavy receives, and
    enough concrete receives in between to leave tombstones (and trigger
    compaction) in the index views."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(
            ["send", "recv", "recv_wild", "iprobe", "tick"],
            p=[0.42, 0.1, 0.28, 0.15, 0.05],
        )
        src = int(rng.integers(nprocs))
        dst = int(rng.integers(nprocs))
        tag = int(rng.integers(16))  # up to nprocs*16 buckets per dst
        size = int(rng.integers(1, 64))
        ops.append((str(kind), src, dst, tag, size))
    return ops


@pytest.mark.parametrize("seed", [10, 11, 12, 13, 14, 15])
def test_indexed_matcher_equals_reference_on_wildcard_floods(seed):
    nprocs = 4
    ops = _wildcard_flood_script(seed, nprocs, n_ops=240)

    def indexed(sim, topo, ranks):
        return MatchingEngine(sim, topo, ranks, eager_threshold=2048)

    def reference(sim, topo, ranks):
        return _ReferenceMatcher(sim, topo, ranks, eager_threshold=2048)

    got = _norm(_replay(indexed, ops, nprocs))
    want = _norm(_replay(reference, ops, nprocs))
    assert got == want


def test_wildcard_index_survives_concrete_tombstones_and_compaction():
    # Build a large index, then drain mostly through *concrete* receives
    # so the index views fill with tombstones (forcing compaction), and
    # check the interleaved wildcard receives still see the exact
    # earliest-send order the reference semantics require.
    topo = make_topology(4, ppn=4)
    with Simulator() as sim:
        eng = MatchingEngine(sim, topo, (0, 1, 2, 3))

        def body():
            n = 300
            for i in range(n):
                eng.send(1 + (i % 3), 0, i % 25, ("msg", i))
            # First wildcard op builds the index over all ~75 buckets.
            eng.iprobe(0, ANY_SOURCE, ANY_TAG)
            expect = list(range(n))
            # Alternate 3 concrete takes (tombstones) with 1 wildcard
            # take; both must always yield the earliest remaining send.
            while expect:
                i = expect.pop(0)
                if len(expect) % 4 == 0:
                    payload, _ = eng.post_recv(0, ANY_SOURCE, ANY_TAG).wait()
                else:
                    payload, _ = eng.post_recv(0, 1 + (i % 3), i % 25).wait()
                assert payload[1] == i
            assert eng.total_unmatched() == 0
            wild = eng._wild[0]
            assert wild.live == 0
            # Compaction (4:1 stale:live above the 64-entry floor) kept
            # the stale views bounded well below the flood size.
            assert len(wild.order) <= 65

        sim.spawn(body)
        sim.run()


def test_indexed_matcher_preserves_non_overtaking_within_source_tag():
    topo = make_topology(2, ppn=2)
    with Simulator() as sim:
        eng = MatchingEngine(sim, topo, (0, 1))
        got = []

        def body():
            for i in range(10):
                eng.send(1, 0, 7, ("msg", i))
            for _ in range(10):
                payload, status = eng.post_recv(0, 1, 7).wait()
                got.append(payload[1])

        sim.spawn(body)
        sim.run()
        assert got == list(range(10))


def test_wildcard_recv_takes_global_earliest_across_sources():
    topo = make_topology(4, ppn=4)
    with Simulator() as sim:
        eng = MatchingEngine(sim, topo, (0, 1, 2, 3))
        got = []

        def body():
            # Interleave senders; ANY_SOURCE must drain in send order.
            eng.send(2, 0, 5, "a")
            eng.send(1, 0, 5, "b")
            eng.send(3, 0, 5, "c")
            eng.send(1, 0, 5, "d")
            for _ in range(4):
                payload, status = eng.post_recv(0, ANY_SOURCE, 5).wait()
                got.append((payload, status.source))

        sim.spawn(body)
        sim.run()
        assert got == [("a", 2), ("b", 1), ("c", 3), ("d", 1)]


def test_posted_wildcard_buckets_match_earliest_posted():
    topo = make_topology(3, ppn=3)
    with Simulator() as sim:
        eng = MatchingEngine(sim, topo, (0, 1, 2))

        def body():
            r_wild = eng.post_recv(0, ANY_SOURCE, ANY_TAG)
            r_tag = eng.post_recv(0, ANY_SOURCE, 4)
            r_src = eng.post_recv(0, 2, ANY_TAG)
            # Earliest matching post wins: the full wildcard.
            eng.send(2, 0, 4, "first")
            sim.sleep(0.5)
            assert r_wild.done and r_wild.value[0] == "first"
            assert not r_tag.done and not r_src.done
            eng.send(2, 0, 4, "second")
            sim.sleep(0.5)
            assert r_tag.done and r_tag.value[0] == "second"
            assert not r_src.done
            eng.send(2, 0, 9, "third")
            sim.sleep(0.5)
            assert r_src.done and r_src.value[0] == "third"

        sim.spawn(body)
        sim.run()
