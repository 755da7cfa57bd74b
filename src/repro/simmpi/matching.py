"""Point-to-point message matching engine.

One engine exists per communicator context; it implements MPI matching
semantics:

* A receive matches the **earliest-sent** message with a compatible
  (source, tag) — the non-overtaking rule.  Matching order is send order
  even when a later, smaller message physically arrives first.
* ``ANY_SOURCE`` / ``ANY_TAG`` wildcards.
* Eager sends complete locally; rendezvous sends (above the eager
  threshold) complete only when the receiver has posted.
* ``iprobe`` sees a message only once it has physically arrived
  (``available_at <= now``), while a posted receive may match a message
  still in flight (completing when it lands) — both mirror real MPI.

The engine is purely logical: virtual time enters through envelope
timestamps and through completion times computed with the topology's
link parameters.

Matching is **indexed**, not scanned: unexpected envelopes and posted
receives are bucketed into per-``(source, tag)`` deques, so the common
concrete-pattern receive is an O(1) dict lookup + ``popleft`` instead of
a linear walk over every in-flight message.  For an incoming envelope at
most the four patterns ``(src, tag)``, ``(src, ANY)``, ``(ANY, tag)``,
``(ANY, ANY)`` can match, so delivery against posted receives is O(4).

Wildcard *receives* get their own index (:class:`_WildIndex`): the first
wildcard operation on a destination builds seq-ordered views (global
order, per-source, per-tag) over that destination's unexpected
envelopes, maintained incrementally afterwards.  An ``ANY_SOURCE`` /
``ANY_TAG`` flood then costs O(1) amortized per receive — the head of
the right view *is* the earliest match — instead of a min-seq scan over
every ``(src, tag)`` bucket head per operation.  Envelopes taken through
a concrete pattern are tombstoned (``Envelope.consumed``) and drained
from the views lazily, with periodic compaction when stale entries
dominate; destinations that never see a wildcard never pay for the
index at all.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterator

from ..des import Simulator
from ..netmodel import ClusterTopology
from .datatypes import ANY_SOURCE, ANY_TAG, payload_nbytes
from .errors import MatchingError
from .request import Request

__all__ = ["MatchingEngine", "Status", "Envelope"]

_by_seq = attrgetter("seq")


@dataclass(frozen=True)
class Status:
    """Receive/probe status (MPI_Status analog)."""

    source: int  # group rank of the sender
    tag: int
    nbytes: int


@dataclass(slots=True)
class Envelope:
    """One in-flight or unexpected message."""

    seq: int
    src: int  # group rank
    dst: int  # group rank
    tag: int
    payload: Any
    nbytes: int
    sent_at: float
    available_at: float  # physical arrival time at dst
    rendezvous: bool = False
    send_request: Request | None = None
    #: Tombstone: set when the envelope leaves its ``(src, tag)`` bucket;
    #: stale references in wildcard-index views skip it lazily.
    consumed: bool = False


@dataclass(slots=True)
class _PostedRecv:
    seq: int
    dst: int
    source: int
    tag: int
    request: Request
    posted_at: float


class _WildIndex:
    """Seq-ordered views over one destination's unexpected envelopes.

    Built lazily on the first wildcard operation for a destination and
    maintained incrementally from then on:

    * ``order`` — every envelope in send order (serves ``(ANY, ANY)``);
    * ``by_src[s]`` — envelopes from source ``s`` (serves ``(s, ANY)``);
    * ``by_tag[t]`` — envelopes with tag ``t`` (serves ``(ANY, t)``).

    Each view's first non-consumed entry is the earliest match for its
    pattern, so a wildcard take is O(1) amortized.  Removals through
    *concrete* patterns only tombstone (``Envelope.consumed``); views
    drop tombstones lazily at their heads and compact wholesale when
    stale entries outnumber live ones 4:1.
    """

    __slots__ = ("order", "by_src", "by_tag", "live")

    #: Compaction floor: below this many entries the lazy head-drain is
    #: already cheap and rebuild bookkeeping would dominate.
    _COMPACT_MIN = 64

    def __init__(self, buckets: dict[tuple[int, int], deque[Envelope]]):
        envs = sorted(
            (env for bucket in buckets.values() for env in bucket), key=_by_seq
        )
        self.order: deque[Envelope] = deque(envs)
        self.by_src: dict[int, deque[Envelope]] = {}
        self.by_tag: dict[int, deque[Envelope]] = {}
        self.live = len(envs)
        for env in envs:
            self._append_views(env)

    def _append_views(self, env: Envelope) -> None:
        by_src = self.by_src.get(env.src)
        if by_src is None:
            self.by_src[env.src] = deque((env,))
        else:
            by_src.append(env)
        by_tag = self.by_tag.get(env.tag)
        if by_tag is None:
            self.by_tag[env.tag] = deque((env,))
        else:
            by_tag.append(env)

    def add(self, env: Envelope) -> None:
        """A new unexpected envelope arrived (already appended to its bucket)."""
        self.order.append(env)
        self._append_views(env)
        self.live += 1

    def discard(self, env: Envelope) -> None:
        """``env`` left its bucket through a concrete-pattern take."""
        env.consumed = True
        self.live -= 1
        if (
            len(self.order) > self._COMPACT_MIN
            and len(self.order) > 4 * (self.live + 1)
        ):
            self._compact()

    def _compact(self) -> None:
        envs = [env for env in self.order if not env.consumed]
        self.order = deque(envs)
        self.by_src = {}
        self.by_tag = {}
        for env in envs:
            self._append_views(env)

    def _view(self, source: int, tag: int) -> deque[Envelope] | None:
        if source == ANY_SOURCE:
            if tag == ANY_TAG:
                return self.order
            return self.by_tag.get(tag)
        return self.by_src.get(source)

    def pop(self, source: int, tag: int) -> Envelope | None:
        """Take the earliest live envelope matching a wildcard pattern.

        Tombstones the envelope (the caller still removes it from its
        concrete bucket) and pops it from the view it was found in; the
        other views drop their stale references lazily.
        """
        view = self._view(source, tag)
        if view is None:
            return None
        while view:
            env = view.popleft()
            if env.consumed:
                continue
            env.consumed = True
            self.live -= 1
            return env
        return None

    def iter_live(self, source: int, tag: int) -> Iterator[Envelope]:
        """Live matching envelopes in global send order."""
        view = self._view(source, tag)
        if view is None:
            return
        for env in view:
            if not env.consumed:
                yield env


class MatchingEngine:
    """Matching state for one communicator context."""

    def __init__(
        self,
        sim: Simulator,
        topo: ClusterTopology,
        world_ranks: tuple[int, ...],
        *,
        eager_threshold: int = 65536,
        label: str = "comm",
    ):
        self.sim = sim
        self.topo = topo
        self.world_ranks = world_ranks
        self.eager_threshold = eager_threshold
        self.label = label
        self._seq = itertools.count()
        #: Unmatched envelopes per destination group rank, bucketed by
        #: the concrete ``(src, tag)`` pair; each deque is in send order.
        self._unexpected: dict[int, dict[tuple[int, int], deque[Envelope]]] = {}
        #: Posted-but-unmatched receives per destination, bucketed by the
        #: posted ``(source, tag)`` *pattern* (wildcards included); each
        #: deque is in post order.
        self._posted: dict[int, dict[tuple[int, int], deque[_PostedRecv]]] = {}
        #: Lazy per-destination wildcard views over ``_unexpected``;
        #: created on the first wildcard operation for a destination.
        self._wild: dict[int, _WildIndex] = {}

    # ------------------------------------------------------------------ #
    # Introspection (for tests: the checkpoint drain reads the queues
    # through ``iprobe`` and ``post_recv`` like any receiver)
    # ------------------------------------------------------------------ #

    def in_flight_to(self, dst: int) -> list[Envelope]:
        """Unmatched envelopes destined to group rank ``dst``, send order."""
        buckets = self._unexpected.get(dst)
        if not buckets:
            return []
        return sorted(
            (env for bucket in buckets.values() for env in bucket), key=_by_seq
        )

    def total_unmatched(self) -> int:
        return sum(
            len(bucket)
            for buckets in self._unexpected.values()
            for bucket in buckets.values()
        )

    def pending_recvs(self, dst: int) -> int:
        buckets = self._posted.get(dst)
        if not buckets:
            return 0
        return sum(len(bucket) for bucket in buckets.values())

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #

    def send(self, src: int, dst: int, tag: int, payload: Any) -> Request:
        """Inject a message; returns the send-completion request.

        For eager messages the request completes immediately (the library
        buffered the data); for rendezvous messages it completes when the
        matching receive drains the data.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if tag < 0:
            raise MatchingError(f"send tag must be >= 0, got {tag}")
        now = self.sim.now()
        nbytes = payload_nbytes(payload)
        transit = self.topo.p2p_time(
            self.world_ranks[src], self.world_ranks[dst], nbytes
        )
        rendezvous = nbytes > self.eager_threshold
        send_req = Request(
            self.sim,
            "send",
            meta={"src": src, "dst": dst, "tag": tag, "nbytes": nbytes},
        )
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
        if not self._try_match_posted(env):
            buckets = self._unexpected.get(dst)
            if buckets is None:
                buckets = self._unexpected[dst] = {}
            bucket = buckets.get((src, tag))
            if bucket is None:
                buckets[(src, tag)] = deque((env,))
            else:
                bucket.append(env)
            wild = self._wild.get(dst)
            if wild is not None:
                wild.add(env)
        return send_req

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def post_recv(self, dst: int, source: int, tag: int) -> Request:
        """Post a receive; the request's value is ``(payload, Status)``."""
        self._check_rank(dst)
        if source != ANY_SOURCE:
            self._check_rank(source)
        now = self.sim.now()
        env = self._take_unexpected(dst, source, tag)
        if env is not None:
            req = Request(
                self.sim,
                "recv",
                meta={"src": env.src, "dst": dst, "tag": env.tag},
            )
            self._complete_transfer(env, req, posted_at=now)
            return req
        req = Request(self.sim, "recv", meta={"dst": dst, "source": source, "tag": tag})
        buckets = self._posted.get(dst)
        if buckets is None:
            buckets = self._posted[dst] = {}
        posted = _PostedRecv(
            seq=next(self._seq),
            dst=dst,
            source=source,
            tag=tag,
            request=req,
            posted_at=now,
        )
        bucket = buckets.get((source, tag))
        if bucket is None:
            buckets[(source, tag)] = deque((posted,))
        else:
            bucket.append(posted)
        return req

    def iprobe(self, dst: int, source: int, tag: int) -> Status | None:
        """Non-blocking probe: status of the first *arrived* match, or None."""
        self._check_rank(dst)
        horizon = self.sim.now() + 1e-18
        for env in self._iter_matching(dst, source, tag):
            if env.available_at <= horizon:
                return Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
        return None

    # ------------------------------------------------------------------ #
    # Indexed lookup internals
    # ------------------------------------------------------------------ #

    def _wild_index(
        self, dst: int, buckets: dict[tuple[int, int], deque[Envelope]]
    ) -> _WildIndex:
        wild = self._wild.get(dst)
        if wild is None:
            wild = self._wild[dst] = _WildIndex(buckets)
        return wild

    def _take_unexpected(
        self, dst: int, source: int, tag: int
    ) -> Envelope | None:
        """Pop the earliest-sent unexpected envelope matching the pattern."""
        buckets = self._unexpected.get(dst)
        if not buckets:
            return None
        if source != ANY_SOURCE and tag != ANY_TAG:
            key = (source, tag)
            bucket = buckets.get(key)
            if not bucket:
                return None
            env = bucket.popleft()
            if not bucket:
                del buckets[key]
            wild = self._wild.get(dst)
            if wild is not None:
                wild.discard(env)
            return env
        wild = self._wild_index(dst, buckets)
        env = wild.pop(source, tag)
        if env is None:
            return None
        # The envelope's own bucket holds only live entries of the same
        # (src, tag) in seq order, and env is the earliest live match of
        # a pattern that covers the whole bucket — so it is the head.
        key = (env.src, env.tag)
        bucket = buckets[key]
        if bucket[0] is env:
            bucket.popleft()
        else:  # pragma: no cover - defensive, head property guarantees above
            bucket.remove(env)
        if not bucket:
            del buckets[key]
        return env

    def _iter_matching(
        self, dst: int, source: int, tag: int
    ) -> Iterator[Envelope]:
        """Matching unexpected envelopes in global send order."""
        buckets = self._unexpected.get(dst)
        if not buckets:
            return iter(())
        if source != ANY_SOURCE and tag != ANY_TAG:
            bucket = buckets.get((source, tag))
            return iter(bucket) if bucket else iter(())
        return self._wild_index(dst, buckets).iter_live(source, tag)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _try_match_posted(self, env: Envelope) -> bool:
        buckets = self._posted.get(env.dst)
        if not buckets:
            return False
        # An envelope can only match receives posted under one of these
        # four patterns; each bucket head is its earliest post, so the
        # overall earliest matching post is the min-seq head of the four.
        best_key: tuple[int, int] | None = None
        best: _PostedRecv | None = None
        for key in (
            (env.src, env.tag),
            (env.src, ANY_TAG),
            (ANY_SOURCE, env.tag),
            (ANY_SOURCE, ANY_TAG),
        ):
            bucket = buckets.get(key)
            if bucket:
                head = bucket[0]
                if best is None or head.seq < best.seq:
                    best_key, best = key, head
        if best is None:
            return False
        bucket = buckets[best_key]
        bucket.popleft()
        if not bucket:
            del buckets[best_key]
        self._complete_transfer(env, best.request, posted_at=best.posted_at)
        return True

    def _complete_transfer(self, env: Envelope, recv_req: Request, posted_at: float) -> None:
        now = self.sim.now()
        if env.rendezvous:
            # Handshake: data moves only once both sides are ready.
            start = max(env.sent_at, posted_at, now)
            transit = self.topo.p2p_time(
                self.world_ranks[env.src], self.world_ranks[env.dst], env.nbytes
            )
            done = start + transit
            assert env.send_request is not None
            env.send_request.complete_at(done, None)
        else:
            done = max(env.available_at, now)
        status = Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
        recv_req.complete_at(done, (env.payload, status))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < len(self.world_ranks):
            raise MatchingError(
                f"group rank {rank} out of range [0,{len(self.world_ranks)}) "
                f"on {self.label}"
            )
