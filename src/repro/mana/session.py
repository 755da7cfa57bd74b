"""The MANA session: per-rank interposition (wrapper) layer.

Every MPI call an application makes goes through here.  The session

* maps virtual handles to lower-half objects (and rebuilds the map at
  restart),
* invokes the active checkpoint protocol's wrapper hooks (CC increments
  sequence numbers; 2PC inserts trivial barriers; native passes through),
* keeps the drain bookkeeping: per-peer send/receive counters and the
  buffer of messages drained at checkpoint time,
* records wrapper-call results between step boundaries so an interrupted
  step can be *replayed deterministically* after restart (the substitute
  for MANA's raw-memory program-counter snapshot; the application side of
  the contract is in :mod:`repro.apps.base`), and
* participates in the commit sequence (drain non-blocking collectives,
  drain p2p, write the image) when the coordinator commands it.

Application contract (enforced by convention, documented in README):
state lives in ``session.app_state``; each app "step" ends with
``ctx.step_boundary()``; within a step, state writes must be replayable
(assignments from call results / pure recomputation, no cross-replay
accumulation).  All bundled mini-apps follow this.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

from ..core import PROTOCOLS, GgidRegistry, SeqNumTable, drain_nonblocking_requests
from ..core.protocol import ProtocolError, RoundAborted
from ..des import INTERRUPTED, Mailbox
from ..simmpi import ANY_SOURCE, ANY_TAG, Communicator, payload_nbytes
from .image import CheckpointImage
from .vcomm import VirtualComm, VirtualRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..simmpi import World
    from .coordinator import CheckpointCoordinator

__all__ = ["Session"]

#: Call-log entry tags.
_VALUE = "value"
_VREQ = "vreq"
_COMM = "comm"
_COMPUTE = "compute"


class Session:
    """Per-rank MANA wrapper state (the upper half's bookkeeping)."""

    def __init__(
        self,
        world: "World",
        rank: int,
        protocol_name: str,
        coordinator: "CheckpointCoordinator | None" = None,
    ):
        if protocol_name not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol_name!r}; expected one of {sorted(PROTOCOLS)}"
            )
        self.world = world
        self.sim = world.sim
        self.rank = rank
        self.nprocs = world.nprocs
        self.overheads = world.overheads
        self.protocol_name = protocol_name
        proto_cls, _logic = PROTOCOLS[protocol_name]
        self.protocol = proto_cls(self)
        self.coordinator = coordinator

        # Sequence numbers & groups (the seq_num.cpp state).
        self.seq = SeqNumTable()
        self.ggids = GgidRegistry()

        # Control plane.
        self.control = Mailbox(world.sim, label=f"ctl:{rank}")
        self.ctrl_sent = 0
        self.ctrl_received = 0
        self._peers: "dict[int, Session] | None" = None  # wired by the runner

        # Virtual communicators.  ``vcid`` is rank-local (assignment order
        # can differ across ranks after create_group); ``ckey`` —
        # (ggid, per-ggid creation ordinal) — is identical on every member
        # of the group and is what the p2p drain accounting is keyed on.
        self._vcomms: dict[int, Communicator] = {}
        self._next_vcid = 0
        self._ckey_of_vcid: dict[int, tuple[int, int]] = {}
        self._ggid_ordinal: dict[int, int] = {}
        self.creation_log: list[tuple] = []
        self._shadow: dict[int, Communicator] = {}  # ggid -> 2PC barrier comm
        self._pending_recv_ids: list[int] = []

        # Virtual requests.
        self._vreqs: dict[int, VirtualRequest] = {}
        self._next_vrid = 0

        # Record / replay.
        self.call_index = 0
        self.boundary_index = 0
        self.call_log: list[tuple] = []
        self._replay_entries: list[tuple] | None = None
        self._replay_end = 0
        self._pending_remaining: float | None = None
        #: Scenario compute slowdown (straggler ranks); scales fresh
        #: compute calls only — a restored remainder is already scaled.
        self.compute_factor = 1.0

        # p2p drain bookkeeping; keys are (ckey, peer_world_rank).
        self.sent_to: dict[tuple, int] = {}
        self.recv_done: dict[tuple, int] = {}
        #: Drained messages: (ckey, src_group_rank, tag, payload, nbytes).
        self.drain_buffer: list[tuple] = []
        # Conservation accounting for the drain-conservation oracle.
        # Every message entering the buffer is counted exactly once —
        # ``drain_restored`` (restored from an image at restart) or
        # ``drain_buffered`` (pulled in by a drain phase this run) — and
        # ``_buffer_take``, the only consumption path, counts every
        # message leaving it.  At any instant, crash or no crash,
        # restored + buffered == consumed + len(drain_buffer) per rank.
        self.drain_restored = 0
        self.drain_buffered = 0
        self.drain_consumed = 0

        # Application-owned state and accounting.
        self.app_state: dict = {}
        self.declared_bytes = 64 << 20
        self._in_compute_remaining = 0.0
        self.finished = False
        #: The app's return value, set by the runner just before
        #: :meth:`on_app_finished` so a checkpoint taken at (or after)
        #: completion snapshots the terminal result.
        self.final_result: Any = None
        self.checkpoints_taken = 0

        # COMM_WORLD is vcid 0, never in the creation log.
        self._register_comm(world.comm_world)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def wire_peers(self, peers: "dict[int, Session]") -> None:
        self._peers = peers

    def close(self) -> None:
        """Teardown: cut the links that make a finished run's sessions a
        cycle — protocol -> session, the peer table, and pending
        requests' lower halves (whose completion hooks point back at the
        request) — so refcounting frees them.  Counters, ``app_state``
        and ``drain_buffer`` stay readable."""
        self.protocol.session = None
        self._peers = None
        for vreq in self._vreqs.values():
            vreq._lower = None

    @property
    def comm_world(self) -> VirtualComm:
        return VirtualComm(0)

    def lower_comm(self, vcid: int) -> Communicator:
        try:
            return self._vcomms[vcid]
        except KeyError:
            raise ProtocolError(f"rank {self.rank}: unknown vcomm id {vcid}") from None

    def live_requests(self) -> list[VirtualRequest]:
        return [vr for vr in self._vreqs.values() if not vr.done]

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #

    def send_control(self, peer_rank: int, msg: tuple) -> None:
        """Rank-to-rank control message (CC target updates)."""
        if self._peers is None:
            raise ProtocolError("control plane not wired")
        self.ctrl_sent += 1
        self._peers[peer_rank].control.put(msg, delay=self.overheads.control_latency)

    def to_coordinator(self, msg: tuple) -> None:
        if self.coordinator is None:
            raise ProtocolError(
                f"rank {self.rank}: no coordinator attached but sent {msg!r}"
            )
        coord = self.coordinator
        self.sim.call_after(self.overheads.control_latency, lambda: coord.deliver(msg))

    # ------------------------------------------------------------------ #
    # Identity helpers for VirtualComm
    # ------------------------------------------------------------------ #

    def comm_rank(self, vcid: int) -> int:
        return self.lower_comm(vcid).group.rank_of(self.rank)

    def comm_size(self, vcid: int) -> int:
        return self.lower_comm(vcid).size

    def comm_ggid(self, vcid: int) -> int:
        return self.lower_comm(vcid).ggid

    def comm_world_ranks(self, vcid: int) -> tuple[int, ...]:
        return self.lower_comm(vcid).group.world_ranks

    # ------------------------------------------------------------------ #
    # Record / replay machinery
    # ------------------------------------------------------------------ #

    @property
    def replaying(self) -> bool:
        return self._replay_entries is not None and self.call_index < self._replay_end

    def _record(self, tag: str, payload: Any, op: str = "") -> None:
        self.call_log.append((tag, op, payload))
        self.call_index += 1

    def _replay_next(self, expected_tag: str, expected_op: str = "") -> Any:
        assert self._replay_entries is not None
        idx = self.call_index - self.boundary_index
        if idx >= len(self._replay_entries):
            raise ProtocolError(
                f"rank {self.rank}: replay log exhausted at call {self.call_index}"
            )
        tag, op, payload = self._replay_entries[idx]
        if tag != expected_tag or (expected_op and op and op != expected_op):
            raise ProtocolError(
                f"rank {self.rank}: replay divergence at call {self.call_index}: "
                f"app issued {expected_op or expected_tag!r} but the log has "
                f"{op or tag!r} — the application step is not deterministic "
                "(see the replayability contract in repro.apps.base)"
            )
        self.call_index += 1
        if not self.replaying:
            # Replay finished: switch the live log to the restored entries
            # so the boundary bookkeeping stays consistent.
            self.call_log = list(self._replay_entries)
            self._replay_entries = None
        return payload

    def step_boundary(self) -> None:
        """Mark an application step boundary (end of an outer iteration).

        Clears the intra-step call log (bounding replay memory), forgets
        completed requests and serves as a checkpoint-safe point.
        """
        if self.replaying:
            raise ProtocolError(
                f"rank {self.rank}: step boundary reached while replaying — the "
                "application re-executed fewer calls than the original step"
            )
        self.boundary_index = self.call_index
        self.call_log.clear()
        # With the log empty no replay window references a request any
        # more, and :meth:`build_image` only ever restores pending
        # receives and window-referenced requests — so a completed entry
        # is dead weight that pins its value (and lower-half request).
        # The application's own handle keeps working: a done request
        # answers ``wait``/``test`` without the table.
        self._vreqs = {
            vrid: vr for vrid, vr in self._vreqs.items() if not vr.done
        }
        self.protocol.at_safe_point()

    # ------------------------------------------------------------------ #
    # Compute modelling
    # ------------------------------------------------------------------ #

    def compute(self, seconds: float) -> None:
        """Model application compute; interruptible by the coordinator.

        During replay, compute is skipped (the work happened before the
        checkpoint; only its state effects are re-derived).
        """
        if self.replaying:
            self._replay_next(_COMPUTE)
            return
        if self._pending_remaining is not None:
            seconds = self._pending_remaining
            self._pending_remaining = None
        else:
            seconds = seconds * self.compute_factor
        end = self.sim.now() + seconds
        interruptible = self.protocol.adds_wrapper_cost
        while True:
            left = end - self.sim.now()
            if left <= 0:
                break
            res = self.sim.sleep(left, interruptible=interruptible)
            if res is INTERRUPTED:
                self._in_compute_remaining = max(end - self.sim.now(), 0.0)
                self._handle_compute_interrupt()
                self._in_compute_remaining = 0.0
            else:
                break
        self._record(_COMPUTE, None)

    def _handle_compute_interrupt(self) -> None:
        """Absorb control messages mid-compute (the DMTCP-signal analog).

        The rank reacts to the intent (sending its SEQ report) without
        stopping: it parks only at its next collective wrapper, matching
        the paper's algorithm (see ``RankProtocol.at_safe_point``).
        """
        self.protocol.absorb_control()

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def collective(
        self,
        vcid: int,
        kind: str,
        contribution: Any,
        *,
        root: int = 0,
        op: Any = None,
    ) -> Any:
        if self.replaying:
            return self._replay_next(_VALUE, kind)
        comm = self.lower_comm(vcid)
        ggid = comm.ggid
        members = comm.group.world_ranks

        def execute() -> Any:
            result = comm._collective(kind, contribution, root=root, op=op)
            # Record at execution completion (not after the protocol's
            # exit hook): a rank parked at the wrapper *exit* has executed
            # the operation, so a snapshot there must include it in the
            # replay window; a rank parked at the *entry* has not.
            self._record(_VALUE, result, kind)
            return result

        return self.protocol.on_blocking_collective(ggid, members, execute)

    def icollective(
        self,
        vcid: int,
        kind: str,
        contribution: Any,
        *,
        root: int = 0,
        op: Any = None,
    ) -> VirtualRequest:
        if self.replaying:
            vrid = self._replay_next(_VREQ, "i" + kind)
            return self._vreqs[vrid]
        comm = self.lower_comm(vcid)
        ggid = comm.ggid
        members = comm.group.world_ranks

        def initiate() -> VirtualRequest:
            lower = comm._icollective(kind, contribution, root=root, op=op)
            vreq = self._wrap_request(lower, "coll", (vcid, kind))
            self._record(_VREQ, vreq.vrid, "i" + kind)
            return vreq

        return self.protocol.on_nonblocking_collective(ggid, members, initiate)

    def protocol_ibarrier(self, ggid: int):
        """The 2PC trivial barrier: an Ibarrier on a shadow communicator
        dedicated to this group (so protocol traffic never perturbs the
        application's collective matching).

        Shadows are created *eagerly* when a communicator is registered —
        creating one lazily here would issue an unwrapped collective in
        the middle of a possibly-pending checkpoint, which is precisely
        the unprotected-collective hazard 2PC exists to prevent.  Returns
        ``None`` when no shadow exists (create_group comms under 2PC, a
        documented MANA-2019 limitation) and the caller skips phase 1.
        """
        shadow = self._shadow.get(ggid)
        if shadow is None:
            return None
        return shadow.ibarrier()

    def _ensure_shadow(self, comm: Communicator) -> None:
        """Create the 2PC trivial-barrier comm for ``comm``'s group."""
        if self.protocol_name != "2pc":
            return
        ggid = comm.ggid
        if ggid not in self._shadow:
            self._shadow[ggid] = self.world.comm_dup(
                comm, label=f"shadow:{ggid:#x}"
            )

    def prepare_protocol(self) -> None:
        """In-process protocol setup (runs after MPI_Init, and again after
        a restart's lower-half rebuild): eagerly create 2PC shadows for
        every registered communicator."""
        if self.protocol_name != "2pc":
            return
        for vcid in sorted(self._vcomms):
            self._ensure_shadow(self._vcomms[vcid])

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def _wrapper_cost(self) -> None:
        if self.protocol.adds_wrapper_cost:
            self.sim.sleep(self.overheads.wrapper_call)

    def p2p_send(self, vcid: int, obj: Any, dest: int, tag: int) -> None:
        if self.replaying:
            self._replay_next(_VALUE, "send")
            return
        self._wrapper_cost()
        comm = self.lower_comm(vcid)
        peer = comm.group.world_rank(dest)
        key = (self._ckey_of_vcid[vcid], peer)
        self.sent_to[key] = self.sent_to.get(key, 0) + 1
        self.sim.sleep(self.world.tuning.send_overhead)
        lower = self.world.engine_for(comm).send(comm.rank(), dest, tag, obj)
        # The message is injected: record *before* blocking on rendezvous
        # completion so a checkpoint taken while we wait does not replay
        # into a duplicate send (the original is in the peer's drain
        # buffer or already delivered).
        self._record(_VALUE, None, "send")
        if not lower.done:
            vreq = self._new_vreq("send", (vcid, dest, tag), internal=True)
            vreq._lower = lower
            lower.on_complete(lambda req, v=vreq: self._mark_done(v, None))
            self._await_request(vreq, consume=True)

    def p2p_isend(self, vcid: int, obj: Any, dest: int, tag: int) -> VirtualRequest:
        if self.replaying:
            vrid = self._replay_next(_VREQ, "isend")
            return self._vreqs[vrid]
        self._wrapper_cost()
        comm = self.lower_comm(vcid)
        peer = comm.group.world_rank(dest)
        key = (self._ckey_of_vcid[vcid], peer)
        self.sent_to[key] = self.sent_to.get(key, 0) + 1
        lower = comm.isend(obj, dest=dest, tag=tag)
        vreq = self._wrap_request(lower, "send", (vcid, dest, tag))
        self._record(_VREQ, vreq.vrid, "isend")
        return vreq

    def p2p_recv(self, vcid: int, source: int, tag: int) -> Any:
        """Blocking receive — implemented, as in MANA, as a *parkable*
        wait on a posted receive: a checkpoint may commit while this rank
        is blocked here (the matching send may only happen after the
        sender's own cut), and the receive stays pending across it."""
        if self.replaying:
            return self._replay_next(_VALUE, "recv")
        self._wrapper_cost()
        hit = self._buffer_take(vcid, source, tag)
        if hit is not None:
            payload = hit[3]
            self._record(_VALUE, payload, "recv")
            return payload
        vreq = self._new_vreq("recv", (vcid, source, tag), internal=True)
        self._post_recv(vreq)
        payload = self._await_request(vreq, consume=True)
        self._record(_VALUE, payload, "recv")
        return payload

    def p2p_irecv(self, vcid: int, source: int, tag: int) -> VirtualRequest:
        if self.replaying:
            vrid = self._replay_next(_VREQ, "irecv")
            return self._vreqs[vrid]
        self._wrapper_cost()
        hit = self._buffer_take(vcid, source, tag)
        if hit is not None:
            vreq = self._new_vreq("recv", (vcid, source, tag))
            vreq.done = True
            vreq.value = hit[3]
        else:
            vreq = self._new_vreq("recv", (vcid, source, tag))
            self._post_recv(vreq)
        self._record(_VREQ, vreq.vrid, "irecv")
        return vreq

    def p2p_iprobe(self, vcid: int, source: int, tag: int):
        if self.replaying:
            return self._replay_next(_VALUE, "iprobe")
        self._wrapper_cost()
        ckey = self._ckey_of_vcid[vcid]
        for rec in self.drain_buffer:
            if rec[0] == ckey and _match(rec[1], rec[2], source, tag):
                from ..simmpi import Status

                status = Status(source=rec[1], tag=rec[2], nbytes=rec[4])
                self._record(_VALUE, status, "iprobe")
                return status
        status = self.lower_comm(vcid).iprobe(source=source, tag=tag)
        self._record(_VALUE, status, "iprobe")
        return status

    # -- request wrappers -------------------------------------------------- #

    def _new_vreq(self, kind: str, desc: tuple, *, internal: bool = False) -> VirtualRequest:
        vreq = VirtualRequest(self._next_vrid, kind, desc, internal=internal)
        self._next_vrid += 1
        self._vreqs[vreq.vrid] = vreq
        return vreq

    def _wrap_request(self, lower, kind: str, desc: tuple) -> VirtualRequest:
        vreq = self._new_vreq(kind, desc)
        vreq._lower = lower

        def capture(req) -> None:
            vreq.done = True
            vreq.value = req.value

        lower.on_complete(capture)
        return vreq

    def _post_recv(self, vreq: VirtualRequest) -> None:
        """Post the lower-half receive ``vreq.desc`` describes and
        complete ``vreq`` from it (fresh receives and, at restart, the
        ones that were pending at the cut)."""
        vcid, source, tag = vreq.desc
        comm = self.lower_comm(vcid)
        vreq._lower = lower = comm.irecv(source=source, tag=tag)

        def capture(req) -> None:
            payload, status = req.value
            self._count_recv(vcid, comm, status.source)
            if vreq.internal:
                # Remember wire metadata: if a snapshot happens before
                # the blocking call consumes this, the payload persists
                # as a drained record.
                vreq.desc = (vcid, status.source, status.tag)
            self._mark_done(vreq, payload)

        lower.on_complete(capture)

    def vreq_wait(self, vreq: VirtualRequest) -> Any:
        if self.replaying:
            return self._replay_next(_VALUE, "wait")
        self.protocol.on_request_completion_call()
        value = self._await_request(vreq, consume=False)
        self._record(_VALUE, value, "wait")
        return value

    # -- parkable blocking wait ------------------------------------------- #

    def _mark_done(self, vreq: VirtualRequest, value: Any) -> None:
        vreq.done = True
        vreq.value = value

    def _await_request(self, vreq: VirtualRequest, *, consume: bool) -> Any:
        """Block until ``vreq`` completes, staying responsive to the
        checkpoint control plane.

        Wakes on either request completion or control-message delivery;
        with a checkpoint pending, the rank parks (counting as quiesced)
        while still polling for completion — MANA's interruptible-receive
        behaviour.  ``consume=True`` removes the request from the registry
        once delivered (internal requests backing blocking calls).
        """
        from ..des import Waiter

        while not vreq.done:
            if vreq._lower is None:
                raise ProtocolError(
                    f"rank {self.rank}: wait on pending request {vreq!r} with no "
                    "lower-half backing (restart bug)"
                )
            if self.protocol.adds_wrapper_cost and self.coordinator is not None:
                self.protocol.absorb_control()
                if vreq.done:
                    break
                if self.protocol.intent:
                    # Park while blocked: the checkpoint may commit now;
                    # completion (e.g. the peer's drain pulling our
                    # rendezvous payload) unparks us.
                    self.protocol.park_until_resume(poll=lambda: vreq.done)
                    continue
                # No checkpoint pending: sleep until completion OR any
                # control-plane delivery (intent could arrive while we
                # are blocked for a long time).
                w = Waiter(self.sim, label=f"await:{vreq.kind}")
                fired = {"done": False}

                def wake() -> None:
                    if not fired["done"]:
                        fired["done"] = True
                        w.fire()

                vreq._lower.on_complete(lambda _req: wake())
                self.control.add_tap(wake)
                try:
                    w.wait()
                finally:
                    self.control.remove_tap(wake)
            else:
                vreq._lower.wait()
                if not vreq.done and vreq._lower.done:
                    # Lower completed but capture didn't run: requests
                    # wrapped without a capture hook complete here.
                    self._mark_done(vreq, vreq._lower.value)
        value = vreq.value
        if consume:
            self._vreqs.pop(vreq.vrid, None)
        return value

    def vreq_test(self, vreq: VirtualRequest) -> tuple[bool, Any]:
        if self.replaying:
            return self._replay_next(_VALUE, "test")
        self.protocol.on_request_completion_call()
        self.sim.sleep(self.overheads.test_call)
        result = (vreq.done, vreq.value if vreq.done else None)
        self._record(_VALUE, result, "test")
        return result

    # -- drain-buffer helpers ------------------------------------------------ #

    def _buffer_take(self, vcid: int, source: int, tag: int):
        ckey = self._ckey_of_vcid[vcid]
        for i, rec in enumerate(self.drain_buffer):
            if rec[0] == ckey and _match(rec[1], rec[2], source, tag):
                self.drain_consumed += 1
                return self.drain_buffer.pop(i)
        return None

    def _count_recv(self, vcid: int, comm: Communicator, src_group_rank: int) -> None:
        peer = comm.group.world_rank(src_group_rank)
        key = (self._ckey_of_vcid[vcid], peer)
        self.recv_done[key] = self.recv_done.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # Communicator management
    # ------------------------------------------------------------------ #

    def _register_comm(self, comm: Communicator) -> VirtualComm:
        vcid = self._assign_handles(comm)
        ggid = comm.ggid
        self.seq.ensure_group(ggid)
        return VirtualComm(vcid)

    def _assign_handles(self, comm: Communicator) -> int:
        vcid = self._next_vcid
        self._next_vcid += 1
        self._vcomms[vcid] = comm
        ggid = self.ggids.register(comm.group.world_ranks)
        ordinal = self._ggid_ordinal.get(ggid, 0)
        self._ggid_ordinal[ggid] = ordinal + 1
        self._ckey_of_vcid[vcid] = (ggid, ordinal)
        return vcid

    def comm_split(self, vcid: int, color: "int | None", key: int | None):
        """MPI_Comm_split, protocol-wrapped.

        Communicator creation is a collective operation on the parent
        group, so it is counted in the parent's collective clock and
        protected by the 2PC trivial barrier like any other collective;
        otherwise a checkpoint's cut could split a creation operation
        (some members inside, some parked), which deadlocks the drain.
        """
        if self.replaying:
            payload = self._replay_next(_COMM, "split")
            return None if payload is None else VirtualComm(payload)
        comm = self.lower_comm(vcid)

        def execute():
            new = self.world.comm_split(comm, color, key)
            self.creation_log.append(("split", vcid, color, key))
            if new is None:
                self._record(_COMM, None, "split")
                return None
            vcomm = self._register_comm(new)
            self._ensure_shadow(new)
            self._record(_COMM, vcomm.vcid, "split")
            return vcomm

        return self.protocol.on_blocking_collective(
            comm.ggid, comm.group.world_ranks, execute
        )

    def comm_dup(self, vcid: int) -> VirtualComm:
        """MPI_Comm_dup, protocol-wrapped (see :meth:`comm_split`)."""
        if self.replaying:
            return VirtualComm(self._replay_next(_COMM, "dup"))
        comm = self.lower_comm(vcid)

        def execute():
            new = self.world.comm_dup(comm)
            self.creation_log.append(("dup", vcid))
            vcomm = self._register_comm(new)
            self._ensure_shadow(new)
            self._record(_COMM, vcomm.vcid, "dup")
            return vcomm

        return self.protocol.on_blocking_collective(
            comm.ggid, comm.group.world_ranks, execute
        )

    def comm_create_group(self, vcid: int, world_ranks: tuple[int, ...]) -> VirtualComm:
        """MPI_Comm_create_group, protocol-wrapped over the *new* group."""
        if self.replaying:
            return VirtualComm(self._replay_next(_COMM, "create_group"))
        comm = self.lower_comm(vcid)
        from ..simmpi import Group

        group = Group(world_ranks)
        new_ggid = self.ggids.register(group.world_ranks)
        self.seq.ensure_group(new_ggid)

        def execute():
            new = self.world.comm_create_group(comm, group)
            self.creation_log.append(("create_group", vcid, tuple(world_ranks)))
            vcomm = self._register_comm(new)
            # No shadow for create_group comms under 2PC (their first
            # barrier would need the shadow before the comm exists) —
            # the 2PC wrapper skips phase 1 for them, as MANA 2019 did
            # not support comm_create_group at all.
            self._record(_COMM, vcomm.vcid, "create_group")
            return vcomm

        return self.protocol.on_blocking_collective(
            new_ggid, group.world_ranks, execute
        )

    # ------------------------------------------------------------------ #
    # Commit participation (coordinator-driven)
    # ------------------------------------------------------------------ #

    def participate_in_commit(self) -> None:
        """Run the rank-side commit sequence.  Called from the protocol's
        park loop when the coordinator's commit message arrives."""
        drained_nbc = drain_nonblocking_requests(self)
        self.to_coordinator(("nbc_done", self.rank, dict(self.sent_to)))
        expected = self._await_phase("drain_p2p")[1]
        n_buffered = self._drain_p2p(expected)
        self.to_coordinator(("p2p_done", self.rank, self.declared_bytes))
        duration = self._await_phase("snapshot")[1]
        image = self.build_image()
        image.stats["drained_nbc"] = drained_nbc
        image.stats["drained_p2p"] = n_buffered
        self.sim.sleep(duration)
        self.to_coordinator(("written", self.rank, image))
        self._await_phase("resume")
        self._reset_after_checkpoint()

    def _await_phase(self, kind: str) -> tuple:
        msg = self.control.get()
        if msg[0] == "abort":
            # The coordinator abandoned the round mid-commit (a
            # participant crashed).  Unwind to the park loop: nothing
            # was committed and the application must keep running.
            raise RoundAborted(
                f"rank {self.rank}: round aborted while awaiting {kind!r}"
            )
        if msg[0] != kind:
            raise ProtocolError(
                f"rank {self.rank}: expected {kind!r} during commit, got {msg!r}"
            )
        return msg

    def poll_commit_abort(self) -> None:
        """Non-blocking abort check for commit-phase progress loops.

        The p2p/nbc drains poll the data plane in sleep loops that never
        read the control mailbox; with crash faults in the picture an
        abort can land mid-drain, and without this check the loop would
        spin (waiting on messages a corpse will never send) until the
        ``max_events`` guard trips.
        """
        ok, msg = self.control.peek()
        if ok and msg[0] == "abort":
            self.control.try_get()
            raise RoundAborted(f"rank {self.rank}: round aborted mid-drain")

    def _drain_p2p(self, expected: dict[tuple, int]) -> int:
        """Receive every in-flight message into the upper-half buffer.

        ``expected[(ckey, src_world)]`` is how many messages that peer had
        sent us on that communicator; we are done when completed receives
        plus buffered messages match for every key.
        """
        buffered_before = len(self.drain_buffer)
        buffered: dict[tuple, int] = {}

        def satisfied() -> bool:
            for key, n in expected.items():
                have = self.recv_done.get(key, 0) + buffered.get(key, 0)
                if have < n:
                    return False
                if have > n:
                    raise ProtocolError(
                        f"rank {self.rank}: drained more messages than were "
                        f"sent for {key}: {have} > {n}"
                    )
            return True

        gap = self.overheads.ibarrier_poll_gap
        try:
            while not satisfied():
                self.poll_commit_abort()
                progressed = False
                for vcid, comm in self._vcomms.items():
                    ckey = self._ckey_of_vcid[vcid]
                    while True:
                        status = comm.iprobe(source=ANY_SOURCE, tag=ANY_TAG)
                        if status is None:
                            break
                        payload, st = comm.recv_status(source=status.source, tag=status.tag)
                        src_world = comm.group.world_rank(st.source)
                        self.drain_buffer.append(
                            (ckey, st.source, st.tag, payload, st.nbytes)
                        )
                        self.drain_buffered += 1
                        key = (ckey, src_world)
                        buffered[key] = buffered.get(key, 0) + 1
                        progressed = True
                if not satisfied() and not progressed:
                    self.sim.sleep(gap)
        finally:
            # Whatever was pulled into the buffer was genuinely received
            # from the lower half; fold it into the receive counters so
            # an *aborted* round stays conserved across the next cut (a
            # committed round resets the counters right after anyway).
            for key, n in buffered.items():
                self.recv_done[key] = self.recv_done.get(key, 0) + n
        return len(self.drain_buffer) - buffered_before

    def build_image(self) -> CheckpointImage:
        """Cut this rank's upper-half checkpoint image: the heavy half is
        serialized here, once (:meth:`CheckpointImage.seal`)."""
        pending_recvs = [
            vr.vrid
            for vr in self._vreqs.values()
            if vr.kind == "recv" and not vr.done and not vr.internal
        ]
        # Requests referenced by the replayable window or still pending.
        referenced = set(pending_recvs)
        for tag, _op, payload in self.call_log:
            if tag == _VREQ:
                referenced.add(payload)
        # The requests themselves, not copies of their fields: a handle
        # the application carries in ``app_state`` is the same object,
        # and one pickle stream keeps it the same object, so what the
        # restart re-posts is what the application waits on.
        vreq_table = {
            vrid: vr
            for vrid, vr in self._vreqs.items()
            if vrid in referenced and not vr.internal
        }
        # A blocking receive whose message arrived before the snapshot but
        # was not yet consumed: the payload must survive as a drained
        # record — the re-executed receive finds it in the buffer, and
        # the sender (pre-cut) will never resend.
        drained_extra = []
        for vr in self._vreqs.values():
            if vr.internal and vr.kind == "recv" and vr.done:
                vcid, src, tag = vr.desc
                drained_extra.append(
                    (
                        self._ckey_of_vcid[vcid],
                        src,
                        tag,
                        vr.value,
                        payload_nbytes(vr.value),
                    )
                )
        return CheckpointImage.seal(
            rank=self.rank,
            nprocs=self.nprocs,
            protocol=self.protocol_name,
            ckpt_id=self.protocol.ckpt_id or 0,
            app_state=self.app_state,
            seq_table=self.seq.snapshot(),
            ggid_peers=self.ggids.snapshot(),
            creation_log=list(self.creation_log),
            call_index=self.call_index,
            boundary_index=self.boundary_index,
            call_log=self.call_log,
            drained=self.drain_buffer + drained_extra,
            vreq_table=vreq_table,
            pending_recvs=pending_recvs,
            remaining_compute=self._in_compute_remaining,
            declared_bytes=self.declared_bytes,
            finished=self.finished,
            final_result=self.final_result,
            stats={"next_vrid": self._next_vrid, "next_vcid": self._next_vcid},
        )

    def _reset_after_checkpoint(self) -> None:
        self.sent_to.clear()
        self.recv_done.clear()
        self.ctrl_sent = 0
        self.ctrl_received = 0
        self.checkpoints_taken += 1

    # ------------------------------------------------------------------ #
    # Restart (restore + lower-half rebuild)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_image(
        cls,
        world: "World",
        image: CheckpointImage,
        coordinator: "CheckpointCoordinator | None" = None,
    ) -> "Session":
        """Stage A of restart: restore upper-half state (no communication).

        Call :meth:`rebuild_lower` from inside the rank's process before
        resuming the application.
        """
        if image.nprocs != world.nprocs:
            raise ProtocolError(
                f"image for {image.nprocs} ranks cannot restart on "
                f"{world.nprocs} ranks"
            )
        # The one unpickle: fresh objects the restarted run may mutate,
        # while the caller's image set stays intact (it may be restarted
        # again — e.g. a failed first restart attempt).
        heavy = image.load()
        sess = cls(world, image.rank, image.protocol, coordinator)
        sess.seq = SeqNumTable.restore(image.seq_table)
        sess.seq.clear_targets()
        sess.ggids = GgidRegistry.restore(image.ggid_peers)
        sess.app_state = heavy["app_state"]
        sess.creation_log = list(image.creation_log)
        sess.drain_buffer = heavy["drained"]
        sess.drain_restored = len(sess.drain_buffer)
        sess.declared_bytes = image.declared_bytes
        # A rank that was finished at the cut stays finished: the runner
        # never re-enters the application, and the restored final result
        # is what the restarted job reports for this rank.
        sess.finished = image.finished
        sess.final_result = heavy["final_result"]
        sess.boundary_index = image.boundary_index
        sess.call_index = image.boundary_index
        sess._replay_entries = heavy["call_log"]
        sess._replay_end = image.call_index
        if image.remaining_compute > 0:
            sess._pending_remaining = image.remaining_compute
        sess._vreqs = heavy["vreq_table"]
        sess._pending_recv_ids = list(image.pending_recvs)
        sess._next_vrid = image.stats["next_vrid"]
        return sess

    def rebuild_lower(self) -> None:
        """Stage B of restart: rebuild lower-half handles (collective).

        Replays the communicator-creation log against the fresh world and
        re-posts pending receives, mirroring MANA's restart of the lower
        half.  Must run inside this rank's simulated process.
        """
        for entry in self.creation_log:
            op = entry[0]
            parent = self.lower_comm(entry[1])
            if op == "split":
                new = self.world.comm_split(parent, entry[2], entry[3])
                if new is not None:
                    self._assign_handles(new)
            elif op == "dup":
                self._assign_handles(self.world.comm_dup(parent))
            elif op == "create_group":
                from ..simmpi import Group

                self._assign_handles(
                    self.world.comm_create_group(parent, Group(entry[2]))
                )
            else:  # pragma: no cover - log is produced by this class
                raise ProtocolError(f"unknown creation-log entry {entry!r}")
        # Re-post receives that were pending at the cut.
        for vrid in sorted(self._pending_recv_ids):
            self._post_recv(self._vreqs[vrid])

    # ------------------------------------------------------------------ #
    # App lifecycle
    # ------------------------------------------------------------------ #

    def on_app_finished(self) -> None:
        self.finished = True
        self.protocol.on_app_finished()
        if self.coordinator is not None:
            self.to_coordinator(("finished", self.rank))


def _match(src: int, tag: int, want_source: int, want_tag: int) -> bool:
    return (want_source == ANY_SOURCE or want_source == src) and (
        want_tag == ANY_TAG or want_tag == tag
    )
