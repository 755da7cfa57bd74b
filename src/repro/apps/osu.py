"""OSU micro-benchmark kernels (paper Section 5.1, Figures 5 and 6).

``OsuCollective`` reproduces the OSU latency loop: a window of
collectives in a tight loop with minimal compute in between — the upper
limit of collective call rates (Table 1's 255k coll/s row).

``OsuOverlap`` reproduces the OSU non-blocking overlap methodology
(Figure 6): measure pure communication time ``t_pure``, then issue the
non-blocking collective, compute for ~``t_pure``, and wait; report

    overlap% = max(0, 1 - (t_overall - t_compute) / t_pure) * 100.
"""

from __future__ import annotations

import numpy as np

from .base import AppContext, MpiApp

__all__ = ["OsuCollective", "OsuOverlap", "OSU_KINDS"]

OSU_KINDS = ("bcast", "alltoall", "allreduce", "allgather")


class _OsuApp(MpiApp):
    """What both OSU kernels share: a kind, a message size, one constant
    send buffer and the call that starts one collective."""

    def __init__(self, niters: int, kind: str, nbytes: int):
        super().__init__(niters)
        if kind not in OSU_KINDS:
            raise ValueError(f"unknown OSU kind {kind!r}; expected {OSU_KINDS}")
        self.kind = kind
        self.nbytes = nbytes
        self._buffer = None

    def _payload(self, ctx: AppContext):
        """The rank's send buffer, built once per run as real OSU does
        (one allocation outside the timed loop).  It lives on the app
        instance — one per rank — and not in ``ctx.state``: it is a
        constant of (kind, nbytes, nprocs, rank), so a restart rebuilds
        it instead of checkpointing it.  Read-only because the same
        array is every alltoall slot and is handed out again each step.
        """
        if self._buffer is None:
            buf = np.full(max(self.nbytes // 8, 1), float(ctx.rank))
            buf.flags.writeable = False
            self._buffer = [buf] * ctx.nprocs if self.kind == "alltoall" else buf
        return self._buffer

    def _start(self, ctx: AppContext, *, blocking: bool):
        """Issue one collective of ``self.kind``: its result when
        ``blocking``, else the request."""
        method = getattr(ctx.world, self.kind if blocking else "i" + self.kind)
        payload = self._payload(ctx)
        if self.kind == "bcast":
            return method(payload if ctx.rank == 0 else None, root=0)
        return method(payload)


class OsuCollective(_OsuApp):
    """osu_bcast / osu_alltoall / osu_allreduce / osu_allgather."""

    name = "osu"

    def __init__(
        self,
        niters: int = 100,
        *,
        kind: str = "bcast",
        nbytes: int = 4,
        blocking: bool = True,
        gap_compute: float = 2.0e-7,
    ):
        super().__init__(niters, kind, nbytes)
        self.blocking = blocking
        self.gap_compute = gap_compute
        self.name = f"osu_{'' if blocking else 'i'}{kind}"

    def setup(self, ctx: AppContext) -> None:
        ctx.declare_memory(16 << 20)
        ctx.state["t_total"] = 0.0
        ctx.state["count"] = 0

    def step(self, ctx: AppContext, i: int) -> None:
        ctx.compute_jittered(self.gap_compute, i, "gap")
        t0 = ctx.now()
        result = self._start(ctx, blocking=self.blocking)
        if not self.blocking:
            result.wait()
        t1 = ctx.now()
        # ---- commit block ----
        ctx.state["t_total"] = ctx.state["t_total"] + (t1 - t0)
        ctx.state["count"] = ctx.state["count"] + 1

    def finalize(self, ctx: AppContext):
        return {
            "avg_latency": ctx.state["t_total"] / max(ctx.state["count"], 1),
            "iterations": ctx.state["count"],
        }


class OsuOverlap(_OsuApp):
    """OSU communication/computation overlap measurement (Figure 6)."""

    name = "osu_overlap"

    def __init__(
        self,
        niters: int = 60,
        *,
        kind: str = "bcast",
        nbytes: int = 1024,
        warmup: int = 10,
    ):
        super().__init__(niters, kind, nbytes)
        self.warmup = warmup
        self.name = f"osu_overlap_{kind}"

    def setup(self, ctx: AppContext) -> None:
        ctx.declare_memory(16 << 20)
        ctx.state["t_pure"] = 0.0
        ctx.state["overlaps"] = []

    def step(self, ctx: AppContext, i: int) -> None:
        s = ctx.state
        if i < self.warmup:
            # Warmup phase: measure pure (non-overlapped) latency.
            t0 = ctx.now()
            req = self._start(ctx, blocking=False)
            req.wait()
            t1 = ctx.now()
            # ---- commit block ----
            prev = s["t_pure"]
            k = i + 1
            s["t_pure"] = prev + ((t1 - t0) - prev) / k  # running mean
            return
        t_pure = max(s["t_pure"], 1e-12)
        t0 = ctx.now()
        req = self._start(ctx, blocking=False)
        ctx.compute(t_pure)  # overlap window sized to the pure latency
        t_after_compute = ctx.now()
        req.wait()
        t1 = ctx.now()
        t_compute = t_after_compute - t0
        overlap = max(0.0, min(1.0, 1.0 - (t1 - t0 - t_compute) / t_pure)) * 100.0
        # ---- commit block ----
        s["overlaps"] = s["overlaps"] + [overlap]

    def finalize(self, ctx: AppContext):
        overlaps = ctx.state["overlaps"]
        return {
            "overlap_pct": float(np.mean(overlaps)) if overlaps else 0.0,
            "t_pure": ctx.state["t_pure"],
        }
