"""Span tracer (named ``tracing`` so it cannot shadow the stdlib ``trace``)

Span tracer installed *from outside* around the repo's layer boundaries.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
public methods by class attribute and, for functions other modules
imported by name (``execute`` in ``engine``, ``launch_run`` in ``spec``,
``make_solver`` in ``simmpi.collectives`` …), rebinds every loaded
``repro.*`` module attribute that still points at the original.

A span is ``[name_id, start, end, parent, job]``.  Parent stacks are
thread-local because rank bodies run on carrier threads; a span opened
on a rank thread with an empty stack is charged to the job's active
``Simulator.run`` span (exactly one thread runs at any instant, so one
"current run" variable is enough).  Only *non-suspending* calls are
timed on rank threads — a timed span that contained a suspension would
absorb every other rank's work — and the count-only wrappers on
``Simulator.sleep``/``block`` record a violation if one is ever open.
Suspending calls (``sleep``, ``block``, app ``step``) are counted only.
Self time = duration − the part covered by child spans.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "EXPECTED_HITS", "EXPECTED_COUNTS"]

#: Span names that MUST be hit at least once on a workload (the tracer's
#: self-check that every outside-in patch actually took).
_ALWAYS = (
    "harness.run_batch", "harness.spec_hash", "harness.cache_get",
    "harness.fold_render",
)
_COLD = _ALWAYS + (
    "harness.execute", "harness.cache_put", "harness.result_codec",
    "runner.launch", "runner.gc", "des.run", "des.spawn", "des.close",
    "simmpi.coll_arrive", "netmodel.solver", "core.ggid", "core.seq_increment",
)
_P2P = ("simmpi.match_send", "simmpi.match_recv", "netmodel.p2p_time")
_CKPT = (
    "mana.build_image", "mana.from_image", "mana.pack", "mana.coordinator",
    "core.compute_targets", "harness.cache_put_images",
)
EXPECTED_HITS = {
    "osu_blocking": _COLD,
    "osu_overlap": _COLD,
    "apps_p2p": _COLD + _P2P,
    "ckpt_restart": _COLD + _P2P + _CKPT,
    "warm_replay": _ALWAYS + (
        "harness.execute", "harness.cache_get_images", "mana.unpack",
        "mana.from_image", "harness.result_codec", "harness.cache_prune",
    ),
}
#: Count-only wrappers that must fire (a restart that only replays
#: never re-enters ``step``, so warm_replay is not held to ``apps.steps``).
EXPECTED_COUNTS = {
    name: ("des.suspends",) if name == "warm_replay" else ("des.suspends", "apps.steps")
    for name in EXPECTED_HITS
}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Timed spans that were open on a thread when it suspended.
        self.violations: Counter = Counter()
        self._tls = threading.local()
        self._run_span = -1
        self._job = -1
        self._launches = 0

    # -- recording ------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def timed(self, name: str, fn, *, role: str = ""):
        """Wrap ``fn`` in a span.  ``role`` marks the two spans that carry
        tracer state: ``"launch"`` numbers the job, ``"run"`` becomes the
        parent of rank-thread spans."""
        nid = self._name_id(name)
        spans = self.spans
        clock = time.perf_counter
        get_stack = self._stack

        def wrapper(*args, **kwargs):
            stack = get_stack()
            if role == "launch":
                self._job = self._launches
                self._launches += 1
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else self._run_span, self._job]
            spans.append(rec)
            stack.append(idx)
            if role == "run":
                self._run_span = idx
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if role == "run":
                    self._run_span = -1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, name: str, fn, *, suspends: bool = False):
        """Count calls to ``fn`` without timing it (it may suspend)."""
        counts = self.counts
        get_stack = self._stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if suspends:
                stack = get_stack()
                if stack:
                    self.violations[self.names[self.spans[stack[-1]][0]]] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Context-manager form, for the benchmark's own phases."""
        stack = self._stack()
        rec = [self._name_id(name), 0.0, 0.0, stack[-1] if stack else -1, self._job]
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    # -- patching ------------------------------------------------------- #

    @staticmethod
    def _rebind(original, replacement) -> int:
        """Point every loaded ``repro.*`` module attribute that is
        ``original`` at ``replacement``; returns how many were rebound."""
        hits = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    hits += 1
        return hits

    def _patch_function(self, name: str, fn, **kw) -> None:
        if self._rebind(fn, self.timed(name, fn, **kw)) == 0:
            raise RuntimeError(f"tracer: no module binds {fn!r}")

    def _patch_method(self, name: str, cls, attr: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.timed(name, raw.__func__, **kw)))
        else:
            setattr(cls, attr, self.timed(name, raw, **kw))

    def install(self) -> None:
        """Patch every layer boundary.  Call after ``import repro.cli``
        (so every importing module is loaded) and before any engine,
        cache or simulator is created."""
        from repro.apps.registry import APP_FACTORIES
        from repro.core import ggid as ggid_mod
        from repro.core import protocol as protocol_mod
        from repro.core.seqnum import SeqNumTable
        from repro.des.kernel import Simulator
        from repro.harness import cache as cache_mod
        from repro.harness import runner as runner_mod
        from repro.harness import spec as spec_mod
        from repro.harness.engine import ExperimentEngine
        from repro.mana import image as image_mod
        from repro.mana.coordinator import CheckpointCoordinator
        from repro.mana.session import Session
        from repro.netmodel import collectives as solver_mod
        from repro.netmodel.topology import Topology
        from repro.simmpi.collectives import CollectiveSite
        from repro.simmpi.matching import MatchingEngine

        # harness
        self._patch_method("harness.run_batch", ExperimentEngine, "run_batch")
        self._patch_function("harness.execute", spec_mod.execute)
        self._patch_function("harness.spec_hash", spec_mod.spec_hash)
        self._patch_function("harness.result_codec", spec_mod.run_result_to_dict)
        self._patch_function("harness.result_codec", spec_mod.run_result_from_dict)
        cache_cls = cache_mod.ResultCache
        self._patch_method("harness.cache_get", cache_cls, "get")
        self._patch_method("harness.cache_put", cache_cls, "put")
        self._patch_method("harness.cache_put_images", cache_cls, "put_images")
        self._patch_method("harness.cache_get_images", cache_cls, "get_images")
        self._patch_method("harness.cache_prune", cache_cls, "prune")
        # runner
        self._patch_function("runner.launch", runner_mod.launch_run, role="launch")
        gc.collect = self.timed("runner.gc", gc.collect)
        # des
        self._patch_method("des.run", Simulator, "run", role="run")
        self._patch_method("des.spawn", Simulator, "spawn")
        self._patch_method("des.close", Simulator, "close")
        for attr in ("sleep", "block"):
            setattr(Simulator, attr, self.counted(
                "des.suspends", Simulator.__dict__[attr], suspends=True))
        # simmpi
        self._patch_method("simmpi.match_send", MatchingEngine, "send")
        self._patch_method("simmpi.match_recv", MatchingEngine, "post_recv")
        self._patch_method("simmpi.coll_arrive", CollectiveSite, "arrive")
        # netmodel
        self._patch_function("netmodel.solver", solver_mod.make_solver)
        self._patch_method("netmodel.solver", solver_mod.ExitSolver, "on_arrival")
        self._patch_method("netmodel.p2p_time", Topology, "p2p_time")
        # core
        self._patch_method("core.seq_increment", SeqNumTable, "increment")
        self._patch_function("core.ggid", ggid_mod.compute_ggid)
        logic_classes = [protocol_mod.CoordinatorLogic]
        while logic_classes:
            cls = logic_classes.pop()
            logic_classes.extend(cls.__subclasses__())
            if "compute_targets" in cls.__dict__ and not getattr(
                cls.__dict__["compute_targets"], "__isabstractmethod__", False
            ):
                self._patch_method("core.compute_targets", cls, "compute_targets")
        # mana
        self._patch_method("mana.build_image", Session, "build_image")
        self._patch_method("mana.from_image", Session, "from_image")
        self._patch_function("mana.pack", image_mod.pack_image_set)
        self._patch_function("mana.unpack", image_mod.unpack_image_set)
        self._patch_method("mana.coordinator", CheckpointCoordinator, "request_checkpoint")
        self._patch_method("mana.coordinator", CheckpointCoordinator, "deliver")
        # apps: steps suspend, so they are counted, never timed.
        for cls in set(APP_FACTORIES.values()):
            if "step" in cls.__dict__:
                cls.step = self.counted("apps.steps", cls.__dict__["step"])

    # -- reporting ------------------------------------------------------ #

    def summary(self) -> dict:
        """Per-name ``{"self_s", "total_s", "calls"}`` plus the counters."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for name in self.names}
        for idx, rec in enumerate(spans):
            row = out[self.names[rec[0]]]
            duration = rec[2] - rec[1]
            row["self_s"] += duration - covered[idx]
            row["total_s"] += duration
            row["calls"] += 1
        return {"spans": out, "counts": dict(self.counts),
                "violations": dict(self.violations)}

    def check_hits(self, workload: str) -> list[str]:
        """Names that should have fired on ``workload`` and did not, plus
        any timed-span-open-across-a-suspension violations."""
        seen = {self.names[rec[0]] for rec in self.spans}
        problems = [f"span {n} never hit" for n in EXPECTED_HITS[workload] if n not in seen]
        problems += [f"counter {n} never hit" for n in EXPECTED_COUNTS[workload]
                     if not self.counts[n]]
        problems += [f"timed span {n} open across a suspension x{c}"
                     for n, c in self.violations.items()]
        return problems

    def dump(self, path: Path) -> None:
        """Write every span (columnar, times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        columns = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        document = {
            "names": self.names,
            "columns": ["name_id", "start_s", "end_s", "parent", "job"],
            "name_id": columns[0],
            "start_s": [round(t - origin, 7) for t in columns[1]],
            "end_s": [round(t - origin, 7) for t in columns[2]],
            "parent": columns[3],
            "job": columns[4],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(document, fh, separators=(",", ":"))
