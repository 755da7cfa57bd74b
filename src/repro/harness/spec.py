"""Declarative run specifications: one immutable value per simulated job.

A :class:`RunSpec` fully describes one simulated MPI job — application,
process layout, protocol, seed, checkpoint schedule, and model
parameters — as a frozen, hashable dataclass.  Because the spec is a
*value* (not a closure over factories, as ``launch_run`` calls used to
be), the experiment engine can deduplicate identical jobs across
figures, key a persistent on-disk cache by content hash, and ship jobs
to worker processes.

Dependent phases are part of the spec language:

* ``checkpoint_fractions`` — request checkpoints at fractions of the
  job's own uncheckpointed ("probe") runtime.  The probe is itself a
  plain spec (:meth:`RunSpec.probe_spec`), so it participates in
  dedup/caching like any other job (Figure 9 used to run it inline).
* ``checkpoint_completion_fracs`` — request checkpoints at fractions of
  the probe's *earliest rank finish time* (fault injection: fractions
  near or past 1.0 race rank completion, the scenario class the
  coordinator must checkpoint *through*; see ``repro.harness.verify``).
* ``restart_of`` — restart from the Nth committed checkpoint of another
  spec's run (a fresh lower half adopting the images, as in MANA).

:func:`execute` resolves these chains and runs the simulation and
:func:`spec_hash` provides the stable content hash.  The ``*_to_dict`` /
``*_from_dict`` names at the bottom are entry points into the one codec
(:mod:`repro.util.codec`): a :class:`RunSpec`, a :class:`RunResult`
(with its :class:`CheckpointRecord` and :class:`CheckpointImage`
metadata) and a simulation job are documents that codec writes and reads
from the dataclasses' own fields, so results can cross process and disk
boundaries.  Image *payloads* (application state, call logs, drained
messages) are deliberately dropped in the JSON form
(``CheckpointImage.__codec__``) — they can hold hundreds of MB of numpy
state; a result deserialized from JSON reports every measurement but
cannot seed a restart, which :func:`execute` detects and handles by
loading the parent's committed images from the cache's image tier (the
``images`` argument) or, failing that, by re-simulating the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, MutableMapping

from ..apps import make_app_factory, resolve_app_name
from ..core import PROTOCOLS, UnsupportedOperationError
from ..des import ProcessFailed
from ..mana import CheckpointImage, CheckpointRecord, ImageError
from ..netmodel import ModelParams, StorageModel
from ..scenarios import canonical_scenario
from ..util.codec import CodecError, Shape, decode, encode
from ..util.hashing import stable_json_hash
from .runner import RunResult, launch_run

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_MAX_EVENTS",
    "SPEC_POINT_FIELDS",
    "RunSpec",
    "SpecError",
    "ImageTier",
    "execute",
    "spec_hash",
    "spec_to_dict",
    "spec_from_dict",
    "run_result_to_dict",
    "run_result_from_dict",
    "job_to_dict",
    "job_from_dict",
    "record_has_full_images",
    "result_has_full_images",
]

#: Bump whenever the meaning of a spec field or the serialized result
#: layout changes; the cache segregates entries by this version.
SCHEMA_VERSION = 2

#: Runaway-simulation guard :func:`execute` applies to every spec that
#: sets no ``max_events`` of its own.  Two orders of magnitude above the
#: largest legitimate scaled-down run; a job that trips it is wedged,
#: not slow.  Read at call time, so a test can lower it.
DEFAULT_MAX_EVENTS = 100_000_000

#: Point keys :meth:`RunSpec.from_point` routes to spec fields; every
#: other key becomes an app kwarg.  ``restart`` (bool) is the sweep
#: layer's chain marker: the point's checkpoint schedule moves to a
#: parent spec and the built spec restarts from it.
SPEC_POINT_FIELDS = (
    "app",
    "nprocs",
    "protocol",
    "ppn",
    "seed",
    "checkpoint_at",
    "checkpoint_fractions",
    "checkpoint_completion_fracs",
    "storage",
    "params",
    "max_events",
    "restart",
    "restart_ckpt",
    "crash_fracs",
    "scenario",
)

#: The schedule-shaped point fields (scalars promoted to 1-tuples).
_SCHEDULE_FIELDS = (
    "checkpoint_at",
    "checkpoint_fractions",
    "checkpoint_completion_fracs",
)

_SCALAR_TYPES = (bool, int, float, str, type(None))


class SpecError(ValueError):
    """Malformed or unexecutable run specification."""


def _normalize_kwargs(app_kwargs: Any) -> tuple[tuple[str, Any], ...]:
    """Canonical (sorted, scalar-only) form of an app's kwargs."""
    if app_kwargs is None:
        return ()
    if isinstance(app_kwargs, Mapping):
        items = app_kwargs.items()
    else:
        items = tuple(app_kwargs)
    out = []
    for key, value in sorted(items):
        if not isinstance(key, str):
            raise SpecError(f"app kwarg name must be str, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise SpecError(
                f"app kwarg {key}={value!r} is not a scalar; specs must be "
                "fully declarative (configure apps by value, not object)"
            )
        out.append((key, value))
    return tuple(out)


def _crash_pairs(value: Any) -> tuple[tuple[int, float], ...]:
    """Canonical sorted-by-rank form of ``crash_fracs``, so equal fault
    schedules compare (and hash) equal regardless of construction order."""
    try:
        pairs = tuple(value)
        if isinstance(value, str) or any(isinstance(p, str) for p in pairs):
            raise TypeError
        return tuple(sorted((int(r), float(f)) for r, f in pairs))
    except (TypeError, ValueError):
        raise SpecError(
            f"crash_fracs must be (rank, frac) pairs, got {value!r}"
        ) from None


@dataclass(frozen=True)
class RunSpec:
    """Immutable description of one simulated job.

    Build via :meth:`RunSpec.create`, which normalizes ``app_kwargs``
    into the canonical sorted-tuple form that makes equal specs compare
    (and hash) equal regardless of construction order.
    """

    app: str
    nprocs: int
    app_kwargs: tuple[tuple[str, Any], ...] = ()
    protocol: str = "native"
    ppn: int | None = None
    seed: int = 0
    #: Absolute virtual times of coordinator checkpoint requests.
    checkpoint_at: tuple[float, ...] = ()
    #: Checkpoint requests at fractions of the probe run's runtime.
    checkpoint_fractions: tuple[float, ...] = ()
    #: Checkpoint requests at fractions of the probe run's *earliest
    #: rank completion* — the fault-injection knob for the
    #: request-races-completion scenario class.  Fractions near (or
    #: past) 1.0 land requests in the window where some ranks have
    #: finished while others are mid-program; the coordinator must
    #: checkpoint through the completed ranks instead of aborting.
    checkpoint_completion_fracs: tuple[float, ...] = ()
    #: Crash-fault injection: ``(rank, frac)`` pairs hard-killing
    #: ``rank`` at ``frac`` of the probe run's runtime.  A crashed rank
    #: is *not* a finished rank: rounds it participates in abort, later
    #: requests abort immediately, and the coordinator tears the job
    #: down.  On a ``restart_of`` spec the fractions are relative to the
    #: *restart leg's own* crash-free runtime (its probe keeps
    #: ``restart_of``), so a crash can land while survivors rebuild the
    #: lower half, replay comm creation, or drain restored p2p.
    #: Recovery is a further restart from the last committed image —
    #: see :mod:`repro.harness.recovery` for the bounded-retry planner.
    crash_fracs: tuple[tuple[int, float], ...] = ()
    storage: StorageModel | None = None
    params: ModelParams | None = None
    max_events: int | None = None
    #: Dependent phase: restart from a committed checkpoint of this spec.
    restart_of: "RunSpec | None" = None
    #: Index into the parent run's *committed* checkpoint list.
    restart_ckpt: int = 0
    #: Canonical scenario string (:mod:`repro.scenarios`) perturbing the
    #: run — fabric, stragglers, link degradation.  ``None`` is the
    #: unperturbed run and (like the fault-schedule fields) stays out of
    #: the serialized form, so pre-scenario specs keep their hashes.
    scenario: str | None = None

    #: The fault-schedule fields and the scenario enter the document —
    #: and so the content hash — only when set: every spec from before
    #: they existed keeps its hash and its cache entry.  Documents are
    #: read through :meth:`create`, which validates them.
    __codec__ = Shape(
        when_set=("checkpoint_completion_fracs", "crash_fracs", "scenario"),
        build="create",
    )

    @classmethod
    def create(
        cls,
        app: str,
        nprocs: int,
        *,
        app_kwargs: Mapping[str, Any] | None = None,
        protocol: str = "native",
        ppn: int | None = None,
        seed: int = 0,
        checkpoint_at: tuple[float, ...] | list[float] = (),
        checkpoint_fractions: tuple[float, ...] | list[float] = (),
        checkpoint_completion_fracs: tuple[float, ...] | list[float] = (),
        crash_fracs: Any = (),
        storage: StorageModel | None = None,
        params: ModelParams | None = None,
        max_events: int | None = None,
        restart_of: "RunSpec | None" = None,
        restart_ckpt: int = 0,
        scenario: Any = None,
    ) -> "RunSpec":
        # An unknown scenario (here) or protocol (in validate) is a plain
        # ValueError naming the catalogue, not a SpecError: a sweep fails
        # on a typo'd name up front instead of folding it to NA cells.
        spec = cls(
            # Canonicalize aliases ("vasp" -> "minivasp") here, where
            # nprocs/seed are already being normalized: spec equality,
            # dedup, and the cache key must not depend on spelling.
            app=resolve_app_name(app),
            nprocs=int(nprocs),
            app_kwargs=_normalize_kwargs(app_kwargs),
            protocol=protocol,
            ppn=None if ppn is None else int(ppn),
            seed=int(seed),
            checkpoint_at=tuple(float(t) for t in checkpoint_at),
            checkpoint_fractions=tuple(float(f) for f in checkpoint_fractions),
            checkpoint_completion_fracs=tuple(
                float(f) for f in checkpoint_completion_fracs
            ),
            crash_fracs=_crash_pairs(crash_fracs),
            storage=storage,
            params=params,
            max_events=max_events,
            restart_of=restart_of,
            restart_ckpt=int(restart_ckpt),
            scenario=canonical_scenario(scenario),
        )
        spec.validate()
        return spec

    @classmethod
    def from_point(cls, point: Mapping[str, Any]) -> "RunSpec":
        """Build a spec from a flat axis-point mapping (the sweep layer).

        Keys in :data:`SPEC_POINT_FIELDS` route to spec fields; every
        other key is an app kwarg (so ``niters``, ``kind``, ``nbytes``…
        are first-class sweep axes).  Scalar ``checkpoint_at`` /
        ``checkpoint_fractions`` values are promoted to one-element
        schedules.  A truthy ``restart`` key moves the point's
        checkpoint schedule onto a parent spec and returns a spec that
        restarts from that parent's ``restart_ckpt``-th commit.
        """
        point = dict(point)
        try:
            app = point.pop("app")
            nprocs = point.pop("nprocs")
        except KeyError as exc:
            raise SpecError(f"sweep point is missing the {exc.args[0]!r} axis") from None
        restart = bool(point.pop("restart", False))
        restart_ckpt = int(point.pop("restart_ckpt", 0))
        fields = {
            name: point.pop(name)
            for name in SPEC_POINT_FIELDS
            if name in point
        }
        for schedule in _SCHEDULE_FIELDS:
            value = fields.get(schedule)
            if isinstance(value, (int, float)):
                fields[schedule] = (float(value),)
            elif value is not None:
                fields[schedule] = tuple(value)
        app_kwargs = point  # whatever is left belongs to the application
        if not restart:
            return cls.create(app, nprocs, app_kwargs=app_kwargs, **fields)
        if not any(fields.get(schedule) for schedule in _SCHEDULE_FIELDS):
            raise SpecError(
                "restart=True needs a checkpoint schedule (checkpoint_at, "
                "checkpoint_fractions, or checkpoint_completion_fracs) for "
                "the parent run to commit"
            )
        # The parent leg keeps the checkpoint schedule (so it commits an
        # image to restart from) but never the crash: a point that arms
        # both restarts *past* a parent commit and injects the crash on
        # the restart leg itself — the crash-during-recovery scenario.
        crash = fields.pop("crash_fracs", None)
        parent = cls.create(app, nprocs, app_kwargs=app_kwargs, **fields)
        for schedule in _SCHEDULE_FIELDS:
            fields.pop(schedule, None)
        if crash is not None:
            fields["crash_fracs"] = crash
        return cls.create(
            app,
            nprocs,
            app_kwargs=app_kwargs,
            restart_of=parent,
            restart_ckpt=restart_ckpt,
            **fields,
        )

    def validate(self) -> None:
        if self.nprocs < 1:
            raise SpecError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{sorted(PROTOCOLS)}"
            )
        wants_ckpt = bool(
            self.checkpoint_at
            or self.checkpoint_fractions
            or self.checkpoint_completion_fracs
        )
        if wants_ckpt and self.protocol == "native":
            raise SpecError("native runs cannot be checkpointed")
        if self.restart_of is not None:
            if self.checkpoint_fractions or self.checkpoint_completion_fracs:
                raise SpecError(
                    "restart specs cannot also use probe-relative checkpoint "
                    "fractions; schedule further checkpoints with absolute "
                    "checkpoint_at"
                )
            if self.restart_of.protocol != self.protocol:
                raise SpecError(
                    f"restart protocol {self.protocol!r} != parent "
                    f"protocol {self.restart_of.protocol!r}"
                )
            if self.restart_of.nprocs != self.nprocs:
                raise SpecError("restart must use the parent's process count")
        if any(f <= 0 for f in self.checkpoint_fractions):
            raise SpecError("checkpoint fractions must be positive")
        if any(f <= 0 for f in self.checkpoint_completion_fracs):
            raise SpecError("checkpoint completion fractions must be positive")
        if self.crash_fracs:
            ranks = [r for r, _f in self.crash_fracs]
            if len(set(ranks)) != len(ranks):
                raise SpecError("crash_fracs names a rank more than once")
            bad = [r for r in ranks if not 0 <= r < self.nprocs]
            if bad:
                raise SpecError(f"crash_fracs names nonexistent rank(s) {bad}")
            if any(f <= 0 for _r, f in self.crash_fracs):
                raise SpecError("crash fractions must be positive")
        if self.scenario is not None:
            canonical = canonical_scenario(self.scenario)
            if canonical != self.scenario:
                raise SpecError(
                    f"scenario {self.scenario!r} is not canonical (expected "
                    f"{canonical!r}); build specs via RunSpec.create"
                )

    # -- structure ------------------------------------------------------ #

    def probe_spec(self) -> "RunSpec | None":
        """The uncheckpointed, uncrashed probe this spec's fractions and
        crash times are relative to."""
        if (
            not self.checkpoint_fractions
            and not self.checkpoint_completion_fracs
            and not self.crash_fracs
        ):
            return None
        return replace(
            self,
            checkpoint_at=(),
            checkpoint_fractions=(),
            checkpoint_completion_fracs=(),
            crash_fracs=(),
        )

    def with_scenario(self, scenario: Any) -> "RunSpec":
        """This spec — and its whole restart chain — under ``scenario``.

        A restart leg and its parent must see the same fabric for the
        images to replay faithfully, so the rewrite recurses through
        ``restart_of``.
        """
        canonical = canonical_scenario(scenario)
        parent = (
            None
            if self.restart_of is None
            else self.restart_of.with_scenario(canonical)
        )
        return replace(self, scenario=canonical, restart_of=parent)

    def parents(self) -> "tuple[RunSpec, ...]":
        """Specs whose results this spec's execution depends on."""
        out = []
        probe = self.probe_spec()
        if probe is not None:
            out.append(probe)
        if self.restart_of is not None:
            out.append(self.restart_of)
        return tuple(out)

    def ancestors(self) -> "tuple[RunSpec, ...]":
        """Transitive dependency closure (no duplicates, parents first)."""
        seen: dict[RunSpec, None] = {}
        stack = list(self.parents())
        while stack:
            spec = stack.pop()
            if spec in seen:
                continue
            seen[spec] = None
            stack.extend(spec.parents())
        return tuple(seen)

    def app_factory(self):
        """Zero-argument app factory (one instance per rank)."""
        return make_app_factory(self.app, **dict(self.app_kwargs))

    def _own_cost(self) -> float:
        """This spec's cost ignoring any restart parent."""
        niters = 30.0
        for key, value in self.app_kwargs:
            if key == "niters":
                niters = float(value)
                break
        cost = float(self.nprocs) * niters
        n_ckpt = (
            len(self.checkpoint_at)
            + len(self.checkpoint_fractions)
            + len(self.checkpoint_completion_fracs)
        )
        if n_ckpt:
            # Checkpoint phases add drain/commit rounds on top of the
            # app's own traffic.
            cost *= 1.0 + 0.25 * n_ckpt
        return cost

    def cost_hint(self) -> float:
        """Relative execution-cost estimate (``nprocs × niters`` shaped).

        The engine orders every wave by it, longest first.  Units are
        arbitrary: only the ordering within a wave matters.

        ``restart_of`` chains are folded iteratively, deepest ancestor
        first, and each link's value is memoized on the (immutable)
        instance — wave sorting used to recompute every ancestor's cost
        per call, O(depth²) across a chain, and recursed past Python's
        stack limit on very deep chains.
        """
        memo = self.__dict__.get("_cost_hint")
        if memo is not None:
            return memo
        chain: list[RunSpec] = []
        node: RunSpec | None = self
        while node is not None and "_cost_hint" not in node.__dict__:
            chain.append(node)
            node = node.restart_of
        inherited = 0.0 if node is None else node.__dict__["_cost_hint"]
        for spec in reversed(chain):
            cost = spec._own_cost()
            if spec.restart_of is not None:
                # A restart replays the tail of the parent's run.
                cost = max(cost, 0.5 * inherited)
            object.__setattr__(spec, "_cost_hint", cost)
            inherited = cost
        return inherited

    def __getstate__(self) -> dict:
        """Pickle without :func:`spec_hash`'s memo (it bakes in this
        process's schema version)."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def label(self) -> str:
        """Short human-readable identity for progress reporting."""
        tag = f"{self.app}/{self.protocol} p={self.nprocs}"
        if self.restart_of is not None:
            tag += " (restart)"
        elif (
            self.checkpoint_fractions
            or self.checkpoint_at
            or self.checkpoint_completion_fracs
        ):
            tag += " (ckpt)"
        if self.crash_fracs:
            tag += " (crash)"
        if self.scenario:
            tag += f" [{self.scenario}]"
        return tag


def spec_hash(spec: RunSpec) -> str:
    """Stable content hash of a spec, identical across processes.

    Memoized on the (immutable) instance — canonicalizing a whole
    restart chain per cache read dominated warm reruns.  The memo is
    invisible to ``==``/``hash``/``repr``/:func:`spec_to_dict`, is not
    copied by ``dataclasses.replace`` and is dropped from pickles
    (:meth:`RunSpec.__getstate__`), so another process always hashes
    under its own :data:`SCHEMA_VERSION`.
    """
    memo = spec.__dict__.get("_hash")
    if memo is None:
        payload = spec_to_dict(spec)
        payload["!schema"] = SCHEMA_VERSION
        memo = stable_json_hash(payload)
        object.__setattr__(spec, "_hash", memo)
    return memo


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #

@dataclass
class ImageTier:
    """A cache's image tier, as :func:`execute` uses it."""

    #: ``(parent_spec, committed_index) -> image map or None``
    #: (:meth:`repro.harness.cache.ResultCache.get_images`).  Every call
    #: returns a fresh map that the restart it feeds consumes: each
    #: image's ``payload`` is released once its rank is restored.
    get: "Callable[[RunSpec, int], dict | None]"
    #: Sets that restored a restart.  One that loads but does not
    #: restore was a miss, and is not counted.
    served: int = 0


def execute(
    spec: RunSpec,
    deps: MutableMapping[RunSpec, RunResult] | None = None,
    *,
    images: "ImageTier | None" = None,
) -> RunResult:
    """Run one spec (resolving probe/restart chains) and return its result.

    Args:
        spec: the job to run.
        deps: optional already-computed results for this spec's
            ancestors (the engine passes wave-N-1 results here).  Every
            ancestor this call has to simulate is recorded in it, so a
            caller running a chain of legs over one map simulates each
            distinct spec once.  A parent result lacking full checkpoint
            images — e.g. one read back from the result cache — is
            transparently re-simulated, since image payloads never
            cross the document boundary.
        images: optional :class:`ImageTier`.  When it serves a restart
            parent's images, the parent is not simulated at all — the
            warm-restart fast path.  Any miss, and any served set that
            fails to restore, falls back to the re-simulation path, so
            a tier can only make execution faster, never change a
            result.

    Every simulation it launches — the spec's and any ancestor's — runs
    under the spec's own ``max_events``, else :data:`DEFAULT_MAX_EVENTS`
    (the guard never alters the result of a job that completes).  A job
    whose protocol cannot wrap the application (the paper's NA cells,
    e.g. 2PC with non-blocking collectives) returns a :class:`RunResult`
    with ``na_reason`` set rather than raising, so batch execution
    records *why* the cell is NA instead of dying.
    """
    deps = deps if deps is not None else {}
    return _execute(spec, deps, images)


def _execute(
    spec: RunSpec,
    deps: MutableMapping[RunSpec, RunResult],
    images: "ImageTier | None",
) -> RunResult:
    checkpoint_at = spec.checkpoint_at
    crash_at: dict[int, float] | None = None
    probe = spec.probe_spec()
    if probe is not None:
        probe_result = _resolve_parent(
            probe,
            deps,
            images,
            need_images=False,
            # Completion fractions anchor on per-rank finish instants; a
            # probe result cached before that field existed is unusable
            # and gets re-simulated (the fresh result then overwrites the
            # stale cache entry), so the derived schedule is a function
            # of the spec alone, never of cache vintage.
            need_finish_times=bool(spec.checkpoint_completion_fracs),
        )
        if probe_result.na_reason:
            return _na_result(spec, probe_result.na_reason)
        checkpoint_at = checkpoint_at + tuple(
            f * probe_result.runtime for f in spec.checkpoint_fractions
        )
        if spec.checkpoint_completion_fracs:
            first_finish = min(probe_result.rank_finish_times)
            checkpoint_at = checkpoint_at + tuple(
                f * first_finish for f in spec.checkpoint_completion_fracs
            )
        if spec.crash_fracs:
            crash_at = {
                rank: f * probe_result.runtime for rank, f in spec.crash_fracs
            }

    max_events = (
        spec.max_events if spec.max_events is not None else DEFAULT_MAX_EVENTS
    )

    def launch(
        restore_images: "dict[int, CheckpointImage] | None", owned: bool = False
    ) -> RunResult:
        try:
            result = launch_run(
                spec.app_factory(),
                spec.nprocs,
                protocol=spec.protocol,
                ppn=spec.ppn,
                params=spec.params,
                seed=spec.seed,
                checkpoint_at=checkpoint_at,
                storage=spec.storage,
                restore_images=restore_images,
                max_events=max_events,
                crash_at=crash_at,
                scenario=spec.scenario,
                _release_images=owned,
            )
        except ProcessFailed as exc:
            if isinstance(exc.original, UnsupportedOperationError):
                # An expected outcome, not a failure to debug: without its
                # traceback (whose frames reach the whole run, the failed
                # process included) an NA cell's run is freed by
                # refcounting like any other.
                exc.original.__traceback__ = None
                return _na_result(spec, str(exc.original))
            raise
        # Canonicalize per-rank payloads (numpy scalars -> python, tuples ->
        # lists) so a fresh result compares equal to one that crossed the
        # pickle/JSON boundary.
        result.per_rank = encode(result.per_rank)
        return result

    if spec.restart_of is None:
        return launch(None)

    # Warm-restart fast path: a known-NA parent still propagates NA,
    # but a parent whose result is merely image-stripped (or not
    # resolved at all) can be served straight from the image tier —
    # the committed images are the only thing a restart needs from
    # its parent.
    known = deps.get(spec.restart_of)
    if known is not None and known.na_reason:
        return _na_result(spec, known.na_reason)
    if images is not None and (
        known is None or not result_has_full_images(known)
    ):
        tier_set = images.get(spec.restart_of, spec.restart_ckpt)
        if tier_set is not None:
            try:
                # The tier read a fresh copy for this restart alone: hand
                # it over, so each rank's payload is freed once restored.
                result = launch(tier_set, owned=True)
            except ImageError:
                # The archive verified but a rank's payload would not
                # decode here: a miss like a digest mismatch.
                pass
            else:
                images.served += 1
                return result
    parent = _resolve_parent(spec.restart_of, deps, images, need_images=True)
    if parent.na_reason:
        return _na_result(spec, parent.na_reason)
    committed = [r for r in parent.checkpoints if r.committed]
    if not committed:
        raise SpecError(
            f"restart parent {spec.restart_of.label()} committed no "
            "checkpoints — nothing to restart from"
        )
    try:
        restore_images = committed[spec.restart_ckpt].images
    except IndexError:
        raise SpecError(
            f"restart_ckpt={spec.restart_ckpt} out of range: parent "
            f"committed {len(committed)} checkpoint(s)"
        ) from None
    return launch(restore_images)


def _resolve_parent(
    parent: RunSpec,
    deps: MutableMapping[RunSpec, RunResult],
    images: "ImageTier | None",
    *,
    need_images: bool,
    need_finish_times: bool = False,
) -> RunResult:
    known = deps.get(parent)
    if known is not None and not known.na_reason:
        if need_images and not result_has_full_images(known):
            known = None
        elif need_finish_times and not known.rank_finish_times:
            known = None
    if known is not None:
        return known
    fresh = _execute(parent, deps, images)
    deps[parent] = fresh
    return fresh


def _na_result(spec: RunSpec, reason: str) -> RunResult:
    ppn = spec.ppn if spec.ppn is not None else min(spec.nprocs, 128)
    return RunResult(
        app=spec.app,
        protocol=spec.protocol,
        nprocs=spec.nprocs,
        nnodes=-(-spec.nprocs // ppn),
        runtime=0.0,
        per_rank=[],
        coll_calls=0,
        p2p_calls=0,
        na_reason=reason or "unsupported",
    )


# --------------------------------------------------------------------- #
# Documents (the walk itself is repro.util.codec)
# --------------------------------------------------------------------- #

def record_has_full_images(record: CheckpointRecord) -> bool:
    """True iff the record's images can actually seed a restart."""
    return bool(record.images) and not any(
        im.payload is None for im in record.images.values()
    )


def result_has_full_images(result: RunResult) -> bool:
    committed = [r for r in result.checkpoints if r.committed]
    return bool(committed) and all(record_has_full_images(r) for r in committed)


def _check_schema(data: Any, what: str) -> None:
    """Refuse what is not an object of this :data:`SCHEMA_VERSION`."""
    if not isinstance(data, dict):
        raise CodecError(f"serialized {what} is a {type(data).__name__}, not an object")
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise CodecError(
            f"serialized {what} has schema {data['schema']}, expected {SCHEMA_VERSION}"
        )


def spec_to_dict(spec: RunSpec) -> dict:
    """JSON-representable form of a spec (recursive over restart chains)."""
    return encode(spec)


def spec_from_dict(data: Mapping[str, Any]) -> RunSpec:
    return decode(RunSpec, data)


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-representable form of a result (image payloads dropped)."""
    return {"schema": SCHEMA_VERSION, **encode(result)}


def run_result_from_dict(data: Mapping[str, Any]) -> RunResult:
    _check_schema(data, "result")
    return decode(RunResult, data)


def job_to_dict(
    spec: RunSpec,
    deps: Mapping[RunSpec, RunResult] | None = None,
    *,
    guard: int | None = None,
    # Accepted and ignored: benchmarks/e2e/drivers.py (frozen) passes it.
    sim_backend: "str | None" = None,
) -> dict:
    """JSON-representable form of one simulation job.

    The spec, the already-resolved ancestor results :func:`execute`
    needs, and the ``max_events`` guard.  Image payloads are dropped
    from the deps exactly as they are in the result cache; a restart
    recovers them from the image tier or by parent re-simulation, the
    same degradation path a warm cache already exercises.
    ``benchmarks/e2e/drivers.py`` times this round trip as the per-job
    wire cost.
    """
    pairs = [
        {"spec": encode(dep), "result": run_result_to_dict(result)}
        for dep, result in (deps or {}).items()
    ]
    return {"schema": SCHEMA_VERSION, "kind": "sim", "spec": encode(spec),
            "deps": pairs, "guard": guard}


def job_from_dict(
    data: Mapping[str, Any],
) -> "tuple[RunSpec, dict[RunSpec, RunResult], int | None]":
    """Inverse of :func:`job_to_dict`; returns ``(spec, deps, guard)``."""
    _check_schema(data, "job")
    if data.get("kind", "sim") != "sim":
        raise CodecError(f"not a simulation job: kind={data['kind']!r}")
    deps = {
        spec_from_dict(dep.get("spec")): run_result_from_dict(dep.get("result"))
        for dep in decode(list[dict], data.get("deps", []))
    }
    return spec_from_dict(data.get("spec")), deps, data.get("guard")
