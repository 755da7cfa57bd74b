"""Batch experiment engine: dedupe, cache, and fan out simulated jobs.

``ExperimentEngine.run_batch`` accepts any number of :class:`RunSpec`
values — typically every cell of one or several figures at once — and:

1. **dedupes** identical specs (value equality), so e.g. the native
   miniVASP baseline shared by Figure 7, Figure 8, and Table 1 runs
   once per batch instead of once per figure;
2. **expands** dependent phases (probe runs for fraction-scheduled
   checkpoints, checkpoint runs for restarts) into explicit jobs and
   schedules them in dependency waves, so a Figure 9 cell's probe,
   checkpoint run, and restart each simulate exactly once;
3. **consults the disk cache** before simulating, so a warm rerun of
   ``repro-mpi all`` executes zero simulations — and consults the
   cache's **image tier** when planning restart chains: a restart whose
   parent's committed images are already stored needs no parent job at
   all, so it schedules as wave-0 work and the parent simulation is
   dropped from the batch (``EngineStats.images_reused``);
4. **orders every wave longest-pole-first** using a per-spec cost
   model — the wall time recorded in the cache when the spec last ran,
   falling back to a ``nprocs × niters`` heuristic — so the slowest job
   starts first and the pool never idles behind a stragglers' tail;
5. **fans out** the remaining unique jobs through
   :func:`repro.harness.dispatch.fan_out`: in this process at
   ``jobs=1``, or over a spawn-safe ``ProcessPoolExecutor`` at
   ``jobs=N`` whose workers read restart images from the same cache.
   Every job carries the per-job ``max_events`` guard, and progress
   lines go to stderr wherever it ran.

Results are keyed by spec and identical whether the batch ran serially
or in parallel — workers only ever execute independent simulations, and
folding happens in the parent process.

Declarative scenario grids submit through :meth:`ExperimentEngine.run_sweep`
(see :mod:`repro.harness.sweep`): the sweep's masked cells never reach
the engine, and its cartesian product arrives as one batch so shared
cells and probe/restart parents dedupe like any figure's.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cache import ResultCache
from .dispatch import fan_out
from .recovery import RecoveryPolicy, run_recovery
from .runner import RunResult
from .spec import ImageTier, RunSpec, execute

__all__ = [
    "EngineStats",
    "ExperimentEngine",
    "DEFAULT_MAX_EVENTS",
    "HEURISTIC_SECONDS_PER_UNIT",
]

#: Runaway-simulation guard applied to jobs that don't set their own
#: ``max_events``.  Two orders of magnitude above the largest legitimate
#: scaled-down run; a job that trips it is wedged, not slow.
DEFAULT_MAX_EVENTS = 100_000_000

#: Rough wall seconds per ``RunSpec.cost_hint`` unit (one rank-iteration),
#: calibrated on the scaled-down figure cells.  Only used to let
#: heuristic estimates sort alongside recorded wall times; ordering, not
#: accuracy, is what matters.
HEURISTIC_SECONDS_PER_UNIT = 2e-3


@dataclass
class EngineStats:
    """What one ``run_batch`` call actually did."""

    submitted: int = 0
    unique: int = 0
    #: Dependency-phase jobs (probes, restart parents) added beyond the
    #: submitted specs.
    chained: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Parent image maps the cache's image tier actually served to
    #: executed restarts (each one is a parent simulation skipped).
    #: Counted at load time, not planning time: an image file that
    #: exists but fails verification degrades to re-simulation and is
    #: not reported.
    images_reused: int = 0
    #: Executed jobs whose scheduling cost came from a recorded wall time.
    predicted_recorded: int = 0
    #: Executed jobs scheduled by the ``nprocs × niters`` fallback.
    predicted_heuristic: int = 0
    #: Submitted specs whose crashed results were chased by the
    #: auto-recovery planner (``recover=True`` / ``recovery=`` policy).
    recoveries: int = 0
    #: Recovery legs executed across all chains (excludes initial runs).
    recovery_attempts: int = 0
    wall_time: float = 0.0

    @property
    def deduped(self) -> int:
        return self.submitted - self.unique

    @property
    def prediction_hit_rate(self) -> float:
        """Fraction of scheduled jobs with a history-based cost estimate."""
        total = self.predicted_recorded + self.predicted_heuristic
        if total == 0:
            return 0.0
        return self.predicted_recorded / total

    def summary(self) -> str:
        """One-line human-readable account (printed by the CLI)."""
        line = (
            f"engine: {self.submitted} jobs submitted, {self.deduped} deduped, "
            f"{self.chained} chained, {self.cache_hits} cache hits, "
            f"{self.executed} simulated, {self.wall_time:.1f}s wall"
        )
        if self.images_reused:
            line += f", {self.images_reused} restarts fed from image tier"
        scheduled = self.predicted_recorded + self.predicted_heuristic
        if scheduled:
            line += f", {self.prediction_hit_rate:.0%} costs from history"
        if self.recoveries:
            line += (
                f", {self.recoveries} crashed jobs recovered "
                f"({self.recovery_attempts} restart legs)"
            )
        return line


def _execute_job(
    spec: RunSpec,
    deps: dict[RunSpec, RunResult],
    guard: int | None,
    cache_dir=None,
) -> tuple[RunResult, float, int]:
    """Top-level worker entry point (must be picklable by name for spawn).

    ``cache_dir`` (a path, not a live cache — workers are spawned) roots
    a local :class:`ResultCache` whose image tier feeds restart parents
    without re-simulation.  Returns ``(result,
    elapsed_seconds, images_served)`` — the wall time is measured in the
    worker so pool queueing delays never pollute the cost model, and
    ``images_served`` counts the parent image maps the tier *actually*
    restored a restart from (an image file that exists at planning time
    but fails verification or decoding here degrades to re-simulation,
    and must not be reported as reuse).
    """
    images = None
    if cache_dir is not None:
        images = ImageTier(ResultCache(cache_dir).get_images)
    t0 = time.perf_counter()
    result = execute(spec, deps, max_events_guard=guard, images=images)
    return result, time.perf_counter() - t0, images.served if images else 0


class ExperimentEngine:
    """Executes batches of run specs with dedupe, caching, and parallelism.

    Args:
        jobs: worker processes; ``1`` (the default) runs in-process.
        cache: optional :class:`ResultCache`; hits skip simulation.
        max_events: per-job event guard for specs without their own.
        progress: emit one line per executed job on stderr.
        recovery: automatic crash recovery for submitted specs whose
            results crashed.  ``None``/``False`` disables (callers can
            still opt in per batch with ``run_batch(..., recover=True)``);
            ``True`` enables with the default policy; a
            :class:`~repro.harness.recovery.RecoveryPolicy` enables with
            that budget.  Recovered specs' entries in the returned map
            are substituted with the chain's final (clean) result — the
            cache keeps every leg, including the crashed ones, under
            their own keys.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: ResultCache | None = None,
        max_events: int | None = DEFAULT_MAX_EVENTS,
        progress: bool = False,
        recovery=None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.max_events = max_events
        self.progress = progress
        self.recovery = bool(recovery)
        self._policy = (
            recovery if isinstance(recovery, RecoveryPolicy) else RecoveryPolicy()
        )
        self.last_stats: EngineStats | None = None

    # ----------------------------------------------------------------- #

    def run(self, spec: RunSpec) -> RunResult:
        """Run a single spec (one-element batch)."""
        return self.run_batch([spec])[spec]

    def run_sweep(self, sweep) -> dict[RunSpec, RunResult]:
        """Execute a :class:`~repro.harness.sweep.Sweep` as ONE batch.

        The sweep's masked (NA) cells never reach the engine; the
        executable product is submitted in one deduplicated batch so
        cells sharing a spec — or a probe/restart parent — simulate
        once.  Returns the result map :meth:`Sweep.fold` consumes.
        """
        return self.run_batch(sweep.specs())

    def run_batch(
        self, specs: Sequence[RunSpec], *, recover: bool | None = None
    ) -> dict[RunSpec, RunResult]:
        """Run many specs; returns results keyed by the submitted specs.

        ``recover`` overrides the engine's ``recovery`` setting for this
        batch: ``True`` chases every crashed submitted spec with a
        bounded restart chain after the waves drain (see
        :mod:`repro.harness.recovery`), ``False`` suppresses it (the
        planner itself runs its legs this way), ``None`` follows the
        engine.
        """
        t0 = time.perf_counter()
        stats = EngineStats(submitted=len(specs))

        unique: dict[RunSpec, None] = {}
        for spec in specs:
            unique.setdefault(spec, None)
        stats.unique = len(unique)

        # Dependency closure over *pruned* parent edges, then waves by
        # effective chain depth: a spec only runs once every remaining
        # ancestor's result is available to pass along.  The pruning is
        # the restart-chain short-circuit — a restart whose parent
        # images are already in the cache's image tier needs no parent
        # job at all (execution loads the images directly), so that
        # edge, and everything reachable only through it, is dropped
        # and the restart schedules as wave-0 work.
        parent_memo: dict[RunSpec, tuple[RunSpec, ...]] = {}

        def parents_of(spec: RunSpec) -> tuple[RunSpec, ...]:
            known = parent_memo.get(spec)
            if known is None:
                known = spec.parents()
                if (
                    self.cache is not None
                    and spec.restart_of is not None
                    and self.cache.has_images(spec.restart_of, spec.restart_ckpt)
                ):
                    known = tuple(p for p in known if p != spec.restart_of)
                parent_memo[spec] = known
            return known

        closure: dict[RunSpec, None] = {}
        for spec in unique:
            stack = list(parents_of(spec))
            while stack:
                node = stack.pop()
                if node in closure:
                    continue
                closure[node] = None
                stack.extend(parents_of(node))
            closure.setdefault(spec, None)
        stats.chained = len(closure) - stats.unique

        # Effective depth over the pruned graph, iteratively (restart
        # chains can be thousands of links deep; no recursion).
        depths: dict[RunSpec, int] = {}
        for spec in closure:
            stack = [spec]
            while stack:
                node = stack[-1]
                if node in depths:
                    stack.pop()
                    continue
                parents = parents_of(node)
                missing = [p for p in parents if p not in depths]
                if missing:
                    stack.extend(missing)
                    continue
                depths[node] = (
                    1 + max(depths[p] for p in parents) if parents else 0
                )
                stack.pop()

        waves: dict[int, list[RunSpec]] = {}
        for spec in closure:
            waves.setdefault(depths[spec], []).append(spec)

        resolved: dict[RunSpec, RunResult] = {}
        total = len(closure)
        done = 0
        for depth in sorted(waves):
            pending: list[RunSpec] = []
            for spec in waves[depth]:
                if self.cache is not None:
                    hit = self.cache.get(spec)
                    if hit is not None:
                        resolved[spec] = hit
                        stats.cache_hits += 1
                        done += 1
                        self._report(done, total, spec, "cached")
                        continue
                pending.append(spec)
            if not pending:
                continue
            # Longest pole first: with workers this stops the batch tail
            # from hiding behind a late-started slow job; serially it
            # just front-loads the expensive cells.  Stable sort keeps
            # equal-cost specs in submission order (determinism).
            pending.sort(key=lambda spec: self._predicted_cost(spec, stats),
                         reverse=True)
            # The wave's puts share one merge-write of the timing
            # sidecar, flushed even when a job raises mid-wave.
            one_sidecar_write = (
                contextlib.nullcontext()
                if self.cache is None
                else self.cache.batched_timings()
            )
            with one_sidecar_write:
                for spec, result, elapsed, served in self._execute_wave(
                    pending, resolved
                ):
                    resolved[spec] = result
                    stats.executed += 1
                    stats.images_reused += served
                    done += 1
                    self._report(done, total, spec, "ran")
                    if self.cache is not None:
                        self.cache.put(spec, result, elapsed=elapsed)
            # A run frees itself (see ``launch_run``); one collection
            # per executed wave is the backstop for what teardown
            # cannot cut: cycles an application body builds itself.
            gc.collect()

        # Automatic crash recovery: after every wave has drained (so
        # each leg can batch on its own), chase submitted specs whose
        # results crashed with a bounded restart chain.  Only the
        # *returned map* sees the substitution — the cache keeps the
        # crashed leg under its own key, and the chain's legs cache
        # under theirs.
        do_recover = self.recovery if recover is None else recover
        if do_recover:
            for spec in unique:
                result = resolved[spec]
                if not result.crashed_ranks:
                    continue
                outcome = run_recovery(
                    spec, self._policy, engine=self, initial=result
                )
                stats.recoveries += 1
                stats.recovery_attempts += outcome.recovery_legs
                if self.progress:
                    print(
                        f"[engine] {outcome.describe()}: {spec.label()}",
                        file=sys.stderr,
                        flush=True,
                    )
                if outcome.completed:
                    resolved[spec] = outcome.final_result

        stats.wall_time = time.perf_counter() - t0
        self.last_stats = stats
        return {spec: resolved[spec] for spec in unique}

    def run_recovery(self, spec: RunSpec, policy=None, *, leg_faults=()):
        """Run one spec under explicit crash recovery (see
        :func:`repro.harness.recovery.run_recovery`); legs execute
        through this engine's cache and fan-out."""
        return run_recovery(
            spec, policy, leg_faults=leg_faults, engine=self
        )

    # ----------------------------------------------------------------- #

    def _predicted_cost(self, spec: RunSpec, stats: EngineStats) -> float:
        """Estimated execution seconds for wave ordering."""
        if self.cache is not None:
            recorded = self.cache.recorded_time(spec)
            if recorded is not None:
                stats.predicted_recorded += 1
                return recorded
        stats.predicted_heuristic += 1
        return spec.cost_hint() * HEURISTIC_SECONDS_PER_UNIT

    def _deps_for(
        self, spec: RunSpec, resolved: Mapping[RunSpec, RunResult]
    ) -> dict[RunSpec, RunResult]:
        return {
            ancestor: resolved[ancestor]
            for ancestor in spec.ancestors()
            if ancestor in resolved
        }

    def _execute_wave(
        self,
        pending: Sequence[RunSpec],
        resolved: Mapping[RunSpec, RunResult],
    ) -> Iterable[tuple[RunSpec, RunResult, float, int]]:
        """Fan one wave out (:func:`repro.harness.dispatch.fan_out`).

        Yields ``(spec, result, elapsed, served)`` in whatever
        order jobs complete; the caller keys by spec, so ordering only
        affects progress lines, never results.
        """
        cache_dir = None if self.cache is None else self.cache.root
        payloads = [
            {"kind": "sim", "spec": spec, "deps": self._deps_for(spec, resolved),
             "guard": self.max_events, "cache_dir": cache_dir}
            for spec in pending
        ]
        for index, value in fan_out(payloads, jobs=self.jobs):
            yield (pending[index], *value)

    def _report(self, done: int, total: int, spec: RunSpec, how: str) -> None:
        if self.progress:
            print(
                f"[engine {done}/{total}] {how}: {spec.label()}",
                file=sys.stderr,
                flush=True,
            )
