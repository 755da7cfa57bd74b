"""Pluggable job-dispatch backends for the experiment engine.

The seam between the engine and *job dispatch*: how a wave of
independent :class:`~repro.harness.spec.RunSpec` jobs is fanned out and
collected.  Three backends implement it:

* ``local-pool`` — the seed mechanics, verbatim: a spawn-safe
  ``ProcessPoolExecutor`` per wave (``jobs=N``), degrading to in-process
  execution for one-job waves or ``jobs=1``.  This is the differential
  reference every other backend must match byte-for-byte.
* ``inline`` — ``local-pool`` pinned to ``jobs=1``: every job runs in
  the submitting process, in submission order.  Zero process overhead;
  the debugging backend (breakpoints and tracebacks land in *your*
  interpreter).
* ``service`` — jobs are shipped over a socket to a long-lived
  experiment server (:mod:`repro.harness.service`) speaking a
  line-delimited JSON protocol.  Pull-model workers
  (``repro-mpi worker --connect HOST:PORT``) execute them, the shared
  content-addressed :class:`~repro.harness.cache.ResultCache` (results
  + image sets) is the artifact store, and many clients hit
  one warm cache.

Besides simulation jobs, the seam carries **oracle-check jobs** (one
:class:`~repro.harness.verify.FaultSchedule` through one oracle) so
``repro-mpi verify --jobs`` and ``repro-mpi fuzz --jobs`` fan out
through exactly the same backends — a service fleet can absorb a fuzz
run the same way it absorbs a sweep.

Selection precedence (first match wins):

1. explicit ``ExperimentEngine(dispatch=...)`` / ``--dispatch`` flag;
2. the ``REPRO_DISPATCH`` environment variable;
3. ``auto``: ``service`` when a service address is known (the
   ``REPRO_SERVICE_ADDR`` environment variable), else ``local-pool``.

Asking for ``service`` without an address is a loud error, never a
silent fallback.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Any, Iterator

from ..util.osenv import env_value

__all__ = [
    "DISPATCH_BACKENDS",
    "ENV_VAR",
    "ENV_ADDR",
    "DispatchBackend",
    "DispatchConfig",
    "DispatchError",
    "DispatchJob",
    "create_dispatch",
    "parse_address",
    "resolve_dispatch",
    "resolve_service_addr",
]

#: Concrete dispatch backend names, in documentation order.
DISPATCH_BACKENDS = ("local-pool", "inline", "service")

#: Environment variable consulted when no explicit choice was made.
ENV_VAR = "REPRO_DISPATCH"

#: Environment variable naming the experiment service (``HOST:PORT``).
ENV_ADDR = "REPRO_SERVICE_ADDR"


class DispatchError(RuntimeError):
    """Misconfigured or failed job dispatch."""


def resolve_dispatch(name: str | None = None) -> str:
    """Resolve a dispatch request to a concrete, validated name.

    Precedence: explicit ``name`` > ``$REPRO_DISPATCH`` > auto
    (``service`` when ``$REPRO_SERVICE_ADDR`` is set, else
    ``local-pool``).
    """
    name = env_value(ENV_VAR, _check_name) if name is None else _check_name(name)
    if name is None or name == "auto":
        return "service" if os.environ.get(ENV_ADDR) else "local-pool"
    return name


def _check_name(name: str) -> str:
    if name != "auto" and name not in DISPATCH_BACKENDS:
        raise ValueError(
            f"unknown dispatch backend {name!r}; expected 'auto' or one of "
            + ", ".join(repr(b) for b in DISPATCH_BACKENDS)
        )
    return name


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` (loud on anything else)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise DispatchError(
            f"service address must look like HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise DispatchError(
            f"service address port must be an integer, got {text!r}"
        ) from None


def resolve_service_addr(explicit: str | None = None) -> tuple[str, int]:
    """The experiment service address: explicit argument, else
    ``$REPRO_SERVICE_ADDR``; loud when neither is set."""
    text = explicit or os.environ.get(ENV_ADDR)
    if not text:
        raise DispatchError(
            "dispatch backend 'service' needs a server address: pass "
            "--service HOST:PORT (or set REPRO_SERVICE_ADDR), and start "
            "one with `repro-mpi serve`"
        )
    return parse_address(text)


# --------------------------------------------------------------------- #
# The seam
# --------------------------------------------------------------------- #

@dataclass
class DispatchConfig:
    """Everything a backend needs to execute jobs faithfully.

    ``cache_dir`` roots the shared artifact store (results + image
    tier); ``None`` means the submitting engine runs cache-less and
    jobs must neither read nor write any store.
    """

    jobs: int = 1
    cache_dir: "str | None" = None
    guard: "int | None" = None
    service_addr: "tuple[str, int] | None" = None


class DispatchJob:
    """Future-like handle for one submitted job.

    ``kind`` is ``"sim"`` (payload: spec + deps) or ``"check"``
    (payload: oracle name + schedule document).  :meth:`result` pumps
    the backend's completion stream until this job lands — results for
    other jobs completing in the meantime are retained and delivered by
    their own handles, so mixing :meth:`result` with
    :meth:`DispatchBackend.drain` is safe.
    """

    __slots__ = ("kind", "spec", "oracle", "schedule", "key", "_backend",
                 "_value", "_done")

    def __init__(self, backend: "DispatchBackend", kind: str, *,
                 spec=None, oracle: str | None = None,
                 schedule: dict | None = None):
        self.kind = kind
        self.spec = spec
        self.oracle = oracle
        self.schedule = schedule
        self.key: str | None = None
        self._backend = backend
        self._value: Any = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._done = True

    def result(self) -> Any:
        """Block until this job completes; returns its value.

        Sim jobs resolve to ``(result, elapsed, served, cached)``;
        check jobs resolve to the report dictionary.
        """
        while not self._done:
            self._backend._pump()
        return self._value


class DispatchBackend(ABC):
    """One way of executing a wave of independent jobs.

    Lifecycle: any number of :meth:`submit`/:meth:`submit_check` calls,
    then :meth:`drain` (or per-handle :meth:`DispatchJob.result`) until
    every submitted job resolved, repeated per wave; :meth:`close`
    releases any long-lived resources (the service connection).  The
    backend must deliver results *identical* to in-process execution —
    dispatch may change wall time, never a result.
    """

    def __init__(self, config: DispatchConfig):
        self.config = config
        self._pending: "list[DispatchJob]" = []

    # -- submission ----------------------------------------------------- #

    def submit(self, spec, deps) -> DispatchJob:
        """Queue one simulation job; returns its future-like handle."""
        job = DispatchJob(self, "sim", spec=spec)
        self._track(job)
        self._enqueue(job, self._sim_payload(spec, deps))
        return job

    def submit_check(self, oracle: str, schedule: dict) -> DispatchJob:
        """Queue one oracle-check job (verify/fuzz fan-out)."""
        job = DispatchJob(self, "check", oracle=oracle, schedule=schedule)
        self._track(job)
        self._enqueue(job, {"kind": "check", "oracle": oracle,
                            "schedule": dict(schedule)})
        return job

    def _track(self, job: DispatchJob) -> None:
        # Drop already-resolved handles so long-lived backends (a fuzz
        # run submitting thousands of checks) don't accumulate them.
        if self._pending and self._pending[0].done:
            self._pending = [j for j in self._pending if not j.done]
        self._pending.append(job)

    def _sim_payload(self, spec, deps) -> dict:
        return {"kind": "sim", "spec": spec, "deps": deps}

    # -- collection ----------------------------------------------------- #

    def drain(self) -> "Iterator[DispatchJob]":
        """Yield every outstanding job as it completes.

        Completion order is backend-defined (submission order for
        ``inline``; completion order for pools and the service); the
        caller keys results by handle, so ordering never changes a
        batch's outcome.
        """
        while any(not job.done for job in self._pending):
            yield self._pump()
        self._pending.clear()

    def close(self) -> None:
        """Release long-lived resources (idempotent)."""

    def __enter__(self) -> "DispatchBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- backend mechanics ---------------------------------------------- #

    @abstractmethod
    def _enqueue(self, job: DispatchJob, payload: dict) -> None:
        """Accept one job for execution."""

    @abstractmethod
    def _pump(self) -> DispatchJob:
        """Advance until one more outstanding job completes; resolve and
        return its handle."""


# --------------------------------------------------------------------- #
# Job bodies (shared by every backend's workers)
# --------------------------------------------------------------------- #

def _run_check_job(oracle: str, schedule: dict) -> dict:
    """Execute one oracle check; returns the report as a dict with the
    worker-measured wall duration (the fuzzer's cost-model input)."""
    import time

    from .verify import ORACLES, schedule_from_dict

    t0 = time.perf_counter()
    report = ORACLES[oracle].check_schedule(schedule_from_dict(schedule))
    return {"report": report.as_dict(),
            "duration": time.perf_counter() - t0}


def _run_job(payload: dict, config: DispatchConfig):
    """Execute one queued payload to the value its handle resolves to.

    The one body behind in-process execution and pool workers (a
    top-level function, picklable by name for spawn).  Sim jobs go
    through :func:`repro.harness.engine._execute_job` *via the module
    attribute* so tests (and tools) that monkeypatch the engine's job
    runner see every in-process execution.
    """
    if payload["kind"] == "check":
        return _run_check_job(payload["oracle"], payload["schedule"])
    from . import engine as engine_mod

    result, elapsed, served = engine_mod._execute_job(
        payload["spec"], payload["deps"], config.guard, config.cache_dir
    )
    return result, elapsed, served, False


# --------------------------------------------------------------------- #
# local-pool (and inline, its jobs=1 configuration)
# --------------------------------------------------------------------- #

class LocalPoolDispatch(DispatchBackend):
    """The seed mechanics: spawn-safe process pool per wave.

    Jobs are buffered at submission; the first collection decides the
    mechanism — in-process for ``jobs=1`` or a single-job wave (exactly
    the engine's historical fast path), else a spawn-context
    ``ProcessPoolExecutor`` sized ``min(jobs, wave)`` whose futures are
    collected ``FIRST_COMPLETED``-first.  Spawn, not fork: simulations
    build deep object graphs and numpy state; forking a warm parent is
    where the subtle bugs live.
    """

    name = "local-pool"

    def __init__(self, config: DispatchConfig):
        super().__init__(config)
        self._queue: "list[tuple[DispatchJob, dict]]" = []
        self._pool = None
        self._futures: "dict" = {}

    def _enqueue(self, job: DispatchJob, payload: dict) -> None:
        if self._futures:
            raise DispatchError(
                "local-pool dispatch cannot accept submissions while a "
                "wave is collecting; drain the wave first"
            )
        self._queue.append((job, payload))

    def _launch(self) -> None:
        ctx = get_context("spawn")
        workers = min(self.config.jobs, len(self._queue))
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        for job, payload in self._queue:
            future = self._pool.submit(_run_job, payload, self.config)
            self._futures[future] = job
        self._queue.clear()

    def _pump(self) -> DispatchJob:
        if not self._futures:
            if not self._queue:
                raise DispatchError("no outstanding dispatch jobs")
            if self.config.jobs == 1 or len(self._queue) == 1:
                job, payload = self._queue.pop(0)
                job._resolve(_run_job(payload, self.config))
                return job
            self._launch()
        done, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        future = next(iter(done))
        job = self._futures.pop(future)
        job._resolve(future.result())
        if not self._futures and self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        return job

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def create_dispatch(name: str, config: DispatchConfig) -> DispatchBackend:
    """Instantiate a concrete backend for a *resolved* dispatch name."""
    if name == "inline":
        return LocalPoolDispatch(replace(config, jobs=1))
    if name == "local-pool":
        return LocalPoolDispatch(config)
    if name == "service":
        from .service import ServiceDispatch

        return ServiceDispatch(config)
    raise ValueError(f"unknown dispatch backend {name!r}")
