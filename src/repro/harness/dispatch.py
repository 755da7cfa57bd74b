"""Job fan-out: independent job payloads in, ``(index, value)`` pairs out.

Everything the harness runs in bulk — a wave of simulations, a grid of
oracle checks, a block of fuzz iterations — is a list of independent
jobs, and :func:`fan_out` is the one way to run such a list.  Where the
jobs run is read off the caller's inputs, never named: an experiment
service connection (``--service HOST:PORT``, see
:mod:`repro.harness.service`) ships them to its worker fleet; otherwise
they run here, in this process when ``jobs == 1`` or there is a single
job, else in a spawn-context process pool of ``jobs`` workers.

A payload is a dictionary carrying everything its job needs:

* ``{"kind": "sim", "spec", "deps", "guard", "cache_dir"}`` — one
  :class:`~repro.harness.spec.RunSpec` with its resolved ancestors;
  its value is ``(result, elapsed, images_served, cached)``.
* ``{"kind": "check", "oracle", "schedule", "cache_dir"}`` — one
  :class:`~repro.harness.verify.FaultSchedule` document through one
  oracle; its value is ``{"report": ..., "duration": ...}``.

``cache_dir`` roots the result cache the job reads and writes (``None``
runs it cache-less).  Pairs arrive as jobs finish — submission order
in-process, completion order otherwise — and callers that need an order
index into a list.  Fan-out may change where a job runs and how long
the list takes, never a value.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing, nullcontext
from multiprocessing import get_context
from typing import Any, Iterator, Sequence

from ..util.codec import encode

__all__ = [
    "DispatchError",
    "connect",
    "fan_out",
    "parse_address",
    "resolve_dispatch",
    "run_check",
    "run_job",
]


class DispatchError(RuntimeError):
    """Misconfigured or failed job fan-out."""


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


def connect(service: "str | None"):
    """Context manager: the connection a ``HOST:PORT`` ``service``
    names, closed on exit; ``None`` (jobs run locally) stays ``None``."""
    if service is None:
        return nullcontext()
    from .service import ServiceDispatch

    return closing(ServiceDispatch(parse_address(service)))


def resolve_dispatch(service: "str | None" = None) -> str:
    """Name of the fan-out a ``service`` address selects, for reports
    (``benchmarks/e2e/child.py``, frozen, records it)."""
    return "service" if service else "local-pool"


def run_job(payload: dict) -> Any:
    """Execute one payload to its value: the body behind in-process
    execution and pool workers (top-level, so spawn can pickle it by
    name).  Simulations go through :func:`repro.harness.engine._execute_job`
    *via the module attribute*, so a test that patches the engine's job
    body sees every in-process execution.
    """
    if payload["kind"] == "check":
        return run_check(
            payload["oracle"], payload["schedule"], payload["cache_dir"]
        )
    from . import engine as engine_mod

    result, elapsed, served = engine_mod._execute_job(
        payload["spec"], payload["deps"], payload["guard"], payload["cache_dir"]
    )
    return result, elapsed, served, False


def run_check(oracle: str, schedule: dict, cache_dir=None) -> dict:
    """One oracle check, on an engine rooted at ``cache_dir``; returns
    the report document and the wall duration measured where the check
    ran (the fuzzer's cost-model input)."""
    from .cache import ResultCache
    from .engine import ExperimentEngine
    from .verify import ORACLES, schedule_from_dict

    engine = ExperimentEngine(
        cache=None if cache_dir is None else ResultCache(cache_dir)
    )
    t0 = time.perf_counter()
    report = ORACLES[oracle].check_schedule(schedule_from_dict(schedule), engine)
    return {"report": encode(report), "duration": time.perf_counter() - t0}


def fan_out(
    payloads: Sequence[dict], *, jobs: int = 1, service=None
) -> Iterator[tuple[int, Any]]:
    """Run independent job payloads; yield ``(index, value)`` as each
    finishes.  ``service`` is an open
    :class:`~repro.harness.service.ServiceDispatch` or ``None``."""
    payloads = list(payloads)
    if service is not None:
        yield from service.fan_out(payloads)
    elif jobs == 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            yield index, run_job(payload)
    else:
        # Spawn, not fork: simulations build deep object graphs and
        # numpy state; forking a warm parent is where the subtle bugs
        # live.
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(payloads)), mp_context=get_context("spawn")
        )
        try:
            futures = {
                pool.submit(run_job, payload): index
                for index, payload in enumerate(payloads)
            }
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            # A failed job surfaces now, not after the rest of the list.
            pool.shutdown(cancel_futures=True)
