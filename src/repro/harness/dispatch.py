"""Job fan-out: independent job payloads in, ``(index, value)`` pairs out.

Everything the harness runs in bulk — a wave of simulations, a grid of
oracle checks, a block of fuzz iterations — is a list of independent
jobs, and :func:`fan_out` is the one way to run such a list.  Jobs run
here: in this process when ``jobs == 1`` or there is a single job, else
in a spawn-context process pool of ``jobs`` workers.

A payload is a dictionary carrying everything its job needs:

* ``{"kind": "sim", "spec", "deps", "cache_dir"}`` — one
  :class:`~repro.harness.spec.RunSpec` with its resolved ancestors;
  ``cache_dir`` roots the result cache whose image tier feeds its
  restart parents (``None`` runs it cache-less).  Its value is
  ``(result, elapsed, images_served)``.
* ``{"kind": "check", "oracle", "schedule"}`` — one
  :class:`~repro.harness.verify.FaultSchedule` document through one
  oracle, simulated from scratch; its value is
  ``{"report": ..., "duration": ...}``.

Pairs arrive as jobs finish — submission order in-process, completion
order otherwise — and callers that need an order index into a list.
Fan-out may change where a job runs and how long the list takes, never
a value.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from multiprocessing import get_context
from typing import Any, Iterator, Sequence

from ..util.codec import decode, encode

__all__ = [
    "fan_out",
    "resolve_dispatch",
    "run_check",
    "run_job",
]


def resolve_dispatch(_service=None) -> str:
    """Name of the fan-out jobs go through, for reports
    (``benchmarks/e2e/child.py``, frozen, records it)."""
    return "local-pool"


def run_job(payload: dict) -> Any:
    """Execute one payload to its value: the body behind in-process
    execution and pool workers (top-level, so spawn can pickle it by
    name).  Simulations go through :func:`repro.harness.engine._execute_job`
    *via the module attribute*, so a test that patches the engine's job
    body sees every in-process execution.
    """
    if payload["kind"] == "check":
        return run_check(payload["oracle"], payload["schedule"])
    from . import engine as engine_mod

    return engine_mod._execute_job(
        payload["spec"], payload["deps"], payload["cache_dir"]
    )


def run_check(oracle: str, schedule: dict) -> dict:
    """One oracle check; returns the report document and the wall
    duration measured where the check ran (the fuzzer's cost-model
    input)."""
    from .verify import ORACLES, FaultSchedule

    t0 = time.perf_counter()
    report = ORACLES[oracle].check_schedule(decode(FaultSchedule, schedule))
    return {"report": encode(report), "duration": time.perf_counter() - t0}


def fan_out(
    payloads: Sequence[dict], *, jobs: int = 1
) -> Iterator[tuple[int, Any]]:
    """Run independent job payloads; yield ``(index, value)`` as each
    finishes."""
    payloads = list(payloads)
    if jobs == 1 or len(payloads) <= 1:
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
