"""One measured pass of one workload in a fresh interpreter.

``bench_e2e.py`` spawns this once per (workload, repeat): pin to one
CPU, ``import repro.cli``, build the specs, open the cache, then run
the workload once through the public ``ExperimentEngine`` path (closed
loop, one client, ``jobs=1``, default execution and dispatch backends)
and print one JSON document on the last stdout line.  With ``--trace 1``
the layer boundaries are wrapped first (see ``tracing.py``).

Host time and memory are the only *metrics*; every simulated statistic
(event counts, virtual seconds, rendered tables) is deterministic and is
reported so the parent can *check* it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _span(tracer, name: str):
    """``tracer.span(name)``, or nothing when the pass is untraced."""
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _pass(engine, plans, tracer):
    """One ``run_batch`` + fold + render; returns (results, {plan: table})."""
    results = engine.run_batch([s for p in plans for s in p.specs])
    with _span(tracer, "harness.fold_render"):
        tables = {p.name: p.fold(results).render() for p in plans}
    return results, tables


def _overheads(results) -> dict:
    """Mean simulated runtime overhead % vs native, per protocol, over
    the cells that have a native run (the paper's headline quantity)."""
    from repro.util.stats import mean, overhead_pct

    cells: dict = {}
    for spec, res in results.items():
        if res.na_reason or spec.restart_of is not None:
            continue
        key = (spec.app, spec.app_kwargs, spec.nprocs, spec.ppn, spec.seed)
        cells.setdefault(key, {})[spec.protocol] = res.runtime
    out = {}
    for proto in ("2pc", "cc"):
        values = [
            overhead_pct(cell[proto], cell["native"])
            for cell in cells.values()
            if proto in cell and "native" in cell
        ]
        out[proto] = mean(values) if values else 0.0
    return out


def _shape_problems(results) -> list[str]:
    """The paper's qualitative claims that hold at any seed, plus job
    failures: an NA where a result is expected, or a crashed rank."""
    from repro.apps.registry import app_uses_nonblocking

    problems = []
    for spec, res in results.items():
        nonblocking = app_uses_nonblocking(spec.app, dict(spec.app_kwargs))
        expect_na = spec.protocol == "2pc" and nonblocking
        if expect_na != bool(res.na_reason):
            problems.append(
                f"{spec.label()}: NA={bool(res.na_reason)} expected {expect_na}"
            )
        if res.crashed_ranks:
            problems.append(f"{spec.label()}: ranks crashed")
        if spec.checkpoint_fractions and not any(c.committed for c in res.checkpoints):
            problems.append(f"{spec.label()}: chain did not commit")
    return problems


def _blocking_order_problems(results) -> list[str]:
    """CC overhead < 2PC overhead on every blocking OSU cell (Figure 5a)."""
    cells: dict = {}
    for spec, res in results.items():
        if spec.app == "osu" and dict(spec.app_kwargs).get("blocking") and res.ok:
            cells.setdefault((spec.app_kwargs, spec.nprocs), {})[spec.protocol] = res.runtime
    return [
        f"osu {dict(kw).get('kind')}/{dict(kw).get('nbytes')}B/p={p}: CC >= 2PC"
        for (kw, p), cell in cells.items()
        if {"2pc", "cc"} <= cell.keys() and not cell["cc"] < cell["2pc"]
    ]


def _results_sha(results) -> str:
    from repro.harness.spec import run_result_to_dict, spec_hash

    # The tracer wraps the codec; digesting is not part of the workload.
    to_dict = getattr(run_result_to_dict, "__wrapped__", run_result_to_dict)
    hasher = getattr(spec_hash, "__wrapped__", spec_hash)
    rows = sorted((hasher(s), to_dict(r)) for s, r in results.items())
    return _sha(json.dumps(rows, sort_keys=True, default=str))


def _counts(results) -> dict:
    """Exact simulated statistics of a result map (deterministic)."""
    records = [c for r in results.values() for c in r.checkpoints]
    committed = [c for c in records if c.committed]
    over = _overheads(results)
    return {
        "des.events": sum(r.sim_events for r in results.values()),
        "des.sim_seconds": sum(r.runtime for r in results.values()),
        "simmpi.coll_calls": sum(r.coll_calls for r in results.values()),
        "simmpi.p2p_calls": sum(r.p2p_calls for r in results.values()),
        "core.cc_overhead_pct": over["cc"],
        "core.twopc_overhead_pct": over["2pc"],
        "mana.rounds_committed": len(committed),
        "mana.rounds_aborted": len(records) - len(committed),
        "mana.ckpt_sim_seconds": sum(c.checkpoint_time for c in committed),
        "mana.restart_sim_seconds": sum(r.restart_ready_time for r in results.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--cpu", type=int, default=-1, help="-1 = leave unpinned")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--spawned-at", type=float, default=None)
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    if args.cpu >= 0:
        # Before importing repro: with rank bodies on OS threads,
        # cross-core lock/GIL hand-off makes unpinned wall bimodal.
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro.cli  # noqa: F401  (what a user's `repro-mpi` pays)
    from repro.des.backends import greenlet_available, resolve_backend
    from repro.harness import ExperimentEngine, ResultCache, resolve_dispatch

    from workloads import SCALES, build_plans, restart_specs

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    with _span(tracer, "harness.plan"):
        plans = build_plans(args.workload, args.seed, args.scale)
    submitted = [s for p in plans for s in p.specs]
    closure = dict.fromkeys(submitted)
    for spec in submitted:
        closure.update(dict.fromkeys(spec.ancestors()))
    warm = args.workload == "warm_replay"
    restarts = restart_specs(plans)
    reruns = SCALES[args.scale]["warm_reruns"]

    cache = ResultCache(args.cache_dir)
    bytes_before = cache.total_bytes() + cache.image_bytes()
    image_bytes_before = cache.image_bytes()
    engine = ExperimentEngine(jobs=1, cache=cache)

    problems: list[str] = []
    stats_rows = []
    rerun_ms: list[float] = []
    tierfed_ms = 0.0

    # A pass that raises (a job blew up, tripped max_events, …) ends the
    # child with a traceback and no result; the parent reports that.
    setup_s = time.time() - spawned_at
    t0 = time.perf_counter()
    with _span(tracer, "workload"):
        if not warm:
            results, tables = _pass(engine, plans, tracer)
            stats_rows.append(engine.last_stats)
        else:
            for _ in range(reruns):
                t1 = time.perf_counter()
                engine = ExperimentEngine(jobs=1, cache=ResultCache(args.cache_dir))
                results, tables = _pass(engine, plans, tracer)
                rerun_ms.append((time.perf_counter() - t1) * 1e3)
                stats_rows.append(engine.last_stats)
            ResultCache(args.cache_dir).prune(restarts)
            t1 = time.perf_counter()
            engine = ExperimentEngine(jobs=1, cache=ResultCache(args.cache_dir))
            tier_results, tier_tables = _pass(engine, plans, tracer)
            tierfed_ms = (time.perf_counter() - t1) * 1e3
            stats_rows.append(engine.last_stats)
    wall_s = time.perf_counter() - t0
    trace_summary = tracer.summary() if tracer else None

    # ---- everything below is untimed bookkeeping ---------------------- #
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    cache = ResultCache(args.cache_dir)
    executed_results = dict(results)
    if warm:
        job_ms = rerun_ms
        attempted = len(results) * len(stats_rows)
        delivered_events = sum(r.sim_events for r in results.values()) * len(stats_rows)
        executed_events = sum(tier_results[s].sim_events for s in restarts)
        if any(st.executed for st in stats_rows[:-1]):
            problems.append("a warm rerun executed simulations")
        last = stats_rows[-1]
        if (last.executed, last.images_reused) != (len(restarts), len(restarts)):
            problems.append(
                f"tier-fed pass executed {last.executed} / reused "
                f"{last.images_reused}, expected {len(restarts)} each"
            )
        if tier_tables != tables or _results_sha(tier_results) != _results_sha(results):
            problems.append("tier-fed results differ from the warm replay")
    else:
        attempted = len(closure)
        for spec in closure:
            if spec not in executed_results:
                hit = cache.get(spec)
                if hit is not None:
                    executed_results[spec] = hit
        job_ms = [
            t * 1e3 for t in (cache.recorded_time(s) for s in closure) if t is not None
        ]
        delivered_events = sum(r.sim_events for r in executed_results.values())
        executed_events = delivered_events
        if stats_rows[0].cache_hits:
            problems.append(f"cold pass hit the cache {stats_rows[0].cache_hits}x")
        if stats_rows[0].executed != len(closure):
            problems.append(
                f"cold pass executed {stats_rows[0].executed} of {len(closure)} jobs"
            )
    problems += _shape_problems(executed_results)
    if args.seed == 0:
        problems += _blocking_order_problems(executed_results)
    if tracer:
        problems += tracer.check_hits(args.workload)
        if args.trace_out:
            tracer.dump(Path(args.trace_out))

    counts = _counts(executed_results)

    def total(field: str) -> int:
        return sum(getattr(row, field) for row in stats_rows)

    counts.update({
        "harness.executed": total("executed"),
        "harness.cache_hits": total("cache_hits"),
        "harness.deduped": total("submitted") - total("unique"),
        "harness.chained": total("chained"),
        "harness.images_reused": total("images_reused"),
        "harness.cache_bytes_written":
            max(0, cache.total_bytes() + cache.image_bytes() - bytes_before),
        "mana.image_bytes": cache.image_bytes() - image_bytes_before,
    })
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
        "peak_rss_mb": max(u.ru_maxrss for u in usage) / 1024.0,
        "delivered_events": delivered_events,
        "executed_events": executed_events,
        "job_ms": job_ms,
        "tierfed_ms": tierfed_ms,
        "attempted": attempted,
        "problems": problems,
        "tables_sha": {name: _sha(text) for name, text in tables.items()},
        "results_sha": _results_sha(results),
        "counts": counts,
        "trace": trace_summary,
        "env": {
            "nproc": os.cpu_count(),
            "cpu": args.cpu,
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "backend": resolve_backend(None),
            "dispatch": resolve_dispatch(None),
            "greenlet": greenlet_available(),
            "loadavg_1m": os.getloadavg()[0],
        },
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
