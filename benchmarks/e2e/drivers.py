"""The ``D`` per-layer metrics: call one layer's public function directly.

Runs as its own pinned subprocess (``bench_e2e.py --trace 1`` spawns
it) and prints one JSON object.  Each figure is the median of five
timings.  The kernel and matcher loops are *imported* from
``benchmarks/bench_micro.py`` — one ledger for micro-rates, no copies —
but timed here as medians under the default execution backend, pinned,
so they are not comparable with ``BENCH_hotpath.json``'s unpinned
best-of-5 entries.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REPEATS = 5


def _median_seconds(fn) -> "tuple[float, object]":
    """Median wall of ``REPEATS`` calls, and the last call's return value."""
    times = []
    value = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def _rate(loop) -> float:
    """``loop`` returns an operation count; median operations per second."""
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        count = loop()
        rates.append(count / (time.perf_counter() - t0))
    return statistics.median(rates)


def _load_bench_micro():
    spec = importlib.util.spec_from_file_location(
        "bench_micro", ROOT / "benchmarks" / "bench_micro.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solver_arrivals() -> int:
    """One 512-rank broadcast resolved arrival by arrival (the shape of
    ``bench_micro.test_bcast_solver_cost``)."""
    from repro.netmodel import CollectiveTuning, make_solver, make_topology

    topo = make_topology(512, ppn=128)
    solver = make_solver("bcast", tuple(range(512)), topo, CollectiveTuning(), 1024)
    for i in range(512):
        solver.on_arrival(i, 0.0)
    if not solver.complete:
        raise RuntimeError("bcast solver did not resolve")
    return 512


def _safe_cut_program():
    """A fixed seeded legal program: 32 ranks, 8 overlapping groups, 4000
    collectives drawn from one global schedule."""
    from repro.core import CollectiveProgram

    rng = random.Random(1234)
    nranks = 32
    members = {
        g: tuple(sorted(rng.sample(range(nranks), rng.randint(2, nranks))))
        for g in range(8)
    }
    ops: list[list[int]] = [[] for _ in range(nranks)]
    for _ in range(4000):
        g = rng.randrange(8)
        for r in members[g]:
            ops[r].append(g)
    program = CollectiveProgram(tuple(tuple(seq) for seq in ops), members)
    starts = [rng.randrange(len(seq) // 2) for seq in ops]
    return program, starts


def _dispatch_codec_us(specs) -> float:
    """What ``local-pool``/``service`` dispatch would pay per job: the
    JSON job codec round trip plus a pickle round trip of the spec
    (``jobs=1`` never pays either)."""
    from repro.harness.spec import job_from_dict, job_to_dict

    def round_trip() -> None:
        for spec in specs:
            wire = json.dumps(job_to_dict(spec, guard=10**8, sim_backend="threads"))
            back = job_from_dict(json.loads(wire))[0]
            if back != spec or pickle.loads(pickle.dumps(spec)) != spec:
                raise RuntimeError(f"dispatch codec altered {spec.label()}")

    seconds, _ = _median_seconds(round_trip)
    return seconds / len(specs) * 1e6


def _cli_import_s(cpu: int) -> float:
    """``import repro.cli`` in a fresh interpreter (pyc warm)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time; t=time.perf_counter(); import repro.cli; print(time.perf_counter()-t)"

    def once() -> float:
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        )
        return float(out.stdout)

    return statistics.median(once() for _ in range(REPEATS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--cpu", type=int, default=-1)
    args = ap.parse_args(argv)
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})  # inherited by _cli_import_s's children
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from repro.core import compute_safe_cut
    from repro.des.backends import resolve_backend

    from workloads import build_plans

    micro = _load_bench_micro()
    backend = resolve_backend(None)
    specs = list(dict.fromkeys(
        s for p in build_plans(args.workload, args.seed, args.scale) for s in p.specs
    ))
    program, starts = _safe_cut_program()
    safe_cut_s, _ = _median_seconds(lambda: compute_safe_cut(program, starts))
    metrics = {
        "des.timer_events_per_s": _rate(micro._timer_chain),
        "des.nowq_events_per_s": _rate(micro._nowq_chain),
        "des.resume_events_per_s": _rate(lambda: micro._resume_loop(backend)),
        "simmpi.match_deep_ops_per_s": _rate(micro._matching_deep),
        "simmpi.match_wildcard_ops_per_s": _rate(micro._matching_wildcard),
        "netmodel.solver_arrivals_per_s": _rate(_solver_arrivals),
        "core.safe_cut_ms": safe_cut_s * 1e3,
        "harness.dispatch_codec_us_per_job": _dispatch_codec_us(specs),
        "cli.import_s": _cli_import_s(args.cpu),
    }
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
