"""The five named workloads, as lists of :class:`FigurePlan`.

Every workload is built from the repo's public planners
(``plan_fig5a`` …) or ``RunSpec.create``; the program under test only
ever sees the generated specs.  ``--seed`` is threaded into every spec.

Why each workload exists (the layers it stresses) is recorded in
``BENCHMARK.json`` and ``README.md``; the sizes here are the ones the
README's numbers were measured with.  ``smoke`` is a seconds-long
variant for ``selfcheck.py`` only — never quote numbers from it.
"""

from __future__ import annotations

from typing import Mapping

from repro.harness.experiments import (
    ExperimentResult,
    FigurePlan,
    plan_fig5a,
    plan_fig5b,
    plan_fig6,
    plan_table1,
)
from repro.harness.runner import RunResult
from repro.harness.spec import RunSpec
from repro.netmodel import StorageModel
from repro.util.stats import overhead_pct

COLD_WORKLOADS = ("osu_blocking", "osu_overlap", "apps_p2p", "ckpt_restart")
WORKLOADS = COLD_WORKLOADS + ("warm_replay",)

#: Sized on a 2-core box so one cold pass takes about 2 s pinned under
#: the ``threads`` backend: one driver run (``run_seconds``) has to hold
#: five or more fresh-interpreter passes for its fastest pass to be
#: steady, and gets seven to ten (see README "Sizing").
SCALES = {
    "full": {
        "fig5a": dict(procs=(8, 16), sizes=(4, 1024, 65536), iters=10),
        "fig6": dict(procs=(8, 16), sizes=(1024, 131072), iters=6),
        "fig5b": dict(procs=(8, 16), sizes=(1024, 65536), iters=8),
        "apps_nprocs": 8,
        "apps_ppn": 4,
        "chains": dict(nodes=(1, 2, 4), niters=5, bands=8, npw=1024),
        "warm_reruns": 40,
    },
    "smoke": {
        "fig5a": dict(procs=(4,), kinds=("bcast", "allreduce"), sizes=(4, 1024), iters=4),
        "fig6": dict(procs=(4,), kinds=("bcast",), sizes=(1024,), iters=3),
        "fig5b": dict(procs=(4,), kinds=("allreduce",), sizes=(1024,), iters=3),
        "apps_nprocs": 4,
        "apps_ppn": 2,
        "chains": dict(nodes=(1,), niters=3, bands=4, npw=64),
        "warm_reruns": 3,
    },
}


#: Figure 7's five applications at its iteration counts.
APP_CELLS = (
    ("minivasp", {"niters": 12}),
    ("sw4", {"niters": 10}),
    ("comd", {"niters": 30}),
    ("lammps", {"niters": 40}),
    ("poisson", {"niters": 20}),
)


def plan_app_cells(nprocs: int, *, ppn: int, seed: int = 0) -> FigurePlan:
    """Figure 7's application cells under ``native`` and ``cc`` only.

    ``plan_fig7`` also runs every cell under 2PC, whose inserted barrier
    turns the seeded compute jitter into a polling loop: one 2PC cell's
    event count ranges from 63 k to 183 k over six seeds while its
    native and CC twins move by 0.3 %.  A workload whose amount of work
    depends on ``--seed`` measures the seed, so 2PC is measured where
    nothing jitters (``osu_blocking``) and left out here.
    """
    cells = [
        (app, {
            proto: RunSpec.create(
                app, nprocs, app_kwargs=kwargs, protocol=proto, ppn=ppn, seed=seed
            )
            for proto in ("native", "cc")
        })
        for app, kwargs in APP_CELLS
    ]

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="app_cells",
            title=f"Application runtimes ({nprocs} procs), seconds (virtual)",
            headers=["application", "native", "CC", "CC %"],
        )
        for app, cell in cells:
            native, cc = (results[cell[p]].runtime for p in ("native", "cc"))
            result.rows.append(
                [app, f"{native:.6f}", f"{cc:.6f}", f"{overhead_pct(cc, native):.3f}"]
            )
        return result

    return FigurePlan(
        "app_cells", [spec for _, cell in cells for spec in cell.values()], fold
    )


#: Where in the probe's runtime the checkpoint is requested.  The image
#: carries the step's communication buffers, so its size depends on the
#: phase the cut lands in; at most fractions a few microseconds of seeded
#: jitter move single ranks across a phase boundary and image bytes (so
#: pack time, cache bytes and peak RSS) change with ``--seed`` — by 3.5x
#: at 0.4, 0.6 and 0.8, by 7 % at 0.5.  At 0.75 of five steps the cut
#: lands mid-phase: the same bytes and events at every seed tried.
CUT_FRACTION = 0.75


def plan_ckpt_chains(
    nodes=(1, 2, 4), *, ppn: int = 4, niters: int = 5, bands: int = 8,
    npw: int = 1024, seed: int = 0,
) -> FigurePlan:
    """Probe → checkpoint → restart chains under CC with *real* state.

    Figure 9's planner declares 398 MiB per rank but carries a tiny
    ``psi``; here ``bands × npw`` complex doubles make each rank's image
    hold 128 KiB of incompressible state plus its buffers, so
    ``pack_image_set`` and the cache's image-tier writes do real work.
    Storage model is Figure 9's.  CC only: a 2PC chain spends its time in
    the barrier's polling loop, and how long that is depends on the seed
    (see :func:`plan_app_cells`).
    """
    storage = StorageModel(
        per_node_bandwidth=2.0e9, aggregate_bandwidth=6.0e9, base_latency=1.0
    )
    common = dict(
        app_kwargs={"niters": niters, "bands": bands, "npw": npw},
        protocol="cc", ppn=ppn, seed=seed, storage=storage,
    )
    cells = []
    for n in nodes:
        ckpt = RunSpec.create(
            "minivasp", n * ppn, checkpoint_fractions=(CUT_FRACTION,), **common
        )
        restart = RunSpec.create("minivasp", n * ppn, restart_of=ckpt, **common)
        cells.append((n, ckpt, restart))

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="ckpt_chains",
            title=f"Checkpoint/restart chains (miniVASP, {ppn} ranks per node)",
            headers=["nodes", "ckpt (s)", "restart (s)", "energy"],
        )
        for n, ckpt, restart in cells:
            committed = [c for c in results[ckpt].checkpoints if c.committed]
            if not committed:
                raise RuntimeError(f"no committed checkpoint at {n} nodes")
            result.rows.append([
                n,
                f"{committed[0].checkpoint_time:.6f}",
                f"{results[restart].restart_ready_time:.6f}",
                f"{results[restart].per_rank[0]['energy']:.9f}",
            ])
        return result

    return FigurePlan(
        "ckpt_chains", [s for _, c, r in cells for s in (c, r)], fold
    )


def build_plans(workload: str, seed: int, scale: str = "full") -> list[FigurePlan]:
    """The figure plans one pass of ``workload`` submits as one batch."""
    size = SCALES[scale]
    if workload == "osu_blocking":
        return [plan_fig5a(seed=seed, **size["fig5a"])]
    if workload == "osu_overlap":
        return [plan_fig6(seed=seed, **size["fig6"]),
                plan_fig5b(seed=seed, **size["fig5b"])]
    if workload == "apps_p2p":
        nprocs, ppn = size["apps_nprocs"], size["apps_ppn"]
        return [plan_app_cells(nprocs, ppn=ppn, seed=seed),
                plan_table1(nprocs, ppn=ppn, seed=seed)]
    if workload == "ckpt_restart":
        return [plan_ckpt_chains(seed=seed, **size["chains"])]
    if workload == "warm_replay":
        return [p for w in COLD_WORKLOADS for p in build_plans(w, seed, scale)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def restart_specs(plans: list[FigurePlan]) -> list[RunSpec]:
    """The restart legs among the plans' specs (what ``warm_replay``
    prunes so the image tier has to feed them)."""
    return [s for p in plans for s in p.specs if s.restart_of is not None]
