"""Per-figure experiment drivers (paper Section 5).

Every table and figure in the paper's evaluation has a function here
that runs the corresponding (scaled-down) experiment and returns an
:class:`ExperimentResult` with the same rows/series the paper reports.
Scale knobs default to laptop-friendly sizes; pass larger ``procs``
lists to approach the paper's 128-2048 range.

Architecture: each figure is a *planner* (``plan_fig7`` etc., listed in
:data:`PLANNERS`) that builds the declarative :class:`RunSpec` list for
every cell and returns it with a *fold* that turns the engine's
``{spec: RunResult}`` map back into the rendered table.  A planner is
the one place a figure's knobs are declared: ``repro-mpi <figure>``
offers exactly the flags its signature names.  :func:`run_plans`
submits *several figures as one batch* (run one figure with
``run_plans([PLANNERS[name](...)])[0]``), which is how ``repro-mpi all``
dedupes the native baselines shared by Table 1, Figure 7, and Figure 8,
and how Figure 9's probe/checkpoint/restart chains each simulate once.

The expected *shapes* (who wins, where NA appears, where the dip is)
are stated in each planner's docstring and asserted by ``tests/paper/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..netmodel import StorageModel
from ..util.records import Series, format_series_table, format_table
from ..util.stats import mean, overhead_pct
from .engine import ExperimentEngine
from .runner import RunResult
from .spec import RunSpec
from .sweep import MASKS, Sweep, mask_paper_memory_limit

__all__ = [
    "ExperimentResult",
    "FigurePlan",
    "plan_with_scenario",
    "run_plans",
    "plan_scale_grid",
    "plan_ckpt_freq",
    "plan_restart_chain",
    "STUDIES",
    "plan_table1",
    "plan_fig5a",
    "plan_fig5b",
    "plan_fig6",
    "plan_fig7",
    "plan_fig8",
    "plan_fig9",
    "PLANNERS",
]

#: Default scaled message sizes matching the paper's {4 B, 1 KB, 1 MB}.
MSG_SIZES = (4, 1024, 1 << 20)
OSU_KINDS = ("bcast", "alltoall", "allreduce", "allgather")


@dataclass
class ExperimentResult:
    """Rendered-table plus raw-data result of one experiment."""

    name: str
    title: str
    headers: list[str] = field(default_factory=list)
    rows: list[list[Any]] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    x_label: str = "x"
    notes: str = ""

    def render(self) -> str:
        parts = [f"== {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.series:
            parts.append(format_series_table(self.series, x_label=self.x_label))
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def add_note(self, line: str) -> None:
        self.notes = f"{self.notes}\n{line}" if self.notes else line


@dataclass
class FigurePlan:
    """One figure's declarative job list plus its result fold.

    ``specs`` may contain duplicates (and may overlap other plans');
    the engine dedupes.  ``fold`` receives the engine's result map and
    must look results up by the exact spec values it planned.
    """

    name: str
    specs: list[RunSpec]
    fold: Callable[[Mapping[RunSpec, RunResult]], ExperimentResult]


def plan_with_scenario(plan: FigurePlan, scenario: str) -> FigurePlan:
    """Re-plan a figure under a scenario without touching its fold.

    Every spec (including restart ancestry) gets the scenario stamped
    in; the fold still looks results up by the specs it originally
    planned, so the wrapper re-keys the engine's result map back to the
    scenario-free specs before delegating.
    """
    mapping = {
        spec: spec.with_scenario(scenario)
        for spec in dict.fromkeys(plan.specs)
    }

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        return plan.fold({orig: results[new] for orig, new in mapping.items()})

    return FigurePlan(plan.name, [mapping[s] for s in plan.specs], fold)


def run_plans(
    plans: Sequence[FigurePlan], engine: ExperimentEngine | None = None
) -> list[ExperimentResult]:
    """Run several figures as ONE engine batch and fold each result.

    Submitting the union lets the engine dedupe cells shared between
    figures (the paper's sweeps re-measure many identical baselines).
    """
    engine = engine or ExperimentEngine()
    results = engine.run_batch([s for p in plans for s in p.specs])
    return [p.fold(results) for p in plans]


# --------------------------------------------------------------------- #
# Protocol-sweep cells (the shape `_run_protocols` used to run inline)
# --------------------------------------------------------------------- #

def _protocol_cell(
    app: str,
    app_kwargs: Mapping[str, Any],
    nprocs: int,
    protocols: Sequence[str],
    *,
    ppn: int | None = None,
    seed: int = 0,
    repeats: int = 1,
) -> dict[str, list[RunSpec]]:
    """Specs for one app under several protocols: {proto: [spec per rep]}."""
    return {
        proto: [
            RunSpec.create(
                app,
                nprocs,
                app_kwargs=app_kwargs,
                protocol=proto,
                ppn=ppn,
                seed=seed + rep,
            )
            for rep in range(repeats)
        ]
        for proto in protocols
    }


def _cell_specs(cell: dict[str, list[RunSpec]]) -> list[RunSpec]:
    return [spec for specs in cell.values() for spec in specs]


def _fold_cell(
    results: Mapping[RunSpec, RunResult], cell: dict[str, list[RunSpec]]
) -> tuple[dict[str, list[float] | None], dict[str, str]]:
    """Per-protocol runtimes; NA protocols map to None with the reason.

    This replaces the old inline ``_run_protocols``: instead of letting
    an :class:`UnsupportedOperationError` unwind the whole sweep, the
    engine records the refusal per cell and the fold surfaces *why* the
    cell is NA alongside the None.
    """
    times: dict[str, list[float] | None] = {}
    reasons: dict[str, str] = {}
    for proto, specs in cell.items():
        values: list[float] = []
        for spec in specs:
            run = results[spec]
            if run.na_reason:
                times[proto] = None
                reasons[proto] = run.na_reason
                break
            values.append(run.runtime)
        else:
            times[proto] = values
    return times, reasons


def _note_na(
    result: ExperimentResult, label: str, reasons: Mapping[str, str]
) -> None:
    for proto in sorted(reasons):
        result.add_note(f"NA[{label}/{proto}]: {reasons[proto]}")


def _osu_cells(
    procs: Sequence[int], kinds: Sequence[str], sizes: Sequence[int],
    iters: int, seed: int, repeats: int, *, blocking: bool,
) -> list[tuple[str, int, int, dict[str, list[RunSpec]]]]:
    """Figure 5's OSU grid: one native/2PC/CC cell per kind x size x
    procs, minus the cells the paper's memory limit omits."""
    cells = []
    for kind in kinds:
        for size in sizes:
            for p in procs:
                if _memory_limited(kind, size, p):
                    continue
                cell = _protocol_cell(
                    "osu",
                    {"niters": iters, "kind": kind, "nbytes": size, "blocking": blocking},
                    p,
                    ("native", "2pc", "cc"),
                    ppn=max(p // 2, 1),
                    seed=seed,
                    repeats=repeats,
                )
                cells.append((kind, size, p, cell))
    return cells


# --------------------------------------------------------------------- #
# Table 1: collective and p2p call rates per application
# --------------------------------------------------------------------- #

def plan_table1(
    nprocs: int = 16, *, ppn: int | None = 8, seed: int = 0
) -> FigurePlan:
    """Rates of communication calls per second (paper Table 1).

    The paper's ordering — OSU >> VASP >> Poisson >> CoMD > LAMMPS > SW4
    for collectives, and LAMMPS-heavy p2p — is scale-robust because the
    rates are per-rank properties of each app's step structure.
    """
    configs = [
        ("osu (bcast 4B)", "osu", {"niters": 400, "kind": "bcast", "nbytes": 4}),
        ("minivasp", "minivasp", {"niters": 12}),
        ("poisson", "poisson", {"niters": 20}),
        ("comd", "comd", {"niters": 40}),
        ("lammps", "lammps", {"niters": 60}),
        ("sw4", "sw4", {"niters": 12}),
    ]
    cells = [
        (
            label,
            RunSpec.create(
                app, nprocs, app_kwargs=kwargs, protocol="native", ppn=ppn, seed=seed
            ),
        )
        for label, app, kwargs in configs
    ]

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="table1",
            title=f"Table 1: communication call rates ({nprocs} procs)",
            headers=["application", "coll calls/s", "p2p calls/s"],
        )
        for label, spec in cells:
            r = results[spec]
            p2p = f"{r.p2p_rate:.1f}" if r.p2p_calls else "NA"
            result.rows.append([label, f"{r.coll_rate:.1f}", p2p])
        return result

    return FigurePlan("table1", [spec for _, spec in cells], fold)


# --------------------------------------------------------------------- #
# Figure 5a: blocking OSU overhead, 2PC vs CC
# --------------------------------------------------------------------- #

def plan_fig5a(
    procs: Sequence[int] = (8, 16, 32),
    *,
    kinds: Sequence[str] = OSU_KINDS,
    sizes: Sequence[int] = MSG_SIZES,
    iters: int = 60,
    seed: int = 0,
    repeats: int = 1,
) -> FigurePlan:
    """Blocking-collective runtime overhead: 2PC vs CC (Figure 5a).

    2PC is large on small messages (hundreds of percent on Bcast: the
    inserted barrier destroys the loose tree), near zero at 1 MB for the
    naturally synchronizing kinds; CC stays below 2PC on every cell.
    """
    cells = _osu_cells(procs, kinds, sizes, iters, seed, repeats, blocking=True)

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="fig5a",
            title="Figure 5a: OSU blocking collectives, runtime overhead % vs native",
            headers=["benchmark", "msg", "procs", "2PC %", "CC %"],
            notes="(alltoall/allgather at 1MB limited to 16 procs — memory, as in the paper)",
        )
        for kind, size, p, cell in cells:
            times, reasons = _fold_cell(results, cell)
            base = mean(times["native"])
            o2 = overhead_pct(mean(times["2pc"]), base)
            oc = overhead_pct(mean(times["cc"]), base)
            result.rows.append(
                [f"{kind}", _fmt_size(size), p, f"{o2:.1f}", f"{oc:.1f}"]
            )
            _note_na(result, f"{kind}/{_fmt_size(size)}/{p}", reasons)
        return result

    return FigurePlan(
        "fig5a", [s for _, _, _, cell in cells for s in _cell_specs(cell)], fold
    )


# --------------------------------------------------------------------- #
# Figure 5b: non-blocking OSU overhead (CC only; 2PC = NA)
# --------------------------------------------------------------------- #

def plan_fig5b(
    procs: Sequence[int] = (8, 16, 32),
    *,
    kinds: Sequence[str] = OSU_KINDS,
    sizes: Sequence[int] = MSG_SIZES,
    iters: int = 60,
    seed: int = 0,
) -> FigurePlan:
    """Non-blocking collective overhead under CC (Figure 5b).

    2PC is NA on every cell (it cannot wrap non-blocking collectives);
    CC pays two wrapper crossings per operation, which shows on small
    messages and decays with the message size.
    """
    cells = _osu_cells(procs, kinds, sizes, iters, seed, 1, blocking=False)

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="fig5b",
            title="Figure 5b: OSU non-blocking collectives, CC overhead % vs native "
            "(2PC does not support non-blocking collectives)",
            headers=["benchmark", "msg", "procs", "2PC %", "CC %"],
        )
        for kind, size, p, cell in cells:
            times, reasons = _fold_cell(results, cell)
            base = mean(times["native"])
            # The paper's central claim for this figure: 2PC *must*
            # reject non-blocking collectives.  An assert would vanish
            # under `python -O`, so check explicitly.
            if times["2pc"] is not None:
                raise RuntimeError(
                    f"2PC unexpectedly ran non-blocking {kind} at "
                    f"{_fmt_size(size)}/{p} procs — it must reject "
                    "non-blocking collectives (paper Sections 2.2, 5.2)"
                )
            oc = overhead_pct(mean(times["cc"]), base)
            result.rows.append(
                [f"i{kind}", _fmt_size(size), p, "NA", f"{oc:.1f}"]
            )
            _note_na(result, f"i{kind}/{_fmt_size(size)}/{p}", reasons)
        return result

    return FigurePlan(
        "fig5b", [s for _, _, _, cell in cells for s in _cell_specs(cell)], fold
    )


# --------------------------------------------------------------------- #
# Figure 6: communication/computation overlap, native vs CC
# --------------------------------------------------------------------- #

def plan_fig6(
    procs: Sequence[int] = (8, 16),
    *,
    kinds: Sequence[str] = OSU_KINDS,
    sizes: Sequence[int] = (1024, 1 << 20),
    iters: int = 40,
    seed: int = 0,
) -> FigurePlan:
    """Overlap of communication and computation, native vs CC (Figure 6).

    CC keeps the native overlap, because the wrappers never touch the
    background progress of an initiated operation.
    """
    cells = []
    for kind in kinds:
        for size in sizes:
            for p in procs:
                cell = _protocol_cell(
                    "osu_overlap",
                    {"niters": iters, "kind": kind, "nbytes": size},
                    p,
                    ("native", "cc"),
                    ppn=max(p // 2, 1),
                    seed=seed,
                )
                cells.append((kind, size, p, cell))

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="fig6",
            title="Figure 6: overlap %% of non-blocking collectives (native vs CC)",
            headers=["benchmark", "msg", "procs", "native %", "CC %"],
        )
        for kind, size, p, cell in cells:
            values = {}
            for proto, specs in cell.items():
                run = results[specs[0]]
                values[proto] = mean([x["overlap_pct"] for x in run.per_rank])
            result.rows.append(
                [
                    f"i{kind}",
                    _fmt_size(size),
                    p,
                    f"{values['native']:.1f}",
                    f"{values['cc']:.1f}",
                ]
            )
        return result

    return FigurePlan(
        "fig6", [s for _, _, _, cell in cells for s in _cell_specs(cell)], fold
    )


# --------------------------------------------------------------------- #
# Figure 7: five real-world applications
# --------------------------------------------------------------------- #

def plan_fig7(
    nprocs: int = 16, *, ppn: int | None = 8, seed: int = 0, repeats: int = 2
) -> FigurePlan:
    """Real-world application runtimes: native / 2PC / CC (Figure 7).

    miniVASP (collective-intensive) shows the largest 2PC overhead with
    CC well below it; SW4/CoMD/LAMMPS are ~0 % under both; Poisson runs
    under CC and is NA under 2PC.
    """
    configs = [
        ("minivasp", {"niters": 12}),
        ("sw4", {"niters": 10}),
        ("comd", {"niters": 30}),
        ("lammps", {"niters": 40}),
        ("poisson", {"niters": 20}),
    ]
    cells = [
        (
            label,
            _protocol_cell(
                label,
                kwargs,
                nprocs,
                ("native", "2pc", "cc"),
                ppn=ppn,
                seed=seed,
                repeats=repeats,
            ),
        )
        for label, kwargs in configs
    ]

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="fig7",
            title=f"Figure 7: application runtimes ({nprocs} procs), seconds (virtual)",
            headers=["application", "native", "2PC", "CC", "2PC %", "CC %"],
            notes="(Poisson uses non-blocking collectives: supported by CC, not by 2PC.)",
        )
        for label, cell in cells:
            times, reasons = _fold_cell(results, cell)
            base = mean(times["native"])
            row = [label, f"{base:.4f}"]
            if times["2pc"] is None:
                row += ["NA", f"{mean(times['cc']):.4f}", "NA"]
            else:
                row += [
                    f"{mean(times['2pc']):.4f}",
                    f"{mean(times['cc']):.4f}",
                    f"{overhead_pct(mean(times['2pc']), base):.1f}",
                ]
            row.append(f"{overhead_pct(mean(times['cc']), base):.1f}")
            result.rows.append(row)
            _note_na(result, label, reasons)
        return result

    return FigurePlan(
        "fig7", [s for _, cell in cells for s in _cell_specs(cell)], fold
    )


# --------------------------------------------------------------------- #
# Figure 8: VASP overhead vs process count (the 2-node dip)
# --------------------------------------------------------------------- #

def plan_fig8(
    procs: Sequence[int] = (8, 16, 32),
    *,
    ppn: int = 8,
    seed: int = 0,
    repeats: int = 2,
    niters: int = 12,
) -> FigurePlan:
    """VASP runtime overhead, 2PC vs CC, across node counts (Figure 8).

    Every cell fills nodes of ``ppn`` ranks, so a process count plans
    the same cell whatever else is asked for.  At the defaults the first
    entry runs on one node; doubling the process count adds nodes,
    raising the base communication cost and producing the paper's dip
    in *relative* overhead at two nodes.
    """
    cells = [
        (
            p,
            _protocol_cell(
                "minivasp",
                {"niters": niters},
                p,
                ("native", "2pc", "cc"),
                ppn=ppn,
                seed=seed,
                repeats=repeats,
            ),
        )
        for p in procs
    ]

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        s2 = Series("2PC %")
        sc = Series("CC %")
        result = ExperimentResult(
            name="fig8",
            title=f"Figure 8: miniVASP runtime overhead vs process count (ppn={ppn})",
            series=[s2, sc],
            x_label="procs",
        )
        for p, cell in cells:
            times, reasons = _fold_cell(results, cell)
            base = mean(times["native"])
            s2.add(p, overhead_pct(mean(times["2pc"]), base))
            sc.add(p, overhead_pct(mean(times["cc"]), base))
            _note_na(result, f"{p}procs", reasons)
        return result

    return FigurePlan(
        "fig8", [s for _, cell in cells for s in _cell_specs(cell)], fold
    )


# --------------------------------------------------------------------- #
# Figure 9: VASP checkpoint and restart times vs node count
# --------------------------------------------------------------------- #

def plan_fig9(
    nodes: Sequence[int] = (1, 2, 4, 8),
    *,
    ppn: int = 4,
    seed: int = 0,
    niters: int = 10,
    image_bytes_per_rank: int = 398 << 20,
) -> FigurePlan:
    """Checkpoint and restart times, 2PC vs CC, vs node count (Figure 9).

    Nearly identical between the protocols (the image write dominates)
    and growing once the file system's aggregate bandwidth saturates.
    """
    storage = StorageModel(
        per_node_bandwidth=2.0e9, aggregate_bandwidth=6.0e9, base_latency=1.0
    )
    cells = []
    for n in nodes:
        nprocs = n * ppn
        for proto in ("2pc", "cc"):
            kwargs = {"niters": niters, "memory_bytes": image_bytes_per_rank}
            # Checkpoint mid-run: the fraction schedule makes the probe
            # an explicit dependent phase the engine can dedupe/cache
            # (it used to be an inline throwaway run).
            ckpt = RunSpec.create(
                "minivasp",
                nprocs,
                app_kwargs=kwargs,
                protocol=proto,
                ppn=ppn,
                seed=seed,
                checkpoint_fractions=(0.5,),
                storage=storage,
            )
            restart = RunSpec.create(
                "minivasp",
                nprocs,
                app_kwargs=kwargs,
                protocol=proto,
                ppn=ppn,
                seed=seed,
                storage=storage,
                restart_of=ckpt,
            )
            cells.append((n, proto, ckpt, restart))

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        series = {
            ("2pc", "ckpt"): Series("2PC ckpt (s)"),
            ("cc", "ckpt"): Series("CC ckpt (s)"),
            ("2pc", "restart"): Series("2PC restart (s)"),
            ("cc", "restart"): Series("CC restart (s)"),
        }
        for n, proto, ckpt, restart in cells:
            committed = [c for c in results[ckpt].checkpoints if c.committed]
            if not committed:
                raise RuntimeError(
                    f"no committed checkpoint at {n} nodes ({proto}); "
                    "cannot report Figure 9 for this cell"
                )
            series[(proto, "ckpt")].add(n, committed[0].checkpoint_time)
            series[(proto, "restart")].add(n, results[restart].restart_ready_time)
        return ExperimentResult(
            name="fig9",
            title=f"Figure 9: miniVASP checkpoint/restart times ({ppn} ranks per node)",
            series=list(series.values()),
            x_label="nodes",
        )

    return FigurePlan(
        "fig9", [s for _, _, ckpt, restart in cells for s in (ckpt, restart)], fold
    )


# --------------------------------------------------------------------- #
# Sweep-DSL studies: scenario grids beyond the paper's figures
# --------------------------------------------------------------------- #

#: Per-app default step counts for sweep studies (scaled-down sizes in
#: the same spirit as the figure defaults above).
_STUDY_NITERS = {
    "minivasp": 8,
    "poisson": 12,
    "comd": 20,
    "lammps": 30,
    "sw4": 6,
    "osu": 80,
    "osu_overlap": 30,
}


def plan_scale_grid(
    apps: Sequence[str] = ("minivasp", "comd", "poisson"),
    procs: Sequence[int] = (4, 8, 16),
    *,
    seed: int = 0,
) -> FigurePlan:
    """Scenario study: protocol × application × process-count grid.

    The whole study is one sweep declaration — per-app step counts and
    the node layout are derived columns, the paper's 2PC × non-blocking
    NA rule is a mask, and the fold pivots on protocol with native as
    the overhead baseline (series over process count, Figure-8 style).
    """
    sweep = Sweep(
        "scale_grid",
        axes={
            "app": tuple(apps),
            "protocol": ("native", "2pc", "cc"),
            "nprocs": tuple(int(p) for p in procs),
        },
        base={"seed": seed},
        derive={
            "niters": lambda p: _STUDY_NITERS.get(p["app"], 16),
            "ppn": lambda p: max(p["nprocs"] // 2, 1),
        },
        mask=MASKS["2pc-nonblocking"],
    )
    return sweep.plan(
        pivot="protocol",
        baseline="native",
        x_axis="nprocs",
        title="Scale grid: runtime and overhead % vs native, "
        "protocol × app × procs",
    )


def plan_ckpt_freq(
    n_ckpts: Sequence[int] = (1, 2, 4),
    *,
    app: str = "minivasp",
    nprocs: int = 8,
    niters: int = 10,
    seed: int = 0,
) -> FigurePlan:
    """Scenario study: checkpoint-frequency sensitivity.

    Sweeps how many evenly spaced checkpoints a run takes (the schedule
    is a derived column: ``n`` fractions of the probe runtime; native
    derives an empty schedule, so its one baseline cell dedupes across
    the whole frequency axis) and reports runtime overhead vs native.
    """
    # Fast burst-buffer-like storage: checkpoint pauses stay comparable
    # to the (scaled-down) run itself, so the frequency trend reads as
    # overhead percentages rather than multiples.
    storage = StorageModel(
        per_node_bandwidth=8.0e9, aggregate_bandwidth=2.0e10, base_latency=1e-3
    )
    sweep = Sweep(
        "ckpt_freq",
        axes={"protocol": ("native", "2pc", "cc"), "n_ckpts": tuple(n_ckpts)},
        base={
            "app": app,
            "nprocs": int(nprocs),
            "niters": int(niters),
            "memory_bytes": 4 << 20,
            "ppn": max(int(nprocs) // 2, 1),
            "seed": seed,
            "storage": storage,
        },
        derive={
            "checkpoint_fractions": lambda p: ()
            if p["protocol"] == "native"
            else tuple(
                (i + 1) / (p["n_ckpts"] + 1) for i in range(p["n_ckpts"])
            ),
        },
        meta=("n_ckpts",),
    )
    return sweep.plan(
        pivot="protocol",
        baseline="native",
        x_axis="n_ckpts",
        title=f"Checkpoint frequency: {app} runtime vs checkpoints per run "
        f"({nprocs} procs)",
    )


def plan_restart_chain(
    apps: Sequence[str] = ("minivasp", "comd"),
    *,
    nprocs: int = 4,
    seed: int = 0,
) -> FigurePlan:
    """Scenario study: checkpoint → restart recovery chains (MANA's
    headline scenario — a fresh lower half adopting committed images).

    Sweeps ``restart`` on/off per app × protocol: the ``restart=True``
    cell's checkpoint schedule moves onto a parent spec that the
    ``restart=False`` cell dedupes against, so a cold run simulates
    each chain once.  On a warm cache the parent's committed images are
    served from the result cache's image tier and the engine schedules
    restart cells as wave-0 work with zero parent simulations
    (``EngineStats.images_reused``) — this study is the cheap way to
    exercise that fast path.
    """
    # Burst-buffer-like storage (as in ckpt_freq): image write/read
    # stays comparable to the scaled-down run itself.
    storage = StorageModel(
        per_node_bandwidth=8.0e9, aggregate_bandwidth=2.0e10, base_latency=1e-3
    )
    sweep = Sweep(
        "restart_chain",
        axes={
            "app": tuple(apps),
            "protocol": ("2pc", "cc"),
            "restart": (False, True),
        },
        base={
            "nprocs": int(nprocs),
            "ppn": max(int(nprocs) // 2, 1),
            "seed": seed,
            "checkpoint_fractions": 0.5,
            "storage": storage,
            "memory_bytes": 4 << 20,
        },
        derive={"niters": lambda p: _STUDY_NITERS.get(p["app"], 16)},
        mask=MASKS["2pc-nonblocking"],
    )
    return sweep.plan(
        metrics=("runtime", "ckpt_count", "restart_ready", "restart_read"),
        title=f"Restart chains: checkpoint → restart per app × protocol "
        f"({nprocs} procs)",
    )


#: Sweep-based scenario studies.  Deliberately *not* in PLANNERS:
#: ``repro-mpi all`` regenerates exactly the paper's tables/figures;
#: studies run via ``repro-mpi sweep --study <name>``.
STUDIES = {
    "scale_grid": plan_scale_grid,
    "ckpt_freq": plan_ckpt_freq,
    "restart_chain": plan_restart_chain,
}


def _memory_limited(kind: str, size: int, procs: int) -> bool:
    """Cells the paper itself omits: alltoall/allgather buffers grow with
    p^2 x message size ("do not support a message size of 1 MB over 1024
    and 2048 processes, due to the default maximum memory limit").

    The rule itself lives in the sweep mask registry so figures and
    sweeps can never disagree about which cells the paper skips.
    """
    return (
        mask_paper_memory_limit({"kind": kind, "nbytes": size, "nprocs": procs})
        is not None
    )


def _fmt_size(nbytes: int) -> str:
    if nbytes >= 1 << 20:
        return f"{nbytes >> 20}MB"
    if nbytes >= 1024:
        return f"{nbytes >> 10}KB"
    return f"{nbytes}B"


PLANNERS = {
    "table1": plan_table1,
    "fig5a": plan_fig5a,
    "fig5b": plan_fig5b,
    "fig6": plan_fig6,
    "fig7": plan_fig7,
    "fig8": plan_fig8,
    "fig9": plan_fig9,
}

