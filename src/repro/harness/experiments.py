"""Per-figure experiment drivers (paper Section 5).

Every table and figure in the paper's evaluation has a function here
that runs the corresponding (scaled-down) experiment and returns an
:class:`ExperimentResult` with the same rows/series the paper reports.
Scale knobs default to laptop-friendly sizes; pass larger ``procs``
lists to approach the paper's 128-2048 range.

Architecture: each figure is a *planner* (``plan_fig7`` etc., listed in
:data:`PLANNERS`) that declares its cell grid as one
:class:`~repro.harness.sweep.Sweep` (the figure's axes x protocol x
repetition; the paper's omitted cells are a mask) and returns the
grid's :class:`RunSpec` list with a figure-specific *fold* that turns
the engine's ``{spec: RunResult}`` map back into the rendered table.
Table 1 is the one hand-written grid: its OSU row alone carries
``kind``/``nbytes`` kwargs, which a Sweep could only give that row by
special-casing it.  A planner is the one place a figure's knobs are
declared: ``repro-mpi <figure>`` offers exactly the flags its signature
names.  :func:`run_plans` submits *several figures as one batch* (run
one figure with ``run_plans([PLANNERS[name](...)])[0]``), which is how
``repro-mpi all`` dedupes the native baselines shared by Table 1,
Figure 7, and Figure 8, and how Figure 9's probe/checkpoint/restart
chains each simulate once.

The expected *shapes* (who wins, where NA appears, where the dip is)
are stated in each planner's docstring and asserted by ``tests/paper/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core import PROTOCOLS
from ..netmodel import StorageModel
from ..util.records import Series, format_series_table, format_table
from ..util.stats import mean, overhead_pct
from .engine import ExperimentEngine
from .runner import RunResult
from .spec import RunSpec, SpecError
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
# Protocol grids: a figure's axes x protocol x repetition
# --------------------------------------------------------------------- #

# The protocol columns are ``PROTOCOLS`` in registry order: "native" is
# the baseline every overhead is measured against, and every other entry
# is a checkpointing protocol, labelled by its ``RankProtocol.label``.

def _label(proto: str) -> str:
    return PROTOCOLS[proto][0].label


def _pct_headers(protos: Sequence[str]) -> list[str]:
    return [f"{_label(q)} %" for q in protos]


def _checkpointing() -> tuple[str, ...]:
    """The checkpointing protocols: every entry but the native baseline."""
    return tuple(proto for proto in PROTOCOLS if proto != "native")


def _overheads(
    times: Mapping[str, float | None], base: float, protos: Sequence[str]
) -> list[str]:
    """One overhead-% cell per protocol vs ``base`` (NA where it refused)."""
    return [
        "NA" if times[p] is None else f"{overhead_pct(times[p], base):.1f}"
        for p in protos
    ]


def _two_nodes(point: Mapping[str, Any]) -> int:
    """Ranks per node that spread a cell over two nodes (one if it has
    a single rank)."""
    return max(point["nprocs"] // 2, 1)


def _figure_sweep(
    name: str,
    axes: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any],
    *,
    protocols: Iterable[str] = PROTOCOLS,
    repeats: int = 1,
    derive: Mapping[str, Callable[[dict], Any]] | None = None,
    mask: Callable | None = None,
    meta: Sequence[str] = (),
) -> Sweep:
    """A figure's grid: ``axes`` x protocol (by default every registered
    one, read at call time) x ``rep``, where repetition ``rep`` runs with
    seed ``seed + rep``."""
    sweep = Sweep(
        name,
        axes={**axes, "protocol": tuple(protocols), "rep": tuple(range(repeats))},
        base=base,
        derive={**(derive or {}), "seed": lambda p: p["seed"] + p["rep"]},
        mask=mask,
        meta=("rep", *meta),
    )
    # A point the spec layer rejects is a bad planner argument, not a
    # cell the paper omits: fail before anything is simulated.
    for cell in sweep.cells():
        if cell.spec is None and not (mask and mask(dict(cell.point))):
            raise SpecError(cell.na_reason)
    return sweep


def _protocol_groups(sweep: Sweep, results: Mapping[RunSpec, RunResult]):
    """Per group of a figure grid: its key (every axis but protocol and
    rep), each protocol's mean runtime over the repetitions (None where
    the engine recorded a refusal), and the refusal reasons.  Groups a
    mask left without jobs are skipped: the paper omits them."""
    for key, cells in sweep.groups("protocol", "rep").items():
        if cells[0].spec is None:
            continue
        runs: dict[str, list[RunResult]] = {}
        for cell in cells:
            runs.setdefault(cell.values["protocol"], []).append(results[cell.spec])
        times: dict[str, float | None] = {}
        reasons: dict[str, str] = {}
        for proto, group in runs.items():
            refused = [run.na_reason for run in group if run.na_reason]
            if refused:
                reasons[proto] = refused[0]
            times[proto] = None if refused else mean([run.runtime for run in group])
        yield key, times, reasons


def _note_na(
    result: ExperimentResult, label: str, reasons: Mapping[str, str]
) -> None:
    for proto in sorted(reasons):
        result.add_note(f"NA[{label}/{proto}]: {reasons[proto]}")


def _osu_figure(
    name: str, title: str, procs: Sequence[int], kinds: Sequence[str],
    sizes: Sequence[int], iters: int, seed: int, repeats: int, *,
    blocking: bool, notes: str = "",
) -> FigurePlan:
    """Figure 5's OSU grid — one cell per kind x size x procs under every
    protocol, minus the cells the paper's memory limit omits — folded to
    each checkpointing protocol's overhead % vs native."""
    sweep = _figure_sweep(
        name,
        {"kind": tuple(kinds), "nbytes": tuple(sizes), "nprocs": tuple(procs)},
        {"app": "osu", "niters": iters, "blocking": blocking, "seed": seed},
        repeats=repeats,
        derive={"ppn": _two_nodes},
        mask=mask_paper_memory_limit,
    )
    protos = _checkpointing()
    prefix = "" if blocking else "i"
    # The paper's central claim for Figure 5b: 2PC *must* reject
    # non-blocking collectives, as must every protocol without
    # ``supports_nonblocking``.  An assert would vanish under
    # `python -O`, so the fold checks explicitly.
    refusing = [] if blocking else [
        q for q in protos if not PROTOCOLS[q][0].supports_nonblocking
    ]

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name=name,
            title=title,
            headers=["benchmark", "msg", "procs", *_pct_headers(protos)],
            notes=notes,
        )
        for (kind, size, p), times, reasons in _protocol_groups(sweep, results):
            for q in refusing:
                if times[q] is not None:
                    raise RuntimeError(
                        f"{_label(q)} unexpectedly ran non-blocking {kind} at "
                        f"{_fmt_size(size)}/{p} procs — it must reject "
                        "non-blocking collectives (paper Sections 2.2, 5.2)"
                    )
            base = times["native"]
            result.rows.append(
                [f"{prefix}{kind}", _fmt_size(size), p,
                 *_overheads(times, base, protos)]
            )
            _note_na(result, f"{prefix}{kind}/{_fmt_size(size)}/{p}", reasons)
        return result

    return FigurePlan(name, sweep.specs(), fold)


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
    return _osu_figure(
        "fig5a",
        "Figure 5a: OSU blocking collectives, runtime overhead % vs native",
        procs, kinds, sizes, iters, seed, repeats,
        blocking=True,
        notes="(alltoall/allgather at 1MB limited to 16 procs — memory, as in the paper)",
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
    return _osu_figure(
        "fig5b",
        "Figure 5b: OSU non-blocking collectives, CC overhead % vs native "
        "(2PC does not support non-blocking collectives)",
        procs, kinds, sizes, iters, seed, 1,
        blocking=False,
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
    # Only the protocols that can wrap a non-blocking collective overlap.
    protos = [q for q, (cls, _) in PROTOCOLS.items() if cls.supports_nonblocking]
    sweep = _figure_sweep(
        "fig6",
        {"kind": tuple(kinds), "nbytes": tuple(sizes), "nprocs": tuple(procs)},
        {"app": "osu_overlap", "niters": iters, "seed": seed},
        protocols=protos,
        derive={"ppn": _two_nodes},
    )

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="fig6",
            title="Figure 6: overlap %% of non-blocking collectives (native vs CC)",
            headers=["benchmark", "msg", "procs", *_pct_headers(protos)],
        )
        for (kind, size, p), cells in sweep.groups("protocol", "rep").items():
            overlaps = [
                mean([x["overlap_pct"] for x in results[cell.spec].per_rank])
                for cell in cells
            ]
            result.rows.append(
                [f"i{kind}", _fmt_size(size), p, *(f"{v:.1f}" for v in overlaps)]
            )
        return result

    return FigurePlan("fig6", sweep.specs(), fold)


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
    niters = {"minivasp": 12, "sw4": 10, "comd": 30, "lammps": 40, "poisson": 20}
    sweep = _figure_sweep(
        "fig7",
        {"app": tuple(niters)},
        {"nprocs": nprocs, "ppn": ppn, "seed": seed},
        repeats=repeats,
        derive={"niters": lambda p: niters[p["app"]]},
    )
    protos = _checkpointing()

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        result = ExperimentResult(
            name="fig7",
            title=f"Figure 7: application runtimes ({nprocs} procs), seconds (virtual)",
            headers=[
                "application", "native", *map(_label, protos), *_pct_headers(protos)
            ],
            notes="(Poisson uses non-blocking collectives: supported by CC, not by 2PC.)",
        )
        for (app,), times, reasons in _protocol_groups(sweep, results):
            base = times["native"]
            row = [app, f"{base:.4f}"]
            row += ["NA" if times[q] is None else f"{times[q]:.4f}" for q in protos]
            row += _overheads(times, base, protos)
            result.rows.append(row)
            _note_na(result, app, reasons)
        return result

    return FigurePlan("fig7", sweep.specs(), fold)


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
    sweep = _figure_sweep(
        "fig8",
        {"nprocs": tuple(procs)},
        {"app": "minivasp", "niters": niters, "ppn": ppn, "seed": seed},
        repeats=repeats,
    )
    protos = _checkpointing()

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        series = {q: Series(f"{_label(q)} %") for q in protos}
        result = ExperimentResult(
            name="fig8",
            title=f"Figure 8: miniVASP runtime overhead vs process count (ppn={ppn})",
            series=list(series.values()),
            x_label="procs",
        )
        for (p,), times, reasons in _protocol_groups(sweep, results):
            base = times["native"]
            for q, s in series.items():
                s.add(p, overhead_pct(times[q], base))
            _note_na(result, f"{p}procs", reasons)
        return result

    return FigurePlan("fig8", sweep.specs(), fold)


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
    protos = _checkpointing()
    # Every cell restarts from a checkpoint its parent spec takes mid-run.
    sweep = _figure_sweep(
        "fig9",
        {"nodes": tuple(nodes)},
        {
            "app": "minivasp",
            "niters": niters,
            "memory_bytes": image_bytes_per_rank,
            "ppn": ppn,
            "seed": seed,
            "checkpoint_fractions": 0.5,
            "restart": True,
            "storage": StorageModel(
                per_node_bandwidth=2.0e9, aggregate_bandwidth=6.0e9, base_latency=1.0
            ),
        },
        protocols=protos,
        derive={"nprocs": lambda p: p["nodes"] * p["ppn"]},
        meta=("nodes",),
    )

    def fold(results: Mapping[RunSpec, RunResult]) -> ExperimentResult:
        series = {
            (proto, phase): Series(f"{_label(proto)} {phase} (s)")
            for phase in ("ckpt", "restart")
            for proto in protos
        }
        for cell in sweep.cells():
            n, proto = cell.values["nodes"], cell.values["protocol"]
            ckpt = results[cell.spec.restart_of]
            committed = [c for c in ckpt.checkpoints if c.committed]
            if not committed:
                raise RuntimeError(
                    f"no committed checkpoint at {n} nodes ({proto}); "
                    "cannot report Figure 9 for this cell"
                )
            series[(proto, "ckpt")].add(n, committed[0].checkpoint_time)
            series[(proto, "restart")].add(n, results[cell.spec].restart_ready_time)
        return ExperimentResult(
            name="fig9",
            title=f"Figure 9: miniVASP checkpoint/restart times ({ppn} ranks per node)",
            series=list(series.values()),
            x_label="nodes",
        )

    # The fold reads each parent's result too, so the plan lists it,
    # ahead of its restart.
    specs = [s for c in sweep.cells() for s in (c.spec.restart_of, c.spec)]
    return FigurePlan("fig9", specs, fold)


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

#: Fast burst-buffer-like storage for the checkpointing studies: image
#: writes and reads stay comparable to the (scaled-down) runs themselves,
#: so trends read as overhead percentages rather than multiples.
_BURST_BUFFER = StorageModel(
    per_node_bandwidth=8.0e9, aggregate_bandwidth=2.0e10, base_latency=1e-3
)


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
            "protocol": tuple(PROTOCOLS),
            "nprocs": tuple(int(p) for p in procs),
        },
        base={"seed": seed},
        derive={
            "niters": lambda p: _STUDY_NITERS.get(p["app"], 16),
            "ppn": _two_nodes,
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
    sweep = Sweep(
        "ckpt_freq",
        axes={"protocol": tuple(PROTOCOLS), "n_ckpts": tuple(n_ckpts)},
        base={
            "app": app,
            "nprocs": int(nprocs),
            "niters": int(niters),
            "memory_bytes": 4 << 20,
            "ppn": max(int(nprocs) // 2, 1),
            "seed": seed,
            "storage": _BURST_BUFFER,
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
    sweep = Sweep(
        "restart_chain",
        axes={
            "app": tuple(apps),
            "protocol": _checkpointing(),
            "restart": (False, True),
        },
        base={
            "nprocs": int(nprocs),
            "ppn": max(int(nprocs) // 2, 1),
            "seed": seed,
            "checkpoint_fractions": 0.5,
            "storage": _BURST_BUFFER,
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

