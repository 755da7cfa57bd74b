"""Declarative cartesian sweeps over :class:`RunSpec` — scenario studies
as one-liners.

The paper's central claim is that the CC protocol stays cheap across
protocols × applications × scales (Figures 5-9).  Exploring a new cell
of that matrix used to mean hand-writing a plan/fold pair; a
:class:`Sweep` instead *declares* the grid:

    Sweep(
        "scale_grid",
        axes={"app": ("minivasp", "comd"), "protocol": tuple(PROTOCOLS),
              "nprocs": (4, 8, 16)},
        base={"seed": 0},
        derive={"ppn": lambda p: max(p["nprocs"] // 2, 1)},
        mask=MASKS["2pc-nonblocking"],
    )

and expands it into a deduplicated spec batch:

* **Axes** are swept in declaration order (cartesian product, values in
  the given order) — the expansion is deterministic and hash-stable
  (:meth:`Sweep.signature`), never touching set/dict iteration order.
* **Base** entries are constants merged into every point; an axis of the
  same name overrides the base value.
* **Derive** entries are per-point computed columns (e.g. ``ppn`` from
  ``nprocs``, or a protocol-dependent checkpoint schedule); they join
  the point, the table, and the spec like axis values.
* **Masks** annotate combinations that must not run — the paper's NA
  cells, e.g. 2PC × non-blocking collectives — with an ``na_reason``
  *before* simulation, instead of crashing mid-sweep.  A point a mask
  passes but :class:`RunSpec` rejects (e.g. ``native`` ×
  ``checkpoint_fractions``) also folds to an NA cell carrying the
  :class:`SpecError` message.
* Point keys that are not spec fields flow into ``app_kwargs``
  (``niters``, ``kind``, ``nbytes``, …), and a truthy ``restart`` key
  builds checkpoint → restart chains (see :meth:`RunSpec.from_point`).
  Restart cells are cheap to re-sweep: once a parent's committed images
  sit in the result cache's image tier, the engine schedules restarts
  without re-simulating (or even re-planning) the parent runs.
  **Meta** keys are grid-only: they feed derivation, masks, and the
  table (an ``n_ckpts`` axis a schedule is derived from) but are
  stripped before the spec is built.

:meth:`Sweep.specs` is the deduplicated executable batch (submit it via
``ExperimentEngine.run_sweep``), and :meth:`Sweep.fold` pivots the
engine's result map back into the existing
:class:`~repro.harness.experiments.ExperimentResult` table/series
shapes, including per-protocol overhead-vs-baseline pivots.  The
paper's figures are sweeps with folds of their own; those folds and the
pivot share one grouping, :meth:`Sweep.groups`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from ..apps import app_uses_nonblocking
from ..core import PROTOCOLS
from ..util.hashing import stable_json_hash
from ..util.records import Series
from ..util.stats import overhead_pct
from .runner import RunResult
from .spec import RunSpec, SpecError, spec_hash

if TYPE_CHECKING:  # pragma: no cover
    from .experiments import ExperimentResult, FigurePlan

__all__ = [
    "Sweep",
    "SweepCell",
    "SweepError",
    "MASKS",
    "mask_2pc_nonblocking",
    "mask_paper_memory_limit",
]


class SweepError(ValueError):
    """Malformed sweep declaration (bad axes, masks, or metrics)."""


#: Value types rendered as point columns; anything else (storage/param
#: model objects) still reaches the spec but stays out of the table.
_DISPLAY_TYPES = (bool, int, float, str, type(None), tuple)


# --------------------------------------------------------------------- #
# Built-in NA masks
# --------------------------------------------------------------------- #

def mask_2pc_nonblocking(point: Mapping[str, Any]) -> str | None:
    """The paper's flagship NA cell: MANA's 2PC cannot wrap non-blocking
    collectives (Sections 2.2 and 5.2) — nor can any protocol without
    ``supports_nonblocking``."""
    entry = PROTOCOLS.get(point.get("protocol"))
    app = point.get("app")
    if entry is None or entry[0].supports_nonblocking or app is None:
        return None
    try:
        nonblocking = app_uses_nonblocking(app, point)
    except ValueError:
        return None  # unknown app: reported by spec construction instead
    if not nonblocking:
        return None
    return (
        f"{entry[0].label} does not support non-blocking collectives "
        "(paper §2.2, §5.2)"
    )


def mask_paper_memory_limit(point: Mapping[str, Any]) -> str | None:
    """Cells the paper itself omits: alltoall/allgather buffers grow with
    p² × message size past the default memory limit (Section 5.1)."""
    if (
        point.get("kind") in ("alltoall", "allgather")
        and point.get("nbytes", 0) >= (1 << 20)
        and point.get("nprocs", 0) > 16
    ):
        return "alltoall/allgather at >=1MB beyond 16 procs exceeds the memory limit"
    return None


#: Named masks for the CLI (``repro-mpi sweep --mask <name>``).
MASKS: dict[str, Callable[[Mapping[str, Any]], "str | None"]] = {
    "2pc-nonblocking": mask_2pc_nonblocking,
    "paper-memory-limit": mask_paper_memory_limit,
}


# --------------------------------------------------------------------- #
# Metrics the fold knows by name
# --------------------------------------------------------------------- #

def _first_committed(result: RunResult):
    committed = [c for c in result.checkpoints if c.committed]
    return committed[0] if committed else None


def _metric_ckpt_time(result: RunResult):
    rec = _first_committed(result)
    return None if rec is None else rec.checkpoint_time


def _metric_ckpt_count(result: RunResult):
    return sum(1 for c in result.checkpoints if c.committed)


#: name -> (column header, extractor).  Extractors may return None
#: (rendered as "-") when the measurement does not apply to the cell.
METRICS: dict[str, tuple[str, Callable[[RunResult], Any]]] = {
    "runtime": ("runtime (s)", lambda r: r.runtime),
    "coll_calls": ("coll calls", lambda r: r.coll_calls),
    "p2p_calls": ("p2p calls", lambda r: r.p2p_calls),
    "sim_events": ("events", lambda r: r.sim_events),
    "ckpt_time": ("ckpt (s)", _metric_ckpt_time),
    "ckpt_count": ("ckpts", _metric_ckpt_count),
    "restart_ready": ("restart ready (s)", lambda r: r.restart_ready_time),
    "restart_read": ("restart read (s)", lambda r: r.restart_read_time),
}


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid point: its coordinates and its job (or NA)."""

    #: Ordered ``(name, value)`` pairs: axes first (declaration order),
    #: then derived columns.
    point: tuple[tuple[str, Any], ...]
    spec: "RunSpec | None"
    na_reason: str = ""

    @cached_property
    def values(self) -> dict[str, Any]:
        """The point as a dict, built once per cell: read it, never
        mutate it (folds read it for every cell on every pass)."""
        return dict(self.point)

    def label(self) -> str:
        return "/".join(str(v) for _, v in self.point)


class Sweep:
    """A declarative cartesian scenario grid over :class:`RunSpec`."""

    def __init__(
        self,
        name: str,
        axes: Mapping[str, Sequence[Any]],
        *,
        base: Mapping[str, Any] | None = None,
        derive: "Mapping[str, Callable[[dict], Any]] | None" = None,
        mask: "Callable | Sequence[Callable] | None" = None,
        meta: Sequence[str] = (),
    ):
        if not axes:
            raise SweepError("a sweep needs at least one axis")
        self.name = str(name)
        self.axes: dict[str, tuple[Any, ...]] = {}
        for axis, values in axes.items():
            if not isinstance(axis, str):
                raise SweepError(f"axis names must be str, got {axis!r}")
            if isinstance(values, (set, frozenset)):
                raise SweepError(
                    f"axis {axis!r} values must be an ordered sequence, not a "
                    "set (set iteration order would make the expansion "
                    "hash-unstable)"
                )
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise SweepError(
                    f"axis {axis!r} values must be a list/tuple of values, "
                    f"got {values!r}"
                )
            if not values:
                raise SweepError(f"axis {axis!r} has no values")
            self.axes[axis] = tuple(values)
        self.base = dict(base or {})
        self.derive = dict(derive or {})
        for derived in self.derive:
            if derived in self.axes:
                raise SweepError(
                    f"derived column {derived!r} collides with an axis"
                )
        if mask is None:
            self.masks: tuple[Callable, ...] = ()
        elif callable(mask):
            self.masks = (mask,)
        else:
            self.masks = tuple(mask)
        for m in self.masks:
            if not callable(m):
                raise SweepError(f"mask {m!r} is not callable")
        #: Grid-only keys: they parameterize derivation, masking, and
        #: the table (e.g. an ``n_ckpts`` axis a schedule derives from)
        #: but are stripped from the point before spec construction.
        self.meta = tuple(meta)
        for name in self.meta:
            if name not in self.axes and name not in self.base and name not in self.derive:
                raise SweepError(
                    f"meta key {name!r} names no axis, base, or derived column"
                )
        self._cells: tuple[SweepCell, ...] | None = None
        self._groups: dict[tuple[str, ...], dict[tuple, list[SweepCell]]] = {}

    # ----------------------------------------------------------------- #
    # Expansion
    # ----------------------------------------------------------------- #

    def cells(self) -> tuple[SweepCell, ...]:
        """Every grid point, in deterministic declaration order."""
        if self._cells is None:
            self._cells = tuple(self._expand())
        return self._cells

    def _expand(self):
        axis_names = list(self.axes)
        for combo in itertools.product(*(self.axes[a] for a in axis_names)):
            point = dict(self.base)
            point.update(zip(axis_names, combo))
            # Point columns: base constants (scalar-ish only — a storage
            # model is a spec ingredient, not a table column), then axes
            # (an axis overriding a base constant shows once, with the
            # axis value), then derived columns.
            seen: dict[str, Any] = {}
            for name, value in self.base.items():
                if (
                    name not in self.axes
                    and name not in self.derive
                    and isinstance(value, _DISPLAY_TYPES)
                ):
                    seen[name] = value
            for name in axis_names:
                seen[name] = point[name]
            for derived, fn in self.derive.items():
                value = fn(dict(point))
                point[derived] = value
                if isinstance(value, _DISPLAY_TYPES):
                    seen[derived] = value
            coords = tuple(seen.items())
            reason = ""
            for m in self.masks:
                verdict = m(dict(point))
                if verdict:
                    reason = str(verdict)
                    break
            if reason:
                yield SweepCell(coords, None, reason)
                continue
            for name in self.meta:
                point.pop(name, None)
            try:
                # RunSpec.create canonicalizes app aliases and rejects
                # unknown names: a typo'd app, protocol or scenario fails
                # the whole sweep (ValueError with the known names) up
                # front, while a structurally impossible point folds to
                # an NA cell.
                spec = RunSpec.from_point(point)
            except SpecError as exc:
                yield SweepCell(coords, None, str(exc))
                continue
            yield SweepCell(coords, spec)

    def specs(self) -> list[RunSpec]:
        """The deduplicated executable batch (first-occurrence order)."""
        unique: dict[RunSpec, None] = {}
        for cell in self.cells():
            if cell.spec is not None:
                unique.setdefault(cell.spec, None)
        return list(unique)

    def signature(self) -> str:
        """Stable content hash of the whole expansion.

        Identical declarations produce identical signatures across
        processes and platforms; any change to an axis value, mask
        verdict, derived column, or spec identity changes it.
        """
        payload = {
            "name": self.name,
            "cells": [
                [
                    [[k, repr(v)] for k, v in cell.point],
                    None if cell.spec is None else spec_hash(cell.spec),
                    cell.na_reason,
                ]
                for cell in self.cells()
            ],
        }
        return stable_json_hash(payload)

    # ----------------------------------------------------------------- #
    # Folding results back into tables/series
    # ----------------------------------------------------------------- #

    def groups(self, *pivots: str) -> dict[tuple, list[SweepCell]]:
        """The cells grouped by every axis except ``pivots``: each key
        holds the other axes' values in declaration order, and groups
        and their cells keep expansion order.  Built once per pivot set
        (a figure folds on every pass): read it, never mutate it."""
        if pivots not in self._groups:
            group_axes = [a for a in self.axes if a not in pivots]
            out: dict[tuple, list[SweepCell]] = {}
            for cell in self.cells():
                values = cell.values
                out.setdefault(tuple(values[a] for a in group_axes), []).append(cell)
            self._groups[pivots] = out
        return self._groups[pivots]

    def column_names(self) -> list[str]:
        """The point columns, in display order."""
        out: dict[str, None] = {}
        for cell in self.cells():
            for key, _ in cell.point:
                out.setdefault(key)
        return list(out)

    def plan(self, **fold_kwargs) -> "FigurePlan":
        """This sweep as a figure plan: specs + a bound fold.

        The fold arguments are validated *now*, not when the fold runs:
        a typo'd pivot/metric must fail before hours of simulation, not
        after.
        """
        from .experiments import FigurePlan

        self._check_fold_args(**fold_kwargs)
        return FigurePlan(
            self.name,
            self.specs(),
            lambda results: self.fold(results, **fold_kwargs),
        )

    def _check_fold_args(
        self,
        *,
        metrics=None,
        pivot: str | None = None,
        baseline: Any = None,
        x_axis: str | None = None,
        title: str | None = None,
    ) -> None:
        """Raise :class:`SweepError` for fold arguments that cannot work."""
        self._resolve_metrics(metrics)
        if pivot is None:
            if baseline is not None or x_axis is not None:
                raise SweepError("baseline/x_axis need a pivot axis")
            return
        if pivot not in self.axes:
            raise SweepError(f"pivot {pivot!r} is not a sweep axis")
        if baseline is not None and baseline not in self.axes[pivot]:
            raise SweepError(
                f"baseline {baseline!r} is not a value of axis {pivot!r}"
            )
        if x_axis is not None and (x_axis == pivot or x_axis not in self.axes):
            raise SweepError(f"x_axis {x_axis!r} must be a non-pivot sweep axis")

    def fold(
        self,
        results: Mapping[RunSpec, RunResult],
        *,
        metrics: "Sequence[str | tuple[str, Callable]] | None" = None,
        pivot: str | None = None,
        baseline: Any = None,
        x_axis: str | None = None,
        title: str | None = None,
    ) -> "ExperimentResult":
        """Pivot the engine's result map into an :class:`ExperimentResult`.

        Flat mode (default): one row per cell — point columns then one
        column per metric; NA cells render "NA" and carry their reason
        as a note.

        Pivot mode (``pivot="protocol"``): rows are grouped by every
        axis *except* the pivot; each pivot value contributes a metric
        column, and with ``baseline`` set, every non-baseline value also
        gets an overhead-% column.  With ``x_axis`` naming a numeric
        group axis, the same data is emitted as series (the existing
        figure record shape).
        """
        from .experiments import ExperimentResult

        self._check_fold_args(
            metrics=metrics, pivot=pivot, baseline=baseline, x_axis=x_axis
        )
        chosen = self._resolve_metrics(metrics)
        result = ExperimentResult(
            name=self.name,
            title=title or f"Sweep: {self.name} ({len(self.cells())} cells)",
        )
        if pivot is None:
            self._fold_flat(result, results, chosen)
        else:
            self._fold_pivot(
                result, results, chosen, pivot, baseline, x_axis
            )
        return result

    def _resolve_metrics(self, metrics) -> list[tuple[str, Callable]]:
        if metrics is None:
            metrics = ("runtime",)
        out: list[tuple[str, Callable]] = []
        for metric in metrics:
            if isinstance(metric, str):
                try:
                    out.append(METRICS[metric])
                except KeyError:
                    raise SweepError(
                        f"unknown metric {metric!r}; expected one of "
                        f"{sorted(METRICS)} or a (header, callable) pair"
                    ) from None
            else:
                header, fn = metric
                if not callable(fn):
                    raise SweepError(f"metric {header!r} extractor is not callable")
                out.append((str(header), fn))
        return out

    def _cell_result(
        self, cell: SweepCell, results: Mapping[RunSpec, RunResult]
    ) -> "tuple[RunResult | None, str]":
        """(result, na_reason) for one cell; engine-time NA included."""
        if cell.spec is None:
            return None, cell.na_reason
        try:
            run = results[cell.spec]
        except KeyError:
            raise SweepError(
                f"engine results are missing sweep cell {cell.label()!r}; "
                "fold the same sweep you executed"
            ) from None
        if run.na_reason:
            return None, run.na_reason
        return run, ""

    def _fold_flat(self, result, results, chosen) -> None:
        columns = self.column_names()
        result.headers = columns + [header for header, _ in chosen]
        for cell in self.cells():
            values = cell.values
            row = [values.get(c, "-") for c in columns]
            run, na_reason = self._cell_result(cell, results)
            if run is None:
                row += ["NA"] * len(chosen)
                result.add_note(f"NA[{cell.label()}]: {na_reason}")
            else:
                row += [_render(fn(run)) for _, fn in chosen]
            result.rows.append(row)

    def _fold_pivot(
        self, result, results, chosen, pivot, baseline, x_axis
    ) -> None:
        header, fn = chosen[0]
        group_axes = [a for a in self.axes if a != pivot]
        pivot_values = self.axes[pivot]
        groups = {
            key: {c.values[pivot]: self._cell_result(c, results) for c in cells}
            for key, cells in self.groups(pivot).items()
        }

        result.headers = list(group_axes)
        for pv in pivot_values:
            result.headers.append(f"{pv} {header}")
        overhead_values = [
            pv for pv in pivot_values if baseline is not None and pv != baseline
        ]
        for pv in overhead_values:
            result.headers.append(f"{pv} %")

        series: dict[Any, Series] = {}
        if x_axis is not None:
            x_index = group_axes.index(x_axis)
            label_axes = [
                (i, a) for i, a in enumerate(group_axes) if a != x_axis
            ]
            result.x_label = x_axis

        def record_series(key, suffix, x, y) -> None:
            prefix = "/".join(str(key[i]) for i, _ in label_axes)
            label = f"{prefix + '/' if prefix else ''}{suffix}"
            series.setdefault(label, Series(label)).add(x, y)

        for key, by_pivot in groups.items():
            row: list[Any] = list(key)
            measured: dict[Any, float | None] = {}
            for pv in pivot_values:
                run, na_reason = by_pivot.get(pv, (None, "cell not swept"))
                if run is None:
                    measured[pv] = None
                    row.append("NA")
                    result.add_note(
                        f"NA[{'/'.join(str(k) for k in key)}/{pv}]: {na_reason}"
                    )
                else:
                    value = fn(run)
                    measured[pv] = None if value is None else float(value)
                    row.append(_render(value))
                if (
                    x_axis is not None
                    and baseline is None
                    and measured.get(pv) is not None
                ):
                    # No baseline: series carry the raw metric.
                    record_series(key, f"{pv} {header}", key[x_index], measured[pv])
            base_value = measured.get(baseline) if baseline is not None else None
            for pv in overhead_values:
                value = measured.get(pv)
                if value is None or not base_value:
                    row.append("NA")
                    continue
                pct = overhead_pct(value, base_value)
                row.append(f"{pct:.1f}")
                if x_axis is not None:
                    record_series(key, f"{pv} %", key[x_index], pct)
            result.rows.append(row)
        result.series = list(series.values())


def _render(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
