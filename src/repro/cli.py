"""Command-line entry point: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.cli table1
    repro-mpi fig5a --procs 8,16,32 --jobs 4
    repro-mpi all --jobs 8
    repro-mpi fig7 --nprocs 32 --repeats 3
    repro-mpi sweep --axis app=comd,minivasp --axis protocol=native,2pc,cc \
        --axis nprocs=4,8 --base niters=8 --pivot protocol --baseline native
    repro-mpi sweep --study scale_grid --jobs 4
    repro-mpi verify --seeds 20
    repro-mpi verify --oracle rank-completion --seeds 1 --base-seed 17
    repro-mpi fuzz --budget 5m --corpus fuzz-corpus
    repro-mpi fuzz --corpus fuzz-corpus --replay <key>
    repro-mpi cache stats
    repro-mpi cache prune --older-than 7d --max-entries 2000

``repro-mpi --help`` lists every command and ``repro-mpi <command>
--help`` what that command takes.  A figure's flags are its planner's
parameters (:data:`repro.harness.PLANNERS`), so a figure refuses a flag
its planner does not take.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from collections import Counter
from functools import partial

from .des.errors import DeadlockError, SchedulingError
from .harness import (
    MASKS,
    ORACLES,
    PLANNERS,
    STUDIES,
    CorpusDB,
    ExperimentEngine,
    ResultCache,
    Sweep,
    SweepError,
    plan_with_scenario,
    replay_entry,
    run_fuzz,
    run_oracles,
    run_plans,
)
from .util.codec import encode


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for comma-separated positive ints ("8,16,32")."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"counts must be positive integers, got {text!r}"
        )
    return values


def _positive_int(text: str) -> int:
    """argparse type for integer flags that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _scenario_arg(text: str) -> str | None:
    """argparse type for ``--scenario``: canonicalize or reject early.

    Returns the canonical scenario string (``None`` for the baseline
    spellings ``none``/empty), so specs built from it hash identically
    to the same scenario written any equivalent way.
    """
    from .scenarios import ScenarioError, canonical_scenario

    try:
        return canonical_scenario(text)
    except ScenarioError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: The figure flags, each declared once.  A flag's name is the planner
#: parameter it sets: a figure (and a ``sweep --study``) takes exactly
#: the flags its planner's signature names.
_FIGURE_FLAGS = {
    "procs": dict(type=_int_list, help="comma-separated process counts"),
    "nprocs": dict(type=_positive_int, help="process count"),
    "nodes": dict(type=_int_list, help="comma-separated node counts"),
    "repeats": dict(type=_positive_int,
                    help="repetitions per cell, seeds seed..seed+n-1"),
    "ppn": dict(type=_positive_int, help="ranks per node"),
    "seed": dict(type=int, default=0, help="first simulation seed (default 0)"),
}


def _add_figure_flags(parser: argparse.ArgumentParser, planners: dict) -> None:
    """Give ``parser`` each figure flag some planner in ``planners``
    takes; where not every one does, the help names those that do."""
    for flag, declaration in _FIGURE_FLAGS.items():
        takers = [name for name, planner in planners.items()
                  if flag in inspect.signature(planner).parameters]
        if takers:
            helptext = declaration["help"]
            if len(takers) < len(planners):
                helptext += f" ({'/'.join(takers)})"
            parser.add_argument(f"--{flag}", **{**declaration, "help": helptext})


def _planner_kwargs(planner, args: argparse.Namespace) -> dict:
    """The figure flags given on the command line that ``planner`` takes
    (an absent flag leaves the planner's default standing)."""
    params = inspect.signature(planner).parameters
    return {flag: getattr(args, flag) for flag in _FIGURE_FLAGS
            if flag in params and getattr(args, flag, None) is not None}


def _open_cache(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> "ResultCache | None":
    """The cache ``--cache-dir``/``--no-cache`` select, proven writable
    (a usage error otherwise) before anything depends on it."""
    if args.no_cache:
        return None
    cache = ResultCache(args.cache_dir)
    try:
        cache.version_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot use cache directory {cache.root}: {exc}")
    return cache


def _run_and_print(
    parser: argparse.ArgumentParser, args: argparse.Namespace,
    plans: list, names: list[str],
) -> int:
    """Run ``plans`` as ONE engine batch (cells they share simulate
    once), print each folded result and the engine-stats line, and
    append the ``--bench-json`` record.  A job that wedged or ran away
    ends the command with one line naming it (exit 1), not a traceback."""
    engine = ExperimentEngine(jobs=args.jobs, cache=_open_cache(parser, args),
                              progress=not args.quiet)
    t0 = time.time()
    try:
        results = run_plans(plans, engine)
    except (DeadlockError, SchedulingError) as exc:
        print(f"repro-mpi: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(result.render())
        print()
    stats = engine.last_stats
    if stats is not None:
        print(f"[{'+'.join(names)}: {stats.summary()}; "
              f"{time.time() - t0:.1f}s total]")
    if args.bench_json:
        _append_bench_record(args.bench_json, names, stats, time.time() - t0)
    return 0


def _figures_main(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``repro-mpi <figure>`` and ``repro-mpi all``."""
    plans = [PLANNERS[name](**_planner_kwargs(PLANNERS[name], args))
             for name in args.figures]
    if args.scenario:
        plans = [plan_with_scenario(plan, args.scenario) for plan in plans]
    return _run_and_print(parser, args, plans, args.figures)


def _with_unit(text: str, units: dict, example: str, noun: str) -> float:
    """A non-negative number with an optional one-letter unit suffix
    (case-insensitive key of ``units``, scaling the number), or an
    ``ArgumentTypeError`` that shows ``example`` or names ``noun``."""
    body, scale = text, 1
    if text and text[-1].lower() in units:
        scale = units[text[-1].lower()]
        body = text[:-1]
    try:
        # float() silently strips whitespace ("1 G" would read as 1G);
        # a spaced value is a shell-quoting accident — reject it loudly.
        if body != body.strip():
            raise ValueError(body)
        value = float(body)
        if not math.isfinite(value):
            raise ValueError(body)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {example}, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{noun} cannot be negative: {text!r}")
    return value * scale


def _byte_size(text: str) -> int:
    """argparse type for sizes like ``0``, ``64K``, ``512M``, ``2G`` (bytes)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    example = "a size like 1048576, 64K, 512M, or 2G"
    return int(_with_unit(text, units, example, "sizes"))


def _duration(text: str) -> float:
    """argparse type for ages like ``90``, ``30m``, ``12h``, ``7d`` (seconds)."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    example = "a duration like 90, 30m, 12h, or 7d"
    return _with_unit(text, units, example, "durations")


def _cache_main(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``repro-mpi cache {stats,clear,prune}`` — manage the result cache.
    A directory that does not exist is an empty cache; a path that is
    something other than a directory is a usage error, as it is for the
    figure commands."""
    cache = ResultCache(args.cache_dir)
    if cache.root.exists() and not cache.root.is_dir():
        parser.error(f"cannot use cache directory {cache.root}: not a directory")

    if args.action == "stats":
        entries = len(cache)
        print(f"cache dir:      {cache.root}")
        print(f"schema version: v{cache.version_dir.name.lstrip('v')}")
        print(f"entries:        {entries}")
        print(f"size:           {cache.total_bytes() / 1024:.1f} KiB")
        print(f"image sets:     {cache.image_count()}")
        print(f"image size:     {cache.image_bytes() / 1024:.1f} KiB")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    if (
        args.figure is None
        and args.older_than is None
        and args.max_entries is None
        and args.max_image_bytes is None
    ):
        parser.error("prune needs at least one of --figure, --older-than, "
                     "--max-entries, --max-image-bytes")
    if args.figure is not None:
        # Evict the figure's default plan, dependency chain included
        # (probe/parent entries are figure-specific cells too).
        plan = PLANNERS[args.figure]()
        specs: dict = {}
        for spec in plan.specs:
            for ancestor in spec.ancestors():
                specs.setdefault(ancestor, None)
            specs.setdefault(spec, None)
        removed = cache.prune(specs)
        print(f"pruned {removed}/{len(specs)} {args.figure} entr"
              f"{'y' if removed == 1 else 'ies'}")
    if args.older_than is not None:
        removed = cache.prune_older_than(args.older_than)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"older than {args.older_than:g}s")
    if args.max_entries is not None:
        removed = cache.prune_to_max_entries(args.max_entries)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"beyond the newest {args.max_entries}")
    if args.max_image_bytes is not None:
        removed = cache.prune_images_to_max_bytes(args.max_image_bytes)
        print(f"pruned {removed} image set{'' if removed == 1 else 's'} "
              f"beyond {args.max_image_bytes} bytes")
    return 0


def _coerce_token(token: str):
    """CLI axis/base value -> python value (int, float, bool, or str)."""
    text = token.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _axis_arg(text: str) -> tuple[str, tuple]:
    """argparse type for ``--axis key=v1,v2,...``."""
    key, sep, body = text.partition("=")
    if not sep or not key or not body:
        raise argparse.ArgumentTypeError(
            f"expected key=v1,v2,... got {text!r}"
        )
    return key, tuple(_coerce_token(v) for v in body.split(","))


def _base_arg(text: str) -> tuple[str, object]:
    """argparse type for ``--base key=value``."""
    key, sep, body = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key, _coerce_token(body)


def _sweep_main(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``repro-mpi sweep`` — run a declarative scenario sweep."""
    if args.study is not None:
        # A study is a complete declaration (axes, masks, fold shape);
        # reject flags that would be silently ignored — including a
        # scale knob the study's planner does not take.
        study_kwargs = _planner_kwargs(STUDIES[args.study], args)
        ignored = [
            flag
            for flag, value in (
                ("--axis", args.axis),
                ("--base", args.base),
                ("--mask", args.mask),
                ("--pivot", args.pivot),
                ("--baseline", args.baseline),
                ("--x-axis", args.x_axis),
                ("--metric", args.metric),
                ("--name", args.name != "sweep" and args.name),
                ("--procs", "procs" not in study_kwargs and args.procs),
                ("--nprocs", "nprocs" not in study_kwargs and args.nprocs),
            )
            if value
        ]
        if ignored:
            parser.error(
                f"--study {args.study} does not take {', '.join(ignored)}"
            )
    else:
        if not args.axis:
            parser.error("give either --study or at least one --axis")
        if args.procs is not None or args.nprocs is not None:
            parser.error(
                "--procs/--nprocs only apply to --study; sweep process "
                "counts with --axis nprocs=... or pin one with --base nprocs=N"
            )
        for flag, pairs in (("--axis", args.axis), ("--base", args.base)):
            keys = [k for k, _ in pairs]
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            if dupes:
                parser.error(
                    f"duplicate {flag} key(s): {', '.join(dupes)} — each key "
                    "may be declared once (values are comma-separated)"
                )

    fold_kwargs: dict = {}
    if args.pivot is not None:
        fold_kwargs["pivot"] = args.pivot
    if args.baseline is not None:
        fold_kwargs["baseline"] = _coerce_token(args.baseline)
    if args.x_axis is not None:
        fold_kwargs["x_axis"] = args.x_axis
    if args.metric is not None:
        fold_kwargs["metrics"] = (args.metric,)

    try:
        if args.study is not None:
            plan = STUDIES[args.study](**study_kwargs)
            label = args.study
        else:
            masks = [MASKS["2pc-nonblocking"]]
            masks += [MASKS[name] for name in args.mask
                      if name != "2pc-nonblocking"]
            base = dict(args.base)
            base.setdefault("seed", args.seed)
            sweep = Sweep(
                args.name,
                axes=dict(args.axis),
                base=base,
                mask=masks,
            )
            plan = sweep.plan(**fold_kwargs)
            label = sweep.name
    except (SweepError, ValueError) as exc:
        parser.error(str(exc))

    return _run_and_print(parser, args, [plan], [f"sweep:{label}"])


def _verify_main(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``repro-mpi verify`` — sweep fault-injection oracles over seeds.

    Exit status 0 when every (oracle, seed) check passes; 1 on any
    failure — a ``mismatch``, ``deadlock``, ``recovery`` or ``crash``
    report, each printed under its kind — in which case a derandomized
    failing-seed artifact (JSON with per-failure reproduction commands)
    is written to ``--artifact``.
    """
    names = args.oracle or sorted(ORACLES)
    seeds = range(args.base_seed, args.base_seed + args.seeds)

    def progress(report) -> None:
        if not args.quiet:
            print(
                f"[verify] {report.oracle} seed={report.seed}: ok"
                if report.ok else
                f"[verify] {report.kind}: {report.oracle} seed={report.seed}"
                f" — {report.detail}",
                file=sys.stderr,
                flush=True,
            )

    t0 = time.time()
    reports = run_oracles(names, seeds, progress=progress, jobs=args.jobs)
    elapsed = time.time() - t0

    failures = [r for r in reports if not r.ok]
    kinds = ", ".join(
        f"{n} {kind}" for kind, n in sorted(Counter(r.kind for r in failures).items())
    )
    for name in names:
        mine = [r for r in reports if r.oracle == name]
        good = sum(1 for r in mine if r.ok)
        print(f"oracle {name}: {good}/{len(mine)} seeds ok")
    if failures:
        print(f"\n{len(failures)} failure(s): {kinds}")
        for report in failures:
            print(f"  {report.kind}: {report.oracle} seed={report.seed}")
            print(f"    {report.detail}")
            print(f"    reproduce: {report.repro}")
        with open(args.artifact, "w") as fh:
            json.dump({"failures": encode(failures)}, fh, indent=2)
            fh.write("\n")
        print(f"failing-seed artifact written to {args.artifact}")
    print(f"[verify: {len(reports)} checks, {len(failures)} failures"
          + (f" ({kinds})" if failures else "") + f"; {elapsed:.1f}s total]")
    if args.bench_json:
        _append_bench_record(
            args.bench_json, [f"verify:{name}" for name in names], None,
            elapsed, checks=len(reports), mismatches=len(failures),
            seeds=[seeds.start, seeds.stop],
        )
    return 1 if failures else 0


def _fuzz_main(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``repro-mpi fuzz`` — continuous fault fuzzing with a persistent
    anomaly corpus.

    Exit status 0 when the run surfaced no anomaly; 1 otherwise (new
    *or* duplicate — a known-failing corpus entry still fails).  With
    ``--replay KEY``, exit 1 while the stored anomaly still reproduces
    and 0 once it no longer does.
    """
    corpus = CorpusDB(args.corpus)

    if args.list:
        # An entry naming an oracle no longer in the catalog can only
        # replay as a usage error: it is stale, not an open anomaly.
        entries = corpus.entries()
        stale = sum(1 for entry in entries if entry.oracle not in ORACLES)
        for entry in entries:
            status = "open" if entry.oracle in ORACLES else "stale"
            print(f"{entry.key}  {status:5s} {entry.kind:12s} {entry.oracle} "
                  f"seed={entry.seed}  {entry.detail}")
        print(f"{len(entries)} corpus entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {corpus.root} ({len(entries) - stale} open, {stale} stale)")
        return 0

    if args.replay is not None:
        try:
            entry = corpus.load(args.replay)
            report = replay_entry(corpus, args.replay)
        except KeyError as exc:
            # A missing key, or an entry naming an oracle that is no
            # longer in the catalog: neither is "still fails" (exit 1).
            parser.error(exc.args[0])
        if report.ok:
            print(f"entry {args.replay} ({entry.kind}, {entry.oracle}) no "
                  f"longer reproduces: {report.detail}")
            return 0
        print(f"entry {args.replay} still fails ({report.kind}): "
              f"{report.detail}")
        print(f"  reproduce: {report.repro}")
        return 1

    if args.iters is None and args.budget is None:
        parser.error("give --iters and/or --budget (or --replay/--list)")

    def progress(message: str) -> None:
        if not args.quiet:
            print(f"[fuzz] {message}", file=sys.stderr, flush=True)

    try:
        stats = run_fuzz(
            corpus,
            iters=args.iters,
            budget=args.budget,
            base_seed=args.base_seed,
            oracles=args.oracle or None,
            shrink=not args.no_shrink,
            progress=progress,
            jobs=args.jobs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    for entry in stats.anomalies:
        print(f"{entry.kind}: {entry.oracle} seed={entry.seed} -> "
              f"corpus entry {entry.key}")
        print(f"  {entry.detail}")
        print(f"  reproduce: {entry.repro}")
        print(f"  replay:    repro-mpi fuzz --corpus {corpus.root} "
              f"--replay {entry.key}")
    print(f"[fuzz: {stats.iterations} iteration(s), {stats.checks} checks, "
          f"{len(stats.anomalies)} anomal"
          f"{'y' if len(stats.anomalies) == 1 else 'ies'} "
          f"({stats.new_entries} new, {stats.duplicates} duplicate); "
          f"corpus {corpus.root} holds {len(corpus)}; "
          f"{stats.elapsed:.1f}s total]")
    return 1 if stats.anomalies else 0


def _parser() -> argparse.ArgumentParser:
    """The whole ``repro-mpi`` command tree, one subcommand per handler.

    Built per call, not at import: registries such as ``ORACLES`` (the
    ``--oracle`` choices) are read as they are now.
    """
    parser = argparse.ArgumentParser(
        prog="repro-mpi",
        description=(
            "Reproduce the evaluation of 'Enabling Practical Transparent "
            "Checkpointing for MPI: A Topological Sort Approach' (CLUSTER 2024)"
        ),
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)

    def command(name, handler, helptext, *parents, description=None):
        sub = commands.add_parser(name, help=helptext, parents=parents,
                                  description=description or helptext)
        sub.set_defaults(run=partial(handler, sub))
        return sub

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--jobs", "-j", type=_positive_int, default=1,
                        help="parallel worker processes (default 1)")
    engine.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", type=str, default=None,
                       help="result cache directory (default "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-mpi)")
    cache.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
    bench = argparse.ArgumentParser(add_help=False)
    bench.add_argument("--bench-json", type=str, default=None,
                       help="append a JSON record of this run's engine "
                            "stats and wall time to PATH")

    figures = {name: ([name], inspect.getdoc(planner).splitlines()[0])
               for name, planner in PLANNERS.items()}
    figures["all"] = (sorted(PLANNERS),
                      "Every table and figure as ONE engine batch, so the "
                      "cells they share simulate once.")
    for name, (names, summary) in figures.items():
        sub = command(name, _figures_main, summary, engine, cache, bench)
        sub.set_defaults(figures=names)
        _add_figure_flags(sub, {n: PLANNERS[n] for n in names})
        sub.add_argument("--scenario", type=_scenario_arg, default=None,
                         metavar="NAME[:K=V,...]",
                         help="run every figure cell under a registered "
                              "scenario (fat-tree, dragonfly, straggler, "
                              "jitter, degraded-link; e.g. "
                              "straggler:rank=1,factor=8.0)")

    sub = command("cache", _cache_main,
                  "inspect and manage the on-disk simulation result cache")
    actions = sub.add_subparsers(dest="action", required=True)
    for name, desc in (
        ("stats", "entry count, on-disk bytes, image tier"),
        ("clear", "delete every cached result and image set"),
        ("prune", "evict entries by figure, age, count, and/or "
                  "image-tier size"),
    ):
        p = actions.add_parser(name, help=desc)
        p.add_argument("--cache-dir", type=str, default=None,
                       help="cache directory (default $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-mpi)")
        if name == "prune":
            p.add_argument("--figure", choices=sorted(PLANNERS), default=None,
                           help="figure whose default-parameter cells to evict")
            p.add_argument("--older-than", type=_duration, default=None,
                           metavar="AGE",
                           help="evict entries last stored more than AGE ago "
                                "(e.g. 90, 30m, 12h, 7d)")
            p.add_argument("--max-entries", type=_positive_int, default=None,
                           metavar="N",
                           help="evict oldest entries until at most N remain")
            p.add_argument("--max-image-bytes", type=_byte_size, default=None,
                           metavar="SIZE",
                           help="evict oldest image sets until the "
                                "tier is at most SIZE (e.g. 512M, 2G; "
                                "results are untouched)")

    sub = command("sweep", _sweep_main,
                  "run a cartesian scenario sweep (protocol x app x scale "
                  "grids as one deduplicated engine batch)",
                  engine, cache, bench)
    sub.add_argument("--study", choices=sorted(STUDIES), default=None,
                     help="run a predefined sweep study instead of --axis")
    sub.add_argument("--axis", type=_axis_arg, action="append", default=[],
                     metavar="KEY=V1,V2,...",
                     help="sweep axis (repeatable; declaration order is "
                          "expansion order)")
    sub.add_argument("--base", type=_base_arg, action="append", default=[],
                     metavar="KEY=VALUE",
                     help="constant merged into every point (repeatable)")
    sub.add_argument("--mask", choices=sorted(MASKS), action="append",
                     default=[],
                     help="named NA mask to apply (repeatable; "
                          "2pc-nonblocking is always on)")
    sub.add_argument("--pivot", type=str, default=None,
                     help="pivot axis for the folded table (e.g. protocol)")
    sub.add_argument("--baseline", type=str, default=None,
                     help="pivot value to report overhead %% against")
    sub.add_argument("--x-axis", type=str, default=None,
                     help="numeric axis for series output (with --pivot)")
    sub.add_argument("--metric", type=str, default=None,
                     help="metric column (runtime, ckpt_time, ...)")
    sub.add_argument("--name", type=str, default="sweep",
                     help="sweep name used in titles and bench records")
    _add_figure_flags(sub, STUDIES)

    sub = command("verify", _verify_main,
                  "check the paper's claims under randomized fault schedules",
                  engine, bench,
                  description="Differential-oracle verification under "
                              "randomized fault schedules (checkpoint-request "
                              "timing, rank completion races, restart depth). "
                              "With --jobs N the (oracle, seed) checks run in "
                              "worker processes; the report sequence is "
                              "byte-identical to a serial sweep.")
    sub.add_argument("--seeds", type=_positive_int, default=5,
                     help="fault-schedule seeds per oracle (default 5)")
    sub.add_argument("--base-seed", type=int, default=0,
                     help="first seed (failing-seed artifacts replay with "
                          "--seeds 1 --base-seed N)")
    sub.add_argument("--oracle", choices=sorted(ORACLES), action="append",
                     default=[],
                     help="oracle to run (repeatable; default: all)")
    sub.add_argument("--artifact", type=str, default="verify-failures.json",
                     metavar="PATH",
                     help="failing-seed artifact path (written only on "
                          "mismatch; default verify-failures.json)")

    sub = command("fuzz", _fuzz_main,
                  "fuzz fault schedules into a persistent anomaly corpus",
                  engine,
                  description="Fuzz fault schedules through every registered "
                              "oracle, shrinking and persisting each anomaly "
                              "as a derandomized reproduction in an on-disk "
                              "corpus. With --jobs N iterations' oracle "
                              "checks run in worker processes; shrinking and "
                              "corpus writes stay in this process.")
    sub.add_argument("--corpus", type=str, default="fuzz-corpus",
                     metavar="DIR",
                     help="anomaly corpus directory (default ./fuzz-corpus)")
    sub.add_argument("--iters", type=_positive_int, default=None,
                     help="fuzz iterations (one drawn schedule through "
                          "every oracle each)")
    sub.add_argument("--budget", type=_duration, default=None,
                     metavar="DUR",
                     help="wall-time budget, e.g. 60s, 5m (combinable "
                          "with --iters: whichever runs out first)")
    sub.add_argument("--base-seed", type=int, default=0,
                     help="first schedule seed (seeds increment per "
                          "iteration)")
    sub.add_argument("--oracle", choices=sorted(ORACLES), action="append",
                     default=[],
                     help="oracle to fuzz (repeatable; default: all)")
    sub.add_argument("--no-shrink", action="store_true",
                     help="persist failing schedules unminimized")
    sub.add_argument("--replay", type=str, default=None, metavar="KEY",
                     help="re-run one stored corpus entry instead of "
                          "fuzzing")
    sub.add_argument("--list", action="store_true",
                     help="list corpus entries (stale ones tagged) and exit")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.run(args)


def _append_bench_record(
    path: str, names: list[str], stats, total: float, **extra
) -> None:
    """Accumulate one run's engine metrics (plus any command-specific
    ``extra`` fields) in a JSON list at ``path``."""
    record = {
        "figures": names,
        "total_seconds": round(total, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if stats is not None:
        record["engine"] = {
            "submitted": stats.submitted,
            "deduped": stats.deduped,
            "chained": stats.chained,
            "cache_hits": stats.cache_hits,
            "executed": stats.executed,
            "images_reused": stats.images_reused,
            "wall_time": round(stats.wall_time, 3),
        }
    record.update(extra)
    try:
        with open(path) as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            records = [records]
    except (OSError, ValueError):
        records = []
    records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
