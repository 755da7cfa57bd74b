"""Command-line entry point: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.cli table1
    python -m repro.cli fig5a --procs 8,16,32 --jobs 4
    python -m repro.cli all --jobs 8
    repro-mpi fig7 --nprocs 32 --repeats 3
    repro-mpi sweep --axis app=comd,minivasp --axis protocol=native,2pc,cc \
        --axis nprocs=4,8 --base niters=8 --pivot protocol --baseline native
    repro-mpi sweep --study scale_grid --jobs 4
    repro-mpi verify --seeds 20
    repro-mpi verify --oracle rank-completion --seeds 1 --base-seed 17
    repro-mpi verify --seeds 20 --jobs 4
    repro-mpi fuzz --iters 25 --corpus fuzz-corpus
    repro-mpi fuzz --budget 5m --corpus fuzz-corpus
    repro-mpi fuzz --corpus fuzz-corpus --replay <key>
    repro-mpi serve --port 7463 &
    repro-mpi worker --connect 127.0.0.1:7463 &
    repro-mpi all --service 127.0.0.1:7463
    repro-mpi cache stats
    repro-mpi cache prune --figure fig9
    repro-mpi cache prune --older-than 7d --max-entries 2000

``all`` submits every figure's job list as ONE engine batch, so cells
shared between figures (e.g. the native miniVASP baselines of Table 1,
Figure 7, and Figure 8) simulate once.  Results are cached on disk
(``--cache-dir``, default ``~/.cache/repro-mpi``); a warm rerun
executes zero simulations.  Disable with ``--no-cache``.

``cache`` manages that store: ``stats`` (entry/byte/timing counts plus
the image tier's set count and footprint), ``clear`` (drop every entry
and image set), and ``prune`` with ``--figure <name>`` (drop the named
figure's default-parameter cells), ``--older-than AGE`` (drop entries
last stored more than e.g. ``12h`` or ``7d`` ago), ``--max-entries N``
(drop oldest entries beyond N), and/or ``--max-image-bytes SIZE``
(evict oldest image sets until the tier fits in e.g. ``512M`` or
``2G``).  Prune is hash-exact: no attempt is made to keep a shared
baseline out of the blast radius just because another figure still
references it — a pruned shared cell is simply re-simulated and
re-cached by the next run that needs it.  Pruned cells' recorded wall
times and image sets are evicted with them.

``sweep`` runs declarative cartesian scenario grids (the Sweep DSL,
``repro.harness.sweep``): ``--axis key=v1,v2`` flags span the grid,
``--base key=value`` pins constants, named ``--mask`` rules annotate
NA cells (2PC × non-blocking collectives is always on), and
``--pivot``/``--baseline``/``--x-axis`` shape the folded table.  The
whole grid runs as ONE deduplicated engine batch, cache-aware like any
figure; ``--study`` runs a predefined grid (scale_grid, ckpt_freq,
restart_chain).  Restart-chain sweeps ride the cache's image tier: on
a warm cache the engine feeds each restart its parent's committed
images instead of re-simulating the parent (the stats line reports
``N restarts fed from image tier``).

``verify`` sweeps the fault-injection oracle suite
(``repro.harness.verify``): seeded :class:`FaultSchedule` draws perturb
checkpoint-request timing (mid-run and completion-racing instants),
rank-completion staggering, and restart depth, and each ``--oracle``
compares two independent derivations of the same truth (online vs
offline safe cut, interrupted vs uninterrupted fingerprint, serial vs
parallel engine, cold vs warm image tier).  Cache-aware where the
oracle permits; any mismatch exits 1 and writes a derandomized
failing-seed artifact whose ``repro`` field replays exactly that check.
``--jobs N`` fans the (oracle, seed) grid over worker processes with a
report sequence byte-identical to the serial sweep's.

``fuzz`` is the open-ended version of ``verify``
(``repro.harness.fuzz``): keep drawing fault schedules under an
``--iters`` / ``--budget`` limit, run every registered oracle, classify
anomalies (mismatch, deadlock, oracle crash, wall-time outlier against
the corpus's recorded cost model), greedily shrink each failing
schedule, and persist it — content-hashed and deduplicated — into the
``--corpus`` directory as a derandomized reproduction.  ``--replay KEY``
re-runs a stored entry and exits 0 once it no longer fails.

``serve`` / ``worker`` run the long-lived experiment service
(``repro.harness.service``): a job-queue server over the shared result
cache plus pull-model workers.  Any engine-backed command (figures,
``sweep``, ``verify``, ``fuzz``) sends its jobs there with ``--service
HOST:PORT``; without it they run here, over ``--jobs`` processes.

``--bench-json PATH`` appends one machine-readable record per
invocation (figures run, engine stats, wall time) so performance
trajectories can accumulate across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .harness import (
    MASKS,
    ORACLES,
    PLANNERS,
    STUDIES,
    ExperimentEngine,
    RecoveryPolicy,
    ResultCache,
    Sweep,
    SweepError,
    plan_with_scenario,
    run_oracles,
    run_plans,
)
from .harness.dispatch import DispatchError
from .util.codec import encode

#: Which per-figure keyword each CLI flag maps to, per experiment.
_PROCS_EXPERIMENTS = ("fig5a", "fig5b", "fig6", "fig8")
_NPROCS_EXPERIMENTS = ("table1", "fig7")
_REPEATS_EXPERIMENTS = ("fig5a", "fig7", "fig8")
_PPN_EXPERIMENTS = ("table1", "fig7", "fig8", "fig9")


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


def _add_engine_args(
    parser: argparse.ArgumentParser, *, jobs_help: str, cache: bool = True
) -> None:
    """Attach the flag block every engine-backed command shares:
    ``--jobs/-j``, ``--service`` and ``--quiet``, plus — for the
    commands that run through the result cache (everything but ``fuzz``,
    whose store is its corpus) — ``--cache-dir``, ``--no-cache`` and
    ``--bench-json``."""
    parser.add_argument("--jobs", "-j", type=_positive_int, default=1,
                        help=jobs_help)
    parser.add_argument("--service", type=str, default=None,
                        metavar="HOST:PORT",
                        help="send jobs to the experiment service at this "
                             "address (see `repro-mpi serve`) instead of "
                             "running them here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    if cache:
        parser.add_argument("--cache-dir", type=str, default=None,
                            help="result cache directory (default "
                                 "$REPRO_CACHE_DIR or ~/.cache/repro-mpi)")
        parser.add_argument("--no-cache", action="store_true",
                            help="neither read nor write the result cache")
        parser.add_argument("--bench-json", type=str, default=None,
                            help="append a JSON record of this run's engine "
                                 "stats and wall time to PATH")


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


def _make_engine(
    parser: argparse.ArgumentParser, args: argparse.Namespace, *,
    progress: bool,
) -> ExperimentEngine:
    """The engine the :func:`_add_engine_args` (and, where the command
    has them, :func:`_add_recovery_args`) flags describe.

    Anything wrong with the request — an unusable cache directory, a
    malformed service address — is a usage error here, before any job
    runs.
    """
    cache = _open_cache(parser, args)
    recovery = None
    if getattr(args, "recover", False):
        recovery = RecoveryPolicy(max_attempts=args.max_attempts)
    try:
        return ExperimentEngine(
            jobs=args.jobs, cache=cache, progress=progress,
            service=args.service, recovery=recovery,
        )
    except (DispatchError, ValueError) as exc:
        parser.error(str(exc))


def _add_recovery_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--recover`` / ``--max-attempts`` flags."""
    parser.add_argument(
        "--recover", action="store_true",
        help="chase crashed jobs with bounded restart chains: each crash "
             "restarts from the last committed image (or from scratch when "
             "nothing ever committed) until clean completion or the retry "
             "budget runs out",
    )
    parser.add_argument(
        "--max-attempts", type=_positive_int, metavar="N",
        default=RecoveryPolicy().max_attempts,
        help="recovery legs allowed per crashed job under --recover "
             "(default %(default)s)",
    )


def _planner_kwargs(name: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {"seed": args.seed}
    if args.procs is not None and name in _PROCS_EXPERIMENTS:
        kwargs["procs"] = args.procs
    if args.nprocs is not None and name in _NPROCS_EXPERIMENTS:
        kwargs["nprocs"] = args.nprocs
    if args.nodes is not None and name == "fig9":
        kwargs["nodes"] = args.nodes
    if args.repeats is not None and name in _REPEATS_EXPERIMENTS:
        kwargs["repeats"] = args.repeats
    if args.ppn is not None and name in _PPN_EXPERIMENTS:
        kwargs["ppn"] = args.ppn
    return kwargs


def _byte_size(text: str) -> int:
    """argparse type for sizes like ``0``, ``64K``, ``512M``, ``2G`` (bytes)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    body, scale = text, 1
    if text and text[-1].lower() in units:
        scale = units[text[-1].lower()]
        body = text[:-1]
    try:
        # float() silently strips whitespace ("1 G" would read as 1G);
        # a spaced size is a shell-quoting accident — reject it loudly.
        if body != body.strip():
            raise ValueError(body)
        value = float(body)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a size like 1048576, 64K, 512M, or 2G, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"sizes cannot be negative: {text!r}")
    return int(value * scale)


def _duration(text: str) -> float:
    """argparse type for ages like ``90``, ``30m``, ``12h``, ``7d`` (seconds)."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    body, scale = text, 1.0
    if text and text[-1].lower() in units:
        scale = units[text[-1].lower()]
        body = text[:-1]
    try:
        # See _byte_size: no whitespace-smuggled values.
        if body != body.strip():
            raise ValueError(body)
        value = float(body)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a duration like 90, 30m, 12h, or 7d, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"durations cannot be negative: {text!r}")
    return value * scale


def _cache_main(argv: list[str]) -> int:
    """``repro-mpi cache {stats,clear,prune}`` — manage the result cache."""
    parser = argparse.ArgumentParser(
        prog="repro-mpi cache",
        description="Inspect and manage the on-disk simulation result cache",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    for name, desc in (
        ("stats", "entry count, on-disk bytes, image tier, recorded timings"),
        ("clear", "delete every cached result and image set "
                  "(timings survive)"),
        ("prune", "evict entries by figure, age, count, and/or "
                  "image-tier size"),
    ):
        p = sub.add_parser(name, help=desc)
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
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)

    if args.action == "stats":
        entries = len(cache)
        print(f"cache dir:      {cache.root}")
        print(f"schema version: v{cache.version_dir.name.lstrip('v')}")
        print(f"entries:        {entries}")
        print(f"size:           {cache.total_bytes() / 1024:.1f} KiB")
        print(f"image sets:     {cache.image_count()}")
        print(f"image size:     {cache.image_bytes() / 1024:.1f} KiB")
        print(f"recorded times: {cache.timing_count()}")
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


def _sweep_main(argv: list[str]) -> int:
    """``repro-mpi sweep`` — run a declarative scenario sweep."""
    parser = argparse.ArgumentParser(
        prog="repro-mpi sweep",
        description="Run a cartesian scenario sweep (protocol x app x scale "
                    "grids as one deduplicated engine batch)",
    )
    parser.add_argument("--study", choices=sorted(STUDIES), default=None,
                        help="run a predefined sweep study instead of --axis")
    parser.add_argument("--axis", type=_axis_arg, action="append", default=[],
                        metavar="KEY=V1,V2,...",
                        help="sweep axis (repeatable; declaration order is "
                             "expansion order)")
    parser.add_argument("--base", type=_base_arg, action="append", default=[],
                        metavar="KEY=VALUE",
                        help="constant merged into every point (repeatable)")
    parser.add_argument("--mask", choices=sorted(MASKS), action="append",
                        default=[],
                        help="named NA mask to apply (repeatable; "
                             "2pc-nonblocking is always on)")
    parser.add_argument("--pivot", type=str, default=None,
                        help="pivot axis for the folded table (e.g. protocol)")
    parser.add_argument("--baseline", type=str, default=None,
                        help="pivot value to report overhead %% against")
    parser.add_argument("--x-axis", type=str, default=None,
                        help="numeric axis for series output (with --pivot)")
    parser.add_argument("--metric", type=str, default=None,
                        help="metric column (runtime, ckpt_time, ...)")
    parser.add_argument("--name", type=str, default="sweep",
                        help="sweep name used in titles and bench records")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--procs", type=_int_list, default=None,
                        help="process counts for --study scale_grid")
    parser.add_argument("--nprocs", type=_positive_int, default=None,
                        help="process count for --study ckpt_freq/restart_chain")
    _add_engine_args(
        parser, jobs_help="parallel simulation worker processes (default 1)"
    )
    _add_recovery_args(parser)
    args = parser.parse_args(argv)

    if args.study is not None:
        # A study is a complete declaration (axes, masks, fold shape);
        # reject flags that would be silently ignored — including the
        # scale knob that belongs to the *other* study.
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
                ("--procs", args.study != "scale_grid" and args.procs),
                ("--nprocs",
                 args.study not in ("ckpt_freq", "restart_chain")
                 and args.nprocs),
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
            study_kwargs: dict = {"seed": args.seed}
            if args.study == "scale_grid" and args.procs is not None:
                study_kwargs["procs"] = args.procs
            if (
                args.study in ("ckpt_freq", "restart_chain")
                and args.nprocs is not None
            ):
                study_kwargs["nprocs"] = args.nprocs
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

    engine = _make_engine(parser, args, progress=not args.quiet)
    t0 = time.time()
    with engine:
        results = run_plans([plan], engine)
    for result in results:
        print(result.render())
        print()
    stats = engine.last_stats
    if stats is not None:
        print(f"[sweep:{label}: {stats.summary()}; "
              f"{time.time() - t0:.1f}s total]")
    if args.bench_json:
        _append_bench_record(
            args.bench_json, [f"sweep:{label}"], stats, time.time() - t0
        )
    return 0


def _verify_main(argv: list[str]) -> int:
    """``repro-mpi verify`` — sweep fault-injection oracles over seeds.

    Exit status 0 when every (oracle, seed) check passes; 1 on any
    mismatch, in which case a derandomized failing-seed artifact (JSON
    with per-failure reproduction commands) is written to ``--artifact``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-mpi verify",
        description="Differential-oracle verification under randomized "
                    "fault schedules (checkpoint-request timing, rank "
                    "completion races, restart depth)",
    )
    parser.add_argument("--seeds", type=_positive_int, default=5,
                        help="fault-schedule seeds per oracle (default 5)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first seed (failing-seed artifacts replay with "
                             "--seeds 1 --base-seed N)")
    parser.add_argument("--oracle", choices=sorted(ORACLES), action="append",
                        default=[],
                        help="oracle to run (repeatable; default: all)")
    _add_engine_args(
        parser,
        jobs_help="parallel (oracle, seed) checks in worker processes; the "
                  "report sequence is byte-identical to a serial sweep "
                  "(default 1)",
    )
    parser.add_argument("--artifact", type=str, default="verify-failures.json",
                        metavar="PATH",
                        help="failing-seed artifact path (written only on "
                             "mismatch; default verify-failures.json)")
    args = parser.parse_args(argv)

    names = args.oracle or sorted(ORACLES)
    seeds = range(args.base_seed, args.base_seed + args.seeds)
    engine = _make_engine(parser, args, progress=False)

    def progress(report) -> None:
        if not args.quiet:
            verdict = "ok" if report.ok else "MISMATCH"
            print(
                f"[verify] {report.oracle} seed={report.seed}: {verdict}"
                + ("" if report.ok else f" — {report.detail}"),
                file=sys.stderr,
                flush=True,
            )

    t0 = time.time()
    reports = run_oracles(
        names, seeds, engine=engine, progress=progress, jobs=args.jobs,
        service=args.service,
    )
    elapsed = time.time() - t0

    failures = [r for r in reports if not r.ok]
    for name in names:
        mine = [r for r in reports if r.oracle == name]
        good = sum(1 for r in mine if r.ok)
        print(f"oracle {name}: {good}/{len(mine)} seeds ok")
    if failures:
        print(f"\n{len(failures)} mismatch(es):")
        for report in failures:
            print(f"  {report.oracle} seed={report.seed}: {report.detail}")
            print(f"    reproduce: {report.repro}")
        with open(args.artifact, "w") as fh:
            json.dump({"failures": encode(failures)}, fh, indent=2)
            fh.write("\n")
        print(f"failing-seed artifact written to {args.artifact}")
    print(f"[verify: {len(reports)} checks, {len(failures)} mismatches; "
          f"{elapsed:.1f}s total]")
    if args.bench_json:
        record_names = [f"verify:{name}" for name in names]
        _append_bench_record(args.bench_json, record_names, None, elapsed)
        _amend_last_bench_record(
            args.bench_json,
            checks=len(reports),
            mismatches=len(failures),
            seeds=[seeds.start, seeds.stop],
        )
    return 1 if failures else 0


def _fuzz_main(argv: list[str]) -> int:
    """``repro-mpi fuzz`` — continuous fault fuzzing with a persistent
    anomaly corpus.

    Exit status 0 when the run surfaced no anomaly; 1 otherwise (new
    *or* duplicate — a known-failing corpus entry still fails).  With
    ``--replay KEY``, exit 1 while the stored anomaly still reproduces
    and 0 once it no longer does.
    """
    from .harness.fuzz import CorpusDB, replay_entry, run_fuzz

    parser = argparse.ArgumentParser(
        prog="repro-mpi fuzz",
        description="Fuzz fault schedules through every registered oracle, "
                    "shrinking and persisting each anomaly as a "
                    "derandomized reproduction in an on-disk corpus",
    )
    parser.add_argument("--corpus", type=str, default="fuzz-corpus",
                        metavar="DIR",
                        help="anomaly corpus directory (default ./fuzz-corpus)")
    parser.add_argument("--iters", type=_positive_int, default=None,
                        help="fuzz iterations (one drawn schedule through "
                             "every oracle each)")
    parser.add_argument("--budget", type=_duration, default=None,
                        metavar="DUR",
                        help="wall-time budget, e.g. 60s, 5m (combinable "
                             "with --iters: whichever runs out first)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first schedule seed (seeds increment per "
                             "iteration)")
    parser.add_argument("--oracle", choices=sorted(ORACLES), action="append",
                        default=[],
                        help="oracle to fuzz (repeatable; default: all)")
    _add_engine_args(
        parser, cache=False,
        jobs_help="iterations whose oracle checks run in parallel worker "
                  "processes; anomaly handling (shrinking, corpus "
                  "writes) stays serial in this process (default 1)",
    )
    parser.add_argument("--no-shrink", action="store_true",
                        help="persist failing schedules unminimized")
    parser.add_argument("--replay", type=str, default=None, metavar="KEY",
                        help="re-run one stored corpus entry instead of "
                             "fuzzing")
    parser.add_argument("--list", action="store_true",
                        help="list corpus entries and exit")
    args = parser.parse_args(argv)

    corpus = CorpusDB(args.corpus)

    if args.list:
        entries = corpus.entries()
        for entry in entries:
            print(f"{entry.key}  {entry.kind:12s} {entry.oracle} "
                  f"seed={entry.seed}  {entry.detail}")
        print(f"{len(entries)} corpus entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {corpus.root}")
        return 0

    if args.replay is not None:
        try:
            entry = corpus.load(args.replay)
        except KeyError as exc:
            parser.error(str(exc))
        report = replay_entry(corpus, args.replay)
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
            service=args.service,
        )
    except (DispatchError, ValueError) as exc:
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


def _amend_last_bench_record(path: str, **extra) -> None:
    """Fold verify-specific fields into the record just appended."""
    try:
        with open(path) as fh:
            records = json.load(fh)
        records[-1].update(extra)
    except (OSError, ValueError, IndexError, AttributeError):
        return
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def _serve_main(argv: list[str]) -> int:
    """``repro-mpi serve`` — run the long-lived experiment service.

    The server owns the job queue and the persistent job index and
    advertises the shared result cache to workers; it runs no
    simulations itself.  Stop with Ctrl-C.
    """
    from .harness.service import DEFAULT_HOST, DEFAULT_PORT, ExperimentServer

    parser = argparse.ArgumentParser(
        prog="repro-mpi serve",
        description="Long-lived experiment service: accepts jobs from "
                    "--service clients, hands them to pull-model "
                    "`repro-mpi worker` processes, and answers repeats "
                    "from the shared result cache",
    )
    parser.add_argument("--host", type=str, default=DEFAULT_HOST,
                        help=f"listen address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port; 0 picks a free one "
                             f"(default {DEFAULT_PORT})")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="shared result cache advertised to workers "
                             "(default $REPRO_CACHE_DIR or ~/.cache/repro-mpi)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run store-less: every submission queues, "
                             "workers keep results to themselves")
    parser.add_argument("--index-dir", type=str, default=None,
                        help="persistent job index directory (default "
                             "<cache-dir>/service-index)")
    parser.add_argument("--lease", type=float, default=None, metavar="SECONDS",
                        help="per-job lease: requeue a running job whose "
                             "worker has not finished or heartbeat within "
                             "SECONDS (default: requeue only when the "
                             "worker's connection drops)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job lifecycle lines")
    args = parser.parse_args(argv)
    if args.lease is not None and args.lease <= 0:
        parser.error("--lease must be positive")

    cache = _open_cache(parser, args)
    cache_dir = None if cache is None else cache.root

    server = ExperimentServer(
        args.host, args.port,
        cache_dir=cache_dir,
        index_dir=args.index_dir,
        lease=args.lease,
        progress=not args.quiet,
    )
    host, port = server.start()
    print(f"[serve] listening on {host}:{port} "
          f"(workers: repro-mpi worker --connect {host}:{port}; "
          f"clients: --service {host}:{port})",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _worker_main(argv: list[str]) -> int:
    """``repro-mpi worker`` — pull-model executor for the service.

    Connects to a running ``repro-mpi serve``, long-polls for jobs, and
    executes them with the same engine job body an in-process run uses.
    Exits 0 when the server shuts down (or after ``--max-jobs``).
    """
    from .harness.dispatch import parse_address
    from .harness.service import run_worker

    parser = argparse.ArgumentParser(
        prog="repro-mpi worker",
        description="Pull-model experiment-service worker: fetches jobs "
                    "from a `repro-mpi serve` instance and writes results "
                    "(including checkpoint images) into the shared cache",
    )
    parser.add_argument("--connect", type=str, required=True,
                        metavar="HOST:PORT",
                        help="experiment service address")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="override the server-advertised artifact "
                             "store (rarely needed; must be shared with "
                             "clients for warm-cache reruns)")
    parser.add_argument("--max-jobs", type=_positive_int, default=None,
                        help="exit after executing N jobs (default: run "
                             "until the server shuts down)")
    parser.add_argument("--connect-retries", type=int, default=5,
                        metavar="N",
                        help="retry the initial connection up to N times "
                             "with capped exponential backoff, so workers "
                             "may be launched before their server "
                             "(default 5; 0 fails fast)")
    parser.add_argument("--connect-backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="first connect-retry delay; doubles per "
                             "attempt, capped at 15s (default 0.5)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    args = parser.parse_args(argv)
    if args.connect_retries < 0:
        parser.error("--connect-retries must be >= 0")
    if args.connect_backoff < 0:
        parser.error("--connect-backoff must be >= 0")

    try:
        addr = parse_address(args.connect)
    except DispatchError as exc:
        parser.error(str(exc))
    try:
        executed = run_worker(
            addr,
            cache_dir=args.cache_dir,
            max_jobs=args.max_jobs,
            connect_retries=args.connect_retries,
            connect_backoff=args.connect_backoff,
            progress=not args.quiet,
        )
    except KeyboardInterrupt:
        return 130
    except (DispatchError, OSError) as exc:
        print(f"[worker] {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"[worker] done: {executed} job(s) executed",
              file=sys.stderr, flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "verify":
        return _verify_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return _fuzz_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-mpi",
        description=(
            "Reproduce the evaluation of 'Enabling Practical Transparent "
            "Checkpointing for MPI: A Topological Sort Approach' (CLUSTER 2024)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(PLANNERS) + ["all"],
        help="which table/figure to regenerate (or `cache` to manage "
             "the result cache)",
    )
    parser.add_argument("--procs", type=_int_list, default=None,
                        help="comma-separated process counts (fig5a/fig5b/fig6/fig8)")
    parser.add_argument("--nprocs", type=_positive_int, default=None,
                        help="process count (table1/fig7)")
    parser.add_argument("--nodes", type=_int_list, default=None,
                        help="comma-separated node counts (fig9)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=_positive_int, default=None,
                        help="repetitions per cell, seeds seed..seed+n-1 "
                             "(fig5a/fig7/fig8)")
    parser.add_argument("--ppn", type=_positive_int, default=None,
                        help="ranks per node (table1/fig7/fig8/fig9)")
    parser.add_argument("--scenario", type=_scenario_arg, default=None,
                        metavar="NAME[:K=V,...]",
                        help="run every figure cell under a registered "
                             "scenario (fat-tree, dragonfly, straggler, "
                             "jitter, degraded-link; e.g. "
                             "straggler:rank=1,factor=8.0)")
    _add_engine_args(
        parser, jobs_help="parallel simulation worker processes (default 1)"
    )
    _add_recovery_args(parser)
    args = parser.parse_args(argv)

    engine = _make_engine(parser, args, progress=not args.quiet)

    names = sorted(PLANNERS) if args.experiment == "all" else [args.experiment]
    plans = [PLANNERS[name](**_planner_kwargs(name, args)) for name in names]
    if args.scenario:
        plans = [plan_with_scenario(plan, args.scenario) for plan in plans]
    t0 = time.time()
    # One batch for everything requested: cross-figure dedupe is the
    # whole point of batching `all`.
    with engine:
        results = run_plans(plans, engine)
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


def _append_bench_record(path: str, names: list[str], stats, total: float) -> None:
    """Accumulate one run's engine metrics in a JSON list at ``path``."""
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
            "prediction_hit_rate": round(stats.prediction_hit_rate, 4),
            "wall_time": round(stats.wall_time, 3),
        }
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
