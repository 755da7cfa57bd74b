"""Always-on fault fuzzer with a persistent anomaly corpus.

``repro-mpi verify`` answers "do these N seeds pass right now?"; this
module is the open-ended version of the same question: keep drawing
adversarial :class:`~repro.harness.verify.FaultSchedule`\\ s under a
time or iteration budget, push every one through every registered
oracle, and treat *anything* surprising as an anomaly worth keeping:

* ``mismatch`` — an oracle's two derivations of the same truth disagreed
  (the classic differential verdict);
* ``deadlock`` — the schedule wedged the simulation (a genuine
  distributed deadlock, or a runaway poll loop dying at its
  ``max_events`` guard);
* ``recovery`` — a bounded-retry recovery chain exhausted its budget
  without reaching clean completion (every restart leg kept dying; see
  :mod:`repro.harness.recovery` and the ``recovery-chain`` oracle);
* ``crash`` — the oracle itself blew up (ProtocolError, SpecError, …);
* ``perf-outlier`` — the check passed but took an order of magnitude
  longer than the recorded cost model says it should (wedge-adjacent
  behaviour that a pass/fail verdict would hide).

Each anomaly is **shrunk** — the failing schedule is greedily simplified
while it keeps failing with the same anomaly class — and persisted into
an on-disk corpus as a derandomized reproduction: a JSON entry whose
``repro`` command and full schedule replay the exact check.  Entries are
content-hashed over the *minimized* schedule (plus the oracle that
flagged it), so re-finding the same anomaly on a later run dedupes
instead of growing the corpus.

The corpus directory layout::

    <corpus>/
      entries/<16-hex-key>.json   one anomaly each (schedule + verdict)
      cost_model.json             per-oracle wall-time medians

``repro-mpi fuzz`` is the CLI face; ``--replay KEY`` re-runs a stored
entry's exact (oracle, schedule) check and reports whether it still
fails.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable, Iterable, Sequence

from ..util.codec import decode, encode
from ..util.hashing import stable_json_hash
from ..util.osenv import atomic_write
from .verify import (
    ORACLES,
    FaultSchedule,
    Oracle,
    OracleReport,
    check_payload,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [
    "CorpusDB",
    "CorpusEntry",
    "FuzzStats",
    "replay_entry",
    "run_fuzz",
    "schedule_key",
    "shrink_schedule",
]

#: Corpus entry format version (bump on incompatible layout changes).
CORPUS_SCHEMA = 1

#: A passing check this many times slower than the oracle's recorded
#: median is a ``perf-outlier`` anomaly...
PERF_OUTLIER_FACTOR = 10.0
#: ...but never flag a check faster than this absolute floor (a 0.05 s
#: median would otherwise make 0.6 s an "outlier" on a loaded machine).
PERF_OUTLIER_FLOOR = 2.0
#: Don't trust a median of fewer samples than this.
PERF_MIN_SAMPLES = 8

#: Shrinking re-checks are the expensive part; bound them per anomaly.
SHRINK_CHECK_BUDGET = 48


def schedule_key(schedule: FaultSchedule, oracle: str) -> str:
    """Content hash identifying one (oracle, minimized schedule) anomaly."""
    return stable_json_hash(
        {"oracle": oracle, "schedule": schedule_to_dict(schedule)}
    )


# --------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------- #

@dataclass
class CorpusEntry:
    """One persisted anomaly: a derandomized, minimized reproduction."""

    key: str
    oracle: str
    seed: int
    kind: str
    detail: str
    #: One-paste replay of the *original* failing check.
    repro: str
    #: The minimized schedule (what the key hashes).
    schedule: dict
    #: The schedule as originally drawn, before shrinking.
    shrunk_from: dict
    #: Accepted shrink steps between the two.
    shrink_steps: int
    found_at: float
    #: Entry format version, as written.
    schema: int = CORPUS_SCHEMA


class CorpusDB:
    """Content-addressed on-disk anomaly corpus.

    Writes are atomic and collision-safe under concurrency (a uniquely
    named tempfile per writer, then an atomic replace): parallel fuzz
    workers — or independent fuzz processes — sharing one corpus
    directory can race on the same key and both land a well-formed
    entry, with the content-hashed key guaranteeing both wrote the same
    bytes.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.entries_dir.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> "list[str]":
        return sorted(p.stem for p in self.entries_dir.glob("*.json"))

    def add(self, entry: CorpusEntry) -> bool:
        """Persist ``entry``; returns False when the key already exists
        (the same minimized anomaly was found before)."""
        path = self._path(entry.key)
        if path.exists():
            return False
        atomic_write(
            path, json.dumps(encode(entry), indent=2, sort_keys=True) + "\n"
        )
        return True

    def load(self, key: str) -> CorpusEntry:
        path = self._path(key)
        if not path.exists():
            raise KeyError(
                f"no corpus entry {key!r} under {self.entries_dir} "
                f"(have: {', '.join(self.keys()) or 'none'})"
            )
        return decode(CorpusEntry, json.loads(path.read_text()))

    def entries(self) -> "list[CorpusEntry]":
        return [self.load(key) for key in self.keys()]

    # -- cost model ----------------------------------------------------- #

    def load_cost_model(self) -> "dict[str, list[float]]":
        """Recorded per-oracle check durations (rolling tail)."""
        path = self.root / "cost_model.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        return {
            str(k): [float(x) for x in v]
            for k, v in data.items()
            if isinstance(v, list)
        }

    def save_cost_model(self, model: "dict[str, list[float]]") -> None:
        # Keep a bounded tail per oracle: recent machine speed is the
        # model, not the all-time history.
        trimmed = {k: v[-64:] for k, v in sorted(model.items())}
        atomic_write(
            self.root / "cost_model.json",
            json.dumps(trimmed, indent=2, sort_keys=True) + "\n",
        )


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #

def _shrink_candidates(s: FaultSchedule) -> "Iterable[FaultSchedule]":
    """Strictly-simpler one-step variants, biggest simplification first.

    Every candidate must remain a *valid* schedule (spec validation
    would reject e.g. a crash rank outside the shrunken world)."""
    if s.scenario is not None:
        # A scenario perturbs every leg of the run; dropping it is the
        # single biggest simplification when the failure is scenario-free.
        yield replace(s, scenario=None)
    if s.recovery_crash_fracs:
        # Drop the whole storm first, then one hop at a time (last hop
        # first — earlier hops are likelier to carry the failure).
        yield replace(s, recovery_crash_fracs=())
        if len(s.recovery_crash_fracs) > 1:
            yield replace(
                s, recovery_crash_fracs=s.recovery_crash_fracs[:-1]
            )
    if s.crash_fracs:
        yield replace(s, crash_fracs=())
    if s.mid_fracs:
        yield replace(s, mid_fracs=())
    if len(s.completion_fracs) > 1:
        yield replace(s, completion_fracs=s.completion_fracs[:1])
    if s.restart_depth > 1:
        yield replace(s, restart_depth=1)
    if s.restart_ckpt > 0:
        yield replace(s, restart_ckpt=0)
    if s.nprocs > 3:
        nprocs = s.nprocs - 1
        # Clamp crash ranks into the smaller world (dropping collisions)
        # rather than dropping the events — losing the crash usually
        # loses the failure the shrink is trying to preserve.
        crash: dict[int, float] = {}
        for r, f in s.crash_fracs:
            crash.setdefault(min(r, nprocs - 1), f)
        hops = []
        for hop in s.recovery_crash_fracs:
            clamped: dict[int, float] = {}
            for r, f in hop:
                clamped.setdefault(min(r, nprocs - 1), f)
            hops.append(tuple(sorted(clamped.items())))
        yield replace(
            s,
            nprocs=nprocs,
            leavers=min(s.leavers, nprocs - 1),
            crash_fracs=tuple(sorted(crash.items())),
            recovery_crash_fracs=tuple(hops),
        )
    if any(r > 0 for r, _f in s.crash_fracs) and len(s.crash_fracs) == 1:
        ((_r, f),) = s.crash_fracs
        yield replace(s, crash_fracs=((0, f),))
    if s.niters > 4:
        niters = max(4, s.niters - 4)
        yield replace(s, niters=niters, shared=min(s.shared, niters))
    if s.shared > 1:
        yield replace(s, shared=s.shared - 1)
    if s.leavers > 1:
        yield replace(s, leavers=s.leavers - 1)
    # Round awkward fractions to one decimal (more readable repros).
    rounded = tuple(round(f, 1) for f in s.completion_fracs)
    if rounded != s.completion_fracs and all(f > 0 for f in rounded):
        yield replace(s, completion_fracs=rounded)
    crash_rounded = tuple((r, round(f, 1)) for r, f in s.crash_fracs)
    if crash_rounded != s.crash_fracs and all(f > 0 for _r, f in crash_rounded):
        yield replace(s, crash_fracs=crash_rounded)


def shrink_schedule(
    oracle: Oracle,
    schedule: FaultSchedule,
    kind: str,
    *,
    check_budget: int = SHRINK_CHECK_BUDGET,
) -> "tuple[FaultSchedule, int]":
    """Greedily simplify a failing schedule while it keeps failing.

    A candidate is accepted when re-checking it still fails with the
    same anomaly ``kind`` (a shrink that turns a mismatch into a crash
    found a *different* bug — keep the original).  Returns the minimized
    schedule and the number of accepted steps; at most ``check_budget``
    re-checks are spent, so shrinking is bounded even for slow oracles.
    """
    current = schedule
    steps = 0
    checks = 0
    progress = True
    while progress and checks < check_budget:
        progress = False
        for candidate in _shrink_candidates(current):
            if checks >= check_budget:
                break
            checks += 1
            report = oracle.check_schedule(candidate)
            if not report.ok and report.kind == kind:
                current = candidate
                steps += 1
                progress = True
                break  # restart from the biggest simplification
    return current, steps


# --------------------------------------------------------------------- #
# The fuzz loop
# --------------------------------------------------------------------- #

@dataclass
class FuzzStats:
    """One fuzz run's summary."""

    iterations: int = 0
    checks: int = 0
    anomalies: "list[CorpusEntry]" = field(default_factory=list)
    new_entries: int = 0
    duplicates: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.anomalies


def _perf_threshold(durations: "list[float]") -> "float | None":
    if len(durations) < PERF_MIN_SAMPLES:
        return None
    return max(PERF_OUTLIER_FACTOR * median(durations), PERF_OUTLIER_FLOOR)


def run_fuzz(
    corpus: CorpusDB,
    *,
    iters: "int | None" = None,
    budget: "float | None" = None,
    base_seed: int = 0,
    oracles: "Sequence[str] | None" = None,
    shrink: bool = True,
    progress: "Callable[[str], None] | None" = None,
    clock: Callable[[], float] = time.monotonic,
    jobs: int = 1,
    service: "str | None" = None,
) -> FuzzStats:
    """Draw schedules and oracle-check them until the budget runs out.

    One *iteration* is one drawn seed through every selected oracle.
    ``iters`` and ``budget`` (seconds) can be combined; whichever is
    exhausted first stops the loop (at an iteration boundary, so every
    drawn schedule gets the full oracle battery).  Every anomaly is
    shrunk (unless ``shrink=False``), deduplicated against the corpus,
    and recorded in the returned stats whether new or duplicate.

    The checks of ``jobs`` iterations at a time go through
    :func:`repro.harness.dispatch.fan_out` (``service``, a ``HOST:PORT``,
    sends them to an experiment-service fleet instead of a local pool).
    Anomaly detection, shrinking, corpus writes, and the cost model stay
    in the parent and process results in draw order, so the corpus and
    stats are independent of completion order; the budget is checked at
    block boundaries, and check durations are measured where the check
    ran.
    """
    if iters is None and budget is None:
        raise ValueError("give iters, budget, or both")
    names = list(oracles) if oracles is not None else sorted(ORACLES)
    for name in names:
        if name not in ORACLES:
            raise KeyError(
                f"unknown oracle {name!r}; expected one of {sorted(ORACLES)}"
            )

    from .dispatch import connect, fan_out

    cost_model = corpus.load_cost_model()
    stats = FuzzStats()
    started = clock()
    say = progress or (lambda _msg: None)

    def record(
        report: OracleReport, schedule: FaultSchedule, kind: str, detail: str
    ) -> None:
        oracle = ORACLES[report.oracle]
        minimized, steps = (
            shrink_schedule(oracle, schedule, kind)
            if shrink and kind != "perf-outlier"
            else (schedule, 0)
        )
        entry = CorpusEntry(
            key=schedule_key(minimized, report.oracle),
            oracle=report.oracle,
            seed=report.seed,
            kind=kind,
            detail=detail,
            repro=report.repro,
            schedule=schedule_to_dict(minimized),
            shrunk_from=schedule_to_dict(schedule),
            shrink_steps=steps,
            found_at=time.time(),
        )
        stats.anomalies.append(entry)
        if corpus.add(entry):
            stats.new_entries += 1
            say(f"NEW {kind} anomaly {entry.key} ({report.oracle} "
                f"seed={report.seed}, {steps} shrink step(s)): {detail}")
        else:
            stats.duplicates += 1
            say(f"duplicate {kind} anomaly {entry.key} ({report.oracle} "
                f"seed={report.seed})")

    def process(name: str, schedule: FaultSchedule,
                report: OracleReport, dur: float) -> None:
        stats.checks += 1
        if not report.ok:
            record(report, schedule, report.kind, report.detail)
        else:
            threshold = _perf_threshold(cost_model.get(name, []))
            if threshold is not None and dur > threshold:
                record(
                    report,
                    schedule,
                    "perf-outlier",
                    f"check took {dur:.2f}s against a recorded median "
                    f"of {median(cost_model[name]):.2f}s "
                    f"(threshold {threshold:.2f}s)",
                )
            else:
                # Only healthy checks feed the cost model: a wedged
                # check must not drag the median up until its own
                # successors stop looking anomalous.
                cost_model.setdefault(name, []).append(dur)

    iteration = 0
    with connect(service) as conn:
        while True:
            if iters is not None and iteration >= iters:
                break
            if budget is not None and clock() - started >= budget:
                break
            block = max(1, jobs)
            if iters is not None:
                block = min(block, iters - iteration)
            seeds = [base_seed + iteration + i for i in range(block)]
            checks = [
                (name, schedule)
                for schedule in map(FaultSchedule.draw, seeds)
                for name in names
            ]
            values = dict(fan_out(
                [check_payload(name, schedule) for name, schedule in checks],
                jobs=jobs, service=conn,
            ))
            # Draw order, not completion order: the corpus and the
            # cost model must not depend on worker timing.
            for index, (name, schedule) in enumerate(checks):
                value = values[index]
                report = decode(OracleReport, value["report"])
                process(name, schedule, report, value["duration"])
            for seed in seeds:
                iteration += 1
                stats.iterations = iteration
                say(f"iter {iteration}: seed {seed}, "
                    f"{len(stats.anomalies)} anomal"
                    f"{'y' if len(stats.anomalies) == 1 else 'ies'} so far")

    stats.elapsed = clock() - started
    corpus.save_cost_model(cost_model)
    return stats


def replay_entry(corpus: CorpusDB, key: str) -> OracleReport:
    """Re-run a stored anomaly's exact (oracle, schedule) check.

    Returns the fresh report: a still-failing replay confirms the
    anomaly reproduces; a passing one means the underlying bug is gone
    (or was environment-dependent — perf outliers usually are).
    """
    entry = corpus.load(key)
    oracle = ORACLES.get(entry.oracle)
    if oracle is None:
        raise KeyError(
            f"corpus entry {key} names unknown oracle {entry.oracle!r}"
        )
    return oracle.check_schedule(schedule_from_dict(entry.schedule))
