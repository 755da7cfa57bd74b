"""Experiment harness: runners, declarative specs, the batch engine,
the on-disk result cache, and per-figure experiment drivers."""

from .cache import TIMINGS_MAX_ENTRIES, ResultCache, default_cache_dir
from .dispatch import fan_out, resolve_dispatch
from .engine import DEFAULT_MAX_EVENTS, EngineStats, ExperimentEngine
from .experiments import (
    PLANNERS,
    STUDIES,
    ExperimentResult,
    FigurePlan,
    plan_ckpt_freq,
    plan_scale_grid,
    plan_with_scenario,
    run_plans,
)
from .recovery import (
    RecoveryError,
    RecoveryOutcome,
    RecoveryPolicy,
    run_recovery,
)
from .sweep import MASKS, Sweep, SweepCell, SweepError
from .runner import RunResult, launch_run, restart_run
from .fuzz import (
    CorpusDB,
    CorpusEntry,
    FuzzStats,
    replay_entry,
    run_fuzz,
    shrink_schedule,
)
from .verify import (
    ORACLES,
    FaultSchedule,
    Oracle,
    OracleMismatch,
    OracleReport,
    result_fingerprint,
    run_oracles,
)
from .spec import (
    SCHEMA_VERSION,
    RunSpec,
    SpecError,
    execute,
    run_result_from_dict,
    run_result_to_dict,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)

__all__ = [
    "RunResult",
    "launch_run",
    "restart_run",
    "RunSpec",
    "SpecError",
    "execute",
    "spec_hash",
    "spec_to_dict",
    "spec_from_dict",
    "run_result_to_dict",
    "run_result_from_dict",
    "SCHEMA_VERSION",
    "ExperimentEngine",
    "EngineStats",
    "DEFAULT_MAX_EVENTS",
    "fan_out",
    "resolve_dispatch",
    "RecoveryError",
    "RecoveryOutcome",
    "RecoveryPolicy",
    "run_recovery",
    "ResultCache",
    "default_cache_dir",
    "TIMINGS_MAX_ENTRIES",
    "ExperimentResult",
    "FigurePlan",
    "run_plans",
    "Sweep",
    "SweepCell",
    "SweepError",
    "MASKS",
    "plan_scale_grid",
    "plan_ckpt_freq",
    "plan_with_scenario",
    "STUDIES",
    "PLANNERS",
    "ORACLES",
    "FaultSchedule",
    "Oracle",
    "OracleMismatch",
    "OracleReport",
    "result_fingerprint",
    "run_oracles",
    "CorpusDB",
    "CorpusEntry",
    "FuzzStats",
    "replay_entry",
    "run_fuzz",
    "shrink_schedule",
]
