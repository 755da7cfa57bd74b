"""The job fan-out: one function, where the jobs run read off ``jobs``.

The contract is absolute: fan-out may change *where* a job runs and
*how long* the list takes, never a value.  These tests pin the order and
the byte-identity of a mixed simulation/check payload list in-process
and over a two-worker pool, and that nothing but ``jobs=`` (``--jobs``)
can choose between them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import resolve_dispatch
from repro.harness.cache import ResultCache
from repro.harness.dispatch import fan_out
from repro.harness.engine import ExperimentEngine
from repro.harness.spec import RunSpec, run_result_to_dict
from repro.harness.verify import FaultSchedule, check_payload

SRC = Path(__file__).resolve().parents[2] / "src"

def _specs(n=3):
    return [
        RunSpec.create("comd", 2, app_kwargs={"niters": 3}, seed=seed)
        for seed in range(n)
    ]


def _batch_json(results):
    return json.dumps(
        [run_result_to_dict(results[s]) for s in sorted(results, key=str)],
        sort_keys=True,
    )


def _mixed_payloads():
    """Simulations and oracle checks interleaved, one list."""
    schedule = FaultSchedule.draw(3)
    sims = [
        {"kind": "sim", "spec": spec, "deps": {}, "cache_dir": None}
        for spec in _specs(3)
    ]
    return [
        sims[0],
        check_payload("safe-cut", schedule),
        sims[1],
        check_payload("drain-conservation", schedule),
        sims[2],
    ]


def _canonical(pairs):
    """``(index, value)`` pairs as comparable bytes, in index order."""
    out = []
    for index, value in sorted(pairs, key=lambda pair: pair[0]):
        if isinstance(value, dict):
            out.append([index, value])
        else:
            result, _elapsed, served = value
            out.append([index, run_result_to_dict(result), served])
    return json.dumps(out, sort_keys=True)


class TestFanOut:
    def test_in_process_yields_in_submission_order(self):
        pairs = list(fan_out(_mixed_payloads(), jobs=1))
        assert [index for index, _ in pairs] == [0, 1, 2, 3, 4]

    def test_single_payload_never_needs_a_pool(self, monkeypatch):
        from repro.harness import dispatch

        monkeypatch.setattr(dispatch, "ProcessPoolExecutor", None)
        [(index, value)] = fan_out(_mixed_payloads()[:1], jobs=8)
        assert index == 0 and value[0].runtime > 0

    def test_empty_list_is_empty(self):
        assert list(fan_out([], jobs=2)) == []

    def test_pool_matches_in_process_byte_for_byte(self):
        payloads = _mixed_payloads()
        reference = _canonical(fan_out(payloads, jobs=1))

        pooled = list(fan_out(payloads, jobs=2))
        assert sorted(index for index, _ in pooled) == [0, 1, 2, 3, 4]
        assert _canonical(pooled) == reference

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_identical_payloads_each_get_their_pair(self, jobs):
        payloads = [_mixed_payloads()[1]] * 2
        pairs = dict(fan_out(payloads, jobs=jobs))
        assert sorted(pairs) == [0, 1]
        assert pairs[0] == pairs[1]

    def test_a_failing_job_raises_out_of_the_pool(self):
        bad = {"kind": "check", "oracle": "no-such-oracle", "schedule": {}}
        with pytest.raises(KeyError, match="no-such-oracle"):
            list(fan_out([bad, bad], jobs=2))

    def test_a_failing_job_raises_in_process(self):
        bad = {"kind": "check", "oracle": "no-such-oracle", "schedule": {}}
        with pytest.raises(KeyError, match="no-such-oracle"):
            list(fan_out([bad, bad], jobs=1))

    def test_engine_job_body_is_the_one_simulation_body(self, monkeypatch):
        from repro.harness import engine as engine_mod

        seen = []
        real = engine_mod._execute_job

        def spy(spec, deps, cache_dir=None):
            seen.append(spec)
            return real(spec, deps, cache_dir)

        monkeypatch.setattr(engine_mod, "_execute_job", spy)
        specs = _specs(2)
        ExperimentEngine().run_batch(specs)
        assert sorted(seen, key=str) == sorted(specs, key=str)


class TestTheChoiceIsDerived:
    def test_jobs_run_here(self):
        assert resolve_dispatch(None) == "local-pool"

    def test_exported_service_address_does_not_reroute_an_engine(
        self, monkeypatch
    ):
        # Nothing listens there: an engine that honoured the variable
        # would fail to connect instead of simulating.
        monkeypatch.setenv("REPRO_SERVICE_ADDR", "127.0.0.1:1")
        monkeypatch.setenv("REPRO_DISPATCH", "service")
        eng = ExperimentEngine()
        results = eng.run_batch(_specs(1))
        assert eng.last_stats.executed == 1 and len(results) == 1

    def test_removed_parameters_are_type_errors(self, tmp_path):
        from repro.harness.fuzz import CorpusDB, run_fuzz
        from repro.harness.recovery import run_recovery
        from repro.harness.verify import run_oracles

        for removed in ({"dispatch": "inline"}, {"service": "127.0.0.1:7463"}):
            with pytest.raises(TypeError):
                ExperimentEngine(**removed)
            with pytest.raises(TypeError):
                run_oracles(["safe-cut"], [0], **removed)
            with pytest.raises(TypeError):
                run_fuzz(CorpusDB(tmp_path / "c"), iters=1, **removed)
            with pytest.raises(TypeError):
                list(fan_out(_mixed_payloads()[:1], **removed))
        # Recovery and the event guard are not the engine's business.
        for removed in ({"recovery": True}, {"max_events": 10}):
            with pytest.raises(TypeError):
                ExperimentEngine(**removed)
        with pytest.raises(TypeError):
            run_oracles(["safe-cut"], [0], engine=None)
        with pytest.raises(TypeError):
            run_recovery(_specs(1)[0], engine=None)


class TestEngineDifferential:
    """``jobs=1`` and ``jobs=2`` engines produce byte-identical batches."""

    def test_pool_matches_in_process(self):
        specs = _specs()
        eng = ExperimentEngine(cache=None, progress=False)
        reference = _batch_json(eng.run_batch(specs))
        eng = ExperimentEngine(cache=None, progress=False, jobs=2)
        assert _batch_json(eng.run_batch(specs)) == reference

    def test_warm_cache_is_respected(self, tmp_path):
        specs = _specs()
        eng = ExperimentEngine(cache=ResultCache(tmp_path))
        cold = _batch_json(eng.run_batch(specs))
        assert eng.last_stats.executed == len(specs)
        eng = ExperimentEngine(cache=ResultCache(tmp_path), jobs=2)
        warm = _batch_json(eng.run_batch(specs))
        assert eng.last_stats.executed == 0
        assert eng.last_stats.cache_hits == len(specs)
        assert warm == cold


# --------------------------------------------------------------------- #
# Real processes: the module entry point at --jobs 1 and --jobs 2
# --------------------------------------------------------------------- #

SWEEP = [
    "sweep", "--axis", "app=comd,poisson", "--axis", "protocol=native,cc",
    "--axis", "nprocs=2", "--base", "niters=3", "--pivot", "protocol",
    "--baseline", "native", "--no-cache", "--quiet",
]


def _tables(stdout: str) -> str:
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("[")
    )


def test_entry_point_pool_matches_in_process():
    # Spawned workers re-import the parent's ``__main__``; under
    # ``python -m repro.cli`` that is the CLI module itself.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outputs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *SWEEP, "--jobs", jobs],
            env=env, text=True, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "4 simulated" in proc.stdout
        outputs.append(_tables(proc.stdout))
    assert outputs[0] == outputs[1]
    assert "comd" in outputs[0]
