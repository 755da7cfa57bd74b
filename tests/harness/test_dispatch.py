"""The job fan-out: one function, where the jobs run read off its inputs.

The contract is absolute: fan-out may change *where* a job runs and
*how long* the list takes, never a value.  These tests pin the order and
the byte-identity of a mixed simulation/check payload list in-process,
over a two-worker pool and through a live service, and that nothing but
``service=``/``jobs=`` (``--service``/``--jobs``) can choose between
them; the service's own behaviours are in ``test_service.py``.
"""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import resolve_dispatch
from repro.harness.cache import ResultCache
from repro.harness.dispatch import (
    DispatchError,
    connect,
    fan_out,
    parse_address,
)
from repro.harness.engine import DEFAULT_MAX_EVENTS, ExperimentEngine
from repro.harness.service import ExperimentServer, run_worker
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
        {"kind": "sim", "spec": spec, "deps": {},
         "guard": DEFAULT_MAX_EVENTS, "cache_dir": None}
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
            assert value["duration"] > 0
            out.append([index, value["report"]])
        else:
            result, _elapsed, served, cached = value
            out.append([index, run_result_to_dict(result), served, cached])
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

    def test_pool_and_service_match_in_process_byte_for_byte(self, tmp_path):
        payloads = _mixed_payloads()
        reference = _canonical(fan_out(payloads, jobs=1))

        pooled = list(fan_out(payloads, jobs=2))
        assert sorted(index for index, _ in pooled) == [0, 1, 2, 3, 4]
        assert _canonical(pooled) == reference

        server = ExperimentServer("127.0.0.1", 0, cache_dir=tmp_path / "store")
        host, port = server.start()
        worker = threading.Thread(
            target=run_worker, args=((host, port),), daemon=True
        )
        worker.start()
        try:
            with connect(f"{host}:{port}") as conn:
                served = list(fan_out(payloads, service=conn))
        finally:
            server.shutdown()
            worker.join(timeout=30)
        assert sorted(index for index, _ in served) == [0, 1, 2, 3, 4]
        assert _canonical(served) == reference

    def test_identical_payloads_each_get_their_pair(self, tmp_path):
        # Same content key server-side: one job, every index answered.
        payloads = [_mixed_payloads()[1]] * 2
        server = ExperimentServer("127.0.0.1", 0, cache_dir=tmp_path / "store")
        host, port = server.start()
        worker = threading.Thread(
            target=run_worker, args=((host, port),),
            kwargs={"max_jobs": 1}, daemon=True,
        )
        worker.start()
        try:
            with connect(f"{host}:{port}") as conn:
                pairs = dict(fan_out(payloads, service=conn))
        finally:
            server.shutdown()
            worker.join(timeout=30)
        assert sorted(pairs) == [0, 1] and pairs[0] == pairs[1]

    def test_a_failing_job_raises_out_of_the_pool(self):
        bad = {"kind": "check", "oracle": "no-such-oracle", "schedule": {},
               "cache_dir": None}
        with pytest.raises(KeyError, match="no-such-oracle"):
            list(fan_out([bad, bad], jobs=2))

    def test_engine_job_body_is_the_one_simulation_body(self, monkeypatch):
        from repro.harness import engine as engine_mod

        seen = []
        real = engine_mod._execute_job

        def spy(spec, deps, guard, cache_dir=None):
            seen.append(spec)
            return real(spec, deps, guard, cache_dir)

        monkeypatch.setattr(engine_mod, "_execute_job", spy)
        specs = _specs(2)
        ExperimentEngine().run_batch(specs)
        assert sorted(seen, key=str) == sorted(specs, key=str)


class TestTheChoiceIsDerived:
    def test_no_address_means_local(self):
        assert resolve_dispatch(None) == "local-pool"
        assert resolve_dispatch("127.0.0.1:7463") == "service"
        with connect(None) as conn:
            assert conn is None

    def test_parse_address(self):
        assert parse_address("localhost:80") == ("localhost", 80)
        with pytest.raises(DispatchError):
            parse_address("no-port")
        with pytest.raises(DispatchError):
            parse_address("host:notanint")

    def test_malformed_service_address_fails_at_construction(self):
        # Not waves later, mid-batch.
        with pytest.raises(DispatchError, match="HOST:PORT"):
            ExperimentEngine(service="nowhere")

    def test_unreachable_service_is_loud(self):
        with ExperimentEngine(service="127.0.0.1:1") as eng:
            with pytest.raises(DispatchError, match="cannot reach"):
                eng.run_batch(_specs(1))

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
        from repro.harness.verify import run_oracles

        with pytest.raises(TypeError):
            ExperimentEngine(dispatch="inline")
        with pytest.raises(TypeError):
            run_oracles(["safe-cut"], [0], dispatch="inline")
        with pytest.raises(TypeError):
            run_fuzz(CorpusDB(tmp_path / "c"), iters=1, dispatch="inline")


class TestEngineDifferential:
    """``jobs=1`` and ``jobs=2`` engines produce byte-identical batches."""

    def test_pool_matches_in_process(self):
        specs = _specs()
        with ExperimentEngine(cache=None, progress=False) as eng:
            reference = _batch_json(eng.run_batch(specs))
        with ExperimentEngine(cache=None, progress=False, jobs=2) as eng:
            assert _batch_json(eng.run_batch(specs)) == reference

    def test_warm_cache_is_respected(self, tmp_path):
        specs = _specs()
        with ExperimentEngine(cache=ResultCache(tmp_path)) as eng:
            cold = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == len(specs)
        with ExperimentEngine(cache=ResultCache(tmp_path), jobs=2) as eng:
            warm = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == 0
            assert eng.last_stats.cache_hits == len(specs)
        assert warm == cold


class TestVerifyHonoursTheCacheWhereverChecksRun:
    ARGS = ["verify", "--oracle", "rank-completion", "--seeds", "2", "--quiet"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cache_dir_is_written_and_serves_the_rerun(
        self, tmp_path, capsys, jobs
    ):
        cache_dir = tmp_path / "cache"
        argv = [*self.ARGS, "--jobs", jobs, "--cache-dir", str(cache_dir),
                "--artifact", str(tmp_path / "f.json")]
        assert main(argv) == 0
        cold = capsys.readouterr().out.splitlines()[0]
        entries = len(ResultCache(cache_dir))
        assert entries > 0
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == cold
        assert len(ResultCache(cache_dir)) == entries


# --------------------------------------------------------------------- #
# Real processes: serve + worker + a client, against --jobs 2
# --------------------------------------------------------------------- #

SWEEP = [
    "sweep", "--axis", "app=comd,poisson", "--axis", "protocol=native,cc",
    "--axis", "nprocs=2", "--base", "niters=3", "--pivot", "protocol",
    "--baseline", "native", "--no-cache", "--quiet",
]


def _cli(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs,
    )


def _tables(stdout: str) -> str:
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("[")
    )


def test_serve_worker_and_client_processes_match_a_local_pool(tmp_path):
    local = _cli(*SWEEP, "--jobs", "2")
    server = _cli("serve", "--port", "0", "--cache-dir", str(tmp_path / "store"),
                  "--quiet")
    worker = None
    try:
        banner = server.stderr.readline()
        addr = re.search(r"listening on (\S+:\d+)", banner).group(1)
        worker = _cli("worker", "--connect", addr, "--quiet")
        client = _cli(*SWEEP, "--service", addr)
        served_out, served_err = client.communicate(timeout=120)
        assert client.returncode == 0, served_err
        local_out, local_err = local.communicate(timeout=120)
        assert local.returncode == 0, local_err
        assert "4 simulated" in served_out
        assert _tables(served_out) == _tables(local_out)
        assert "comd" in _tables(served_out)
    finally:
        server.terminate()
        for proc in (server, worker, local):
            if proc is None:
                continue
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    # The server going away is what releases the worker.
    assert worker.returncode == 0
