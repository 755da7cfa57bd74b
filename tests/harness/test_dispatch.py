"""The job-dispatch seam: backend resolution and in-process differentials.

The seam's contract is absolute: dispatch may change *where* a job runs
and *how long* the batch takes, never a result.  These tests pin the
resolution precedence (explicit > environment > auto)
and prove the `inline` and `local-pool` backends produce byte-identical
batches; the network backend gets the same treatment (plus its
service-only behaviors) in ``test_service.py``.
"""

import json
from dataclasses import replace

import pytest

from repro.harness.dispatch import (
    DISPATCH_BACKENDS,
    DispatchConfig,
    DispatchError,
    create_dispatch,
    parse_address,
    resolve_dispatch,
    resolve_service_addr,
)
from repro.harness.engine import ExperimentEngine
from repro.harness.spec import RunSpec, run_result_to_dict


@pytest.fixture(autouse=True)
def _clean_dispatch_state(monkeypatch):
    monkeypatch.delenv("REPRO_DISPATCH", raising=False)
    monkeypatch.delenv("REPRO_SERVICE_ADDR", raising=False)


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


class TestResolution:
    def test_auto_defaults_to_local_pool(self):
        assert resolve_dispatch(None) == "local-pool"
        assert resolve_dispatch("auto") == "local-pool"

    def test_auto_prefers_service_when_addr_known(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_ADDR", "127.0.0.1:7463")
        assert resolve_dispatch(None) == "service"

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "local-pool")
        monkeypatch.setenv("REPRO_SERVICE_ADDR", "127.0.0.1:7463")
        assert resolve_dispatch("inline") == "inline"

    def test_env_beats_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "inline")
        assert resolve_dispatch(None) == "inline"

    def test_unknown_name_is_loud(self):
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            resolve_dispatch("carrier-pigeon")

    def test_malformed_env_var_names_itself(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "carrier-pigeon")
        with pytest.raises(ValueError, match=r"\$REPRO_DISPATCH='carrier-pigeon'"):
            resolve_dispatch(None)

    def test_every_advertised_backend_instantiates(self):
        for name in DISPATCH_BACKENDS:
            if name == "service":
                continue  # needs an address; covered below
            backend = create_dispatch(name, DispatchConfig())
            backend.close()

    def test_service_without_address_is_loud(self):
        with pytest.raises(DispatchError, match="HOST:PORT"):
            resolve_service_addr(None)
        with pytest.raises(DispatchError):
            create_dispatch("service", DispatchConfig())

    def test_parse_address(self):
        assert parse_address("localhost:80") == ("localhost", 80)
        with pytest.raises(DispatchError):
            parse_address("no-port")
        with pytest.raises(DispatchError):
            parse_address("host:notanint")

    def test_engine_resolves_service_addr_at_construction(self):
        # Asking for the service backend with no address anywhere must
        # fail when the engine is built, not waves later mid-batch.
        with pytest.raises(DispatchError):
            ExperimentEngine(cache=None, dispatch="service")


class TestBackendMechanics:
    def test_drain_yields_every_handle_exactly_once(self):
        backend = create_dispatch("inline", DispatchConfig())
        specs = _specs(3)
        handles = [backend.submit(spec, {}) for spec in specs]
        drained = list(backend.drain())
        assert sorted(id(j) for j in drained) == sorted(
            id(j) for j in handles
        )
        assert all(job.done for job in handles)

    def test_result_mixes_with_drain(self):
        backend = create_dispatch("inline", DispatchConfig())
        specs = _specs(2)
        first = backend.submit(specs[0], {})
        second = backend.submit(specs[1], {})
        result, elapsed, served, cached = second.result()
        assert result.runtime > 0 and not cached
        # The other handle still resolves (inline runs in order, so it
        # was executed on the way to `second`).
        assert first.done

    def test_check_job_reports_duration(self):
        from repro.harness.verify import FaultSchedule, schedule_to_dict

        backend = create_dispatch("inline", DispatchConfig())
        schedule = schedule_to_dict(FaultSchedule.draw(3))
        value = backend.submit_check("safe-cut", schedule).result()
        assert value["report"]["oracle"] == "safe-cut"
        assert value["duration"] > 0

    def test_pending_handles_do_not_accumulate(self):
        backend = create_dispatch("inline", DispatchConfig())
        for spec in _specs(3):
            backend.submit(spec, {}).result()
        # Resolved handles are pruned at the next submission, so a fuzz
        # run submitting thousands of checks stays O(outstanding).
        backend.submit(_specs(1)[0], {})
        assert len(backend._pending) == 1


class TestInlineIsLocalPoolAtOneJob:
    """``inline`` is a configuration of ``local-pool``, not a second
    implementation: same mixed submission list, same results, same
    order."""

    def test_mixed_submissions_resolve_identically(self):
        from repro.harness.verify import FaultSchedule, schedule_to_dict

        cfg = DispatchConfig(jobs=4, guard=10**8)
        schedule = schedule_to_dict(FaultSchedule.draw(3))
        specs = _specs(3)

        def run(backend):
            with backend:
                handles = [
                    backend.submit(specs[0], {}),
                    backend.submit_check("safe-cut", schedule),
                    backend.submit(specs[1], {}),
                    backend.submit_check("drain-conservation", schedule),
                    backend.submit(specs[2], {}),
                ]
                order = [handles.index(job) for job in backend.drain()]
            values = []
            for job in handles:
                value = job.result()
                if job.kind == "check":
                    values.append(value["report"])
                else:
                    result, _elapsed, served, cached = value
                    values.append([run_result_to_dict(result), served, cached])
            return order, json.dumps(values, sort_keys=True)

        inline = run(create_dispatch("inline", cfg))
        pool = run(create_dispatch("local-pool", replace(cfg, jobs=1)))
        assert inline == pool
        assert inline[0] == [0, 1, 2, 3, 4]  # submission order, in-process


class TestInProcessDifferential:
    """inline and local-pool engines produce byte-identical batches."""

    def test_inline_matches_local_pool(self, tmp_path):
        specs = _specs()
        with ExperimentEngine(
            cache=None, progress=False, dispatch="local-pool"
        ) as eng:
            reference = _batch_json(eng.run_batch(specs))
        with ExperimentEngine(
            cache=None, progress=False, dispatch="inline"
        ) as eng:
            assert _batch_json(eng.run_batch(specs)) == reference

    def test_inline_respects_warm_cache(self, tmp_path):
        from repro.harness.cache import ResultCache

        specs = _specs()
        with ExperimentEngine(
            cache=ResultCache(tmp_path), progress=False, dispatch="inline"
        ) as eng:
            cold = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == len(specs)
        with ExperimentEngine(
            cache=ResultCache(tmp_path), progress=False, dispatch="inline"
        ) as eng:
            warm = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == 0
            assert eng.last_stats.cache_hits == len(specs)
        assert warm == cold
