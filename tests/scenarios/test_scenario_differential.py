"""Differential scenario battery: every scenario, every execution seam.

Each registered scenario is run under both checkpoint protocols and
pinned to a result hash captured at introduction time — a scenario that
silently changes its simulated physics moves a constant here.  The same
specs are then pushed through every place the harness can run a job:
this process, a two-worker pool, and an experiment service.  A scenario may change *what* the simulation does, never
*whether* it is reproducible.
"""

import threading

import pytest

from repro.harness.engine import ExperimentEngine
from repro.harness.service import ExperimentServer, run_worker
from repro.harness.spec import RunSpec, run_result_to_dict
from repro.scenarios import SCENARIOS
from repro.util.hashing import stable_json_hash

# Captured when the scenario subsystem landed.  All ten constants are
# distinct: every scenario genuinely perturbs the run, under both
# protocols, and none of them collides with another's physics.  The
# app is minivasp (collectives *and* blocking p2p on the critical
# path), so fabric scenarios *and* the per-message jitter are all
# observable — eager sends consumed long after arrival would absorb a
# sub-microsecond latency wobble.
PINNED = {
    ("degraded-link", "2pc"): "05e7af30ac39f073",
    ("degraded-link", "cc"): "2504168d3c31d640",
    ("dragonfly", "2pc"): "69f6b0c21ed6bdf4",
    ("dragonfly", "cc"): "409429d6a8cece08",
    ("fat-tree", "2pc"): "f6ab0778564067e3",
    ("fat-tree", "cc"): "b6bd09e7bab4c736",
    ("jitter", "2pc"): "d5b8bc4011dd31b9",
    ("jitter", "cc"): "8cf4293de339a93e",
    ("straggler", "2pc"): "8b975c9b83dbdbd0",
    ("straggler", "cc"): "af4a05ebc990264f",
}

CELLS = sorted(PINNED)


def _mk(scenario, protocol):
    return RunSpec.create(
        "minivasp", 4,
        app_kwargs={"niters": 6},
        protocol=protocol,
        checkpoint_fractions=(0.5,),
        scenario=scenario,
    )


def _hash(result):
    return stable_json_hash(run_result_to_dict(result))


def test_battery_covers_every_registered_scenario():
    # A scenario added to the registry without a pinned fingerprint
    # here fails loudly instead of silently escaping the battery.
    assert {name for name, _ in PINNED} == set(SCENARIOS)
    assert {proto for _, proto in PINNED} == {"2pc", "cc"}


@pytest.mark.parametrize("scenario,protocol", CELLS)
def test_scenario_fingerprint_pinned(scenario, protocol):
    res = ExperimentEngine().run(_mk(scenario, protocol))
    assert not res.na_reason
    assert any(r.committed for r in res.checkpoints)
    assert _hash(res) == PINNED[(scenario, protocol)]


def test_parallel_workers_match_pins():
    specs = {cell: _mk(*cell) for cell in CELLS}
    results = ExperimentEngine(jobs=2).run_batch(list(specs.values()))
    for cell, spec in specs.items():
        assert _hash(results[spec]) == PINNED[cell], cell


def test_service_workers_match_pins(tmp_path):
    specs = {cell: _mk(*cell) for cell in CELLS}
    server = ExperimentServer("127.0.0.1", 0, cache_dir=tmp_path / "store")
    host, port = server.start()
    worker = threading.Thread(
        target=run_worker, args=((host, port),), daemon=True
    )
    worker.start()
    try:
        engine = ExperimentEngine(service=f"{host}:{port}")
        results = engine.run_batch(list(specs.values()))
        for cell, spec in specs.items():
            assert _hash(results[spec]) == PINNED[cell], cell
    finally:
        server.shutdown()
        worker.join(timeout=10)


@pytest.mark.parametrize("protocol", ("2pc", "cc"))
def test_scenario_changes_the_run(protocol):
    # The baseline (scenario-free) run must differ from every scenario
    # run: a scenario whose hooks are never reached would alias the
    # baseline hash and the whole battery would be vacuous.
    base = _hash(ExperimentEngine().run(_mk(None, protocol)))
    assert base not in PINNED.values()
