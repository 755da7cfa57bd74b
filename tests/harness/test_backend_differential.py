"""Whole-run differential: the src kernel against the tests-side reference.

How a simulated process suspends never changes *what* the schedule
does.  These tests run the pinned Figure 5a fingerprint scenario and a
fault-injection oracle seed twice — once as shipped, once with the one
place the harness builds a simulator (``repro.harness.runner.Simulator``)
patched to the thread-handoff reference in ``tests/des/reference_kernel.py``
— and require the same event counts and result hash the seed kernel
produced (the constants in ``test_determinism_fingerprint``) and the
same oracle verdict detail.
"""

import sys
from pathlib import Path

import pytest

from repro.harness import ExperimentEngine, runner
from repro.harness.experiments import plan_fig5a
from repro.harness.spec import run_result_to_dict
from repro.harness.verify import run_oracles
from repro.util.hashing import stable_json_hash

from test_determinism_fingerprint import EXPECTED_EVENTS, EXPECTED_RESULT_HASH

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "des"))
from reference_kernel import ReferenceSimulator  # noqa: E402


def _use_reference(monkeypatch):
    """Patch the harness's one simulator construction site; returns a
    callable reporting how many reference simulators were built, so a
    patch that stopped reaching the runner cannot pass vacuously."""
    built = []

    class Counted(ReferenceSimulator):
        def __init__(self, **kwargs):
            built.append(1)
            super().__init__(**kwargs)

    monkeypatch.setattr(runner, "Simulator", Counted)
    return lambda: len(built)


@pytest.mark.parametrize("kernel", ["src", "reference"])
def test_fig5a_fingerprint_identical_across_kernels(kernel, monkeypatch):
    built = _use_reference(monkeypatch) if kernel == "reference" else None
    plan = plan_fig5a(procs=(4,), kinds=("bcast",), sizes=(1024,), iters=20)
    results = ExperimentEngine(jobs=1).run_batch(plan.specs)
    events = {spec.label(): results[spec].sim_events for spec in plan.specs}
    rhash = stable_json_hash(
        [run_result_to_dict(results[spec]) for spec in plan.specs]
    )
    assert events == EXPECTED_EVENTS
    assert rhash == EXPECTED_RESULT_HASH
    assert built is None or built() >= len(plan.specs)


def test_oracle_seed_verdict_identical_across_kernels(monkeypatch):
    # One fault-injection oracle seed: the serialized verdict (flag +
    # detail string, which embeds simulated quantities) must match.
    def verdict():
        reports = run_oracles(["safe-cut"], [7])
        assert len(reports) == 1
        assert reports[0].ok, reports[0].detail
        return reports[0]

    src = verdict()
    built = _use_reference(monkeypatch)
    assert verdict() == src
    assert built() > 0
