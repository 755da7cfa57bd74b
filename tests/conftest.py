"""Shared test configuration: hypothesis profiles.

Three profiles, selected with ``HYPOTHESIS_PROFILE``:

* ``default`` — what developers get locally: derandomized (failures
  reproduce run-to-run) with each test's own example budget.
* ``ci`` — same settings, spelled out for the per-push CI job.
* ``nightly`` — the extended adversarial sweep: randomization ON (each
  night explores fresh schedules) and the example budget raised; a
  failure's reproduction command is printed by hypothesis and the
  ``repro-mpi verify`` step uploads its own derandomized failing-seed
  artifact.

Per-test ``@settings(max_examples=...)`` decorations intentionally
still win where present — the profile raises the budget only for tests
that inherit it.

Tests marked ``nightly`` are too slow for tier-1: they run only under
the ``nightly`` profile and are skipped otherwise.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile("default", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.register_profile(
    "nightly",
    deadline=None,
    derandomize=False,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "nightly: too slow for tier-1; runs under HYPOTHESIS_PROFILE=nightly"
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HYPOTHESIS_PROFILE") == "nightly":
        return
    skip = pytest.mark.skip(reason="nightly only (HYPOTHESIS_PROFILE=nightly)")
    for item in items:
        if "nightly" in item.keywords:
            item.add_marker(skip)
