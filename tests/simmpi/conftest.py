"""Drive the simulated MPI the way applications do.

``run_ranks(fn, nprocs, **launch_kwargs)`` runs ``fn(ctx)`` on every
rank of a native job through :func:`repro.harness.runner.launch_run`
and returns its :class:`~repro.harness.runner.RunResult`: ``per_rank``
holds each rank's return value.  ``fn`` talks MPI through ``ctx.world``
(a :class:`~repro.mana.vcomm.VirtualComm`) and models time with
``ctx.compute`` and ``ctx.now``.  Session-scoped, so Hypothesis tests
may take it.
"""

from types import SimpleNamespace

import pytest

from repro.harness.runner import launch_run


@pytest.fixture(scope="session")
def run_ranks():
    def run(fn, nprocs, **launch_kwargs):
        app = SimpleNamespace(name="fn", run=fn)
        return launch_run(lambda: app, nprocs, protocol="native", **launch_kwargs)

    return run
