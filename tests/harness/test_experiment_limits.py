"""Tests for experiment memory-limit handling (mirroring the paper's own
omissions) and render formatting."""

import hashlib

import pytest

from repro.harness import PLANNERS, run_plans
from repro.harness.experiments import (
    _fmt_size,
    _memory_limited,
    plan_fig5a,
    plan_fig5b,
    plan_fig8,
)
from repro.harness.spec import spec_hash


def test_memory_limited_cells_match_paper():
    """The paper: alltoall/allgather 'do not support a message size of
    1 MB over 1024 and 2048 processes'; our scaled analog caps at 16."""
    assert _memory_limited("alltoall", 1 << 20, 32)
    assert _memory_limited("allgather", 1 << 20, 32)
    assert not _memory_limited("alltoall", 1 << 20, 16)
    assert not _memory_limited("alltoall", 1024, 2048)
    assert not _memory_limited("bcast", 1 << 20, 2048)
    assert not _memory_limited("allreduce", 1 << 20, 2048)


def test_fig5a_skips_limited_cells():
    (res,) = run_plans([PLANNERS["fig5a"](
        procs=(8, 32), kinds=("alltoall",), sizes=(1 << 20,), iters=4
    )])
    procs_covered = {row[2] for row in res.rows}
    assert 8 in procs_covered
    assert 32 not in procs_covered
    assert "memory" in res.notes


#: (spec count, sha256 over the space-joined spec hashes) of Figure 5's
#: OSU grids, recorded before fig5a and fig5b shared a grid builder: at
#: the planners' defaults and at the end-to-end benchmark's workload
#: sizes (``benchmarks/e2e/workloads.py`` ``SCALES``, full and smoke);
#: and of Figure 8 at its defaults, recorded when its ppn defaulted to
#: the first process count (8 at the default counts).
GRID_PINS = [
    (plan_fig5a, {}, 102,
     "e01f4f50f08b4f964eab1872c4a19cae9e3e0f2bfb046611dcbe8382483367e7"),
    (plan_fig5a, dict(procs=(8, 16), sizes=(4, 1024, 65536), iters=10), 72,
     "59237bc2d7a7b2b33b4b0b1a48c4fbc28891ddaa8f33493ead7b038ff8348609"),
    (plan_fig5a, dict(procs=(4,), kinds=("bcast", "allreduce"),
                      sizes=(4, 1024), iters=4), 12,
     "ba1d8b3089185429b9217bb468e6d44350c91a1f50bc4e207aef8c66fcb523cd"),
    (plan_fig5b, {}, 102,
     "5faaa29335ce886918cb531141c39c8c9c374d596f442a99321aa81a4ab74232"),
    (plan_fig5b, dict(procs=(8, 16), sizes=(1024, 65536), iters=8), 48,
     "4348015f3a6333aaa98b966a93ccffef02aa4306bd8a684986b131a8d8fc2fd1"),
    (plan_fig5b, dict(procs=(4,), kinds=("allreduce",), sizes=(1024,),
                      iters=3), 3,
     "ad8b536990e956ec21b57f8517ed044440ae01d928e41bed2c2ada767446da77"),
    (plan_fig8, {}, 18,
     "a25ce64aa357b8a3bfccaccfec45f2477e8016f3df0e17243d6bfe640526e584"),
]


@pytest.mark.parametrize("planner,kwargs,count,digest", GRID_PINS)
def test_grid_spec_hashes_are_pinned(planner, kwargs, count, digest):
    specs = planner(**kwargs).specs
    joined = " ".join(spec_hash(spec) for spec in specs)
    assert len(specs) == count
    assert hashlib.sha256(joined.encode()).hexdigest() == digest


def test_fig8_cell_layout_does_not_depend_on_the_other_counts():
    alone = plan_fig8(procs=(256,)).specs
    among = [s for s in plan_fig8(procs=(128, 256)).specs if s.nprocs == 256]
    assert len(alone) == 6
    assert alone == among


@pytest.mark.parametrize("kwargs,ppn", [({}, 8), ({"ppn": 4}, 4), ({"ppn": 16}, 16)])
def test_fig8_cells_fill_nodes_of_ppn_ranks(kwargs, ppn):
    specs = plan_fig8(procs=(16, 32), **kwargs).specs
    assert {s.nprocs for s in specs} == {16, 32}
    assert {s.ppn for s in specs} == {ppn}


def test_fmt_size():
    assert _fmt_size(4) == "4B"
    assert _fmt_size(1024) == "1KB"
    assert _fmt_size(1 << 20) == "1MB"
    assert _fmt_size(4 << 20) == "4MB"
