"""Tests for experiment memory-limit handling (mirroring the paper's own
omissions) and render formatting."""

import hashlib

import pytest

from repro.harness import PLANNERS, STUDIES, ExperimentEngine, run_plans
from repro.harness.experiments import (
    _fmt_size,
    plan_fig5a,
    plan_fig5b,
    plan_fig6,
    plan_fig7,
    plan_fig8,
    plan_fig9,
    plan_table1,
)
from repro.harness.spec import SpecError, spec_hash
from repro.harness.sweep import Sweep, mask_paper_memory_limit


def test_memory_limited_cells_match_paper():
    """The paper: alltoall/allgather 'do not support a message size of
    1 MB over 1024 and 2048 processes'; our scaled analog caps at 16."""

    def limited(kind, nbytes, nprocs):
        point = {"kind": kind, "nbytes": nbytes, "nprocs": nprocs}
        return mask_paper_memory_limit(point) is not None

    assert limited("alltoall", 1 << 20, 32)
    assert limited("allgather", 1 << 20, 32)
    assert not limited("alltoall", 1 << 20, 16)
    assert not limited("alltoall", 1024, 2048)
    assert not limited("bcast", 1 << 20, 2048)
    assert not limited("allreduce", 1 << 20, 2048)


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
#: the first process count (8 at the default counts).  Table 1 and
#: Figures 6, 7 and 9 at their defaults were recorded while the planners
#: still spelled the protocol tuples out, before they read
#: ``repro.core.PROTOCOLS``.  Figure 6 at the benchmark's sizes and
#: Table 1 at the ``apps_p2p`` size were recorded while the figure
#: planners still built their grids from hand-written loops, before they
#: became ``Sweep`` declarations.
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
    (plan_table1, {}, 6,
     "4d71d890a4c1a5c567023506f75e82c084f92a11e543ea1ff2ca7337fe1403d6"),
    (plan_fig6, {}, 32,
     "fbeeef415b7f2936f624a56af1b98c247f57eafe5a9c201dd629942e4e59c371"),
    (plan_fig7, {}, 30,
     "83885059e88fd03282b5d354fa73277946cbc72486e35467e1255dc30d89993a"),
    (plan_fig9, {}, 16,
     "aa00dd4fb01b74c8695dd4bf30aa58fd441d8b76b1d29e758e2ca17b072ef9b3"),
    (plan_fig6, dict(procs=(8, 16), sizes=(1024, 131072), iters=6), 32,
     "093ea499139e5d0b58fd9bb0b68e5cd85299cf3c83650e465355877e9ab0124e"),
    (plan_fig6, dict(procs=(4,), kinds=("bcast",), sizes=(1024,), iters=3), 2,
     "4d5466fb781136d8bcbbfd6d9d9934bf8625f6ec50f76913bc26f0a11edb5183"),
    (plan_table1, dict(nprocs=8, ppn=4), 6,
     "1729540fadba152d0cf054cf83e1c56db78c040ea2abd42522d17db2732047f5"),
]


@pytest.mark.parametrize("planner,kwargs,count,digest", GRID_PINS)
def test_grid_spec_hashes_are_pinned(planner, kwargs, count, digest):
    specs = planner(**kwargs).specs
    joined = " ".join(spec_hash(spec) for spec in specs)
    assert len(specs) == count
    assert hashlib.sha256(joined.encode()).hexdigest() == digest


#: ``Sweep.signature()`` of each study at its defaults (cells, mask
#: verdicts and spec hashes), recorded with the planner tuples above.
STUDY_PINS = {
    "scale_grid": "fff74cbf02d6c100",
    "ckpt_freq": "a609fbdc03ba7cfd",
    "restart_chain": "573cf8c61d4ee753",
}


@pytest.mark.parametrize("name", sorted(STUDY_PINS))
def test_study_signatures_are_pinned(name, monkeypatch):
    declared = []
    plan = Sweep.plan

    def record(self, **fold_kwargs):
        declared.append(self)
        return plan(self, **fold_kwargs)

    monkeypatch.setattr(Sweep, "plan", record)
    STUDIES[name]()
    (sweep,) = declared
    assert sweep.signature() == STUDY_PINS[name]


#: sha256 of the rendered table of every figure at a tiny scale.  Figures
#: 7, 8 and 9 were recorded with the planner tuples above; Figures 5a
#: (a memory-limited cell included), 5b (2PC NA notes included), 6 and
#: Table 1 with the grid pins recorded before the figures became
#: ``Sweep`` declarations.
RENDER_PINS = [
    (plan_fig5a, dict(procs=(2, 32), kinds=("alltoall",), sizes=(4, 1 << 20),
                      iters=2),
     "da9a06d6748424326bf16f74e57c279cf59ae94fa3b32647f50855b0a1de66ee"),
    (plan_fig5b, dict(procs=(2,), kinds=("bcast", "allreduce"), sizes=(4,),
                      iters=2),
     "18a677df7ff14da4944b75056afab61bf3e835692e5e26412833576b72cb8028"),
    (plan_fig6, dict(procs=(2,), kinds=("bcast", "alltoall"), sizes=(1024,),
                     iters=12),
     "f8639e52ff8c4ae6225ca6935e7697a5a0a69990b44e416f36051fbac7b1e4e5"),
    (plan_table1, dict(nprocs=4, ppn=2),
     "b7ffd46f98c04ddb76dfd28fdb844df302be66884e40510a21f1e58597276ed5"),
    (plan_fig7, dict(nprocs=4, ppn=2, repeats=1),
     "4456e6a222db251c09835996e683932ceb655186f27c3e1e0c800aadf39bbc33"),
    (plan_fig8, dict(procs=(4,), ppn=2, repeats=1, niters=4),
     "a8ce42f366f318e0b87348066e076fbb5ea81ea85d201582ae3274a02d22047f"),
    (plan_fig9, dict(nodes=(1,), ppn=2, niters=4),
     "e07e96a464ba14836b321c12b9fdb2ff4137c3fb3a913bdae1c47a4dc1888475"),
]


@pytest.mark.parametrize("planner,kwargs,digest", RENDER_PINS,
                         ids=[p.__name__ for p, _, _ in RENDER_PINS])
def test_tiny_renders_are_pinned(planner, kwargs, digest):
    (result,) = run_plans([planner(**kwargs)], ExperimentEngine(jobs=1))
    assert hashlib.sha256(result.render().encode()).hexdigest() == digest


@pytest.mark.parametrize("planner,kwargs", [
    (plan_fig5a, dict(procs=(0,))),
    (plan_fig6, dict(procs=(4, 0))),
    (plan_fig7, dict(nprocs=0)),
    (plan_fig8, dict(procs=(0,))),
    (plan_fig9, dict(nodes=(0,))),
], ids=lambda v: getattr(v, "__name__", ""))
def test_a_bad_process_count_fails_the_plan(planner, kwargs):
    with pytest.raises(SpecError, match="nprocs must be >= 1"):
        planner(**kwargs)


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
