"""The claims ledger: the source paper's qualitative results, per figure.

Each test regenerates one table or figure of arXiv:2408.02218 at a
reduced scale (8 ranks where the paper has 128-2048) and asserts the
*shape* the paper reports — who wins, where NA appears, which way a
curve grows — so a refactor that silently bends a curve fails tier-1.
Absolute numbers are not pinned here (the determinism fingerprints in
``tests/harness`` do that); every threshold below has a wide margin at
this scale.

No cache is involved: each figure simulates once per session, cold.
"""

import dataclasses
from functools import lru_cache

from repro.apps import make_app_factory
from repro.harness import EXPERIMENTS
from repro.harness.runner import launch_run
from repro.netmodel import ModelParams
from repro.util.stats import overhead_pct

#: Reduced-scale arguments per figure.
SCALE = {
    "table1": dict(nprocs=8, ppn=4),
    "fig5a": dict(procs=(8,), iters=20),
    "fig5b": dict(procs=(8,), sizes=(4, 1 << 20), iters=20),
    "fig6": dict(procs=(8,), iters=20),
    "fig7": dict(nprocs=8, ppn=4, repeats=1),
    "fig8": dict(procs=(4, 8, 16), repeats=1, niters=6),
    "fig9": dict(nodes=(1, 2, 4), ppn=2, niters=6),
}


@lru_cache(maxsize=None)
def figure(name):
    return EXPERIMENTS[name](**SCALE[name])


# --------------------------------------------------------------------- #
# Table 1 and Figures 5-9
# --------------------------------------------------------------------- #

def test_table1_rate_ordering():
    """Collective rates: OSU >> miniVASP >> Poisson > CoMD > LAMMPS > SW4;
    Poisson has no p2p traffic; LAMMPS is the most p2p-dominated code."""
    rows = {row[0]: row for row in figure("table1").rows}
    assert list(rows) == [
        "osu (bcast 4B)", "minivasp", "poisson", "comd", "lammps", "sw4"
    ]
    coll = {app: float(row[1]) for app, row in rows.items()}
    assert coll["osu (bcast 4B)"] > 10 * coll["minivasp"]
    assert coll["minivasp"] > 10 * coll["poisson"]
    assert coll["poisson"] > coll["comd"] > coll["lammps"] > coll["sw4"]
    assert rows["poisson"][2] == "NA"
    p2p_per_coll = {
        app: float(row[2]) / coll[app] for app, row in rows.items() if row[2] != "NA"
    }
    assert max(p2p_per_coll, key=p2p_per_coll.get) == "lammps"


def test_fig5a_cc_beats_2pc_on_every_blocking_cell():
    rows = {
        (r[0], r[1]): (float(r[3]), float(r[4])) for r in figure("fig5a").rows
    }
    assert len(rows) == 12  # 4 kinds x {4B, 1KB, 1MB}
    for cell, (twopc, cc) in rows.items():
        assert cc < twopc, f"{cell}: CC {cc} !< 2PC {twopc}"
    # Small-message bcast is the flagship blow-up: the inserted barrier
    # destroys the loose tree (> 100 % under 2PC, CC stays moderate).
    twopc, cc = rows[("bcast", "4B")]
    assert twopc > 100.0 and cc < 30.0
    # At 1 MB the naturally synchronizing kinds are near-native for both.
    for kind in ("alltoall", "allreduce"):
        twopc, cc = rows[(kind, "1MB")]
        assert twopc < 10.0 and cc < 5.0


def test_fig5b_2pc_is_na_and_cc_overhead_decays_with_size():
    result = figure("fig5b")
    assert result.rows and all(row[3] == "NA" for row in result.rows)
    assert "NA[" in result.notes and "non-blocking" in result.notes
    cc = {(r[0], r[1]): float(r[4]) for r in result.rows}
    for kind in ("ibcast", "ialltoall", "iallreduce", "iallgather"):
        assert cc[(kind, "1MB")] < cc[(kind, "4B")], kind
        assert cc[(kind, "1MB")] < 5.0


def test_fig6_cc_keeps_the_native_overlap():
    for row in figure("fig6").rows:
        native, cc = float(row[3]), float(row[4])
        assert cc >= native - 10.0, f"{row[0]}/{row[1]}: CC lost overlap"
        if row[1] == "1MB":
            assert native > 80.0 and cc > 80.0
            assert abs(native - cc) < 3.0


def test_fig7_application_overheads():
    """miniVASP (collective-intensive) pays most under 2PC with CC well
    below it; the p2p codes are ~0 % under both; Poisson is NA under 2PC
    and runs under CC."""
    result = figure("fig7")
    rows = {row[0]: row for row in result.rows}
    assert list(rows) == ["minivasp", "sw4", "comd", "lammps", "poisson"]
    vasp = rows["minivasp"]
    assert float(vasp[4]) > 2 * float(vasp[5]), "2PC must cost > 2x CC on VASP"
    assert float(vasp[5]) < 2.0
    for app in ("sw4", "comd", "lammps"):
        assert abs(float(rows[app][4])) < 1.0 and abs(float(rows[app][5])) < 1.0
    assert rows["poisson"][2] == "NA" and rows["poisson"][4] == "NA"
    assert abs(float(rows["poisson"][5])) < 1.0
    assert "NA[poisson/2pc]" in result.notes


def test_fig8_2pc_grows_with_scale_and_cc_stays_flat():
    series = {s.name: s.ys for s in figure("fig8").series}
    twopc, cc = series["2PC %"], series["CC %"]
    assert all(a > b for a, b in zip(twopc, cc)), "2PC must exceed CC everywhere"
    assert max(cc) < 2.0
    assert twopc[-1] > twopc[0]


def test_fig9_checkpoint_and_restart_shapes():
    """Times grow once the file system's aggregate bandwidth saturates,
    and the two protocols stay close: the image write dominates."""
    series = {s.name: s.ys for s in figure("fig9").series}
    for phase in ("ckpt", "restart"):
        cc, twopc = series[f"CC {phase} (s)"], series[f"2PC {phase} (s)"]
        assert all(y > 0 for y in cc + twopc)
        assert cc[-1] > cc[0] and twopc[-1] > twopc[0]
        assert all(0.5 < a / b < 2.0 for a, b in zip(cc, twopc))


# --------------------------------------------------------------------- #
# Ablations: the three orderings behind the design choices
# --------------------------------------------------------------------- #

def _osu_bcast_overhead(protocol, *, params=None, jitter=None, poll_gap=None,
                        gap_compute=2.0e-7):
    """Runtime overhead % of ``protocol`` vs native on a 16-rank 4 B
    OSU bcast loop under (optionally perturbed) model parameters."""
    params = params or ModelParams.perlmutter_like()
    if jitter is not None:
        params = dataclasses.replace(
            params, compute=dataclasses.replace(params.compute, jitter_cv=jitter)
        )
    if poll_gap is not None:
        params = dataclasses.replace(
            params,
            overheads=dataclasses.replace(params.overheads, ibarrier_poll_gap=poll_gap),
        )
    factory = make_app_factory(
        "osu", niters=40, kind="bcast", nbytes=4, gap_compute=gap_compute
    )
    runtime = {
        proto: launch_run(factory, 16, protocol=proto, params=params, ppn=8).runtime
        for proto in ("native", protocol)
    }
    return overhead_pct(runtime[protocol], runtime["native"])


def test_ablation_jitter_drives_2pc_overhead():
    """With real compute between broadcasts, per-rank skew develops and
    the inserted barrier makes everyone wait for the slowest rank."""
    calm, noisy = (
        _osu_bcast_overhead("2pc", jitter=cv, gap_compute=3e-5) for cv in (0.0, 0.2)
    )
    assert noisy > calm


def test_ablation_coarser_barrier_polling_costs_2pc_more():
    fine, coarse = (_osu_bcast_overhead("2pc", poll_gap=gap) for gap in (1e-7, 5e-6))
    assert coarse > fine


def test_ablation_cc_stays_below_2pc_even_with_10x_wrapper_cost():
    base = ModelParams.perlmutter_like()
    fat = dataclasses.replace(
        base,
        overheads=dataclasses.replace(
            base.overheads,
            wrapper_call=base.overheads.wrapper_call * 10,
            seq_increment=base.overheads.seq_increment * 10,
        ),
    )
    cc, cc_fat, twopc = (
        _osu_bcast_overhead("cc"),
        _osu_bcast_overhead("cc", params=fat),
        _osu_bcast_overhead("2pc"),
    )
    assert cc < cc_fat < twopc
