"""Tests for the five mini-apps and the OSU kernels."""

import dataclasses
import types

import numpy as np
import pytest

from repro.apps import (
    APP_FACTORIES,
    CoMD,
    LammpsLJ,
    MiniVasp,
    OsuCollective,
    OsuOverlap,
    PoissonCG,
    REAL_WORLD_APPS,
    SW4,
    make_app_factory,
)
from repro.apps.base import AppContext, _jitter_factor
from repro.core import UnsupportedOperationError
from repro.des import ProcessFailed
from repro.harness.runner import launch_run
from repro.netmodel import ModelParams

SMALL = {
    "minivasp": dict(niters=5, npw=32),
    "poisson": dict(niters=8, local_n=32),
    "comd": dict(niters=8),
    "lammps": dict(niters=8),
    "sw4": dict(niters=5),
}


class TestRegistry:
    def test_all_real_world_apps_registered(self):
        for name in REAL_WORLD_APPS:
            assert name in APP_FACTORIES

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            make_app_factory("gromacs")

    def test_factory_applies_overrides(self):
        app = make_app_factory("comd", niters=3)()
        assert isinstance(app, CoMD)
        assert app.niters == 3

    def test_niters_validation(self):
        with pytest.raises(ValueError):
            MiniVasp(niters=0)


class TestAppCorrectness:
    def test_minivasp_energy_converges(self):
        r = launch_run(make_app_factory("minivasp", niters=8, npw=32), 4, seed=1)
        for out in r.per_rank:
            hist = out["hist_tail"]
            assert out["iters"] == 8
            assert all(np.isfinite(h) for h in hist)
        # All ranks agree on the reduced energy.
        assert len({round(o["energy"], 12) for o in r.per_rank}) == 1

    def test_poisson_cg_converges_and_is_correct(self):
        """The distributed CG must actually solve -u'' = f."""
        nprocs, local_n = 4, 24
        r = launch_run(
            make_app_factory("poisson", niters=200, local_n=local_n, rel_error=1e-8),
            nprocs, seed=1,
        )
        assert all(o["converged"] for o in r.per_rank)
        # Reference: direct solve of the global tridiagonal system.
        n = nprocs * local_n
        a = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        x_ref = np.linalg.solve(a, np.ones(n))
        x_norm = np.sqrt(sum(o["x_norm"] ** 2 for o in r.per_rank))
        assert x_norm == pytest.approx(np.linalg.norm(x_ref), rel=1e-5)

    def test_comd_energy_samples_consistent(self):
        r = launch_run(make_app_factory("comd", niters=14), 4, seed=2)
        samples = {o["kinetic_samples"] for o in r.per_rank}
        assert len(samples) == 1  # allreduce agrees everywhere
        assert len(r.per_rank[0]["kinetic_samples"]) == 2  # i=0 and i=13

    def test_lammps_thermo_and_motion(self):
        r = launch_run(make_app_factory("lammps", niters=8), 4, seed=2)
        out = r.per_rank[0]
        assert len(out["thermo"]) == 1
        assert out["thermo"][0] > 0

    def test_sw4_wave_propagates(self):
        r = launch_run(make_app_factory("sw4", niters=6), 4, seed=2)
        for o in r.per_rank:
            assert np.isfinite(o["u_norm"])
        peaks = {o["peaks"] for o in r.per_rank}
        assert len(peaks) == 1


class TestCommunicationSignatures:
    """Each app must land in its Table 1 rate category."""

    #: Longer runs than SMALL: rates only stabilize once periodic
    #: collectives (thermo/stability reductions) repeat a few times.
    RATE_CONFIG = {
        "minivasp": dict(niters=8, npw=32),
        "poisson": dict(niters=16, local_n=32),
        "comd": dict(niters=40),
        "lammps": dict(niters=60),
        "sw4": dict(niters=12),
    }

    @pytest.fixture(scope="class")
    def rates(self):
        out = {}
        for name, kw in self.RATE_CONFIG.items():
            r = launch_run(make_app_factory(name, **kw), 8, seed=0)
            out[name] = (r.coll_rate, r.p2p_rate)
        return out

    def test_collective_rate_ordering(self, rates):
        """Paper Table 1: VASP >> Poisson >> CoMD > LAMMPS > SW4."""
        coll = {k: v[0] for k, v in rates.items()}
        assert coll["minivasp"] > 10 * coll["poisson"]
        assert coll["poisson"] > coll["comd"]
        assert coll["comd"] > coll["lammps"]
        assert coll["lammps"] > coll["sw4"]

    def test_poisson_has_no_p2p(self, rates):
        assert rates["poisson"][1] == 0.0

    def test_lammps_p2p_dominant(self, rates):
        coll, p2p = rates["lammps"]
        assert p2p > 100 * coll

    def test_minivasp_p2p_comparable_to_coll(self, rates):
        coll, p2p = rates["minivasp"]
        assert 0.2 < p2p / coll < 3.0

    def test_osu_rate_is_upper_limit(self, rates):
        r = launch_run(
            make_app_factory("osu", niters=100, kind="bcast", nbytes=4), 8, seed=0
        )
        assert r.coll_rate > 10 * rates["minivasp"][0]


class TestProtocolSupport:
    @pytest.mark.parametrize("name", ["minivasp", "comd", "lammps", "sw4"])
    def test_blocking_apps_run_under_2pc(self, name):
        r = launch_run(make_app_factory(name, **SMALL[name]), 4, protocol="2pc", seed=0)
        assert r.runtime > 0

    def test_poisson_rejected_by_2pc(self):
        with pytest.raises(ProcessFailed) as ei:
            launch_run(make_app_factory("poisson", **SMALL["poisson"]), 4,
                       protocol="2pc", seed=0)
        assert isinstance(ei.value.original, UnsupportedOperationError)

    @pytest.mark.parametrize("name", list(SMALL))
    def test_all_apps_run_under_cc_with_native_results(self, name):
        factory = make_app_factory(name, **SMALL[name])
        a = launch_run(factory, 4, protocol="native", seed=0)
        b = launch_run(factory, 4, protocol="cc", seed=0)
        assert repr(a.per_rank) == repr(b.per_rank)


class TestOsuKernels:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OsuCollective(kind="gather9000")
        with pytest.raises(ValueError):
            OsuOverlap(kind="scan")

    def test_blocking_latency_positive_and_size_sensitive(self):
        small = launch_run(
            make_app_factory("osu", niters=30, kind="allreduce", nbytes=4), 4, seed=0
        )
        big = launch_run(
            make_app_factory("osu", niters=30, kind="allreduce", nbytes=1 << 20),
            4, seed=0,
        )
        assert big.per_rank[0]["avg_latency"] > 10 * small.per_rank[0]["avg_latency"]

    def test_nonblocking_variant_runs(self):
        r = launch_run(
            make_app_factory("osu", niters=20, kind="alltoall", nbytes=64,
                             blocking=False),
            4, seed=0,
        )
        assert r.per_rank[0]["iterations"] == 20

    def test_overlap_metric_bounds(self):
        r = launch_run(
            make_app_factory("osu_overlap", niters=25, kind="allreduce",
                             nbytes=1 << 16),
            4, seed=0,
        )
        for o in r.per_rank:
            assert 0.0 <= o["overlap_pct"] <= 100.0
            assert o["t_pure"] > 0

    def test_overlap_high_for_background_progress(self):
        """Non-blocking collectives progress independently (paper §3), so
        sized-to-latency compute should hide nearly all of it."""
        r = launch_run(
            make_app_factory("osu_overlap", niters=30, kind="alltoall",
                             nbytes=1 << 18),
            4, seed=0,
        )
        assert min(o["overlap_pct"] for o in r.per_rank) > 80.0


class TestJitterMemo:
    """``compute_jittered`` draws its factor once per process per
    (seed, rank, step, tag, cv); the value must be the stream draw."""

    OSU = staticmethod(make_app_factory("osu", niters=12, kind="bcast", nbytes=4,
                                        gap_compute=3e-5))

    @staticmethod
    def _ctx(seed, rank):
        return AppContext(types.SimpleNamespace(rank=rank), seed=seed)

    def test_factor_is_first_normal_of_step_rng(self):
        for seed in (0, 7):
            for rank in range(4):
                ctx = self._ctx(seed, rank)
                for step in range(-1, 6):
                    for tag in ("", "gap", "fft3"):
                        for cv in (0.0, 0.08):
                            drawn = float(np.exp(ctx.step_rng(step, tag).normal(0, cv)))
                            assert _jitter_factor(seed, rank, step, tag, cv) == drawn

    def test_factor_values_pinned(self):
        # Captured before the memo existed: a change to the derivation
        # fails here, not only through the figure fingerprints.
        pinned = {
            (0, 0, 0, "jitter", 0.08): 1.0731862124159564,
            (0, 3, 5, "gap", 0.08): 0.9467100907036133,
            (1, 2, -1, "fft3", 0.08): 0.9893067269806308,
            (7, 5, 11, "stencil", 0.2): 0.9953825733419218,
        }
        for _ in range(2):  # drawn, then served from the memo
            assert {k: _jitter_factor(*k) for k in pinned} == pinned

    def test_repeat_run_builds_no_jitter_stream(self, monkeypatch):
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs.get("spawn_key"))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        _jitter_factor.cache_clear()
        first = launch_run(self.OSU, 8, seed=3)
        n_first = len(built)
        second = launch_run(self.OSU, 8, seed=3)
        assert second == first
        assert n_first == 8 * 12  # one per rank-step, then none
        assert built[n_first:] == []

    def test_no_leak_across_seeds_or_cv(self):
        calm = ModelParams.perlmutter_like()
        calm = dataclasses.replace(
            calm, compute=dataclasses.replace(calm.compute, jitter_cv=0.0)
        )
        runs = [dict(seed=0), dict(seed=1), dict(seed=0, params=calm), dict(seed=0)]
        warm = [launch_run(self.OSU, 8, **kw) for kw in runs]
        cold = []
        for kw in runs:
            _jitter_factor.cache_clear()
            cold.append(launch_run(self.OSU, 8, **kw))
        assert warm == cold
        # The three keys really differ, so equality above is not vacuous.
        assert len({r.runtime for r in warm[:3]}) == 3


class TestCheckpointability:
    """Every bundled app must checkpoint and restart losslessly."""

    @pytest.mark.parametrize("name", list(SMALL))
    def test_checkpoint_restart_equivalence(self, name):
        from repro.harness.runner import restart_run
        from repro.netmodel import StorageModel

        storage = StorageModel(base_latency=1e-4)
        factory = make_app_factory(name, **SMALL[name])
        native = launch_run(factory, 4, protocol="native", seed=1)
        ck = launch_run(
            factory, 4, protocol="cc", seed=1,
            checkpoint_at=[native.runtime * 0.5], storage=storage,
        )
        assert repr(ck.per_rank) == repr(native.per_rank)
        rs = restart_run(factory, ck.committed_images(), seed=1, storage=storage)
        assert repr(rs.per_rank) == repr(native.per_rank)
