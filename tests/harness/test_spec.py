"""Tests for the declarative RunSpec layer: hashing, chain structure,
and execution semantics (its documents: ``tests/util/test_codec.py``)."""

import os
import subprocess
import sys

import pytest

from repro.harness.spec import (
    RunSpec,
    SpecError,
    execute,
    result_has_full_images,
    run_result_from_dict,
    run_result_to_dict,
    spec_hash,
    spec_to_dict,
)
from repro.netmodel import ModelParams, StorageModel


def _spec(**overrides):
    base = dict(app="comd", nprocs=4, app_kwargs={"niters": 4}, seed=0)
    base.update(overrides)
    return RunSpec.create(base.pop("app"), base.pop("nprocs"), **base)


class TestSpecValue:
    def test_kwargs_order_insensitive(self):
        a = RunSpec.create("osu", 4, app_kwargs={"kind": "bcast", "nbytes": 4})
        b = RunSpec.create("osu", 4, app_kwargs={"nbytes": 4, "kind": "bcast"})
        assert a == b
        assert spec_hash(a) == spec_hash(b)

    def test_specs_are_hashable_dict_keys(self):
        assert len({_spec(): 1, _spec(): 2}) == 1
        assert len({_spec(seed=0), _spec(seed=1)}) == 2

    def test_non_scalar_kwarg_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.create("osu", 4, app_kwargs={"sizes": [1, 2]})

    @pytest.mark.parametrize("crash_fracs", [0.5, 1, "0:0.5", ((0,),)])
    def test_malformed_crash_fracs_rejected(self, crash_fracs):
        with pytest.raises(SpecError, match=r"must be \(rank, frac\) pairs"):
            _spec(protocol="cc", crash_fracs=crash_fracs)

    def test_native_checkpoint_rejected(self):
        with pytest.raises(SpecError):
            _spec(protocol="native", checkpoint_at=(1.0,))

    def test_restart_protocol_must_match_parent(self):
        parent = _spec(protocol="cc", checkpoint_at=(0.01,))
        with pytest.raises(SpecError):
            _spec(protocol="2pc", restart_of=parent)

    def test_hash_differs_across_fields(self):
        seen = {
            spec_hash(_spec()),
            spec_hash(_spec(seed=1)),
            spec_hash(_spec(protocol="cc")),
            spec_hash(_spec(app_kwargs={"niters": 5})),
            spec_hash(_spec(ppn=2)),
        }
        assert len(seen) == 5

    def test_hash_stable_across_processes(self):
        spec = _spec(
            protocol="cc",
            ppn=2,
            checkpoint_fractions=(0.5,),
            storage=StorageModel(base_latency=0.25),
            params=ModelParams.slow_network(),
        )
        code = (
            "from repro.harness.spec import RunSpec, spec_hash\n"
            "from repro.netmodel import ModelParams, StorageModel\n"
            "spec = RunSpec.create('comd', 4, app_kwargs={'niters': 4},\n"
            "    protocol='cc', ppn=2, checkpoint_fractions=(0.5,),\n"
            "    storage=StorageModel(base_latency=0.25),\n"
            "    params=ModelParams.slow_network())\n"
            "print(spec_hash(spec))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == spec_hash(spec)

    def test_hash_memo_neither_travels_nor_leaks(self, monkeypatch):
        import copy
        import dataclasses
        import pickle

        from repro.harness import spec as spec_mod

        parent = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        spec = _spec(protocol="cc", restart_of=parent)
        unhashed = _spec(protocol="cc", restart_of=parent)
        before = (repr(spec), spec_to_dict(spec), hash(spec))
        digest = spec_hash(spec)

        # Computed once per instance, the second call is the memo.
        monkeypatch.setattr(
            spec_mod, "stable_json_hash",
            lambda payload: pytest.fail("spec_hash recomputed a memoized hash"),
        )
        assert spec_hash(spec) == digest
        monkeypatch.undo()

        # Invisible to the value: equality, hash, repr, the JSON form.
        assert spec == unhashed and hash(spec) == hash(unhashed)
        assert (repr(spec), spec_to_dict(spec), hash(spec)) == before

        # Copies start without it: a worker process must hash under its
        # *own* schema version, and a replaced field is a new hash.
        for clone in (
            pickle.loads(pickle.dumps(spec)),
            copy.deepcopy(spec),
            dataclasses.replace(spec, seed=spec.seed),
        ):
            assert clone == spec and "_hash" not in vars(clone)
        monkeypatch.setattr(spec_mod, "SCHEMA_VERSION", spec_mod.SCHEMA_VERSION + 1)
        assert spec_hash(pickle.loads(pickle.dumps(spec))) != digest
        monkeypatch.undo()
        assert spec_hash(dataclasses.replace(spec, seed=7)) != digest
        assert spec_hash(pickle.loads(pickle.dumps(spec))) == digest


class TestChains:
    def test_probe_and_parents(self):
        spec = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        probe = spec.probe_spec()
        assert probe.checkpoint_fractions == ()
        assert spec.parents() == (probe,)
        assert probe.parents() == ()

    def test_restart_ancestors(self):
        ckpt = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        restart = _spec(protocol="cc", restart_of=ckpt)
        assert set(restart.ancestors()) == {ckpt, ckpt.probe_spec()}


class TestExecute:
    def test_execute_matches_launch_run(self):
        from repro.apps import make_app_factory
        from repro.harness.runner import launch_run

        spec = _spec(seed=3)
        direct = launch_run(make_app_factory("comd", niters=4), 4, seed=3)
        via_spec = execute(spec)
        assert via_spec.runtime == direct.runtime
        assert via_spec.sim_events == direct.sim_events

    def test_execute_na_for_unsupported(self):
        spec = RunSpec.create(
            "poisson", 4, app_kwargs={"niters": 4}, protocol="2pc"
        )
        result = execute(spec)
        assert not result.ok
        assert "non-blocking" in result.na_reason
        assert result.runtime == 0.0

    def test_execute_resolves_probe_and_restart(self):
        ckpt = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        restart = _spec(protocol="cc", restart_of=ckpt)
        deps = {}
        result = execute(restart, deps)
        assert result.restart_ready_time > 0
        # The chain memoized its intermediate phases.
        assert ckpt in deps and ckpt.probe_spec() in deps

    def test_execute_reuses_supplied_parent(self):
        ckpt = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        parent_result = execute(ckpt)
        assert result_has_full_images(parent_result)
        restart = _spec(protocol="cc", restart_of=ckpt)
        result = execute(restart, {ckpt: parent_result})
        assert result.restart_ready_time > 0

    def test_restart_from_stripped_parent_resimulates(self):
        ckpt = _spec(protocol="cc", checkpoint_fractions=(0.5,))
        stripped = run_result_from_dict(run_result_to_dict(execute(ckpt)))
        assert not result_has_full_images(stripped)
        restart = _spec(protocol="cc", restart_of=ckpt)
        result = execute(restart, {ckpt: stripped})
        assert result.restart_ready_time > 0

    def test_restart_without_commit_is_error(self):
        # Parent never checkpoints (no schedule at all).
        parent = _spec(protocol="cc")
        restart = _spec(protocol="cc", restart_of=parent)
        with pytest.raises(SpecError, match="committed no"):
            execute(restart)


class TestCostHint:
    def _chain(self, depth, *, parent_niters=64, child_niters=4):
        spec = RunSpec.create(
            "comd", 4, app_kwargs={"niters": parent_niters}, protocol="cc",
            checkpoint_at=(0.5,),
        )
        for _ in range(depth):
            spec = RunSpec.create(
                "comd", 4, app_kwargs={"niters": child_niters}, protocol="cc",
                restart_of=spec,
            )
        return spec

    def test_restart_chain_values_fold_geometrically(self):
        """Each link is max(own, 0.5 × parent): a cheap restart behind an
        expensive run decays geometrically to its own floor."""
        root_cost = 4 * 64 * 1.25  # nprocs × niters × one-checkpoint factor
        own = 4 * 4.0
        expected = root_cost
        spec = self._chain(3)
        chain = []
        node = spec
        while node is not None:
            chain.append(node)
            node = node.restart_of
        for link in reversed(chain[:-1]):
            expected = max(own, 0.5 * expected)
        assert spec.cost_hint() == expected
        # And a shallow sanity check against the closed form.
        assert self._chain(1).cost_hint() == max(own, 0.5 * root_cost)

    def test_deep_chain_does_not_recurse(self):
        """Regression: cost_hint recursed per ancestor (O(depth²) during
        wave sorting, RecursionError past the stack limit)."""
        deep = self._chain(5000)
        assert deep.cost_hint() == 16.0  # decayed to the child floor

    def test_memo_is_per_instance_and_stable(self):
        spec = self._chain(2)
        first = spec.cost_hint()
        assert spec.__dict__["_cost_hint"] == first
        assert spec.cost_hint() == first
        # Parents were memoized along the way (one pass fills the chain).
        assert "_cost_hint" in spec.restart_of.__dict__

    def test_memo_survives_pickle_boundary(self):
        import pickle

        spec = self._chain(1)
        spec.cost_hint()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cost_hint() == spec.cost_hint()
        assert spec_hash(clone) == spec_hash(spec)
