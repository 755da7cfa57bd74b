"""The one codec (``repro.util.codec``) and every document it writes.

The format is pinned with data: ``codec_documents.json`` holds documents
written by the hand-written ``*_to_dict`` functions this codec replaced
(captured at commit 6316680).  ``encode`` must still produce them and
``decode`` must invert them — cache entries, corpus keys and spec hashes
written before the codec existed stay valid.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.harness.recovery import RecoveryPolicy
from repro.harness.runner import RunResult
from repro.harness.spec import (
    RunSpec,
    execute,
    record_has_full_images,
    run_result_from_dict,
    run_result_to_dict,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from repro.harness.verify import (
    FaultSchedule,
    OracleReport,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.netmodel import ModelParams, StorageModel
from repro.util.codec import CodecError, _decoder, decode, encode

DOCUMENTS = json.loads(
    (Path(__file__).parent / "codec_documents.json").read_text()
)


def _through_json(document):
    return json.loads(json.dumps(document))


def _chain_spec() -> RunSpec:
    """The restart-chain spec ``DOCUMENTS["spec_chain"]`` was written from."""
    shared = dict(
        app_kwargs={"niters": 3}, protocol="cc", seed=3, params=ModelParams(),
        storage=StorageModel(base_latency=1e-4), scenario="straggler",
    )
    parent = RunSpec.create(
        "comd", 2, checkpoint_fractions=(0.5,),
        checkpoint_completion_fracs=(0.9,), **shared,
    )
    return RunSpec.create(
        "comd", 2, restart_of=parent, restart_ckpt=0, crash_fracs=((1, 0.5),),
        ppn=1, max_events=10**6, checkpoint_at=(0.25,), **shared,
    )


class TestPinnedDocuments:
    def test_restart_chain_spec(self):
        spec, pinned = _chain_spec(), DOCUMENTS["spec_chain"]
        assert spec_to_dict(spec) == pinned["doc"]
        assert spec_hash(spec) == pinned["hash"]
        restored = spec_from_dict(pinned["doc"])
        assert restored == spec
        assert isinstance(restored.params, ModelParams)
        assert isinstance(restored.restart_of.storage, StorageModel)
        # Unset fault-schedule fields and scenarios stay out of the
        # document, so specs from before they existed keep their hashes.
        plain = spec_to_dict(RunSpec.create("comd", 2))
        assert not {"checkpoint_completion_fracs", "crash_fracs", "scenario"} & set(plain)

    def test_result_with_a_committed_image(self):
        pinned = DOCUMENTS["result_committed"]
        result = run_result_from_dict(pinned)
        assert run_result_to_dict(result) == pinned
        assert decode(RunResult, encode(result)) == result
        record = next(r for r in result.checkpoints if r.committed)
        document = pinned["checkpoints"][result.checkpoints.index(record)]
        assert sorted(record.images) == [0, 1]
        assert all(isinstance(g, int) for g in record.initial_targets)
        assert all(
            isinstance(g, int) for t in record.seq_reports.values() for g in t
        )
        for rank, image in record.images.items():
            stored = document["images"][str(rank)]
            assert image.payload is None and not image.seq_table
            assert image.counts == stored["dropped"] and "counts" not in stored
            assert all(isinstance(g, int) for g in image.ggid_peers)
            assert not {"payload", "seq_table", "creation_log"} & set(stored)
        assert not record_has_full_images(record)

    def test_crashed_result_keeps_its_holes(self):
        pinned = DOCUMENTS["result_crashed"]
        result = run_result_from_dict(pinned)
        assert run_result_to_dict(result) == pinned
        assert result.crashed_ranks == [1]
        assert None in result.rank_finish_times and None in result.per_rank

    @pytest.mark.parametrize("name", ["schedule_hops", "schedule_plain"])
    def test_fault_schedule(self, name):
        pinned = DOCUMENTS[name]
        schedule = FaultSchedule.draw(pinned["seed"])
        assert schedule_to_dict(schedule) == pinned["doc"]
        assert schedule_from_dict(pinned["doc"]) == schedule
        armed = name == "schedule_hops"
        assert bool(schedule.recovery_crash_fracs) == armed
        assert ("recovery_crash_fracs" in pinned["doc"]) == armed
        assert ("scenario" in pinned["doc"]) == armed


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(200))
    def test_drawn_schedules_and_the_specs_they_build(self, seed):
        schedule = FaultSchedule.draw(seed)
        document = schedule_to_dict(schedule)
        assert decode(FaultSchedule, _through_json(document)) == schedule
        # Corpus-key stability: a schedule without hops or a scenario
        # serializes to exactly the bytes it had before those axes existed.
        assert ("recovery_crash_fracs" in document) == bool(schedule.recovery_crash_fracs)
        assert ("scenario" in document) == bool(schedule.scenario)
        specs = [
            schedule.uninterrupted_spec(),
            schedule.checkpoint_spec(),
            schedule.crash_spec(),
            *schedule.restart_chain(1.0),
        ]
        for spec in specs:
            restored = decode(RunSpec, _through_json(encode(spec)))
            assert restored == spec
            assert spec_hash(restored) == spec_hash(spec)

    def test_plain_result(self):
        result = execute(RunSpec.create("comd", 4, app_kwargs={"niters": 4}, seed=2))
        restored = run_result_from_dict(_through_json(run_result_to_dict(result)))
        assert restored == result
        assert restored.runtime == result.runtime
        assert restored.per_rank == result.per_rank
        assert restored.sim_events == result.sim_events
        assert restored.coll_calls == result.coll_calls

    def test_checkpoint_metadata_survives_and_payloads_do_not(self):
        result = execute(RunSpec.create(
            "comd", 4, app_kwargs={"niters": 4}, protocol="cc",
            checkpoint_fractions=(0.5,),
        ))
        committed = [r for r in result.checkpoints if r.committed]
        assert committed and record_has_full_images(committed[0])
        restored = run_result_from_dict(_through_json(run_result_to_dict(result)))
        rec = [r for r in restored.checkpoints if r.committed][0]
        orig = committed[0]
        assert rec.checkpoint_time == orig.checkpoint_time
        assert rec.total_image_bytes == orig.total_image_bytes
        assert sorted(rec.images) == sorted(orig.images)
        for rank, image in rec.images.items():
            assert image.declared_bytes == orig.images[rank].declared_bytes
            assert image.ckpt_id == orig.images[rank].ckpt_id
            assert image.payload is None and orig.images[rank].payload
            assert image.counts == orig.images[rank].counts
        assert not record_has_full_images(rec)

    def test_na_result(self):
        result = execute(
            RunSpec.create("poisson", 4, app_kwargs={"niters": 4}, protocol="2pc")
        )
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.na_reason == result.na_reason
        assert not restored.ok

    def test_documents_that_need_no_shape(self):
        report = OracleReport("safe-cut", 3, False, detail="d", repro="r", kind="crash")
        assert encode(report) == {
            "oracle": "safe-cut", "seed": 3, "ok": False,
            "detail": "d", "repro": "r", "kind": "crash",
        }
        assert decode(OracleReport, encode(report)) == report
        assert encode(RecoveryPolicy(5, 1.5)) == {"max_attempts": 5, "backoff": 1.5}


@dataclass
class _Node:
    label: str
    next: "_Node | None" = None
    weights: "dict[int, tuple[int, float]] | None" = None


class TestCodec:
    def test_decoders_compile_once(self):
        for tp in (_Node, _Node | None, RunSpec, RunSpec | None):
            assert _decoder(tp) is _decoder(tp)
        chain = _Node("a", _Node("b", _Node("c")), {3: (1, 0.5)})
        assert decode(_Node, _through_json(encode(chain))) == chain

    def test_encode_is_json_canonical(self):
        value = {1: (np.int64(2), np.float64(0.5)), "k": [None, True, {2: "x"}]}
        assert encode(value) == {"1": [2, 0.5], "k": [None, True, {"2": "x"}]}
        assert type(encode(np.float64(0.5))) is float
        assert encode(object) == repr(object)

    @pytest.mark.parametrize(
        "tp, bad",
        [
            (_Node, []),
            (_Node, 3),
            (_Node, {}),  # `label` has no default
            (_Node, {"label": "a", "next": []}),
            (_Node, {"label": "a", "weights": []}),
            (_Node, {"label": "a", "weights": {"1": [1]}}),
            (_Node, {"label": "a", "weights": {"1": 7}}),
            (list[int], {}),
            (tuple[float, ...], "abc"),
            (RecoveryPolicy, None),
        ],
    )
    def test_wrong_shapes_are_codec_errors(self, tp, bad):
        with pytest.raises(CodecError):
            decode(tp, bad)

    def test_validation_stays_with_the_class(self):
        # Scalars are the class's to check, and its error is the one seen.
        with pytest.raises(ValueError, match="max_attempts"):
            decode(RecoveryPolicy, {"max_attempts": 0})
        document = spec_to_dict(RunSpec.create("comd", 2))
        with pytest.raises(ValueError, match="nprocs"):
            spec_from_dict({**document, "nprocs": 0})

    def test_an_annotation_the_codec_cannot_read_fails_at_compile(self):
        with pytest.raises(TypeError, match="no decoder"):
            decode(set[int], [])
        with pytest.raises(TypeError, match="unions"):
            decode(int | str, 3)
