"""Batched coordinator control-plane broadcasts (PR 4 follow-up).

Every coordinator fan-out (intent / targets / confirm / commit /
drain_p2p / snapshot / resume) now enters the event queue as ONE
``defer_batch_at`` entry that *counts* as one logical event per rank
delivery (plus one per interrupt nudge).  Three pins:

* **differential** — the batched path must produce results
  byte-identical to a per-rank reference fan-out
  (:func:`_broadcast_unbatched`), including ``sim_events`` and every
  checkpoint-phase timestamp;
* **fingerprint** — absolute event counts for fixed checkpointed
  scenarios are pinned, so an accidental change to the event accounting
  (the fingerprints every determinism test builds on) fails loudly;
* **mechanism** — the batch entries actually reach the kernel with the
  full per-rank event count fused into one entry.
"""

import pytest

from repro.apps import CoMD, EarlyExit
from repro.des import Simulator
from repro.harness.runner import launch_run
from repro.harness.spec import run_result_to_dict
from repro.mana.coordinator import CheckpointCoordinator
from repro.netmodel import StorageModel

STORAGE = StorageModel(base_latency=1e-4)

#: Event counts for _checkpointed_run(protocol) captured on the batched
#: coordinator; byte-identical to the per-rank fan-out by construction
#: (the differential test below proves it on every run).
EXPECTED_EVENTS = {"cc": 15307, "2pc": 22395}


def _broadcast_unbatched(coord, msgs):
    """Reference fan-out: one ``defer`` + one interrupt timer per rank
    (patched over ``CheckpointCoordinator._broadcast_each``)."""
    for rank, msg in msgs.items():
        coord._send_to_rank(rank, msg)


def _checkpointed_run(protocol):
    factory = lambda: CoMD(niters=8, memory_bytes=1 << 20)
    probe = launch_run(factory, 4, protocol=protocol, seed=5)
    return launch_run(
        factory,
        4,
        protocol=protocol,
        seed=5,
        checkpoint_at=[probe.runtime * 0.4, probe.runtime * 0.8],
        storage=STORAGE,
    )


def _completion_race_run():
    factory = lambda: EarlyExit(niters=12, shared=4, leavers=1)
    probe = launch_run(factory, 4, protocol="cc", seed=5)
    return launch_run(
        factory,
        4,
        protocol="cc",
        seed=5,
        checkpoint_at=[min(probe.rank_finish_times) * 0.999],
        storage=STORAGE,
    )


@pytest.mark.parametrize("protocol", ["cc", "2pc"])
def test_batched_broadcast_matches_unbatched_reference(protocol, monkeypatch):
    batched = _checkpointed_run(protocol)
    assert [c.committed for c in batched.checkpoints] == [True, True]
    assert batched.sim_events == EXPECTED_EVENTS[protocol]

    monkeypatch.setattr(
        CheckpointCoordinator, "_broadcast_each", _broadcast_unbatched
    )
    reference = _checkpointed_run(protocol)
    # Byte-identical: every measurement, every phase timestamp, every
    # event count.
    assert run_result_to_dict(batched) == run_result_to_dict(reference)


def test_batched_broadcast_matches_reference_through_rank_completion(monkeypatch):
    """The proxy path (finished ranks serviced at delivery time) must be
    order-identical under both fan-out schemes too."""
    batched = _completion_race_run()
    assert [c.committed for c in batched.checkpoints] == [True]

    monkeypatch.setattr(
        CheckpointCoordinator, "_broadcast_each", _broadcast_unbatched
    )
    reference = _completion_race_run()
    assert run_result_to_dict(batched) == run_result_to_dict(reference)


def test_broadcasts_fuse_into_single_queue_entries(monkeypatch):
    """With 4 live ranks a broadcast is one entry counting 8 logical
    events (4 deliveries + 4 interrupt nudges) — distinguishable from
    the collective-exit batches, which never exceed the member count."""
    counts = []
    original = Simulator.defer_batch_at

    def spy(self, time, fn, count):
        counts.append(count)
        return original(self, time, fn, count)

    monkeypatch.setattr(Simulator, "defer_batch_at", spy)
    _checkpointed_run("cc")
    assert 8 in counts
