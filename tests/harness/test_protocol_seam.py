"""A checkpoint protocol is one ``repro.core.PROTOCOLS`` entry.

The figure planners, ``RunSpec`` validation, the sweep mask and the
session read the registry, so a protocol registered from outside
``src/`` — here a relabelled copy of CC, and a CC variant that refuses
non-blocking collectives — shows up as a figure column without any
other edit.
"""

import pytest

from repro import core
from repro.core import (
    CCCoordinatorLogic,
    CollectiveClockProtocol,
    UnsupportedOperationError,
)
from repro.harness import ExperimentEngine, run_plans
from repro.harness.experiments import plan_fig5b, plan_fig7, plan_fig9
from repro.harness.spec import RunSpec
from repro.harness.sweep import MASKS


class _CC2(CollectiveClockProtocol):
    name = "cc2"
    label = "CC2"


class _BlockingOnly(CollectiveClockProtocol):
    """CC that, like 2PC, cannot wrap a non-blocking collective."""

    name = "blk"
    label = "BLK"
    supports_nonblocking = False

    def on_nonblocking_collective(self, ggid, members, initiate):
        raise UnsupportedOperationError("BLK wraps blocking collectives only")


@pytest.fixture
def register(monkeypatch):
    def add(cls):
        monkeypatch.setitem(core.PROTOCOLS, cls.name, (cls, CCCoordinatorLogic))

    return add


def _run(plan):
    (result,) = run_plans([plan], ExperimentEngine(jobs=1))
    return result


def test_fig7_grows_a_cc2_column_equal_to_cc(register):
    register(_CC2)
    result = _run(plan_fig7(4, ppn=2, repeats=1))
    headers = result.headers
    assert headers == [
        "application", "native", "2PC", "CC", "CC2", "2PC %", "CC %", "CC2 %"
    ]
    for row in result.rows:
        assert row[headers.index("CC2")] == row[headers.index("CC")]
        assert row[headers.index("CC2 %")] == row[headers.index("CC %")]


def test_fig9_grows_cc2_series_equal_to_cc(register):
    register(_CC2)
    result = _run(plan_fig9((1,), ppn=2, niters=4))
    series = {s.name: s.as_pairs() for s in result.series}
    assert list(series) == [
        "2PC ckpt (s)", "CC ckpt (s)", "CC2 ckpt (s)",
        "2PC restart (s)", "CC restart (s)", "CC2 restart (s)",
    ]
    assert series["CC2 ckpt (s)"] == series["CC ckpt (s)"]
    assert series["CC2 restart (s)"] == series["CC restart (s)"]


def test_a_protocol_without_nonblocking_support_is_na_on_fig5b(register):
    register(_BlockingOnly)
    result = _run(plan_fig5b((4,), kinds=("allreduce",), sizes=(1024,), iters=3))
    assert result.headers == ["benchmark", "msg", "procs", "2PC %", "CC %", "BLK %"]
    (row,) = result.rows
    assert row[3] == "NA" and row[5] == "NA"
    assert row[4] != "NA"
    assert "NA[iallreduce/1KB/4/blk]: BLK wraps blocking collectives only" in result.notes


def test_the_sweep_mask_keys_on_nonblocking_support(register):
    register(_BlockingOnly)
    mask = MASKS["2pc-nonblocking"]
    point = {"app": "poisson", "nprocs": 4}
    assert mask({**point, "protocol": "blk"}) == (
        "BLK does not support non-blocking collectives (paper §2.2, §5.2)"
    )
    assert mask({**point, "protocol": "2pc"}) == (
        "2PC does not support non-blocking collectives (paper §2.2, §5.2)"
    )
    assert mask({**point, "protocol": "cc"}) is None
    assert mask({"app": "minivasp", "nprocs": 4, "protocol": "blk"}) is None


def test_spec_validation_reads_the_registry(register):
    with pytest.raises(ValueError, match=r"unknown protocol 'cc2'; expected one of"):
        RunSpec.create("comd", 4, protocol="cc2")
    register(_CC2)
    assert RunSpec.create("comd", 4, protocol="cc2").protocol == "cc2"
