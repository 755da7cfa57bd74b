"""Tests for requests: the lower half's completion, test, wait and
observers, and the upper half's (``repro.mana.vcomm``) wait/test family
over several requests, driven the way applications drive it."""

import pytest

from repro.des import Simulator
from repro.mana.vcomm import test_all as request_test_all
from repro.mana.vcomm import wait_all, wait_any
from repro.simmpi import Request
from repro.simmpi.errors import RequestError


def in_sim(fn):
    """Run fn() inside a one-process simulation, returning its result."""
    with Simulator() as sim:
        proc = sim.spawn(lambda: fn(sim))
        sim.run()
        return proc.result


def test_request_lifecycle():
    def body(sim):
        req = Request(sim, "x")
        assert not req.done
        assert req.test() == (False, None)
        req.complete(42)
        assert req.done
        assert req.test() == (True, 42)
        assert req.wait() == 42
        return True

    assert in_sim(body)


def test_double_complete_rejected():
    def body(sim):
        req = Request(sim, "x")
        req.complete(1)
        with pytest.raises(RequestError):
            req.complete(2)
        return True

    assert in_sim(body)


def test_complete_at_future_time():
    def body(sim):
        req = Request(sim, "x")
        req.complete_at(5.0, "later")
        value = req.wait()
        return (value, sim.now())

    assert in_sim(body) == ("later", 5.0)


def test_on_complete_observer_order():
    def body(sim):
        req = Request(sim, "x")
        log = []
        req.on_complete(lambda r: log.append("first"))
        req.on_complete(lambda r: log.append("second"))
        req.complete(None)
        req.on_complete(lambda r: log.append("post"))
        return log

    assert in_sim(body) == ["first", "second", "post"]


def send_after(ctx, delay, payload):
    """Rank body: compute for ``delay`` virtual seconds, then send
    ``payload`` to rank 0."""
    ctx.compute(delay)
    ctx.world.send(payload, dest=0)


def test_wait_all_blocks_for_slowest(run_ranks):
    def app(ctx):
        if ctx.rank:
            return send_after(ctx, float(ctx.rank), ctx.rank * 10)
        reqs = [ctx.world.irecv(source=src) for src in (1, 2, 3)]
        return (wait_all(reqs), ctx.now())

    values, t = run_ranks(app, 4).per_rank[0]
    assert values == [10, 20, 30]
    assert 3.0 <= t < 3.1


def test_wait_all_empty(run_ranks):
    assert run_ranks(lambda ctx: wait_all([]), 1).per_rank == [[]]


def test_wait_any_returns_earliest(run_ranks):
    delays = {1: 9.0, 2: 5.0, 3: 1.0}
    names = {1: "slow", 2: "mid", 3: "fast"}

    def app(ctx):
        if ctx.rank:
            return send_after(ctx, delays[ctx.rank], names[ctx.rank])
        reqs = [ctx.world.irecv(source=src) for src in (1, 2, 3)]
        idx, value = wait_any(reqs)
        t = ctx.now()
        wait_all(reqs)
        return (idx, value, t)

    idx, value, t = run_ranks(app, 4).per_rank[0]
    assert (idx, value) == (2, "fast")
    assert 1.0 <= t < 5.0


def test_wait_any_prefers_lowest_completed_index(run_ranks):
    """Both receives have completed by the call: the lower index wins,
    although its message arrived later."""

    def app(ctx):
        if ctx.rank:
            return send_after(ctx, 0.5 if ctx.rank == 1 else 0.1, ctx.rank)
        reqs = [ctx.world.irecv(source=src) for src in (1, 2)]
        ctx.compute(1.0)
        assert all(r.done for r in reqs)
        result = wait_any(reqs)
        wait_all(reqs)
        return result

    assert run_ranks(app, 3).per_rank[0] == (0, 1)


def test_test_all(run_ranks):
    def app(ctx):
        if ctx.rank:
            return send_after(ctx, 0.1, "ab"[ctx.rank - 1])
        reqs = [ctx.world.irecv(source=src) for src in (1, 2)]
        early = request_test_all(reqs)
        ctx.compute(1.0)
        return (early, request_test_all(reqs))

    early, late = run_ranks(app, 3).per_rank[0]
    assert early == (False, None)
    assert late == (True, ["a", "b"])
