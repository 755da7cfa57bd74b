"""Fixtures for tests that watch the kernel's carrier pool."""

import threading

import pytest

from repro.des import kernel


@pytest.fixture
def carrier_pool(monkeypatch):
    """An empty carrier pool for one test, so what the test counts is
    what it ran; the carriers left parked in it are retired afterwards
    (a carrier woken with no process bound exits)."""
    pool = []
    monkeypatch.setattr(kernel, "_idle", pool)
    yield pool
    with kernel._pool_lock:
        retired = pool[:]
        pool.clear()
    for carrier in retired:
        carrier.lock.release()


@pytest.fixture
def thread_starts(monkeypatch):
    """Every ``Thread.start`` during the test, as ``(thread, stack size
    in effect)`` pairs."""
    seen = []
    real_start = threading.Thread.start

    def start(thread):
        seen.append((thread, threading.stack_size()))
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return seen
