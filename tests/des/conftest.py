"""Fixtures for tests that watch the kernel's carrier pool."""

import _thread
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


class _Started:
    """One carrier thread the kernel started: alive until its carrier's
    life (``kernel._carrier_main``) has returned."""

    def __init__(self):
        self.done = threading.Event()

    def is_alive(self):
        return not self.done.is_set()


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread start during the test, as ``(thread, stack size in
    effect)`` pairs."""
    seen = []
    real_start = _thread.start_new_thread

    def start(function, args):
        thread = _Started()

        def life(*args):
            try:
                function(*args)
            finally:
                thread.done.set()

        seen.append((thread, threading.stack_size()))
        return real_start(life, args)

    monkeypatch.setattr(_thread, "start_new_thread", start)
    return seen
