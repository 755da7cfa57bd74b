"""The experiment service, end to end in one process.

The server runs in a background thread, workers run :func:`run_worker`
in threads of their own, and clients go through the same
``ServiceDispatch``/engine path the CLI uses — so these tests exercise
the real protocol over real sockets, minus only process isolation.

Pinned here: byte-identity of service batches against the in-process
reference, zero re-simulation on a warm shared store, orphaned-job
requeue when a worker dies mid-job, index persistence across server
restarts, and the verify/fuzz fan-out through the seam.
"""

import json
import socket
import threading

import pytest

from repro.harness.cache import ResultCache
from repro.harness.engine import ExperimentEngine
from repro.harness.service import (
    PROTOCOL_VERSION,
    ExperimentServer,
    run_worker,
)
from repro.harness.spec import (
    RunSpec,
    job_to_dict,
    run_result_to_dict,
    spec_hash,
)


def _specs(n=3):
    return [
        RunSpec.create("comd", 2, app_kwargs={"niters": 3}, seed=seed)
        for seed in range(n)
    ]


def _batch_json(results):
    return json.dumps(
        [run_result_to_dict(results[s]) for s in sorted(results, key=str)],
        sort_keys=True,
    )


@pytest.fixture
def service(tmp_path):
    """A live server (shared store under ``tmp_path``) and its address."""
    server = ExperimentServer("127.0.0.1", 0, cache_dir=tmp_path / "store")
    host, port = server.start()
    yield server, f"{host}:{port}"
    server.shutdown()


def _worker_thread(addr_text, **kwargs):
    host, port = addr_text.rsplit(":", 1)
    thread = threading.Thread(
        target=run_worker,
        args=((host, int(port)),),
        kwargs=kwargs,
        daemon=True,
    )
    thread.start()
    return thread


class _RawConn:
    """Minimal protocol peer for poking the server directly."""

    def __init__(self, addr_text, role):
        host, port = addr_text.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)))
        self.rfile = self.sock.makefile("rb")
        self.send({"type": "hello", "role": role,
                   "protocol": PROTOCOL_VERSION})
        self.welcome = self.recv()
        assert self.welcome["type"] == "welcome"

    def send(self, obj):
        self.sock.sendall(
            json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        )

    def recv(self):
        line = self.rfile.readline()
        return json.loads(line) if line else None

    def close(self):
        self.rfile.close()
        self.sock.close()


class TestServiceDifferential:
    def test_batch_is_byte_identical_to_inline(self, service, tmp_path):
        server, addr = service
        specs = _specs()
        with ExperimentEngine(
            cache=None, progress=False
        ) as eng:
            reference = _batch_json(eng.run_batch(specs))

        worker = _worker_thread(addr, max_jobs=len(specs))
        with ExperimentEngine(
            cache=None, progress=False, service=addr
        ) as eng:
            got = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == len(specs)
            assert eng.last_stats.cache_hits == 0
        worker.join(timeout=30)
        assert got == reference

    def test_warm_service_rerun_simulates_zero(self, service):
        server, addr = service
        specs = _specs()
        worker = _worker_thread(addr, max_jobs=len(specs))
        with ExperimentEngine(
            cache=None, progress=False, service=addr
        ) as eng:
            first = _batch_json(eng.run_batch(specs))
        worker.join(timeout=30)

        # A second cache-less client resubmits the same keys: the server
        # answers every one from the shared store without queueing, and
        # the client accounts them as store hits.  No worker is even
        # connected — nothing *can* simulate.
        with ExperimentEngine(
            cache=None, progress=False, service=addr
        ) as eng:
            again = _batch_json(eng.run_batch(specs))
            assert eng.last_stats.executed == 0
            assert eng.last_stats.cache_hits == len(specs)
        assert again == first
        assert server.stats()["done"] == len(specs)

    def test_two_workers_share_one_batch(self, service):
        server, addr = service
        specs = _specs(4)
        workers = [_worker_thread(addr) for _ in range(2)]
        with ExperimentEngine(
            cache=None, progress=False, service=addr
        ) as eng:
            results = eng.run_batch(specs)
        assert len(results) == len(specs)
        assert eng.last_stats.executed == len(specs)
        server.shutdown()  # releases the parked workers
        for worker in workers:
            worker.join(timeout=30)


class TestWorkerFailure:
    def test_orphaned_job_is_requeued_and_finished_elsewhere(self, service):
        server, addr = service
        spec = _specs(1)[0]
        key = spec_hash(spec)

        client = _RawConn(addr, "client")
        client.send({
            "type": "submit", "key": key, "job": job_to_dict(spec, []),
        })
        accepted = client.recv()
        assert accepted["state"] == "queued"

        # A worker fetches the job... and dies mid-execution (the
        # connection drops without a `done`).
        doomed = _RawConn(addr, "worker")
        doomed.send({"type": "fetch"})
        handed = doomed.recv()
        assert handed["type"] == "job" and handed["key"] == key
        assert server.stats()["running"] == 1
        doomed.close()

        # The reap runs on connection teardown; the job must come back.
        deadline = 50
        while server.stats()["running"] and deadline:
            threading.Event().wait(0.1)
            deadline -= 1
        assert server.stats()["queued"] == 1

        # A healthy worker picks it up and the waiting client gets the
        # result — the batch survived the casualty.
        worker = _worker_thread(addr, max_jobs=1)
        client.send({"type": "wait", "keys": [key]})
        reply = client.recv()
        assert reply["type"] == "result" and reply["key"] == key
        assert reply["value"]["result"]["runtime"] > 0
        worker.join(timeout=30)
        client.close()


class TestLeaseAndHeartbeat:
    """A hung-but-connected worker must not strand its job forever."""

    def test_stalled_worker_job_is_requeued_by_lease(self, tmp_path):
        server = ExperimentServer(
            "127.0.0.1", 0, cache_dir=tmp_path / "store", lease=0.5
        )
        addr = "%s:%d" % server.start()
        try:
            spec = _specs(1)[0]
            key = spec_hash(spec)
            client = _RawConn(addr, "client")
            client.send({
                "type": "submit", "key": key, "job": job_to_dict(spec, []),
            })
            assert client.recv()["state"] == "queued"

            # This worker fetches the job and then hangs: the TCP
            # connection stays open (so the vanished-worker reap never
            # fires) but no heartbeat and no `done` ever arrive.
            stalled = _RawConn(addr, "worker")
            stalled.send({"type": "fetch"})
            handed = stalled.recv()
            assert handed["type"] == "job" and handed["key"] == key
            assert server.stats()["running"] == 1

            # The lease reaper requeues it within ~a lease and a tick.
            deadline = 100
            while server.stats()["running"] and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            assert server.stats()["queued"] == 1

            # A healthy worker finishes it; the client never noticed.
            worker = _worker_thread(addr, max_jobs=1)
            client.send({"type": "wait", "keys": [key]})
            reply = client.recv()
            assert reply["type"] == "result" and reply["key"] == key
            assert reply["value"]["result"]["runtime"] > 0
            worker.join(timeout=30)
            stalled.close()
            client.close()
        finally:
            server.shutdown()

    def test_heartbeats_keep_a_slow_worker_leased(self, tmp_path):
        server = ExperimentServer("127.0.0.1", 0, lease=0.4)
        addr = "%s:%d" % server.start()
        try:
            client = _RawConn(addr, "client")
            client.send({
                "type": "submit", "key": "check-slow",
                "job": {"kind": "check", "oracle": "x", "schedule": {}},
            })
            assert client.recv()["state"] == "queued"

            # The lease is advertised in the handshake so real workers
            # can pace their heartbeats off it.
            slow = _RawConn(addr, "worker")
            assert slow.welcome.get("lease") == 0.4
            slow.send({"type": "fetch"})
            assert slow.recv()["type"] == "job"

            # Hold the job for several leases, heartbeating the whole
            # time: the job must stay leased to this worker.
            for _ in range(6):
                threading.Event().wait(0.2)
                slow.send({"type": "heartbeat"})  # fire-and-forget
                assert server.stats()["running"] == 1

            slow.send({"type": "done", "key": "check-slow",
                       "value": {"ok": True}})
            assert slow.recv()["type"] == "ack"
            assert server.stats()["done"] == 1
            slow.close()
            client.close()
        finally:
            server.shutdown()

    def test_late_done_from_expired_lease_is_harmless(self, tmp_path):
        # The stalled worker wakes up *after* its lease expired and the
        # job was requeued: its late `done` is accepted (idempotent) and
        # the stale queue entry must not hand the done job out again.
        server = ExperimentServer("127.0.0.1", 0, lease=0.3)
        addr = "%s:%d" % server.start()
        try:
            client = _RawConn(addr, "client")
            client.send({
                "type": "submit", "key": "check-late",
                "job": {"kind": "check", "oracle": "x", "schedule": {}},
            })
            assert client.recv()["state"] == "queued"

            stalled = _RawConn(addr, "worker")
            stalled.send({"type": "fetch"})
            assert stalled.recv()["type"] == "job"
            deadline = 100
            while server.stats()["running"] and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            assert server.stats()["queued"] == 1

            # Late completion lands while the key still sits in the queue.
            stalled.send({"type": "done", "key": "check-late",
                          "value": {"late": True}})
            assert stalled.recv()["type"] == "ack"
            assert server.stats()["done"] == 1

            # The next fetch must skip the stale queue entry (idle, not
            # a re-execution of the already-done job).
            other = _RawConn(addr, "worker")
            other.send({"type": "fetch"})
            assert other.recv()["type"] == "idle"
            assert server.stats()["done"] == 1
            stalled.close()
            other.close()
            client.close()
        finally:
            server.shutdown()


class TestConnectRetry:
    def test_worker_retries_until_server_appears(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        executed = []
        thread = threading.Thread(
            target=lambda: executed.append(
                run_worker(
                    ("127.0.0.1", port),
                    max_jobs=0,
                    connect_retries=40,
                    connect_backoff=0.05,
                )
            ),
            daemon=True,
        )
        thread.start()  # nothing is listening yet: the worker backs off
        threading.Event().wait(0.3)
        server = ExperimentServer("127.0.0.1", port)
        server.start()
        thread.join(timeout=15)
        server.shutdown()
        assert executed == [0], "worker never reached the late server"

    def test_zero_retries_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            run_worker(("127.0.0.1", port), max_jobs=0, connect_retries=0)


class TestIndexPersistence:
    def test_interrupted_jobs_resume_across_restart(self, tmp_path):
        index = tmp_path / "index"
        store = tmp_path / "store"
        spec = _specs(1)[0]
        key = spec_hash(spec)

        first = ExperimentServer(
            "127.0.0.1", 0, cache_dir=store, index_dir=index
        )
        addr = "%s:%d" % first.start()
        client = _RawConn(addr, "client")
        client.send({
            "type": "submit", "key": key, "job": job_to_dict(spec, []),
        })
        assert client.recv()["state"] == "queued"
        client.close()
        first.shutdown()

        # A restarted server finds the queued job in the index and a
        # worker finishes what the first server never started.
        second = ExperimentServer(
            "127.0.0.1", 0, cache_dir=store, index_dir=index
        )
        addr = "%s:%d" % second.start()
        assert second.stats()["queued"] == 1
        worker = _worker_thread(addr, max_jobs=1)
        client = _RawConn(addr, "client")
        client.send({"type": "wait", "keys": [key]})
        assert client.recv()["type"] == "result"
        worker.join(timeout=30)
        client.close()
        second.shutdown()

        # Third restart: the sim job is done; its result lives in the
        # store, so resubmission is answered without queueing.
        third = ExperimentServer(
            "127.0.0.1", 0, cache_dir=store, index_dir=index
        )
        addr = "%s:%d" % third.start()
        client = _RawConn(addr, "client")
        client.send({
            "type": "submit", "key": key, "job": job_to_dict(spec, []),
        })
        assert client.recv()["state"] == "done"
        client.close()
        third.shutdown()

    def test_corrupt_index_entries_are_quarantined_not_fatal(self, tmp_path):
        # A crash mid-write (or a disk fault) can leave truncated or
        # otherwise malformed entries behind.  Resume must shrug: log,
        # quarantine the bad record, load everything else — and the
        # damaged job requeues through idempotent resubmission.
        index = tmp_path / "index"
        index.mkdir()
        (index / "truncated.json").write_text('{"schema": 1, "key": "jo')
        (index / "notdict.json").write_text('[1, 2, 3]')
        (index / "nokey.json").write_text('{"schema": 1, "state": "queued"}')
        (index / "nopayload.json").write_text(json.dumps({
            "schema": 1, "key": "job-hurt", "state": "running",
            "payload": "not-a-dict",
        }))
        (index / "good.json").write_text(json.dumps({
            "schema": 1, "key": "check-good", "state": "queued",
            "payload": {"kind": "check", "oracle": "x", "schedule": {}},
            "submitted": 1.0,
        }))

        server = ExperimentServer("127.0.0.1", 0, index_dir=index)
        addr = "%s:%d" % server.start()
        try:
            # Only the intact entry resumed; every bad one is renamed
            # aside so the *next* restart is clean too.
            assert server.stats() == {
                "jobs": 1, "queued": 1, "running": 0, "done": 0,
            }
            names = sorted(p.name for p in index.iterdir())
            assert names == [
                "good.json",
                "nokey.json.corrupt",
                "nopayload.json.corrupt",
                "notdict.json.corrupt",
                "truncated.json.corrupt",
            ]

            # The job whose record was destroyed is simply unknown now:
            # resubmitting it queues it fresh instead of colliding.
            client = _RawConn(addr, "client")
            client.send({
                "type": "submit", "key": "job-hurt",
                "job": {"kind": "check", "oracle": "x", "schedule": {}},
            })
            assert client.recv()["state"] == "queued"
            assert server.stats()["queued"] == 2
            client.close()
        finally:
            server.shutdown()


class TestSeamFanout:
    def test_verify_reports_identical_over_service(self, service):
        from repro.harness.verify import run_oracles

        server, addr = service
        worker = _worker_thread(addr)
        serial = run_oracles(["safe-cut"], range(2))
        via_service = run_oracles(["safe-cut"], range(2), service=addr)
        assert via_service == serial
        server.shutdown()
        worker.join(timeout=30)

    def test_fuzz_parallel_matches_serial(self, tmp_path):
        from repro.harness.fuzz import CorpusDB, run_fuzz

        serial_corpus = CorpusDB(tmp_path / "serial")
        serial = run_fuzz(
            serial_corpus, iters=3, oracles=["safe-cut", "drain-conservation"]
        )
        parallel_corpus = CorpusDB(tmp_path / "parallel")
        parallel = run_fuzz(
            parallel_corpus,
            iters=3,
            oracles=["safe-cut", "drain-conservation"],
            jobs=2,
        )
        assert parallel.iterations == serial.iterations
        assert parallel.checks == serial.checks
        assert sorted(e.key for e in parallel_corpus.entries()) == sorted(
            e.key for e in serial_corpus.entries()
        )
        assert [e.key for e in parallel.anomalies] == [
            e.key for e in serial.anomalies
        ]
