"""Long-lived experiment service: job queue, workers, persistent index.

The fleet behind :func:`repro.harness.dispatch.fan_out`: a small control
plane that turns the engine's process+JSON worker boundary into a
network boundary, the architecture the paper's evaluation (and the
MANA/DMTCP proxy designs it builds on) actually runs — a fleet of
isolated executors coordinated through a thin submission layer with
persistent artifacts.

Three roles, one protocol (line-delimited JSON over TCP; every message
is a single ``\\n``-terminated JSON object):

* **server** (``repro-mpi serve``, :class:`ExperimentServer`) — owns the
  job queue and the persistent job index.  Jobs are keyed by
  :func:`~repro.harness.spec.spec_hash` (oracle checks by a content
  hash over oracle + schedule), so resubmission is idempotent: a job
  already queued, running, or done is never double-executed, and a
  simulation whose result is already in the shared
  :class:`~repro.harness.cache.ResultCache` is answered from the store
  without touching the queue.
* **workers** (``repro-mpi worker --connect HOST:PORT``,
  :func:`run_worker`) — pull-model executors.  A worker long-polls
  ``fetch``, executes the job exactly as an in-process engine would
  (same :func:`~repro.harness.engine._execute_job` body), writes the
  result — *including full checkpoint images* — into the shared cache,
  and reports the JSON result back.
  A worker that dies mid-job takes nothing with it: the server requeues
  the orphaned job the moment the connection drops — and when the
  server runs with a job lease (``--lease``), a *hung-but-connected*
  worker loses its job too once its heartbeats stop.
* **clients** (``--service HOST:PORT`` on any engine-backed command,
  :class:`ServiceDispatch`) — submit jobs and block on ``wait``.
  Results cross the wire in cache JSON form (image payloads stripped);
  anything needing images recovers them from the shared image tier, the
  same degradation path a warm cache already exercises, which is why
  service results are byte-identical to in-process ones.

Protocol sketch (client)::

    -> {"type": "hello", "role": "client", "protocol": 1}
    <- {"type": "welcome", "protocol": 1}
    -> {"type": "submit", "key": K, "job": {...}}
    <- {"type": "accepted", "key": K, "state": "queued"}
    -> {"type": "wait", "keys": [K, ...]}
    <- {"type": "result", "key": K, "value": {...}}

and (worker)::

    -> {"type": "fetch"}
    <- {"type": "job", "key": K, "job": {...}, "cache_dir": "..."} | {"type": "idle"}
    -> {"type": "done", "key": K, "value": {...}}
    <- {"type": "ack"}

The persistent index (``<index-dir>/<key>.json``, atomic writes) records
every job's lifecycle; queued and running jobs keep their payload, so a
restarted server resumes interrupted work instead of losing it.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from collections import deque
from pathlib import Path

from ..util.hashing import stable_json_hash
from ..util.osenv import atomic_write
from .cache import ResultCache
from .dispatch import DispatchError, run_check
from .spec import (
    job_from_dict,
    job_to_dict,
    run_result_from_dict,
    run_result_to_dict,
    spec_from_dict,
    spec_hash,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "ExperimentServer",
    "ServiceDispatch",
    "check_job_key",
    "run_worker",
]

PROTOCOL_VERSION = 1
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7463

#: How long a worker ``fetch`` parks server-side before an ``idle``
#: heartbeat tells it to re-poll.  Short enough that shutdown and
#: requeue propagate promptly; long enough that idle workers cost
#: nothing.
FETCH_PARK_SECONDS = 2.0

#: Cap on the worker's exponential connect-retry backoff (seconds).
CONNECT_BACKOFF_CAP = 15.0


def _send(sock: socket.socket, obj: dict) -> None:
    sock.sendall(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n")


def _recv(rfile) -> "dict | None":
    line = rfile.readline()
    if not line:
        return None
    return json.loads(line)


def check_job_key(oracle: str, schedule: dict) -> str:
    """Content key for one oracle-check job (dedupes like a sim job)."""
    return "check-" + stable_json_hash({"oracle": oracle, "schedule": schedule})


class _Job:
    __slots__ = ("key", "payload", "state", "value", "worker", "submitted",
                 "completed", "leased")

    def __init__(self, key: str, payload: "dict | None"):
        self.key = key
        self.payload = payload
        self.state = "queued"
        self.value: "dict | None" = None
        self.worker: "str | None" = None
        self.submitted = time.time()
        self.completed: "float | None" = None
        #: Monotonic time of the last lease renewal (assignment or
        #: worker heartbeat); None while not running.
        self.leased: "float | None" = None


class ExperimentServer:
    """The control plane: queue, index, and the shared artifact store.

    Args:
        host/port: listen address (``port=0`` picks a free port —
            :meth:`start` returns the bound address).
        cache_dir: root of the shared :class:`ResultCache`.  The server
            consults it before queueing simulations and forwards it to
            workers as their artifact store; ``None`` runs store-less.
        index_dir: persistent job index location; defaults to
            ``<cache_dir>/service-index`` when a cache is configured,
            else in-memory only.
        lease: per-job lease in seconds.  A running job whose worker
            has neither finished nor heartbeat within the lease is
            requeued, so a *hung-but-connected* worker cannot strand a
            job the way a vanished one already can't.  The lease is
            advertised in the handshake; :func:`run_worker` heartbeats
            at a third of it.  ``None`` disables lease reaping
            (connection drop remains the only requeue trigger).
        progress: emit one lifecycle line per job transition on stderr.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        cache_dir: "str | os.PathLike | None" = None,
        index_dir: "str | os.PathLike | None" = None,
        lease: "float | None" = None,
        progress: bool = False,
    ):
        if lease is not None and lease <= 0:
            raise ValueError(f"lease must be positive, got {lease}")
        self.lease = lease
        self.host = host
        self.port = port
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self._cache = None if cache_dir is None else ResultCache(cache_dir)
        if index_dir is None and self.cache_dir is not None:
            index_dir = self.cache_dir / "service-index"
        self.index_dir = None if index_dir is None else Path(index_dir)
        self.progress = progress

        self._cond = threading.Condition()
        self._jobs: "dict[str, _Job]" = {}
        self._queue: "deque[str]" = deque()
        self._shutdown = False
        self._listener: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._conns: "set[socket.socket]" = set()
        self._next_conn = 0
        self._load_index()

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> tuple[str, int]:
        """Bind, accept in a background thread, return ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        if self.lease is not None:
            threading.Thread(
                target=self._lease_loop, name="repro-serve-lease", daemon=True
            ).start()
        self._log(f"serving on {self.host}:{self.port}")
        return self.host, self.port

    def serve_forever(self) -> None:
        """:meth:`start` (if needed) and block until :meth:`shutdown`."""
        if self._listener is None:
            self.start()
        try:
            while True:
                with self._cond:
                    if self._shutdown:
                        return
                    self._cond.wait(timeout=1.0)
        except KeyboardInterrupt:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting, wake every parked handler, close connections."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
            conns = list(self._conns)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._log("shut down")

    def stats(self) -> dict:
        with self._cond:
            states: "dict[str, int]" = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "queued": states.get("queued", 0),
                "running": states.get("running", 0),
                "done": states.get("done", 0),
            }

    # -- connection handling -------------------------------------------- #

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown()
            with self._cond:
                if self._shutdown:
                    conn.close()
                    return
                self._next_conn += 1
                conn_id = f"conn-{self._next_conn}"
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn, conn_id),
                name=f"repro-serve-{conn_id}",
                daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket, conn_id: str) -> None:
        rfile = conn.makefile("rb")
        try:
            hello = _recv(rfile)
            if not hello or hello.get("type") != "hello":
                _send(conn, {"type": "error", "message": "expected hello"})
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                _send(conn, {
                    "type": "error",
                    "message": f"protocol {hello.get('protocol')!r} "
                               f"unsupported (server speaks {PROTOCOL_VERSION})",
                })
                return
            welcome: dict = {"type": "welcome", "protocol": PROTOCOL_VERSION}
            if self.lease is not None:
                welcome["lease"] = self.lease
            _send(conn, welcome)
            while True:
                msg = _recv(rfile)
                if msg is None or msg.get("type") == "bye":
                    return
                reply = self._handle(msg, conn_id)
                if reply is not None:
                    _send(conn, reply)
        except (OSError, ValueError):
            pass  # connection dropped mid-message; requeue below
        finally:
            rfile.close()
            try:
                conn.close()
            except OSError:
                pass
            with self._cond:
                self._conns.discard(conn)
            self._reap_worker(conn_id)

    def _handle(self, msg: dict, conn_id: str) -> "dict | None":
        kind = msg.get("type")
        if kind == "submit":
            return self._handle_submit(msg)
        if kind == "wait":
            return self._handle_wait(msg)
        if kind == "fetch":
            return self._handle_fetch(conn_id)
        if kind == "done":
            return self._handle_done(msg, conn_id)
        if kind == "heartbeat":
            self._handle_heartbeat(conn_id)
            return None  # fire-and-forget: heartbeats get no reply
        if kind == "stats":
            return {"type": "stats", **self.stats()}
        return {"type": "error", "message": f"unknown message type {kind!r}"}

    # -- client ops ----------------------------------------------------- #

    def _handle_submit(self, msg: dict) -> dict:
        key = msg.get("key")
        payload = msg.get("job")
        if not key or not isinstance(payload, dict):
            return {"type": "error", "message": "submit needs key and job"}
        with self._cond:
            job = self._jobs.get(key)
            if job is not None:
                return {"type": "accepted", "key": key, "state": job.state}
            value = self._store_lookup(payload)
            job = _Job(key, None if value is not None else payload)
            if value is not None:
                job.state = "done"
                job.value = value
                job.completed = time.time()
                self._log(f"job {key}: served from store")
            else:
                self._queue.append(key)
                self._log(f"job {key}: queued")
            self._jobs[key] = job
            self._persist(job)
            self._cond.notify_all()
            return {"type": "accepted", "key": key, "state": job.state}

    def _store_lookup(self, payload: dict) -> "dict | None":
        """Answer a sim submission from the shared cache, if possible."""
        if self._cache is None or payload.get("kind") != "sim":
            return None
        try:
            spec = spec_from_dict(payload["spec"])
            hit = self._cache.get(spec)
        except Exception:
            return None
        if hit is None:
            return None
        elapsed = self._cache.recorded_time(spec)
        return {
            "result": run_result_to_dict(hit),
            "elapsed": 0.0 if elapsed is None else elapsed,
            "served": 0,
            "cached": True,
        }

    def _handle_wait(self, msg: dict) -> dict:
        keys = msg.get("keys") or []
        with self._cond:
            while True:
                for key in keys:
                    job = self._jobs.get(key)
                    if job is not None and job.state == "done":
                        return {"type": "result", "key": key,
                                "value": job.value}
                if self._shutdown:
                    return {"type": "error",
                            "message": "server shutting down"}
                unknown = [k for k in keys if k not in self._jobs]
                if unknown:
                    return {"type": "error",
                            "message": f"unknown job keys: {unknown[:3]}"}
                self._cond.wait(timeout=1.0)

    # -- worker ops ----------------------------------------------------- #

    def _handle_fetch(self, conn_id: str) -> dict:
        deadline = time.monotonic() + FETCH_PARK_SECONDS
        with self._cond:
            while True:
                if self._shutdown:
                    return {"type": "shutdown"}
                if self._queue:
                    key = self._queue.popleft()
                    job = self._jobs[key]
                    if job.state != "queued":
                        # Resolved while parked in the queue (a stale
                        # lease's worker woke up and finished late).
                        continue
                    job.state = "running"
                    job.worker = conn_id
                    job.leased = time.monotonic()
                    self._persist(job)
                    self._log(f"job {key}: assigned to {conn_id}")
                    reply = {"type": "job", "key": key, "job": job.payload}
                    if self.cache_dir is not None:
                        reply["cache_dir"] = str(self.cache_dir)
                    return reply
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"type": "idle"}
                self._cond.wait(timeout=remaining)

    def _handle_done(self, msg: dict, conn_id: str) -> dict:
        key = msg.get("key")
        value = msg.get("value")
        with self._cond:
            job = self._jobs.get(key)
            if job is not None and job.state != "done":
                job.state = "done"
                job.value = value
                job.worker = conn_id
                job.leased = None
                job.completed = time.time()
                self._persist(job)
                self._log(f"job {key}: done by {conn_id}")
                self._cond.notify_all()
            return {"type": "ack", "key": key}

    def _handle_heartbeat(self, conn_id: str) -> None:
        """Renew the lease on every job the sending worker is running."""
        with self._cond:
            for job in self._jobs.values():
                if job.state == "running" and job.worker == conn_id:
                    job.leased = time.monotonic()

    def _reap_worker(self, conn_id: str) -> None:
        """Requeue every job a vanished worker was running."""
        with self._cond:
            orphaned = [
                job for job in self._jobs.values()
                if job.state == "running" and job.worker == conn_id
            ]
            for job in orphaned:
                self._requeue_locked(job, f"{conn_id} vanished")
            if orphaned:
                self._cond.notify_all()

    def _requeue_locked(self, job: _Job, why: str) -> None:
        """Put a running job back at the queue front (caller holds lock)."""
        job.state = "queued"
        job.worker = None
        job.leased = None
        # Front of the queue: the job already waited its turn.
        self._queue.appendleft(job.key)
        self._persist(job)
        self._log(f"job {job.key}: {why}, requeued")

    def _lease_loop(self) -> None:
        """Requeue running jobs whose worker stopped heartbeating.

        A vanished worker is caught by :meth:`_reap_worker` when its
        connection drops; this loop catches the nastier case — a worker
        that is hung but still connected, holding its job forever.  The
        stale worker's late ``done`` (if it ever wakes) is still
        accepted by :meth:`_handle_done`, which is idempotent.
        """
        assert self.lease is not None
        interval = min(self.lease / 4.0, 1.0)
        while True:
            with self._cond:
                if self._shutdown:
                    return
                self._cond.wait(timeout=interval)
                if self._shutdown:
                    return
                now = time.monotonic()
                stalled = [
                    job for job in self._jobs.values()
                    if job.state == "running"
                    and job.leased is not None
                    and now - job.leased > self.lease
                ]
                for job in stalled:
                    self._requeue_locked(
                        job,
                        f"lease expired on {job.worker} "
                        f"({self.lease:.1f}s without heartbeat)",
                    )
                if stalled:
                    self._cond.notify_all()

    # -- persistent index ----------------------------------------------- #

    def _persist(self, job: _Job) -> None:
        """Atomically write one job's index entry (caller holds the lock).

        Queued/running entries keep the payload so a restarted server
        resumes them; done entries keep check values (small reports) but
        drop sim values — sim results live in the shared cache, and a
        resubmission is answered from the store.
        """
        if self.index_dir is None:
            return
        doc: dict = {
            "schema": 1,
            "key": job.key,
            "kind": (job.payload or {}).get("kind", "sim"),
            "state": job.state,
            "worker": job.worker,
            "submitted": job.submitted,
            "completed": job.completed,
        }
        if job.state != "done":
            doc["payload"] = job.payload
        elif job.key.startswith("check-"):
            doc["value"] = job.value
        try:
            atomic_write(
                self.index_dir / f"{job.key}.json",
                json.dumps(doc, separators=(",", ":")),
            )
        except OSError:
            pass  # best-effort: an unpersisted job is resubmitted, not lost

    def _quarantine(self, path: Path, why: str) -> None:
        """Move a broken index entry aside so it never wedges a resume.

        The entry's job is effectively requeued through idempotent
        resubmission: with the record gone, the next client ``submit``
        of the same key queues it fresh (or answers it from the store)
        instead of colliding with a half-parsed ghost.
        """
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
            self._log(f"index entry {path.name}: {why}; "
                      f"quarantined as {target.name}")
        except OSError as exc:
            self._log(f"index entry {path.name}: {why}; "
                      f"could not quarantine ({exc}), ignored")

    def _load_index(self) -> None:
        """Resume persisted jobs: interrupted work requeues, finished
        check reports restore.  Done sims restore as index-only records
        (their results are answered from the cache on resubmission).

        A truncated or otherwise corrupt entry (a crash mid-``os.replace``
        on exotic filesystems, manual edits, disk faults) is logged and
        quarantined — resume must never crash on one bad record."""
        if self.index_dir is None or not self.index_dir.is_dir():
            return
        entries = sorted(self.index_dir.glob("*.json"))
        resumed = 0
        for path in entries:
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                self._quarantine(path, f"unreadable ({exc})")
                continue
            if not isinstance(doc, dict):
                self._quarantine(
                    path, f"expected a JSON object, got {type(doc).__name__}"
                )
                continue
            key = doc.get("key")
            if not key or not isinstance(key, str):
                self._quarantine(path, "missing job key")
                continue
            if key in self._jobs:
                continue
            state = doc.get("state")
            if state in ("queued", "running"):
                payload = doc.get("payload")
                if not isinstance(payload, dict):
                    self._quarantine(
                        path, f"{state} entry lost its payload"
                    )
                    continue
                job = _Job(key, payload)
                job.submitted = doc.get("submitted", job.submitted)
                self._jobs[key] = job
                self._queue.append(key)
                if state == "running":
                    job.state = "queued"
                    self._persist(job)
                resumed += 1
            elif state == "done" and isinstance(doc.get("value"), dict):
                job = _Job(key, None)
                job.state = "done"
                job.value = doc["value"]
                job.submitted = doc.get("submitted", job.submitted)
                job.completed = doc.get("completed")
                self._jobs[key] = job
        if resumed:
            self._log(f"resumed {resumed} interrupted job(s) from the index")

    def _log(self, message: str) -> None:
        if self.progress:
            print(f"[serve] {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------- #

def _connect_with_retry(
    addr: tuple[str, int],
    retries: int,
    backoff: float,
    log,
) -> socket.socket:
    """Dial the service, retrying with capped exponential backoff.

    A worker is typically launched alongside (or before) its server —
    by a job scheduler, a CI step, or a shell one-liner — so "nothing
    is listening yet" is a normal startup race, not an error.  Retry
    ``retries`` times, sleeping ``backoff * 2**attempt`` (capped at
    :data:`CONNECT_BACKOFF_CAP`) between dials, then give up and
    re-raise the last ``OSError``.
    """
    attempt = 0
    while True:
        try:
            return socket.create_connection(addr)
        except OSError as exc:
            if attempt >= retries:
                raise
            delay = min(backoff * 2.0 ** attempt, CONNECT_BACKOFF_CAP)
            attempt += 1
            log(f"connect to {addr[0]}:{addr[1]} failed ({exc}); "
                f"retry {attempt}/{retries} in {delay:.1f}s")
            time.sleep(delay)


def run_worker(
    addr: tuple[str, int],
    *,
    cache_dir: "str | os.PathLike | None" = None,
    max_jobs: "int | None" = None,
    connect_retries: int = 0,
    connect_backoff: float = 0.5,
    progress: bool = False,
) -> int:
    """Pull-model worker loop; returns the number of jobs executed.

    Connects to the experiment server (retrying ``connect_retries``
    times with capped exponential backoff seeded at ``connect_backoff``
    seconds, so workers may be launched before their server), long-polls
    ``fetch``, executes each job with the engine's own job body, and
    writes sim results — full checkpoint images included — into the
    shared artifact store before reporting the (image-stripped) JSON
    result back.  ``cache_dir`` overrides the server-advertised store
    (multi-host workers mount it elsewhere).  When the server advertises
    a job lease, a background thread heartbeats at a third of it so a
    slow (but live) job keeps its lease.  Exits after ``max_jobs`` jobs,
    on server shutdown, or on SIGINT.
    """
    from . import engine as engine_mod

    executed = 0

    def log(message: str) -> None:
        if progress:
            print(f"[worker] {message}", file=sys.stderr, flush=True)

    sock = _connect_with_retry(addr, connect_retries, connect_backoff, log)
    rfile = sock.makefile("rb")
    send_lock = threading.Lock()
    stop_beats = threading.Event()

    def send(obj: dict) -> None:
        with send_lock:
            _send(sock, obj)

    def beat_loop(interval: float) -> None:
        while not stop_beats.wait(interval):
            try:
                send({"type": "heartbeat"})
            except OSError:
                return

    try:
        send({"type": "hello", "role": "worker",
              "protocol": PROTOCOL_VERSION})
        welcome = _recv(rfile)
        if not welcome or welcome.get("type") != "welcome":
            raise DispatchError(
                f"experiment service refused the handshake: {welcome!r}"
            )
        log(f"connected to {addr[0]}:{addr[1]}")
        lease = welcome.get("lease")
        if lease:
            threading.Thread(
                target=beat_loop,
                args=(max(float(lease) / 3.0, 0.05),),
                name="repro-worker-heartbeat",
                daemon=True,
            ).start()
        while max_jobs is None or executed < max_jobs:
            send({"type": "fetch"})
            msg = _recv(rfile)
            if msg is None or msg.get("type") == "shutdown":
                log("server went away")
                break
            if msg.get("type") == "idle":
                continue
            if msg.get("type") != "job":
                raise DispatchError(f"unexpected fetch reply: {msg!r}")
            key = msg["key"]
            payload = msg["job"]
            store = cache_dir if cache_dir is not None else msg.get("cache_dir")
            if payload.get("kind") == "check":
                value = run_check(payload["oracle"], payload["schedule"])
            else:
                spec, deps, guard = job_from_dict(payload)
                result, elapsed, served = engine_mod._execute_job(
                    spec, deps, guard, store
                )
                if store is not None:
                    # Worker-side put, before the JSON hop strips image
                    # payloads: this is what keeps the shared image tier
                    # warm for restart chains.
                    ResultCache(store).put(spec, result, elapsed=elapsed)
                value = {
                    "result": run_result_to_dict(result),
                    "elapsed": elapsed,
                    "served": served,
                    "cached": False,
                }
            send({"type": "done", "key": key, "value": value})
            ack = _recv(rfile)
            if ack is None:
                break
            executed += 1
            log(f"job {key}: done ({executed} total)")
    except KeyboardInterrupt:
        log("interrupted")
    finally:
        stop_beats.set()
        try:
            send({"type": "bye"})
        except OSError:
            pass
        rfile.close()
        sock.close()
    return executed


# --------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------- #

class ServiceDispatch:
    """A client connection to an :class:`ExperimentServer`.

    Opened lazily on first use and held until :meth:`close`, so an
    engine's waves and batches are one client session server-side.
    :meth:`fan_out` is :func:`repro.harness.dispatch.fan_out` over the
    wire: every payload is submitted keyed by content hash, then
    ``wait`` is long-polled over the outstanding keys.  Identical
    payloads (same key) share one server-side job and resolve together.
    """

    def __init__(self, addr: tuple[str, int]):
        self.addr = addr
        self._sock: "socket.socket | None" = None
        self._rfile = None

    def _connect(self) -> None:
        host, port = self.addr
        try:
            self._sock = socket.create_connection((host, port))
        except OSError as exc:
            raise DispatchError(
                f"cannot reach experiment service at {host}:{port} "
                f"({exc}); start one with `repro-mpi serve`"
            ) from exc
        self._rfile = self._sock.makefile("rb")
        try:
            self._roundtrip({"type": "hello", "role": "client",
                             "protocol": PROTOCOL_VERSION}, "welcome")
        except DispatchError:
            self.close()
            raise

    def _roundtrip(self, msg: dict, expect: str) -> dict:
        if self._sock is None:
            self._connect()
        try:
            _send(self._sock, msg)
            reply = _recv(self._rfile)
        except OSError as exc:
            raise DispatchError(
                f"experiment service connection lost ({exc})"
            ) from exc
        if reply is None:
            raise DispatchError("experiment service closed the connection")
        if reply.get("type") == "error":
            raise DispatchError(
                f"experiment service error: {reply.get('message')}"
            )
        if reply.get("type") != expect:
            raise DispatchError(f"unexpected {msg['type']} reply: {reply!r}")
        return reply

    def fan_out(self, payloads):
        """Yield ``(index, value)`` for every payload as the fleet
        finishes it (completion order)."""
        waiting: "dict[str, list[int]]" = {}
        # Keys whose submission found the job already done server-side:
        # no simulation happened on this client's behalf, so the result
        # is accounted as a (store) cache hit whatever the original
        # execution recorded.
        prehit: "set[str]" = set()
        for index, payload in enumerate(payloads):
            if payload["kind"] == "check":
                # The client's cache directory means nothing on the
                # fleet's hosts; only what identifies the check travels.
                doc = {k: payload[k] for k in ("kind", "oracle", "schedule")}
                key = check_job_key(doc["oracle"], doc["schedule"])
            else:
                doc = job_to_dict(
                    payload["spec"], payload["deps"], guard=payload["guard"]
                )
                key = spec_hash(payload["spec"])
            reply = self._roundtrip(
                {"type": "submit", "key": key, "job": doc}, "accepted"
            )
            if reply.get("state") == "done":
                prehit.add(key)
            waiting.setdefault(key, []).append(index)
        while waiting:
            reply = self._roundtrip(
                {"type": "wait", "keys": list(waiting)}, "result"
            )
            key, value = reply["key"], reply["value"]
            indices = waiting.pop(key)
            if payloads[indices[0]]["kind"] == "sim":
                value = (
                    run_result_from_dict(value["result"]),
                    value.get("elapsed", 0.0),
                    value.get("served", 0),
                    bool(value.get("cached", False)) or key in prehit,
                )
            for index in indices:
                yield index, value

    def close(self) -> None:
        if self._sock is not None:
            try:
                _send(self._sock, {"type": "bye"})
            except OSError:
                pass
            self._rfile.close()
            self._sock.close()
            self._sock = None
            self._rfile = None
