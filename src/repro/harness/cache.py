"""Persistent on-disk result cache keyed by spec content hash.

Layout: ``<cache_dir>/v<SCHEMA_VERSION>/<hh>/<spec_hash>.json`` — one
JSON document per unique :class:`~repro.harness.spec.RunSpec`, fanned
into 256 two-hex-digit shard directories (``<hh>`` is the hash's first
two characters) so a long-lived shared cache never accumulates tens of
thousands of files in one directory.  This is the only layout: files a
pre-sharding version left directly under ``v<SCHEMA>/`` are never read,
counted or rewritten (delete the directory to reclaim the space).
Bumping ``SCHEMA_VERSION`` (a change to spec semantics or result
layout) silently orphans older entries rather than misreading them;
corrupt or truncated files count as misses and are overwritten on the
next store.

The cache stores the JSON form of :class:`RunResult`, which drops
checkpoint-image payloads (see ``spec.py``); on its own, a cached
checkpointing run replays every *measurement* but cannot seed a
restart.  The **image tier** closes that gap: whenever a stored result
carries full checkpoint images, each committed checkpoint's image map
is packed (the images' bytes behind a SHA-256 integrity digest; see
:func:`repro.mana.image.pack_image_set`) and written to
``v<SCHEMA>-images/<hh>/<spec_hash>.c<committed_index>.img`` (sharded
like entries).  A warm restart then loads its parent's images straight
from the tier instead of re-simulating the parent run.  Integrity
failures, truncations and anything else that is not a verifiable
archive of the current version — including what earlier versions kept
at the same path — read as misses, and the tier can only ever make
restarts faster, never wrong.  Image files are evicted together with
their spec's entry by ``clear``/``prune``, age out with
``prune_older_than``, and the tier's total footprint can be capped with
:meth:`ResultCache.prune_images_to_max_bytes`.

Alongside results, the cache records each spec's **execution wall
time** — both inside the entry document (``"elapsed"``) and in a small
sidecar (``v<SCHEMA>-timings.json``).  The sidecar survives ``clear``
(a wiped cache still schedules from history) but tracks evictions:
``prune`` variants drop the evicted hashes' timings, and the sidecar is
capped at :data:`TIMINGS_MAX_ENTRIES` entries (oldest records evicted
first) so it cannot grow without bound.  The engine uses these recorded
times to schedule each dependency wave longest-pole-first; see
:meth:`ResultCache.recorded_time`.

The default location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mpi``.
Writes are atomic (tempfile + rename) so concurrent engine workers and
concurrent CLI invocations can share a cache directory safely.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..mana import CheckpointImage
from ..mana.image import ImageError, pack_image_set, unpack_image_set
from ..util.osenv import atomic_write
from .runner import RunResult
from .spec import (
    SCHEMA_VERSION,
    RunSpec,
    record_has_full_images,
    run_result_from_dict,
    run_result_to_dict,
    spec_hash,
    spec_to_dict,
)

__all__ = ["ResultCache", "default_cache_dir", "TIMINGS_MAX_ENTRIES"]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Hard cap on timing-sidecar entries.  The sidecar survives ``clear``
#: by design (it is the scheduling cost model; a schema bump starts a
#: new one, the path being ``v<SCHEMA>-timings.json``), which also
#: means nothing else ever shrinks it; the cap evicts the oldest
#: records once the model outgrows any plausible working set.
TIMINGS_MAX_ENTRIES = 4096


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-mpi``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-mpi"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Image-tier traffic: sets written on ``put`` / served to restarts.
    image_stores: int = 0
    image_hits: int = 0


class ResultCache:
    """Spec-hash-keyed JSON store for :class:`RunResult` values."""

    def __init__(self, directory: "Path | str | None" = None):
        self.root = Path(directory) if directory is not None else default_cache_dir()
        self.stats = CacheStats()
        #: spec hash -> (wall seconds, record epoch); lazily loaded from
        #: the sidecar on first use.
        self._timings: dict[str, tuple[float, float]] | None = None
        #: Hashes explicitly evicted this session — excluded when the
        #: sidecar write merges concurrent writers' entries back in, so
        #: an eviction is not undone by the merge.
        self._dropped_timings: set[str] = set()
        #: Inside :meth:`batched_timings`: records stay in memory and
        #: ``_timings_unwritten`` marks that the block owes a write.
        self._timings_batched = False
        self._timings_unwritten = False

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    @property
    def images_dir(self) -> Path:
        """The image tier: one file per (spec, committed checkpoint)."""
        return self.root / f"v{SCHEMA_VERSION}-images"

    @property
    def timings_path(self) -> Path:
        # Deliberately *outside* version_dir so clear()/prune() leave the
        # cost model intact: after a cache wipe the next batch still
        # schedules longest-pole-first from historical times.
        return self.root / f"v{SCHEMA_VERSION}-timings.json"

    # Entries and image files are fanned into 256 shard directories
    # named by the key's first two hex digits.  Every method hashes its
    # spec at most once and works on the key from there (``spec_hash``
    # canonicalises the whole restart chain, which makes it the dominant
    # cost of a warm read).

    _SHARD_GLOB = "[0-9a-f][0-9a-f]"

    @staticmethod
    def _key(spec_or_hash: "RunSpec | str") -> str:
        if isinstance(spec_or_hash, str):
            return spec_or_hash
        return spec_hash(spec_or_hash)

    def _entry_path(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.json"

    def path_for(self, spec: RunSpec) -> Path:
        return self._entry_path(spec_hash(spec))

    def get(self, spec: RunSpec) -> RunResult | None:
        """The cached result for ``spec``, or None on miss/corruption."""
        key = spec_hash(spec)
        try:
            document = json.loads(self._entry_path(key).read_text())
            result = run_result_from_dict(document["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        elapsed = document.get("elapsed")
        if isinstance(elapsed, (int, float)) and elapsed > 0:
            # Harvest the recorded time into memory (no sidecar write):
            # a warm run learns its cost model from the entries it reads.
            # Stamped "now": a hit re-confirms the entry, so if the
            # harvest ever reaches the sidecar it must not sort as
            # ancient and be first out at the cap.
            timings = self._load_timings()
            stamp = max(
                time.time(), timings[key][1] if key in timings else 0.0
            )
            timings[key] = (float(elapsed), stamp)
        self.stats.hits += 1
        return result

    # ------------------------------------------------------------------ #
    # Execution-time records (the engine's scheduling cost model)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _parse_timing(value) -> "tuple[float, float] | None":
        """One sidecar entry, ``[seconds, epoch]``; anything else is dropped."""
        if (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)
            and value[0] > 0
        ):
            return (float(value[0]), float(value[1]))
        return None

    def _read_timings_file(self) -> dict[str, tuple[float, float]]:
        try:
            raw = json.loads(self.timings_path.read_text())
            if not isinstance(raw, dict):
                return {}
        except (OSError, ValueError):
            return {}
        out: dict[str, tuple[float, float]] = {}
        for key, value in raw.items():
            parsed = self._parse_timing(value)
            if parsed is not None:
                out[str(key)] = parsed
        return out

    def _load_timings(self) -> dict[str, tuple[float, float]]:
        if self._timings is None:
            self._timings = self._read_timings_file()
        return self._timings

    def _write_timings(self) -> None:
        """Merge-on-write sidecar replacement.

        Re-reads the sidecar and merges entries other writers added, so
        concurrent engines sharing a cache directory lose at most a race
        on the *same* spec's time, never each other's entries.  Hashes
        this cache explicitly evicted stay evicted, and the result is
        capped at :data:`TIMINGS_MAX_ENTRIES` (oldest records first out)
        so the sidecar cannot grow without bound across cleared caches
        and pruned figures.
        """
        self._timings_unwritten = False
        timings = self._load_timings()
        for key, value in self._read_timings_file().items():
            if key not in self._dropped_timings:
                timings.setdefault(key, value)
        if len(timings) > TIMINGS_MAX_ENTRIES:
            keep = sorted(timings.items(), key=lambda kv: kv[1][1], reverse=True)
            timings = dict(keep[:TIMINGS_MAX_ENTRIES])
            self._timings = timings
        atomic_write(
            self.timings_path,
            json.dumps(
                {k: [s, t] for k, (s, t) in timings.items()},
                separators=(",", ":"),
            ),
        )

    def recorded_time(self, spec: RunSpec) -> float | None:
        """Last recorded execution wall time for ``spec``, if any."""
        entry = self._load_timings().get(spec_hash(spec))
        return None if entry is None else entry[0]

    def record_time(self, spec_or_hash: "RunSpec | str", seconds: float) -> None:
        """Record a spec's execution wall time in the sidecar."""
        if seconds <= 0:
            return
        key = self._key(spec_or_hash)
        self._load_timings()[key] = (seconds, time.time())
        self._dropped_timings.discard(key)
        if self._timings_batched:
            self._timings_unwritten = True
        else:
            self._write_timings()

    @contextlib.contextmanager
    def batched_timings(self):
        """Hold :meth:`record_time`'s sidecar writes back until the
        block exits, then merge-write once (the engine wraps each wave:
        re-reading, merging and rewriting the whole sidecar per ``put``
        made a job's fixed cost grow with the batch).  The write happens
        even when the block raises; a process killed inside it loses
        only a scheduling hint that every entry still carries as
        ``"elapsed"`` and :meth:`get` re-harvests."""
        self._timings_batched = True
        try:
            yield
        finally:
            self._timings_batched = False
            if self._timings_unwritten:
                self._write_timings()

    def drop_timings(self, hashes: Iterable[str]) -> int:
        """Evict the given spec hashes from the timing sidecar.

        Returns how many were present in this cache's own view.  The
        sidecar is rewritten whenever anything was *requested*, not
        only when the in-memory view held it: a concurrent writer may
        have recorded the hash after this cache loaded its view, and
        the merge-on-write (which excludes ``_dropped_timings``) is
        what makes the eviction stick on disk.
        """
        timings = self._load_timings()
        dropped = 0
        requested = False
        for key in hashes:
            requested = True
            self._dropped_timings.add(key)
            if timings.pop(key, None) is not None:
                dropped += 1
        if requested:
            self._write_timings()
        return dropped

    def timing_count(self) -> int:
        return len(self._load_timings())

    # ------------------------------------------------------------------ #
    # Image tier (full checkpoint images for warm restarts)
    # ------------------------------------------------------------------ #

    def image_path_for(self, spec_or_hash: "RunSpec | str", index: int) -> Path:
        """Where a spec's ``index``-th *committed* checkpoint's image
        set is (or would be) stored."""
        key = self._key(spec_or_hash)
        return self.images_dir / key[:2] / f"{key}.c{int(index)}.img"

    def put_images(self, spec_or_hash: "RunSpec | str", result: RunResult) -> int:
        """Store every committed checkpoint's full images for a spec.

        Records without full images (e.g. a result that already crossed
        the JSON boundary) are skipped silently; returns the number of
        image sets stored.  Writes are atomic for the same reason entry
        writes are.
        """
        key = self._key(spec_or_hash)
        committed = [r for r in result.checkpoints if r.committed]
        written = 0
        for index, record in enumerate(committed):
            if not record_has_full_images(record):
                continue
            atomic_write(self.image_path_for(key, index), pack_image_set(record.images))
            written += 1
            self.stats.image_stores += 1
        return written

    def get_images(
        self, spec_or_hash: "RunSpec | str", index: int
    ) -> "dict[int, CheckpointImage] | None":
        """The stored image map for a committed checkpoint, or None.

        Misses cover everything that could be wrong — no file, a
        truncated or digest-mismatching archive, an unknown format, a
        body that does not decode — so callers can always fall back to
        re-simulating the parent.
        """
        try:
            images = unpack_image_set(
                self.image_path_for(spec_or_hash, index).read_bytes()
            )
        except (OSError, ImageError):
            return None
        self.stats.image_hits += 1
        return images

    def has_images(self, spec_or_hash: "RunSpec | str", index: int) -> bool:
        """Cheap existence probe (no read/verify) used by wave planning.

        A file that fails verification on the later :meth:`get_images`
        degrades to parent re-simulation inside the job, so planning on
        existence alone is safe.
        """
        return self.image_path_for(spec_or_hash, index).is_file()

    def _image_files(self) -> "list[Path]":
        return list(self.images_dir.glob(f"{self._SHARD_GLOB}/*.img"))

    def _drop_images(self, hashes: Iterable[str]) -> None:
        """Delete the given spec hashes' image sets."""
        for key in hashes:
            for path in (self.images_dir / key[:2]).glob(f"{key}.c*.img"):
                _unlink(path)

    def image_count(self) -> int:
        """Stored image sets."""
        return len(self._image_files())

    def image_bytes(self) -> int:
        """On-disk footprint of the image tier."""
        return sum(size for _, size, _ in _stat_files(self._image_files()))

    def prune_images_older_than(self, max_age_seconds: float) -> int:
        """Evict image sets older (by mtime) than ``max_age_seconds``."""
        cutoff = time.time() - max_age_seconds
        return sum(
            _unlink(path)
            for mtime, _, path in _stat_files(self._image_files())
            if mtime < cutoff
        )

    def prune_images_to_max_bytes(self, max_bytes: int) -> int:
        """Evict oldest image sets until the tier is at most ``max_bytes``.

        The size knob applies to the image tier alone: images dominate
        the cache's footprint by orders of magnitude, and evicting one
        only costs a future warm restart its fast path (the JSON results
        — every *measurement* — stay intact).
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        aged = _stat_files(self._image_files())
        total = sum(size for _, size, _ in aged)
        removed = 0
        for _, size, path in aged:
            if total <= max_bytes:
                break
            if _unlink(path):
                total -= size
                removed += 1
        return removed

    def put(
        self, spec: RunSpec, result: RunResult, *, elapsed: float | None = None
    ) -> Path:
        """Atomically store ``result`` under ``spec``'s hash.

        ``elapsed`` (execution wall seconds) rides along in the document
        and feeds the scheduling cost model via :meth:`record_time`.
        A result still carrying full checkpoint images also lands in the
        image tier (:meth:`put_images`) so later restarts of this spec
        skip re-simulating it.
        """
        key = spec_hash(spec)
        try:
            self.put_images(key, result)
        except OSError:
            # The tier is strictly an accelerator: an image write failing
            # (disk full, permissions) must not cost the batch its
            # results.  Restarts simply fall back to re-simulation, and
            # atomic tmp+rename writes mean no torn file was left for
            # them to trip over.
            pass
        path = self._entry_path(key)
        document = {
            # The spec rides along for debuggability (`cat` a cache entry
            # to see which job it belongs to); only the hash keys lookup.
            "spec": spec_to_dict(spec),
            "result": run_result_to_dict(result),
        }
        if elapsed is not None and elapsed > 0:
            document["elapsed"] = elapsed
            self.record_time(key, elapsed)
        atomic_write(path, json.dumps(document, separators=(",", ":")))
        self.stats.stores += 1
        return path

    def _entry_files(self) -> "list[Path]":
        """Every current-schema entry file."""
        return list(self.version_dir.glob(f"{self._SHARD_GLOB}/*.json"))

    def clear(self) -> int:
        """Delete all entries for the current schema; returns the count.

        Image sets go with their entries; recorded execution times (the
        scheduling cost model) survive.
        """
        removed = sum(_unlink(entry) for entry in self._entry_files())
        for path in self._image_files():
            _unlink(path)
        return removed

    def prune(self, specs: "Iterable[RunSpec]") -> int:
        """Delete the entries for ``specs`` (misses ignored); returns the
        number removed.  Unlike :meth:`clear`, prune targets specific
        cells, so their recorded execution times are evicted too — a
        pruned cell's next run re-records its cost.  The timing falls
        even when the entry file is already gone (a cell can have a
        recorded time with no stored result, e.g. after a concurrent
        writer's record survived this cache's earlier eviction)."""
        hashes = [spec_hash(spec) for spec in specs]
        removed = sum(_unlink(self._entry_path(key)) for key in hashes)
        self._drop_images(hashes)
        self.drop_timings(hashes)
        return removed

    def _prune_paths(self, paths: "Iterable[Path]") -> int:
        """Unlink entry files and evict their timings and image sets
        (stems are hashes)."""
        evicted = [path.stem for path in paths if _unlink(path)]
        self.drop_timings(evicted)
        self._drop_images(evicted)
        return len(evicted)

    def prune_older_than(self, max_age_seconds: float) -> int:
        """Evict entries whose file is older than ``max_age_seconds``.

        Age is the entry file's mtime — i.e. when the result was last
        (re-)stored, not last read.  Image sets age out on the same
        clock (their own mtime).  Returns the number of entries removed.
        """
        cutoff = time.time() - max_age_seconds
        removed = self._prune_paths(
            path
            for mtime, _, path in _stat_files(self._entry_files())
            if mtime < cutoff
        )
        self.prune_images_older_than(max_age_seconds)
        return removed

    def prune_to_max_entries(self, max_entries: int) -> int:
        """Evict oldest entries (by mtime) until at most ``max_entries``
        remain; returns the number removed."""
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        aged = _stat_files(self._entry_files())
        n_evict = max(len(aged) - max_entries, 0)
        return self._prune_paths(path for _, _, path in aged[:n_evict])

    def total_bytes(self) -> int:
        """On-disk footprint of the current schema's entries."""
        return sum(size for _, size, _ in _stat_files(self._entry_files()))

    def __len__(self) -> int:
        return len(self._entry_files())


def _unlink(path: Path) -> bool:
    """Remove ``path``; False when it was already gone or cannot go
    (callers only account evictions that really happened)."""
    try:
        path.unlink()
    except OSError:
        return False
    return True


def _stat_files(paths: "Iterable[Path]") -> "list[tuple[float, int, Path]]":
    """``(mtime, size, path)`` of every path that still exists, oldest
    first (name breaks mtime ties so eviction order is deterministic)."""
    rows = []
    for path in paths:
        try:
            st = path.stat()
        except OSError:
            continue
        rows.append((st.st_mtime, st.st_size, path))
    rows.sort(key=lambda row: (row[0], row[2].name))
    return rows
