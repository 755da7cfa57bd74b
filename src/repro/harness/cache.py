"""Persistent on-disk result cache keyed by spec content hash.

Layout: ``<cache_dir>/v<SCHEMA_VERSION>/<hh>/<spec_hash>.pkl`` — one
document per unique :class:`~repro.harness.spec.RunSpec`, fanned into
256 two-hex-digit shard directories (``<hh>`` is the hash's first two
characters) so a long-lived shared cache never accumulates tens of
thousands of files in one directory.  An entry is the codec's
``{"spec", "result", "elapsed"}`` document — dicts, lists, strings and
numbers — written as a pickle, so a warm read parses no text
(``python -m pickle <entry>`` prints one).  It is read back by an
unpickler that refuses every global, which such a document never
needs, and then decoded by the codec exactly as any other document.
This is the only layout: ``.json`` entries earlier versions wrote in
the same shards, and files a pre-sharding version left directly under
``v<SCHEMA>/``, are never read, counted or rewritten (delete them, or
the directory, to reclaim the space).  Bumping ``SCHEMA_VERSION`` (a
change to spec semantics or result layout) silently orphans older
entries rather than misreading them; an entry that is unreadable,
truncated, not a pickle, names a global, or does not decode counts as
a miss and is overwritten on the next store.

The cache stores the document form of :class:`RunResult`, which drops
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

Each entry also carries its spec's **execution wall time**
(``"elapsed"``), read back by :meth:`ResultCache.recorded_time`; it is
recorded nowhere else.  A cache is its directory and nothing more: the
entries and the image tier.  A ``v<SCHEMA>-timings.json`` sidecar that
earlier versions kept next to them is never read or rewritten.

The default location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mpi``.
Writes are atomic (tempfile + rename) so concurrent engine workers and
concurrent CLI invocations can share a cache directory safely.
"""

from __future__ import annotations

import io
import os
import pickle
import time
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

__all__ = ["ResultCache", "default_cache_dir"]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


class _DocumentUnpickler(pickle.Unpickler):
    """Loads a plain document: a stored entry never names a global, so
    one that does is refused before anything is imported or called."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(
            f"a cache entry names no globals, found {module}.{name}"
        )


#: What unpickling bytes that are not one of our documents can raise:
#: it is not limited to pickle's own error, and a mangled length field
#: asks for an allocation that cannot succeed (``MemoryError``).  Only
#: the unpickling is guarded this widely; decoding a document that did
#: load is not.
_NOT_A_PICKLE = (
    EOFError, pickle.UnpicklingError, ValueError, LookupError, TypeError,
    AttributeError, OverflowError, MemoryError,
)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-mpi``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-mpi"


class ResultCache:
    """Spec-hash-keyed store for :class:`RunResult` values."""

    def __init__(self, directory: "Path | str | None" = None):
        self.root = Path(directory) if directory is not None else default_cache_dir()

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    @property
    def images_dir(self) -> Path:
        """The image tier: one file per (spec, committed checkpoint)."""
        return self.root / f"v{SCHEMA_VERSION}-images"

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
        return self.version_dir / key[:2] / f"{key}.pkl"

    def path_for(self, spec: RunSpec) -> Path:
        return self._entry_path(spec_hash(spec))

    def _document(self, spec: RunSpec) -> dict | None:
        """``spec``'s stored document, or None when there is none or
        what is there is not a pickled dict."""
        try:
            data = self.path_for(spec).read_bytes()
        except OSError:
            return None
        try:
            document = _DocumentUnpickler(io.BytesIO(data)).load()
        except _NOT_A_PICKLE:
            return None
        return document if type(document) is dict else None

    def get(self, spec: RunSpec) -> RunResult | None:
        """The cached result for ``spec``, or None on miss/corruption."""
        document = self._document(spec)
        if document is None:
            return None
        try:
            return run_result_from_dict(document["result"])
        except (ValueError, KeyError, TypeError):
            return None

    def recorded_time(self, spec: RunSpec) -> float | None:
        """The execution wall seconds stored with ``spec``'s entry, or
        None on a miss (or an entry stored without one)."""
        document = self._document(spec)
        if document is None:
            return None
        try:
            return float(document["elapsed"])
        except (ValueError, KeyError, TypeError):
            return None

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
        the document boundary) are skipped silently; returns the number of
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
            return unpack_image_set(
                self.image_path_for(spec_or_hash, index).read_bytes()
            )
        except (OSError, ImageError):
            return None

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
        only costs a future warm restart its fast path (the entries —
        every *measurement* — stay intact).
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
        (see :meth:`recorded_time`).
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
            # The spec rides along for debuggability (`python -m pickle`
            # an entry to see which job it belongs to); only the hash
            # keys lookup.
            "spec": spec_to_dict(spec),
            "result": run_result_to_dict(result),
        }
        if elapsed is not None and elapsed > 0:
            document["elapsed"] = elapsed
        atomic_write(path, pickle.dumps(document, protocol=5))
        return path

    def _entry_files(self) -> "list[Path]":
        """Every current-schema entry file."""
        return list(self.version_dir.glob(f"{self._SHARD_GLOB}/*.pkl"))

    def clear(self) -> int:
        """Delete all entries for the current schema, and every image
        set with them; returns the entry count."""
        removed = sum(_unlink(entry) for entry in self._entry_files())
        for path in self._image_files():
            _unlink(path)
        return removed

    def prune(self, specs: "Iterable[RunSpec]") -> int:
        """Delete the entries and image sets for ``specs`` (misses
        ignored); returns the number of entries removed."""
        hashes = [spec_hash(spec) for spec in specs]
        removed = sum(_unlink(self._entry_path(key)) for key in hashes)
        self._drop_images(hashes)
        return removed

    def _prune_paths(self, paths: "Iterable[Path]") -> int:
        """Unlink entry files and their image sets (stems are hashes)."""
        evicted = [path.stem for path in paths if _unlink(path)]
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
