"""Checkpoint images: the per-rank record and the one on-disk format.

One :class:`CheckpointImage` per rank, mirroring MANA: the image contains
only upper-half state (application state + wrapper bookkeeping).  Nothing
from the lower half (simulated MPI world, matching engines, requests) is
serialized — pickling would fail loudly on those objects, which doubles
as an automatic guard against lower-half leakage (tested).

A committed checkpoint is stored as *one* archive holding its whole
image map (rank -> image): :func:`pack_image_set` /
:func:`unpack_image_set`.  Both the result cache's image tier
(:mod:`repro.harness.cache`) and :func:`repro.mana.restart.save_checkpoint_set`
write exactly these bytes.  Layout::

    ARCHIVE_MAGIC (8 bytes) | version (u32) | payload_len (u64)
    | sha256 (32 bytes) | zlib-compressed pickle payload

Any structural problem (bad magic, unknown version, truncation, digest
mismatch) raises :class:`ImageError`; readers built on top treat that
as a cache miss, so files written by older/newer formats degrade to
re-simulation instead of corrupting a restart.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CheckpointImage",
    "ImageError",
    "pack_image_set",
    "unpack_image_set",
]

ARCHIVE_MAGIC = b"MANAPYA1"
#: 2: ``vreq_table`` holds the request objects (1 held field tuples).
ARCHIVE_VERSION = 2
_ARCHIVE_HEADER = struct.Struct("<8sIQ32s")


class ImageError(Exception):
    """Corrupt, truncated, or incompatible checkpoint image."""


@dataclass
class CheckpointImage:
    """Upper-half state of one rank at a committed checkpoint."""

    rank: int
    nprocs: int
    protocol: str
    ckpt_id: int
    #: Application-owned state (the app's ``state`` dict).
    app_state: dict = field(default_factory=dict)
    #: SEQ/TARGET table snapshot (:meth:`SeqNumTable.snapshot`).
    seq_table: dict = field(default_factory=dict)
    #: ggid -> member world ranks.
    ggid_peers: dict = field(default_factory=dict)
    #: Communicator-creation replay log (op descriptors, in order).
    creation_log: list = field(default_factory=list)
    #: Interposition call counter at snapshot and at the last boundary.
    call_index: int = 0
    boundary_index: int = 0
    #: Recorded wrapper-call results covering [boundary_index, call_index).
    call_log: list = field(default_factory=list)
    #: Drained point-to-point messages: (vcid, src_group_rank, tag, payload, nbytes).
    drained: list = field(default_factory=list)
    #: Virtual request table: vrid -> :class:`VirtualRequest`, the same
    #: objects ``app_state`` refers to where the application kept a handle.
    vreq_table: dict = field(default_factory=dict)
    #: vrids of receives still pending at the cut (re-posted on restart).
    pending_recvs: list = field(default_factory=list)
    #: Seconds of an interrupted compute region left to run after restart.
    remaining_compute: float = 0.0
    #: Modelled upper-half memory (drives Fig. 9 write/read durations).
    declared_bytes: int = 0
    #: True when the rank's application had already returned at the cut
    #: (checkpoint-through-rank-completion): the rank is at its terminal
    #: program position with empty in-flight sets, and a restart keeps
    #: it finished instead of replaying anything.
    finished: bool = False
    #: The application's return value (``finalize``'s result), captured
    #: for finished ranks so a restarted world reports the same per-rank
    #: results as the uninterrupted run.
    final_result: Any = None
    #: Number of MPI calls issued before the snapshot (diagnostics).
    stats: dict = field(default_factory=dict)


def pack_image_set(images: "dict[int, CheckpointImage]") -> bytes:
    """One committed checkpoint's image map as a self-verifying blob.

    The digest covers the *compressed* payload, so verification on read
    costs one SHA-256 pass before any decompression or unpickling.
    """
    payload = zlib.compress(
        pickle.dumps(images, protocol=pickle.HIGHEST_PROTOCOL), 6
    )
    digest = hashlib.sha256(payload).digest()
    return (
        _ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, len(payload), digest)
        + payload
    )


def unpack_image_set(raw: bytes) -> "dict[int, CheckpointImage]":
    """Verify and load a :func:`pack_image_set` blob."""
    if len(raw) < _ARCHIVE_HEADER.size:
        raise ImageError("image-set blob: truncated header")
    magic, version, length, digest = _ARCHIVE_HEADER.unpack_from(raw)
    if magic != ARCHIVE_MAGIC:
        raise ImageError(f"image-set blob: bad magic {magic!r}")
    if version != ARCHIVE_VERSION:
        raise ImageError(f"image-set blob: unsupported version {version}")
    payload = raw[_ARCHIVE_HEADER.size : _ARCHIVE_HEADER.size + length]
    if len(payload) != length:
        raise ImageError("image-set blob: truncated payload")
    if hashlib.sha256(payload).digest() != digest:
        raise ImageError("image-set blob: digest mismatch (corrupt blob)")
    try:
        images = pickle.loads(zlib.decompress(payload))
    except (zlib.error, pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise ImageError(f"image-set blob: undecodable payload ({exc})") from exc
    if not isinstance(images, dict) or not all(
        isinstance(im, CheckpointImage) for im in images.values()
    ):
        raise ImageError("image-set blob: payload is not an image map")
    return images
