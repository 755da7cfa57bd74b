"""Checkpoint images: the per-rank record and the one on-disk format.

MANA's central design (paper Section 2.2, Figure 1) splits each rank in
two.  The MPI application plus the wrapper state form the *upper half*,
saved at checkpoint; the MPI library and network state (here: the
simulator, the simulated ``World``, its communicators, matching engines
and live requests) form the *lower half*, discarded at checkpoint and
re-created at restart by replaying the communicator-creation log
(:meth:`repro.mana.session.Session.rebuild_lower`).  The image *is* the
upper half: whatever :meth:`repro.mana.session.Session.build_image`
cuts, and nothing else.

There is one :class:`CheckpointImage` per rank, and it *is* bytes from
the moment it is cut.  :meth:`CheckpointImage.seal` pickles the rank's
heavy half — application state, the replayable call log, drained
messages, the request table, a finished rank's result — into
``payload`` exactly once; :meth:`CheckpointImage.load` is the one
matching unpickle, at restore.  Everything in between (the coordinator's
record, a pool hop, the archive) moves those bytes and reads
only the small plain attributes beside them.  Nothing from the lower half
(simulated MPI world, matching engines, requests) pickles, so the
``dumps`` in ``seal`` doubles as the guard against lower-half leakage
(tested), and one stream per rank keeps a request handle the application
holds and the table's entry for it the same object.

A set read back from the result cache's image tier belongs to the one
restart it feeds, which sets each rank's ``payload`` to ``None`` once
that rank is restored: the restarted run holds its state once, as a MANA
restart rebuilds the upper half from the image.  Any other set (a parent
result's, one from :func:`repro.mana.restart.load_checkpoint_set`) is
left as it was and may seed further restarts.

A committed checkpoint is stored as *one* archive holding its whole
image map (rank -> image): :func:`pack_image_set` /
:func:`unpack_image_set`.  Both the result cache's image tier
(:mod:`repro.harness.cache`) and :func:`repro.mana.restart.save_checkpoint_set`
write exactly these bytes.  Layout::

    ARCHIVE_MAGIC (8 bytes) | version (u32) | body_len (u64)
    | sha256 (32 bytes) | pickled image map

The body is not compressed: images big enough for bytes to matter are
numpy state that does not deflate (level 6 cost 811 ms per 22 MB for
4.5 % fewer bytes), and the ones that deflate well are a few KB.

Any structural problem (bad magic, unknown version, truncation, digest
mismatch, a body or payload that does not decode) raises
:class:`ImageError`; readers built on top treat that as a cache miss, so
files written by older/newer formats degrade to re-simulation instead of
corrupting a restart.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any

from ..util.codec import Shape

__all__ = [
    "CheckpointImage",
    "ImageError",
    "pack_image_set",
    "unpack_image_set",
]

ARCHIVE_MAGIC = b"MANAPYA1"
#: 3: images hold their heavy half as ``payload`` bytes and the body is
#: stored uncompressed (2 pickled whole image objects under zlib).
ARCHIVE_VERSION = 3
_ARCHIVE_HEADER = struct.Struct("<8sIQ32s")


#: The heavy half of an image, by name: what ``payload`` is the pickle
#: of and :meth:`CheckpointImage.load` returns (a dict with these keys).
#:
#: * ``app_state`` — application-owned state (the app's ``state`` dict);
#: * ``call_log`` — recorded wrapper-call results covering
#:   [boundary_index, call_index);
#: * ``drained`` — drained point-to-point messages: (vcid,
#:   src_group_rank, tag, payload, nbytes);
#: * ``vreq_table`` — virtual request table: vrid ->
#:   :class:`VirtualRequest`, the same objects ``app_state`` refers to
#:   where the application kept a handle;
#: * ``final_result`` — the application's return value (``finalize``'s
#:   result), captured for finished ranks so a restarted world reports
#:   the same per-rank results as the uninterrupted run.
_HEAVY = ("app_state", "call_log", "drained", "vreq_table", "final_result")
#: The fields whose sizes :attr:`CheckpointImage.counts` records.
_COUNTED = ("app_state", "seq_table", "creation_log", "call_log", "drained")


class ImageError(Exception):
    """Corrupt, truncated, or incompatible checkpoint image."""


@dataclass
class CheckpointImage:
    """Upper-half state of one rank at a committed checkpoint."""

    rank: int
    nprocs: int
    protocol: str
    ckpt_id: int
    #: SEQ/TARGET table snapshot (:meth:`SeqNumTable.snapshot`).
    seq_table: dict = field(default_factory=dict)
    #: ggid -> member world ranks.
    ggid_peers: dict[int, list] = field(default_factory=dict)
    #: Communicator-creation replay log (op descriptors, in order).
    creation_log: list = field(default_factory=list)
    #: Interposition call counter at snapshot and at the last boundary.
    call_index: int = 0
    boundary_index: int = 0
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
    #: Number of MPI calls issued before the snapshot (diagnostics).
    stats: dict = field(default_factory=dict)
    #: Element counts at the cut (of :data:`_COUNTED`): what the JSON
    #: form, which drops the payload, still says about it.
    counts: dict = field(default_factory=dict)
    #: The pickled :data:`_HEAVY` fields; ``None`` on an image that came
    #: back from JSON, which cannot seed a restart.
    payload: "bytes | None" = None

    #: The JSON form keeps what measurements read and says only how
    #: much else was cut (``counts``, as ``"dropped"``): the payload can
    #: hold arbitrary application data, and a result read back from
    #: JSON cannot seed a restart.
    __codec__ = Shape(
        drop=("seq_table", "creation_log", "payload"), rename={"counts": "dropped"}
    )

    @classmethod
    def seal(cls, **fields: Any) -> "CheckpointImage":
        """Cut an image from its attributes plus the :data:`_HEAVY`
        fields: the one serialization of a rank's heavy half.

        Pickling *now* freezes what was captured (the run resumes and
        keeps mutating its state) and proves it holds no lower-half
        reference: such an object does not pickle, and fails the cut.
        """
        counts = {name: len(fields.get(name, ())) for name in _COUNTED}
        heavy = {name: fields.pop(name) for name in _HEAVY}
        image = cls(**fields, counts=counts)
        try:
            image.payload = pickle.dumps(heavy, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ImageError(
                f"rank {image.rank}: upper-half state does not serialize "
                f"(a lower-half reference?): {exc!r}"
            ) from exc
        return image

    def load(self) -> "dict[str, Any]":
        """Decode the payload into fresh objects, every call its own copy:
        one image can seed any number of restarts, as long as none of
        them was handed the image and released its payload."""
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            raise ImageError(
                f"rank {self.rank}: image payload does not decode ({exc!r})"
            ) from exc


def pack_image_set(images: "dict[int, CheckpointImage]") -> bytes:
    """One committed checkpoint's image map as a self-verifying blob.

    The images already hold their state as bytes, so this pickle is a
    copy of them plus their small attributes; the digest lets a reader
    verify with one SHA-256 pass before unpickling anything.
    """
    body = pickle.dumps(images, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    return (
        _ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, len(body), digest)
        + body
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
    # A view, not a slice: the body is hashed and decoded where it lies.
    body = memoryview(raw)[_ARCHIVE_HEADER.size : _ARCHIVE_HEADER.size + length]
    if len(body) != length:
        raise ImageError("image-set blob: truncated body")
    if hashlib.sha256(body).digest() != digest:
        raise ImageError("image-set blob: digest mismatch (corrupt blob)")
    try:
        images = pickle.loads(body)
    except Exception as exc:
        raise ImageError(f"image-set blob: undecodable body ({exc!r})") from exc
    if not isinstance(images, dict) or not all(
        isinstance(im, CheckpointImage) for im in images.values()
    ):
        raise ImageError("image-set blob: body is not an image map")
    return images
