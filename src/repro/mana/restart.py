"""Checkpoint-set persistence: saving and loading a full job's images.

A committed checkpoint produces one :class:`CheckpointImage` per rank.
These helpers store the set as one :func:`~repro.mana.image.pack_image_set`
archive (``ckpt_<id>.img`` — the same bytes the result cache's image
tier keeps) and load it back for a restart, verifying completeness and
consistency.

A set may include *finished* ranks — images taken by a round that
committed through rank completion.  Such ranks restart as finished:
they rebuild their lower half (communicator creation is collective, so
surviving peers need them in the replayed allgathers) and then report
their restored terminal result without re-entering the application.
"""

from __future__ import annotations

from pathlib import Path

from ..util.osenv import atomic_write
from .image import CheckpointImage, ImageError, pack_image_set, unpack_image_set

__all__ = ["save_checkpoint_set", "load_checkpoint_set"]


def save_checkpoint_set(
    images: dict[int, CheckpointImage], directory: "Path | str"
) -> list[Path]:
    """Write the set's archive under ``directory``; returns its path
    (a one-element list)."""
    if not images:
        raise ImageError("empty checkpoint set")
    first = next(iter(images.values()))
    if sorted(images) != list(range(first.nprocs)):
        raise ImageError(
            f"checkpoint set must cover ranks 0..{first.nprocs - 1}, got {sorted(images)}"
        )
    path = Path(directory) / f"ckpt_{first.ckpt_id}.img"
    atomic_write(path, pack_image_set(images))
    return [path]


def load_checkpoint_set(directory: "Path | str", ckpt_id: int = 0) -> dict[int, CheckpointImage]:
    """Load a complete, consistent image set for one checkpoint id."""
    path = Path(directory) / f"ckpt_{ckpt_id}.img"
    try:
        raw = path.read_bytes()
    except OSError:
        raise ImageError(f"no checkpoint {ckpt_id} images under {directory}") from None
    images = unpack_image_set(raw)
    if not images:
        raise ImageError(f"{path}: empty checkpoint set")
    for image in images.values():
        if image.ckpt_id != ckpt_id:
            raise ImageError(f"{path}: ckpt id {image.ckpt_id} != {ckpt_id}")
    nprocs = next(iter(images.values())).nprocs
    missing = set(range(nprocs)) - set(images)
    if missing:
        raise ImageError(f"incomplete checkpoint set: missing ranks {sorted(missing)}")
    protocols = {im.protocol for im in images.values()}
    if len(protocols) > 1:
        raise ImageError(f"inconsistent protocols across images: {protocols}")
    return images
