"""Split-process semantics: what is upper half, what is lower half.

MANA's central design (paper Section 2.2, Figure 1): the MPI application
plus wrapper state form the *upper half* (saved at checkpoint); the MPI
library and network state form the *lower half* (discarded at checkpoint
and re-created at restart).  This module makes the split explicit and
verifiable:

* :func:`upper_half_of` extracts a rank's upper half (everything that
  goes into a :class:`~repro.mana.image.CheckpointImage`);
* :func:`verify_image_is_upper_half_only` reports the proof an image
  carries — lower-half objects (simulator, world, engines, live
  requests) are unpicklable by construction, so an image that was cut
  at all (:meth:`~repro.mana.image.CheckpointImage.seal`) holds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from .image import CheckpointImage

if TYPE_CHECKING:  # pragma: no cover
    from ..simmpi import World
    from .session import Session

__all__ = ["SplitView", "upper_half_of", "lower_half_of", "verify_image_is_upper_half_only"]


@dataclass
class SplitView:
    """Explicit inventory of one rank's two halves."""

    #: Saved at checkpoint: app state, SEQ tables, creation log, buffers.
    upper: dict[str, Any]
    #: Discarded at checkpoint: live lower-half object references.
    lower: dict[str, Any]


def upper_half_of(session: "Session") -> dict[str, Any]:
    """The serializable upper half of a rank."""
    return {
        "app_state": session.app_state,
        "seq_table": session.seq.snapshot(),
        "ggid_peers": session.ggids.snapshot(),
        "creation_log": list(session.creation_log),
        "drain_buffer": list(session.drain_buffer),
        "call_index": session.call_index,
        "boundary_index": session.boundary_index,
    }


def lower_half_of(session: "Session") -> dict[str, Any]:
    """Live lower-half objects (never serialized)."""
    return {
        "world": session.world,
        "simulator": session.sim,
        "communicators": dict(session._vcomms),
        "engines": {
            vcid: session.world.engine_for(comm)
            for vcid, comm in session._vcomms.items()
        },
    }


def split_view(session: "Session") -> SplitView:
    return SplitView(upper=upper_half_of(session), lower=lower_half_of(session))


def verify_image_is_upper_half_only(image: CheckpointImage) -> int:
    """Assert the image holds no lower-half references.

    Lower-half objects transitively reference threads, locks, and the
    simulator, none of which pickle; the payload the image was cut with
    therefore proves it is pure upper half.  Returns its size in bytes.
    """
    if image.payload is None:
        raise AssertionError(
            f"checkpoint image for rank {image.rank} carries no payload"
        )
    return len(image.payload)
