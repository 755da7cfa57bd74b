"""MANA emulation: split process, interposition, checkpoint, restart.

* :class:`Session` — per-rank wrapper layer (the upper half's brain).
* :class:`VirtualComm` / :class:`VirtualRequest` — virtualized handles.
* :class:`CheckpointCoordinator` — the DMTCP-coordinator analog.
* :class:`CheckpointImage` + checkpoint-set save/load — the image format
  (and, in :mod:`repro.mana.image`, what the upper half is).
"""

from .coordinator import CheckpointCoordinator, CheckpointRecord
from .image import CheckpointImage, ImageError
from .restart import load_checkpoint_set, save_checkpoint_set
from .session import Session
from .vcomm import VirtualComm, VirtualRequest, current_session, session_scope

__all__ = [
    "Session",
    "VirtualComm",
    "VirtualRequest",
    "current_session",
    "session_scope",
    "CheckpointCoordinator",
    "CheckpointRecord",
    "CheckpointImage",
    "ImageError",
    "save_checkpoint_set",
    "load_checkpoint_set",
]
