"""MANA emulation: split process, interposition, checkpoint, restart.

* :class:`Session` — per-rank wrapper layer (the upper half's brain).
* :class:`VirtualComm` / :class:`VirtualRequest` — virtualized handles.
* :class:`CheckpointCoordinator` — the DMTCP-coordinator analog.
* :class:`CheckpointImage` + checkpoint-set save/load — the image format.
* :mod:`repro.mana.splitproc` — upper/lower-half split verification.
"""

from .coordinator import CheckpointCoordinator, CheckpointRecord
from .image import CheckpointImage, ImageError
from .restart import (
    finished_ranks,
    load_checkpoint_set,
    save_checkpoint_set,
    set_is_terminal,
)
from .session import Session
from .splitproc import (
    SplitView,
    lower_half_of,
    split_view,
    upper_half_of,
    verify_image_is_upper_half_only,
)
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
    "finished_ranks",
    "set_is_terminal",
    "SplitView",
    "split_view",
    "upper_half_of",
    "lower_half_of",
    "verify_image_is_upper_half_only",
]
