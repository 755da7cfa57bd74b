"""Native execution: no interposition, no checkpoint support.

The baseline every overhead figure is computed against.  Wrappers cost
nothing and checkpoint requests are a hard error — a native run simply
cannot be checkpointed, which is the paper's motivation in the first
place.
"""

from __future__ import annotations

from typing import Any, Callable

from .protocol import CoordinatorLogic, ProtocolError, RankProtocol

__all__ = ["NativeProtocol", "NativeCoordinatorLogic"]


class NativeProtocol(RankProtocol):
    """Passthrough wrappers."""

    name = "native"
    label = "native"
    supports_nonblocking = True
    adds_wrapper_cost = False

    def on_blocking_collective(
        self, ggid: int, members: tuple[int, ...], execute: Callable[[], Any]
    ) -> Any:
        return execute()

    def on_nonblocking_collective(
        self, ggid: int, members: tuple[int, ...], initiate: Callable[[], Any]
    ) -> Any:
        return initiate()

    def on_request_completion_call(self) -> None:  # no wrapper cost
        return

    def at_safe_point(self) -> None:  # no control plane to poll
        return

    def on_app_finished(self) -> None:
        return

    def on_intent(self) -> None:  # pragma: no cover - guarded by dispatch
        raise ProtocolError("native runs cannot be checkpointed")

    def dispatch(self, msg: tuple, *, parked: bool) -> str:
        raise ProtocolError(
            f"native protocol received control message {msg!r}; "
            "checkpointing requires the 2PC or CC protocol"
        )


class NativeCoordinatorLogic(CoordinatorLogic):
    collects_seq_reports = False

    def compute_targets(self, reports: dict[int, dict[int, int]]) -> dict[int, int]:
        raise ProtocolError("native runs cannot be checkpointed")
