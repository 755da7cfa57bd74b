"""Frozen-benchmark shim: the kernel has one execution mechanism.

``benchmarks/e2e/`` (frozen between ``[benchmark]`` PRs) imports these
two names to label its ledger rows; nothing in ``src/`` uses them.  The
next ``[benchmark]`` PR drops its imports and this module with them.
"""

from __future__ import annotations

__all__ = ["greenlet_available", "resolve_backend"]


# Kept only because benchmarks/e2e/{child,drivers}.py (frozen) import it.
def resolve_backend(name: str | None = None) -> str:
    """The one kernel's ledger name (``name`` is ignored)."""
    return "inline"


# Kept only because benchmarks/e2e/child.py (frozen) imports it.
def greenlet_available() -> bool:
    """Always False: the kernel never uses greenlet."""
    return False
