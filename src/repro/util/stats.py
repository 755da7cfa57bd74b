"""Small statistics helpers used by the harness and benchmarks."""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (silent NaN hides bugs)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def overhead_pct(measured: float, baseline: float) -> float:
    """Runtime overhead of ``measured`` relative to ``baseline``, percent.

    This is the paper's y-axis in Figures 5 and 8:
    ``(T_protocol / T_native - 1) * 100``.
    """
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return (measured / baseline - 1.0) * 100.0
