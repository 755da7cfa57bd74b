"""Shared utilities: stable hashing, statistics, table rendering."""

from .hashing import stable_hash_ranks
from .records import Series
from .stats import mean, overhead_pct

__all__ = [
    "stable_hash_ranks",
    "mean",
    "overhead_pct",
    "Series",
]
