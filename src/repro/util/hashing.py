"""Stable, process-independent hashing.

The global group id (ggid) of the paper is "a hash of the world rank of
each participating MPI process" (Section 4.1).  The hash must be identical
on every rank and across runs, so Python's randomized ``hash()`` is
unusable; we use a small FNV-1a over the sorted rank sequence, which is
fast, dependency-free, and collision-resistant enough for the handful of
groups a real application creates.

The same property — identical across processes and interpreter
invocations — is what the experiment engine needs to key its on-disk
result cache, so :func:`stable_json_hash` lives here too: it hashes any
JSON-representable object via a canonical (sorted-keys, compact) JSON
encoding.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Iterable

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def fnv1a_hex(data: bytes) -> str:
    """64-bit FNV-1a hash of ``data`` as a fixed-width hex string."""
    return f"{fnv1a_64(data):016x}"


def stable_json_hash(obj: Any) -> str:
    """Deterministic hex digest of a JSON-representable object.

    The object is encoded as canonical JSON (sorted keys, compact
    separators, no NaN) so the digest is identical across processes,
    interpreter runs, and machines — the property a spec-keyed disk
    cache depends on.  Raises ``TypeError``/``ValueError`` for objects
    JSON cannot represent canonically.
    """
    payload = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return fnv1a_hex(payload.encode("utf-8"))


def stable_hash_ranks(world_ranks: Iterable[int]) -> int:
    """Deterministic 64-bit hash of a set of world ranks.

    The ranks are sorted first, so any two groups containing the same
    processes (``MPI_SIMILAR``) hash identically regardless of rank order
    within the group — exactly the ggid property the CC algorithm needs.
    """
    return _hash_sorted_ranks(tuple(sorted(world_ranks)))


# Every rank of every job hashes the same few groups (its world and
# sub-communicators): the pure-Python FNV is paid once per process per
# rank set.  Exceptions are not cached, so a negative rank always raises.
@functools.lru_cache(maxsize=256)
def _hash_sorted_ranks(ranks: tuple[int, ...]) -> int:
    if ranks and ranks[0] < 0:
        raise ValueError(f"world rank must be non-negative, got {ranks[0]}")
    return fnv1a_64(b"".join(r.to_bytes(8, "little") for r in ranks))
