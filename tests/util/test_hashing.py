"""Tests for the stable rank-set hash underlying ggids."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import fnv1a_64, stable_hash_ranks


def test_known_fnv_vector():
    # FNV-1a 64-bit of empty input is the offset basis.
    assert fnv1a_64(b"") == 0xCBF29CE484222325


def test_order_independence():
    assert stable_hash_ranks([3, 1, 2]) == stable_hash_ranks([1, 2, 3])
    assert stable_hash_ranks((2, 0)) == stable_hash_ranks((0, 2))
    # Every iterable shape of one rank set, including a one-shot
    # generator, lands on the same (memoized) value.
    shapes = [range(4), (r for r in (2, 0, 3, 1)), [3, 1, 0, 2], (1, 3, 2, 0)]
    assert {stable_hash_ranks(s) for s in shapes} == {stable_hash_ranks((0, 1, 2, 3))}


def test_different_sets_differ():
    assert stable_hash_ranks([0, 1]) != stable_hash_ranks([0, 2])
    assert stable_hash_ranks([0]) != stable_hash_ranks([0, 1])


def test_negative_rank_rejected():
    for _ in range(2):  # the memo must not turn a repeat into a value
        with pytest.raises(ValueError):
            stable_hash_ranks([-1, 0])
    with pytest.raises(ValueError):
        stable_hash_ranks((0, -1))


def test_stability_across_calls():
    # Pin exact values: the hash must never change across releases
    # (checkpoint images store ggids).
    assert stable_hash_ranks([0, 1, 2, 3]) == stable_hash_ranks([3, 2, 1, 0])
    v1 = stable_hash_ranks(range(8))
    v2 = stable_hash_ranks(list(range(8)))
    assert v1 == v2
    pinned = {
        (0,): 0xA8C7F832281A39C5,
        (0, 1): 0x692558B056101A44,
        (0, 1, 2, 3): 0x64DBCBC3AB5BF1A5,
        tuple(range(8)): 0xB0099F969B546F25,
        (1, 3, 5, 7): 0x4D1A4177A436D965,
        tuple(range(16)): 0x3F71FBAF4605FF25,
    }
    for _ in range(2):  # computed, then served from the memo
        assert {r: stable_hash_ranks(r) for r in pinned} == pinned


@given(st.lists(st.integers(min_value=0, max_value=4096), min_size=1, max_size=64))
def test_permutation_invariance_property(ranks):
    import random

    shuffled = ranks[:]
    random.Random(0).shuffle(shuffled)
    assert stable_hash_ranks(ranks) == stable_hash_ranks(shuffled)


@given(
    st.sets(st.integers(min_value=0, max_value=512), min_size=1, max_size=32),
    st.sets(st.integers(min_value=0, max_value=512), min_size=1, max_size=32),
)
def test_distinct_sets_rarely_collide(a, b):
    if a != b:
        assert stable_hash_ranks(a) != stable_hash_ranks(b)
