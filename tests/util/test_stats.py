"""Tests for statistics helpers."""

import pytest

from repro.util.stats import mean, overhead_pct


def test_mean_basic():
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_empty_raises():
    with pytest.raises(ValueError):
        mean([])


def test_overhead_pct():
    assert overhead_pct(110.0, 100.0) == pytest.approx(10.0)
    assert overhead_pct(100.0, 100.0) == pytest.approx(0.0)
    assert overhead_pct(95.0, 100.0) == pytest.approx(-5.0)


def test_overhead_pct_zero_baseline_raises():
    with pytest.raises(ValueError):
        overhead_pct(1.0, 0.0)
