"""Tests for the RNG registry and the running-statistics monitor."""

from __future__ import annotations

import math

import pytest

from repro.sim import RunningStats, SeedSequenceRegistry


class TestSeedRegistry:
    def test_same_name_same_stream(self):
        registry = SeedSequenceRegistry(1)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_independent(self):
        registry = SeedSequenceRegistry(1)
        a = [registry.stream("a").random() for _ in range(5)]
        b = [registry.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        a = SeedSequenceRegistry(7).stream("x").random()
        b = SeedSequenceRegistry(7).stream("x").random()
        assert a == b

    def test_different_seeds_differ(self):
        a = SeedSequenceRegistry(1).stream("x").random()
        b = SeedSequenceRegistry(2).stream("x").random()
        assert a != b

    def test_spawn_child_registry(self):
        parent = SeedSequenceRegistry(1)
        child = parent.spawn("sub")
        assert (
            child.stream("x").random() != parent.stream("x").random()
        )


class TestRunningStats:
    def test_basic_moments(self):
        stats = RunningStats()
        for value in (1, 2, 3, 4):
            stats.add(value)
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.variance == pytest.approx(5 / 3)
        assert stats.minimum == 1 and stats.maximum == 4

    def test_empty_is_nan(self):
        stats = RunningStats()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.variance)

    def test_single_sample(self):
        stats = RunningStats()
        stats.add(7)
        assert stats.variance == 0.0
        assert stats.stdev == 0.0

