"""Tests for RNG registry, trace log and statistics monitors."""

from __future__ import annotations

import math

import pytest

from repro.sim import (
    RunningStats,
    SeedSequenceRegistry,
    TraceLog,
)


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


class TestTraceLog:
    def test_emit_and_filter(self):
        trace = TraceLog()
        trace.emit(0, "slot", state="silence")
        trace.emit(5, "slot", state="success")
        trace.emit(7, "phase", mode="tts")
        assert len(trace) == 3
        assert trace.count("slot") == 2
        assert [r["state"] for r in trace.records("slot")] == [
            "silence",
            "success",
        ]

    def test_between(self):
        trace = TraceLog()
        for t in (0, 10, 20, 30):
            trace.emit(t, "tick")
        assert [r.time for r in trace.between(10, 30)] == [10, 20]

    def test_disabled_is_noop(self):
        trace = TraceLog(enabled=False)
        trace.emit(0, "slot")
        assert len(trace) == 0

    def test_subscriber_sees_live_records(self):
        trace = TraceLog()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1, "x")
        assert len(seen) == 1 and seen[0].kind == "x"

    def test_clear(self):
        trace = TraceLog()
        trace.emit(0, "x")
        trace.clear()
        assert len(trace) == 0

    def test_to_jsonl_round_trip(self, tmp_path):
        import json

        trace = TraceLog()
        trace.emit(0, "slot", state="silence")
        trace.emit(5, "slot", state="success", station=3)
        trace.emit(7, "phase", mode="tts")
        path = tmp_path / "trace.jsonl"
        assert trace.to_jsonl(path) == 3
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines[0] == {"time": 0, "kind": "slot", "state": "silence"}
        assert lines[1]["station"] == 3
        assert lines[2]["kind"] == "phase"

    def test_to_jsonl_kind_filter_and_fallback_encoding(self, tmp_path):
        import json

        class Opaque:
            def __str__(self):
                return "<opaque>"

        trace = TraceLog()
        trace.emit(0, "slot", payload=Opaque())
        trace.emit(1, "phase")
        path = tmp_path / "trace.jsonl"
        assert trace.to_jsonl(path, kind="slot") == 1
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["payload"] == "<opaque>"


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

