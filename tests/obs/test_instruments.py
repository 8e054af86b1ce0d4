"""Unit tests for the telemetry instruments and the registry."""

from __future__ import annotations

import random

import pytest

from repro.obs.instruments import (
    LATENCY_EDGES,
    NULL_TELEMETRY,
    SEARCH_DEPTH_EDGES,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert counter.snapshot() == 6

    def test_gauge_last_value_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.snapshot() == 1.5


class TestHistogram:
    def test_bucket_edges_route_values(self):
        hist = Histogram("h", edges=(10, 20, 30))
        for value in (5, 10, 11, 25, 31, 1000):
            hist.record(value)
        # bisect_left on inclusive upper bounds: 10 lands in the first
        # bucket, 11 in the second, everything above 30 in overflow.
        assert hist.counts == [2, 1, 1, 2]
        assert hist.count == 6
        assert hist.total == 5 + 10 + 11 + 25 + 31 + 1000
        assert hist.min == 5
        assert hist.max == 1000

    def test_edges_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", edges=(1, 1, 2))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", edges=())

    def test_quantile_reports_upper_edge(self):
        hist = Histogram("h", edges=(10, 20, 30))
        for value in (1, 2, 3, 15):
            hist.record(value)
        # Conservative: the interior estimate is an upper bound on the
        # true value; the extremes are tracked exactly.
        assert hist.quantile(0.0) == 1
        assert hist.quantile(0.5) == 10
        assert hist.quantile(1.0) == 15

    def test_quantile_extremes_are_exact(self):
        # q=0/q=1 bypass the bucket estimate entirely: even when every
        # sample shares one bucket, min/max come back exact.
        hist = Histogram("h", edges=(100,))
        for value in (7, 42, 99):
            hist.record(value)
        assert hist.quantile(0.0) == 7
        assert hist.quantile(1.0) == 99

    def test_quantile_single_bucket(self):
        hist = Histogram("h", edges=(10,))
        hist.record(4)
        assert hist.quantile(0.5) == 4  # upper edge 10, clamped to the max
        assert hist.quantile(0.0) == 4
        assert hist.quantile(1.0) == 4

    def test_interior_quantiles_lie_in_the_observed_range(self):
        # A bucket's upper edge may exceed the largest sample in it; the
        # estimate is clamped to [min, max], and still never under-reports
        # the empirical quantile.
        rng = random.Random(20261018)
        for _ in range(300):
            edges = sorted(rng.sample(range(1, 5_000), rng.randint(1, 8)))
            hist = Histogram("h", edges)
            values = [rng.randint(0, 6_000) for _ in range(rng.randint(1, 30))]
            for value in values:
                hist.record(value)
            ordered = sorted(values)
            for q in (0.01, 0.25, 0.5, 0.9, 0.99):
                estimate = hist.quantile(q)
                assert hist.min <= estimate <= hist.max
                assert estimate >= ordered[int(q * (len(values) - 1))]
        # Per-class wire latencies on the default edges: every sample
        # sits in the (32768, 65536] bucket, and p50/p99 report the max.
        hist = Histogram("latency/audio-0", LATENCY_EDGES)
        for value in (40_960, 43_008, 45_056):
            hist.record(value)
        assert hist.quantile(0.5) == hist.quantile(0.99) == 45_056

    def test_quantile_overflow_reports_observed_max(self):
        hist = Histogram("h", edges=(10,))
        hist.record(500)
        assert hist.quantile(0.99) == 500

    def test_quantile_empty_returns_none_for_any_q(self):
        hist = Histogram("h", edges=(10,))
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) is None
        assert hist.mean is None

    def test_quantile_out_of_range_raises(self):
        hist = Histogram("h", edges=(10,))
        hist.record(1)
        for q in (-0.01, 1.5, float("nan")):
            with pytest.raises(ValueError, match="quantile"):
                hist.quantile(q)

    def test_default_edge_tables(self):
        assert LATENCY_EDGES[0] == 64
        assert LATENCY_EDGES[-1] == 1 << 25
        assert all(
            b > a for a, b in zip(SEARCH_DEPTH_EDGES, SEARCH_DEPTH_EDGES[1:])
        )

    def test_snapshot_round_trip(self):
        hist = Histogram("h", edges=(10, 20))
        hist.record(7)
        snap = hist.snapshot()
        assert snap == {
            "edges": [10, 20],
            "counts": [1, 0, 0],
            "count": 1,
            "total": 7,
            "min": 7,
            "max": 7,
        }


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        telemetry = Telemetry()
        assert telemetry.counter("a") is telemetry.counter("a")
        assert telemetry.histogram("h") is telemetry.histogram("h")

    def test_kind_mismatch_raises(self):
        telemetry = Telemetry()
        telemetry.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            telemetry.gauge("x")

    def test_instruments_iterate_in_name_order(self):
        telemetry = Telemetry()
        telemetry.counter("b")
        telemetry.gauge("a")
        assert [i.name for i in telemetry.instruments()] == ["a", "b"]

    def test_histogram_edges_apply_on_first_creation_only(self):
        telemetry = Telemetry()
        first = telemetry.histogram("h", edges=(1, 2))
        again = telemetry.histogram("h", edges=(5, 6))
        assert again is first
        assert first.edges == (1, 2)


class TestSpans:
    def test_nesting_builds_a_call_tree(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        (snap,) = telemetry.span_snapshots()
        assert snap["name"] == "outer"
        assert snap["calls"] == 1
        assert snap["seconds"] >= 0.0
        (child,) = snap["children"]
        assert child["name"] == "inner"
        assert child["calls"] == 2

    def test_same_name_at_different_depths_is_distinct(self):
        telemetry = Telemetry()
        with telemetry.span("a"):
            with telemetry.span("a"):
                pass
        (snap,) = telemetry.span_snapshots()
        assert snap["calls"] == 1
        assert snap["children"][0]["calls"] == 1

    def test_span_survives_exceptions(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("boom"):
                raise RuntimeError("x")
        (snap,) = telemetry.span_snapshots()
        assert snap["calls"] == 1
        # the stack unwound: a new span is a sibling, not a child
        with telemetry.span("after"):
            pass
        assert len(telemetry.span_snapshots()) == 2

    def test_timings_false_drops_seconds(self):
        telemetry = Telemetry()
        with telemetry.span("s"):
            pass
        (snap,) = telemetry.span_snapshots(timings=False)
        assert "seconds" not in snap


class TestNullTelemetry:
    def test_disabled_flag(self):
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry().enabled is True

    def test_instruments_are_inert_singletons(self):
        counter = NULL_TELEMETRY.counter("anything")
        assert counter is NULL_TELEMETRY.counter("other")
        counter.inc(100)
        assert counter.value == 0
        gauge = NULL_TELEMETRY.gauge("g")
        gauge.set(5)
        assert gauge.value == 0
        hist = NULL_TELEMETRY.histogram("h")
        hist.record(1)
        assert hist.count == 0

    def test_span_records_nothing(self):
        with NULL_TELEMETRY.span("s"):
            pass
        assert NULL_TELEMETRY.span_snapshots() == []
        assert list(NULL_TELEMETRY.instruments()) == []
