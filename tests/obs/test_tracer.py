"""Unit tests for the flight recorder (bounded causal trace ring)."""

from __future__ import annotations

import json

import pytest

from repro.obs.context import current_tracer, use_tracer
from repro.obs.tracer import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    FlightRecorder,
    TraceEvent,
    load_trace,
)


class TestEmit:
    def test_ids_are_monotone_from_zero(self):
        rec = FlightRecorder()
        assert [rec.emit("a"), rec.emit("b"), rec.emit("c")] == [0, 1, 2]
        assert rec.emitted == 3

    def test_top_level_events_have_no_parent(self):
        rec = FlightRecorder()
        rec.emit("a")
        assert rec.events()[0].parent is None

    def test_payload_is_kept(self):
        rec = FlightRecorder()
        rec.emit("a", x=1, name="c0")
        event = rec.events()[0]
        assert event.kind == "a"
        assert event.data == {"x": 1, "name": "c0"}

    def test_kind_is_positional_only(self):
        # Payloads may themselves carry a "kind" key (request kinds do).
        rec = FlightRecorder()
        rec.emit("serve/request", kind="join")
        assert rec.events()[0].data == {"kind": "join"}

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)
        assert FlightRecorder().capacity == DEFAULT_CAPACITY


class TestSpans:
    def test_span_parents_children(self):
        rec = FlightRecorder()
        with rec.span("root") as root_id:
            child = rec.emit("child")
        after = rec.emit("after")
        events = {event.id: event for event in rec.events()}
        assert events[child].parent == root_id
        assert events[after].parent is None

    def test_nested_spans_chain(self):
        rec = FlightRecorder()
        with rec.span("a") as a:
            with rec.span("b") as b:
                leaf = rec.emit("leaf")
        chain = rec.chain(leaf)
        assert [event.id for event in chain] == [a, b, leaf]

    def test_span_pops_on_exception(self):
        rec = FlightRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("root"):
                raise RuntimeError("boom")
        assert rec.events()[-1].parent is None or rec.emit("x") >= 0
        # After the failed span, new events are top-level again.
        top = rec.emit("top")
        assert rec.events()[-1].id == top
        assert rec.events()[-1].parent is None


class TestRing:
    def test_eviction_keeps_last_n(self):
        rec = FlightRecorder(capacity=3)
        for index in range(10):
            rec.emit("e", i=index)
        assert len(rec) == 3
        assert [event.id for event in rec.events()] == [7, 8, 9]
        assert rec.emitted == 10

    def test_chain_stops_at_evicted_ancestor(self):
        rec = FlightRecorder(capacity=2)
        with rec.span("root"):
            for index in range(5):
                leaf = rec.emit("leaf", i=index)
        # The root fell off the ring; the chain is just the leaf.
        assert [event.id for event in rec.chain(leaf)] == [leaf]

    def test_last_window(self):
        rec = FlightRecorder()
        for index in range(5):
            rec.emit("e", i=index)
        assert [event.id for event in rec.last(2)] == [3, 4]
        assert [event.id for event in rec.last(99)] == [0, 1, 2, 3, 4]
        assert rec.last(0) == []


class TestCoalesce:
    def test_run_grows_while_newest(self):
        rec = FlightRecorder()
        run = rec.coalesce(None, "idle", 1, t=0)
        assert rec.coalesce(run, "idle", 4, t=64) is run
        assert rec.snapshot() == [
            {"id": 0, "kind": "idle", "data": {"n": 5, "t": 0}}
        ]
        # Growing records nothing: ids and ``emitted`` count events.
        assert rec.emitted == 1 and rec.emit("next") == 1

    def test_event_in_between_starts_a_new_run(self):
        rec = FlightRecorder()
        run = rec.coalesce(None, "idle", 2, t=0)
        rec.emit("other")
        again = rec.coalesce(run, "idle", 3, t=128)
        assert again is not run
        assert [event.data for event in rec.events()] == [
            {"n": 2, "t": 0}, {}, {"n": 3, "t": 128},
        ]

    def test_run_grows_past_another_run_but_not_past_an_event(self):
        rec = FlightRecorder()
        a = rec.coalesce(None, "a/idle", 1, t=0)
        b = rec.coalesce(None, "b/idle", 1, t=0)
        # Two callers' runs interleave: each grows past the other's.
        assert rec.coalesce(a, "a/idle", 1, t=64) is a
        assert rec.coalesce(b, "b/idle", 1, t=64) is b
        rec.emit("b/slot")
        assert rec.coalesce(b, "b/idle", 1, t=192) is not b
        again = rec.coalesce(a, "a/idle", 1, t=128)
        assert again is not a
        assert [(event.kind, event.data) for event in rec.events()] == [
            ("a/idle", {"n": 2, "t": 0}),
            ("b/idle", {"n": 2, "t": 0}),
            ("b/slot", {}),
            ("b/idle", {"n": 1, "t": 192}),
            ("a/idle", {"n": 1, "t": 128}),
        ]
        assert rec.coalesce(again, "a/idle", 1) is again
        assert rec.emitted == 5

    def test_parent_change_starts_a_new_run(self):
        rec = FlightRecorder()
        with rec.span("root") as root:
            run = rec.coalesce(None, "idle", 1, t=0)
        again = rec.coalesce(run, "idle", 1, t=64)
        assert again is not run
        assert [event.parent for event in rec.events()] == [None, root, None]

    def test_snapshot_does_not_alias_a_growing_run(self):
        rec = FlightRecorder()
        run = rec.coalesce(None, "idle", 1, t=0)
        snapshot = rec.snapshot()
        rec.coalesce(run, "idle", 9)
        assert snapshot[0]["data"] == {"n": 1, "t": 0}
        assert rec.snapshot()[0]["data"] == {"n": 10, "t": 0}


class TestDeterminism:
    def test_no_wall_clock_fields(self):
        rec = FlightRecorder()
        with rec.span("root", seq=0):
            rec.emit("child", x=1)
        for doc in rec.snapshot():
            assert set(doc) <= {"id", "parent", "kind", "data"}

    def test_two_recordings_dump_identically(self, tmp_path):
        def record(rec):
            with rec.span("serve/request", seq=0, kind="join"):
                rec.emit("engine/add_class", name="c0")
            rec.emit("serve/decision", seq=0, verdict="admit")

        paths = []
        for run in ("a", "b"):
            rec = FlightRecorder()
            record(rec)
            path = tmp_path / f"{run}.jsonl"
            rec.dump_jsonl(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestDump:
    def test_dump_and_load_round_trip(self, tmp_path):
        rec = FlightRecorder()
        with rec.span("root", seq=1):
            rec.emit("child")
        path = tmp_path / "deep" / "trace.jsonl"
        assert rec.dump_jsonl(path) == 2
        events = load_trace(path)
        assert [event.kind for event in events] == ["root", "child"]
        assert events[1].parent == events[0].id
        assert events[0].data == {"seq": 1}

    def test_dump_is_valid_jsonl(self, tmp_path):
        rec = FlightRecorder()
        rec.emit("a", x=1)
        rec.emit("b")
        path = tmp_path / "trace.jsonl"
        rec.dump_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_dump_last_window(self, tmp_path):
        rec = FlightRecorder()
        for index in range(5):
            rec.emit("e", i=index)
        path = tmp_path / "trace.jsonl"
        assert rec.dump_jsonl(path, last=2) == 2
        assert [event.id for event in load_trace(path)] == [3, 4]

    def test_load_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id":0,"kind":"a"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)


class TestEventSerialization:
    def test_to_dict_drops_absent_fields(self):
        assert TraceEvent(3, None, "k", {}).to_dict() == {
            "id": 3, "kind": "k",
        }
        assert TraceEvent(3, 1, "k", {"x": 2}).to_dict() == {
            "id": 3, "kind": "k", "parent": 1, "data": {"x": 2},
        }

    def test_from_dict_round_trip(self):
        event = TraceEvent(3, 1, "k", {"x": 2})
        again = TraceEvent.from_dict(json.loads(event.to_json()))
        assert (again.id, again.parent, again.kind, again.data) == (
            3, 1, "k", {"x": 2},
        )


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("x", a=1) == -1
        assert NULL_TRACER.coalesce(None, "idle", 3, t=0) is None
        with NULL_TRACER.span("y") as span_id:
            assert span_id == -1
        assert len(NULL_TRACER) == 0

    def test_ambient_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes(self):
        rec = FlightRecorder()
        with use_tracer(rec):
            assert current_tracer() is rec
        assert current_tracer() is NULL_TRACER
