"""Tests for the channel timeline renderer."""

from __future__ import annotations

from repro.analysis.report import render_timeline
from repro.model.workloads import uniform_problem
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.obs.context import use_tracer
from repro.obs.tracer import FlightRecorder
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol


def _slot(recorder, t, state, source=None):
    data = {"t": t, "state": state, "duration": 64}
    if source is not None:
        data["source"] = source
    recorder.emit("channel/slot", **data)


class TestRenderTimeline:
    def test_synthetic_trace(self):
        recorder = FlightRecorder()
        _slot(recorder, 0, "success", source=0)
        _slot(recorder, 64, "collision")
        recorder.emit("channel/idle", t=128, n=1, slot=64)
        recorder.emit("channel/slot", t=192, state="corrupted", wire=0)
        _slot(recorder, 256, "success", source=11)
        text = render_timeline(recorder.events())
        strip = text.splitlines()[1]
        assert strip == "0X.!b"  # station 11 -> 'b' in base-36

    def test_empty(self):
        assert render_timeline([]) == "(empty timeline)"

    def test_start_offset(self):
        recorder = FlightRecorder()
        _slot(recorder, 0, "collision")
        _slot(recorder, 64, "success", source=3)
        text = render_timeline(recorder.events(), start=32)
        assert text.splitlines()[1] == "3"

    def test_wraps_at_width(self):
        recorder = FlightRecorder()
        recorder.emit("channel/idle", t=0, n=10, slot=1)
        text = render_timeline(recorder.events(), width=4)
        lines = text.splitlines()[1:]
        assert lines == ["....", "....", ".."]

    def test_idle_run_expands_to_n_dots(self):
        recorder = FlightRecorder()
        _slot(recorder, 0, "collision")
        recorder.emit("channel/idle", t=64, n=5, slot=64)
        _slot(recorder, 384, "success", source=2)
        assert render_timeline(recorder.events()).splitlines()[1] == "X.....2"

    def test_jammed_run_expands_to_n_corrupted_slots(self):
        recorder = FlightRecorder()
        _slot(recorder, 0, "success", source=1)
        recorder.emit("channel/jammed", t=64, n=3, slot=64)
        recorder.emit("channel/idle", t=256, n=2, slot=64)
        text = render_timeline(recorder.events(), start=128)
        assert text.splitlines()[1] == "!!.."

    def test_idle_run_straddling_start_is_cut_at_start(self):
        # Idle slots start at 64, 128, ..., 320; start=200 drops the
        # three that start before it (64, 128, 192) and keeps 256, 320.
        recorder = FlightRecorder()
        _slot(recorder, 0, "collision")
        recorder.emit("channel/idle", t=64, n=5, slot=64)
        _slot(recorder, 384, "success", source=2)
        text = render_timeline(recorder.events(), start=200)
        assert text.splitlines()[1] == "..2"
        # A start on a slot boundary keeps the slot starting there.
        text = render_timeline(recorder.events(), start=192)
        assert text.splitlines()[1] == "...2"

    def test_long_idle_run_is_capped_not_expanded(self):
        recorder = FlightRecorder()
        recorder.emit("channel/idle", t=0, n=10**12, slot=64)
        lines = render_timeline(recorder.events(), width=10).splitlines()[1:]
        assert lines == [".........."] * 8

    def test_real_simulation_trace(self):
        problem = uniform_problem(
            z=2, length=1_000, deadline=400_000, a=1, w=200_000
        )
        config = DDCRConfig(
            time_f=16,
            time_m=2,
            class_width=32_768,
            static_q=problem.static_q,
            static_m=problem.static_m,
        )
        recorder = FlightRecorder()
        with use_tracer(recorder):
            result = NetworkSimulation.from_scenario(
                Scenario(
                    problem,
                    ideal_medium(slot_time=64),
                    protocol_factory=lambda s: DDCRProtocol(config),
                )
            ).run(400_000)
        text = render_timeline(recorder.events())
        assert "X" in text  # the entry collision
        assert "0" in text and "1" in text  # both stations transmitted
        # Idle runs are one event each, yet every round is one symbol.
        strip = "".join(text.splitlines()[1:])
        assert len(recorder) < result.stats.rounds
        assert len(strip) == min(result.stats.rounds, 96 * 8)
