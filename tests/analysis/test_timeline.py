"""Tests for the channel timeline renderer."""

from __future__ import annotations

from repro.analysis.report import render_timeline
from repro.model.workloads import uniform_problem
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.sim.trace import TraceLog


class TestRenderTimeline:
    def test_synthetic_trace(self):
        trace = TraceLog()
        trace.emit(0, "slot", state="success", duration=64, source=0, msg="a")
        trace.emit(64, "slot", state="collision", duration=64, source=None, msg=None)
        trace.emit(128, "slot", state="silence", duration=64, source=None, msg=None)
        trace.emit(192, "slot", state="corrupted", duration=64, source=None, msg=None)
        trace.emit(256, "slot", state="success", duration=64, source=11, msg="b")
        text = render_timeline(trace)
        strip = text.splitlines()[1]
        assert strip == "0X.!b"  # station 11 -> 'b' in base-36

    def test_empty(self):
        assert render_timeline(TraceLog()) == "(empty timeline)"

    def test_start_offset(self):
        trace = TraceLog()
        trace.emit(0, "slot", state="silence", duration=64, source=None, msg=None)
        trace.emit(64, "slot", state="collision", duration=64, source=None, msg=None)
        text = render_timeline(trace, start=32)
        assert text.splitlines()[1] == "X"

    def test_wraps_at_width(self):
        trace = TraceLog()
        for i in range(10):
            trace.emit(i, "slot", state="silence", duration=1, source=None, msg=None)
        text = render_timeline(trace, width=4)
        lines = text.splitlines()[1:]
        assert lines == ["....", "....", ".."]

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
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=lambda s: DDCRProtocol(config),
                trace=True,
            )
        )
        result = simulation.run(400_000)
        text = render_timeline(result.trace)
        assert "X" in text  # the entry collision
        assert "0" in text and "1" in text  # both stations transmitted
