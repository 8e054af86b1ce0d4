"""Scenario: the frozen configuration object behind NetworkSimulation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.model.workloads import uniform_problem
from repro.net import Scenario
from repro.net.engine import use_engine
from repro.net.network import NetworkSimulation
from repro.net.phy import ideal_medium
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.protocol import DDCRProtocol

_MS = 1_000_000


def _problem():
    return uniform_problem(z=4, deadline=10 * _MS, a=1, w=5 * _MS)


def _factory(problem):
    config = DDCRConfig(
        time_f=64,
        time_m=4,
        class_width=max(1, 2 * 10 * _MS // 64),
        static_q=problem.static_q,
        static_m=problem.static_m,
        theta_factor=1.0,
    )
    return lambda source: DDCRProtocol(config)


def _scenario(**overrides):
    problem = _problem()
    base = Scenario(
        problem=problem,
        medium=ideal_medium(slot_time=512),
        protocol_factory=_factory(problem),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


class TestFromScenario:
    def test_from_scenario_records_its_scenario(self):
        scenario = _scenario()
        simulation = NetworkSimulation.from_scenario(scenario)
        assert simulation.scenario is scenario

    def test_replace_overrides_one_field(self):
        base = _scenario()
        noisy = dataclasses.replace(base, noise_rate=0.05, root_seed=3)
        assert noisy.noise_rate == 0.05
        assert noisy.root_seed == 3
        # Untouched fields carry over; the original is unmodified.
        assert noisy.problem is base.problem
        assert base.noise_rate == 0.0

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            dataclasses.replace(_scenario(), noise_rte=0.05)


class TestInvariants:
    def test_scenario_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _scenario().noise_rate = 0.5

    def test_arrivals_copied_at_construction(self):
        arrivals = {}
        scenario = _scenario(arrivals=arrivals)
        arrivals["uniform-0"] = object()
        assert scenario.arrivals == {}

    def test_bad_engine_rejected_eagerly(self):
        # The engine is ambient, not a field: a bad name fails where it
        # is scoped, before anything is built.
        with pytest.raises(TypeError):
            _scenario(engine="des")
        with pytest.raises(ValueError, match="unknown engine"):
            with use_engine("warp-drive"):
                pass

    def test_field_names_cover_the_constructor(self):
        names = tuple(field.name for field in dataclasses.fields(_scenario()))
        assert names[:3] == ("problem", "medium", "protocol_factory")
        # + telemetry_prefix (fabric segments); tracing, telemetry and
        # the engine are scoped with ``use_tracer``, ``use_telemetry``
        # and ``use_engine``, not fields.
        assert len(names) == 11
        assert not {"trace", "telemetry", "engine"} & set(names)
