"""Tests for the NetworkSimulation orchestration layer."""

from __future__ import annotations

from repro.model.arrival import PeriodicArrivals
from repro.model.workloads import uniform_problem
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.protocol import DDCRProtocol

_MS = 1_000_000


def _ddcr_factory(problem):
    config = DDCRConfig(
        time_f=64,
        time_m=4,
        class_width=max(1, 2 * 10 * _MS // 64),
        static_q=problem.static_q,
        static_m=problem.static_m,
        theta_factor=1.0,
    )
    return lambda source: DDCRProtocol(config)


class TestRun:
    def test_default_adversary_arrivals(self):
        problem = uniform_problem(z=4, deadline=10 * _MS, a=1, w=5 * _MS)
        simulation = NetworkSimulation.from_scenario(
            Scenario(problem, ideal_medium(slot_time=512), _ddcr_factory(problem))
        )
        result = simulation.run(20 * _MS)
        # Greedy adversary: one arrival per window per class.
        assert result.delivered == 4 * 4
        assert result.dropped == 0

    def test_explicit_arrival_override(self):
        problem = uniform_problem(z=2, deadline=10 * _MS, a=1, w=5 * _MS)
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=512),
                _ddcr_factory(problem),
                arrivals={"uniform-0": PeriodicArrivals(period=2 * _MS)},
            )
        )
        result = simulation.run(10 * _MS)
        by_class = {}
        for record in result.completions:
            name = record.message.msg_class.name
            by_class[name] = by_class.get(name, 0) + 1
        assert by_class["uniform-0"] == 5
        assert by_class["uniform-1"] == 2

    def test_completions_sorted_by_time(self):
        problem = uniform_problem(z=4, deadline=10 * _MS, a=1, w=5 * _MS)
        simulation = NetworkSimulation.from_scenario(
            Scenario(problem, ideal_medium(slot_time=512), _ddcr_factory(problem))
        )
        result = simulation.run(20 * _MS)
        times = [record.completion for record in result.completions]
        assert times == sorted(times)

    def test_per_station_protocol_instances(self):
        problem = uniform_problem(z=3, deadline=10 * _MS)
        built = []

        def factory(source):
            mac = CSMACDProtocol(seed=source.source_id)
            built.append(mac)
            return mac

        simulation = NetworkSimulation.from_scenario(
            Scenario(problem, ideal_medium(slot_time=512), factory)
        )
        result = simulation.run(5 * _MS)
        assert len(built) == 3
        assert len({id(mac) for mac in built}) == 3
        assert [s.mac for s in result.stations] == built

    def test_backlog_reported(self):
        # Horizon too short for everything to drain.
        problem = uniform_problem(
            z=8, length=500_000, deadline=50 * _MS, a=2, w=5 * _MS
        )
        simulation = NetworkSimulation.from_scenario(
            Scenario(problem, ideal_medium(slot_time=512), _ddcr_factory(problem))
        )
        result = simulation.run(6 * _MS)
        assert len(result.backlog()) > 0

    def test_utilization_matches_stats(self):
        problem = uniform_problem(z=2, deadline=10 * _MS)
        simulation = NetworkSimulation.from_scenario(
            Scenario(problem, ideal_medium(slot_time=512), _ddcr_factory(problem))
        )
        result = simulation.run(10 * _MS)
        assert result.utilization() == result.stats.utilization(10 * _MS)
