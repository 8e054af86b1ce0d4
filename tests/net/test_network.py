"""Tests for the NetworkSimulation orchestration layer."""

from __future__ import annotations

import hashlib

import pytest

from repro.model.arrival import (
    JitteredPeriodicArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    SporadicArrivals,
)
from repro.model.workloads import uniform_problem
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.protocol import DDCRProtocol
from repro.sim.rng import SeedSequenceRegistry

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


class TestRandomStreams:
    """Streams are seeded by name, so a run builds one only for a
    consumer that draws, and the draws of those it builds are those of a
    run that built them all."""

    def _scenario(self, arrivals=None, noise_rate=0.0):
        problem = uniform_problem(
            z=4, length=1_000, deadline=400_000, a=1, w=200_000
        )
        config = DDCRConfig(
            time_f=16,
            time_m=2,
            class_width=65_536,
            static_q=problem.static_q,
            static_m=problem.static_m,
        )
        if arrivals is not None:
            arrivals = {
                msg_class.name: arrivals
                for source in problem.sources
                for msg_class in source.message_classes
            }
        return Scenario(
            problem,
            ideal_medium(slot_time=64),
            protocol_factory=lambda source: DDCRProtocol(config),
            arrivals=arrivals,
            noise_rate=noise_rate,
            root_seed=7,
        )

    def _streams(self, monkeypatch):
        names = []
        stream = SeedSequenceRegistry.stream

        def spy(self, name):
            names.append(name)
            return stream(self, name)

        monkeypatch.setattr(SeedSequenceRegistry, "stream", spy)
        return names

    def test_a_greedy_noiseless_run_makes_no_stream(self, monkeypatch):
        names = self._streams(monkeypatch)
        simulation = NetworkSimulation.from_scenario(self._scenario())
        station = simulation.run(1_000_000).stations[0]
        assert names == []
        assert station.arrivals_delivered > 0

    def test_only_drawing_consumers_get_streams(self, monkeypatch):
        names = self._streams(monkeypatch)
        NetworkSimulation.from_scenario(
            self._scenario(
                SporadicArrivals(min_interarrival=150_000, mean_slack=6e4),
                noise_rate=0.01,
            )
        ).run(1_000_000)
        assert sorted(names) == sorted(
            ["channel/noise/0"]
            + [f"arrivals/{i}/uniform-{i}" for i in range(4)]
        )

    def test_a_noiseless_channel_draws_no_noise_stream(self):
        from repro.net.channel import BroadcastChannel
        from repro.sim.engine import Environment

        quiet = BroadcastChannel(Environment(), ideal_medium(slot_time=64))
        noisy = BroadcastChannel(
            Environment(), ideal_medium(slot_time=64), noise_rate=0.1
        )
        assert quiet._noise_rng is None
        assert noisy._noise_rng is not None

    @pytest.mark.parametrize(
        ("process", "delivered", "digest"),
        [
            (
                SporadicArrivals(min_interarrival=150_000, mean_slack=60_000),
                40,
                "c2f9f06d349479bb878c938f006250c10d0e1bf6507a183bb4c5303e667394ab",
            ),
            (
                JitteredPeriodicArrivals(period=200_000, jitter=90_000),
                40,
                "43331b111b5993f4ac6cab1ba185e8976d07527f47219d51bd4d32b7e34f2401",
            ),
            (
                PoissonArrivals(mean_interarrival=250_000),
                33,
                "0595383152c4d3bbb357c56caaf97b04b640bf867b3d5d5d60a07774e1467fe9",
            ),
        ],
        ids=["sporadic", "jittered", "poisson"],
    )
    def test_drawing_processes_keep_their_completions(
        self, process, delivered, digest
    ):
        """Pinned when every consumer got a stream, whether it drew or
        not."""
        result = NetworkSimulation.from_scenario(
            self._scenario(process)
        ).run(2_000_000)
        text = repr([
            (
                r.message.source_id, r.message.msg_class.name,
                r.message.arrival, r.message.seq, r.completion, r.started,
                r.dropped,
            )
            for r in result.completions
        ])
        assert len(result.completions) == delivered
        assert hashlib.sha256(text.encode()).hexdigest() == digest
