"""Tests for the DDCR extensions: XOR bus, packet bursting, noise."""

from __future__ import annotations

import pytest

from repro.analysis.adversary import build_static_collision_scenario
from repro.analysis.metrics import summarize
from repro.core.search_cost import (
    worst_case_placement,
    xi_exact,
    xi_nondestructive,
)
from repro.model.workloads import uniform_problem
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from tests.protocols.conftest import make_class, run_network


def _config(**overrides) -> DDCRConfig:
    defaults = dict(
        time_f=16,
        time_m=2,
        class_width=100_000,
        static_q=8,
        static_m=2,
        alpha=0,
        theta_factor=1.0,
    )
    defaults.update(overrides)
    return DDCRConfig(**defaults)


class TestNonDestructiveBus:
    @pytest.mark.parametrize("k,q,m", [(2, 16, 2), (5, 16, 2), (4, 16, 4)])
    def test_sts_cost_equals_xi_nd(self, k, q, m):
        placement = worst_case_placement(k, q, m, skip_empty=True)
        scenario = build_static_collision_scenario(
            placement, q, m, nondestructive=True
        )
        result = scenario.run()
        record = result.stations[0].mac.sts_records[0]
        assert record.wasted_slots == xi_nondestructive(k, q, m)
        assert record.successes == k

    def test_nd_cheaper_than_destructive(self):
        placement = worst_case_placement(4, 16, 2)
        destructive = build_static_collision_scenario(placement, 16, 2)
        nd_placement = worst_case_placement(4, 16, 2, skip_empty=True)
        nondestructive = build_static_collision_scenario(
            nd_placement, 16, 2, nondestructive=True
        )
        cost_d = destructive.run().stations[0].mac.sts_records[0].wasted_slots
        cost_nd = (
            nondestructive.run().stations[0].mac.sts_records[0].wasted_slots
        )
        assert cost_nd < cost_d
        assert cost_d == xi_exact(4, 16, 2)

    def test_lockstep_holds_on_xor_bus(self):
        # check_consistency is on inside the scenario builder; a clean run
        # of a larger ND scenario is the assertion.
        placement = worst_case_placement(8, 16, 2, skip_empty=True)
        scenario = build_static_collision_scenario(
            placement, 16, 2, nondestructive=True
        )
        result = scenario.run()
        assert sum(len(s.completions) for s in result.stations) == 8


class TestPacketBursting:
    def _run(self, burst_limit: int, arrivals=None):
        config = _config(burst_limit=burst_limit)
        macs = [DDCRProtocol(config) for _ in range(2)]
        cls = make_class(length=2_000, deadline=400_000)
        arrivals = arrivals if arrivals is not None else {0: [0, 0, 0], 1: [0]}
        return run_network(
            macs, arrivals, horizon=2_000_000, msg_class=cls
        )

    def test_burst_transmits_back_to_back(self):
        channel, stations = self._run(burst_limit=10_000)
        records = sorted(
            (r.started, r.completion)
            for r in stations[0].completions
        )
        assert len(records) == 3
        # Consecutive frames of the burst have no contention gap.
        assert records[1][0] == records[0][1]
        assert records[2][0] == records[1][1]

    def test_no_burst_without_budget(self):
        channel, stations = self._run(burst_limit=0)
        records = sorted(
            (r.started, r.completion) for r in stations[0].completions
        )
        assert len(records) == 3
        # Without bursting, contention separates consecutive frames.
        assert records[1][0] > records[0][1]

    def test_budget_caps_burst_length(self):
        # Budget fits exactly two 2000-bit messages (first counts too).
        channel, stations = self._run(burst_limit=4_000)
        records = sorted(
            (r.started, r.completion) for r in stations[0].completions
        )
        assert records[1][0] == records[0][1]   # second rides the burst
        assert records[2][0] > records[1][1]    # third does not fit

    def test_all_messages_delivered_either_way(self):
        for limit in (0, 4_000, 64_000):
            channel, stations = self._run(burst_limit=limit)
            assert sum(len(s.completions) for s in stations) == 4

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            _config(burst_limit=-1)


class TestPriorityField:
    def _run(self, use_map: bool):
        from repro.net.dot1q import DEFAULT_PRIORITY_MAP

        config = _config(
            class_width=50_000,
            priority_map=DEFAULT_PRIORITY_MAP if use_map else None,
        )
        macs = [DDCRProtocol(config) for _ in range(3)]
        cls = make_class(length=2_000, deadline=300_000)
        return run_network(
            macs, {i: [0, 100_000] for i in range(3)},
            horizon=3_000_000, msg_class=cls,
        )

    def test_guarantee_survives_quantisation(self):
        channel, stations = self._run(use_map=True)
        assert sum(len(s.completions) for s in stations) == 6
        assert all(r.on_time for s in stations for r in s.completions)

    def test_same_goodput_as_exact(self):
        _, exact = self._run(use_map=False)
        _, mapped = self._run(use_map=True)
        assert sum(len(s.completions) for s in exact) == sum(
            len(s.completions) for s in mapped
        )

    def test_mac_sees_representative_deadline(self):
        from repro.net.dot1q import DEFAULT_PRIORITY_MAP
        from repro.protocols.ddcr.indexing import mac_visible_deadline

        config = _config(priority_map=DEFAULT_PRIORITY_MAP)
        visible = mac_visible_deadline(1_000, 300_000, config)
        assert visible == 1_000 + DEFAULT_PRIORITY_MAP.quantise(300_000)
        exact_config = _config()
        assert mac_visible_deadline(1_000, 300_000, exact_config) == 301_000


class TestNoise:
    def _simulate(self, noise_rate: float, horizon=4_000_000):
        problem = uniform_problem(
            z=4, length=1_000, deadline=400_000, a=1, w=200_000
        )
        config = DDCRConfig(
            time_f=64,
            time_m=4,
            class_width=16_384,
            static_q=problem.static_q,
            static_m=problem.static_m,
            theta_factor=1.0,
        )
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=lambda s: DDCRProtocol(config),
                check_consistency=True,
                noise_rate=noise_rate,
                noise_seed=7,
            )
        )
        return simulation.run(horizon)

    def test_noise_injected_and_counted(self):
        result = self._simulate(0.05)
        assert result.stats.corrupted_slots > 0

    def test_all_delivered_under_noise(self):
        clean = self._simulate(0.0)
        noisy = self._simulate(0.10)
        assert noisy.delivered == clean.delivered
        assert summarize(noisy).misses == 0

    def test_latency_degrades_gracefully(self):
        clean = summarize(self._simulate(0.0))
        noisy = summarize(self._simulate(0.20))
        assert noisy.max_latency >= clean.max_latency
        assert noisy.max_latency < 10 * clean.max_latency

    def test_deterministic_given_seed(self):
        a = [
            (r.started, r.completion)
            for r in self._simulate(0.10).completions
        ]
        b = [
            (r.started, r.completion)
            for r in self._simulate(0.10).completions
        ]
        assert a == b

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            self._simulate(1.0)
