"""Tests for the CSMA/DCR and TDMA baselines."""

from __future__ import annotations

import pytest

from repro.core.search_cost import simulate_search, xi_exact
from repro.core.trees import BalancedTree
from repro.net.station import Station
from repro.protocols.dcr import DCRMode, DCRProtocol
from repro.protocols.tdma import TDMAProtocol
from tests.protocols.conftest import run_network


def _dcr_macs(count: int, m: int = 2, leaves: int = 8) -> list[DCRProtocol]:
    tree = BalancedTree.of(m=m, leaves=leaves)
    return [DCRProtocol(tree) for _ in range(count)]


class TestDCR:
    def test_single_station_stays_free(self):
        macs = _dcr_macs(1)
        channel, stations = run_network(macs, {0: [0, 2000]}, horizon=100_000)
        assert len(stations[0].completions) == 2
        assert macs[0].mode is DCRMode.FREE
        assert macs[0].searches_completed == 0

    def test_collision_triggers_search_and_resolves(self):
        macs = _dcr_macs(3)
        channel, stations = run_network(
            macs, {i: [0] for i in range(3)}, horizon=1_000_000
        )
        delivered = sum(len(s.completions) for s in stations)
        assert delivered == 3
        assert macs[0].searches_completed >= 1
        assert macs[0].mode is DCRMode.FREE  # returned to free mode

    def test_search_cost_matches_reference(self):
        # Stations at static indices 1, 4, 6 on an 8-leaf binary tree.
        macs = _dcr_macs(3)
        indices = {0: (1,), 1: (4,), 2: (6,)}
        channel, stations = run_network(
            macs, {i: [0] for i in range(3)}, horizon=1_000_000,
            static_indices=indices,
        )
        expected = simulate_search([1, 4, 6], 8, 2).cost
        assert macs[0].search_slot_costs == [expected]

    def test_search_cost_never_exceeds_xi(self):
        macs = _dcr_macs(4)
        channel, stations = run_network(
            macs, {i: [0, 10_000] for i in range(4)}, horizon=4_000_000
        )
        bound = xi_exact(4, 8, 2)
        for cost in macs[0].search_slot_costs:
            assert cost <= bound

    def test_multiple_messages_per_search_via_index_ranks(self):
        # One station with two static indices can send twice per search.
        tree = BalancedTree.of(m=2, leaves=8)
        macs = [DCRProtocol(tree), DCRProtocol(tree)]
        indices = {0: (0, 4), 1: (2,)}
        channel, stations = run_network(
            macs, {0: [0, 0], 1: [0]}, horizon=1_000_000,
            static_indices=indices,
        )
        assert len(stations[0].completions) == 2
        assert len(stations[1].completions) == 1

    def test_index_out_of_tree_rejected(self):
        tree = BalancedTree.of(m=2, leaves=4)
        with pytest.raises(ValueError):
            run_network(
                [DCRProtocol(tree)], {0: [0]}, horizon=1000,
                static_indices={0: (7,)},
            )

    def test_lockstep_public_state(self):
        # check_consistency=True in run_network already asserts this
        # slot-by-slot; reaching the end means the replicas agreed.
        macs = _dcr_macs(4)
        run_network(macs, {i: [0, 5000] for i in range(4)}, horizon=500_000)
        assert all(mac.mode is DCRMode.FREE for mac in macs)


class TestTDMA:
    def test_round_robin_no_collisions(self):
        roster = (0, 1, 2)
        macs = [TDMAProtocol(roster) for _ in range(3)]
        channel, stations = run_network(
            macs, {i: [0] for i in range(3)}, horizon=200_000
        )
        assert channel.stats.collision_slots == 0
        assert sum(len(s.completions) for s in stations) == 3

    def test_owner_rotates_even_when_idle(self):
        roster = (0, 1)
        macs = [TDMAProtocol(roster) for _ in range(2)]
        channel, stations = run_network(
            macs, {1: [0]}, horizon=100_000
        )
        # Station 1 still gets service despite station 0 owning slot 0.
        assert len(stations[1].completions) == 1

    def test_unknown_station_rejected(self):
        with pytest.raises(ValueError):
            run_network([TDMAProtocol((5,))], {0: [0]}, horizon=1000)
        with pytest.raises(ValueError, match="not in TDMA roster"):
            Station(-1, TDMAProtocol((0, 1)))

    def test_noise_collision_tolerated(self):
        # A collision on a TDMA channel can only be noise; the owner
        # simply retries on a later turn.
        from repro.protocols.base import ChannelState, SlotObservation
        from repro.net.station import Station

        mac = TDMAProtocol((0,))
        Station(0, mac)
        mac.observe(
            SlotObservation(
                state=ChannelState.COLLISION, start=0, duration=64
            )
        )
        assert mac.noisy_slots == 1

    def test_roster_validation(self):
        with pytest.raises(ValueError):
            TDMAProtocol(())
        with pytest.raises(ValueError):
            TDMAProtocol((1, 1))

    def test_latency_scales_with_roster_size(self):
        def worst_latency(z: int) -> int:
            roster = tuple(range(z))
            macs = [TDMAProtocol(roster) for _ in range(z)]
            channel, stations = run_network(
                macs, {z - 1: [0]}, horizon=2_000_000
            )
            return stations[z - 1].completions[0].latency

        assert worst_latency(8) > worst_latency(2)
