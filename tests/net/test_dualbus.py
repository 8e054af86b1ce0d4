"""Tests for the dual-bus redundancy layer."""

from __future__ import annotations

import pytest

from repro.model.workloads import uniform_problem
from repro.net.dualbus import (
    BusFailoverController,
    BusPort,
    DualBusSimulation,
    suggested_jam_threshold,
)
from repro.net.phy import ideal_medium
from repro.protocols.base import ChannelState, MACProtocol, SlotObservation
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol


def _problem():
    return uniform_problem(
        z=4, length=1_000, deadline=600_000, a=1, w=300_000
    )


def _config(problem) -> DDCRConfig:
    return DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
        theta_factor=1.0,
    )


def _simulate(fail_at=None, jam_threshold=None, horizon=4_000_000):
    problem = _problem()
    config = _config(problem)
    threshold = (
        jam_threshold
        if jam_threshold is not None
        else suggested_jam_threshold(config)
    )
    simulation = DualBusSimulation(
        problem,
        ideal_medium(slot_time=64),
        protocol_factory=lambda src: DDCRProtocol(config),
        jam_threshold=threshold,
        fail_bus_at=fail_at,
        check_consistency=True,
    )
    return simulation.run(horizon)


class TestController:
    def test_failover_after_threshold(self):
        controller = BusFailoverController(jam_threshold=3)
        for _ in range(2):
            controller.note(0, ChannelState.COLLISION)
        assert controller.active_bus == 0
        controller.note(0, ChannelState.COLLISION)
        assert controller.active_bus == 1
        assert controller.failovers == 1

    def test_counter_resets_on_good_slot(self):
        controller = BusFailoverController(jam_threshold=3)
        controller.note(0, ChannelState.COLLISION)
        controller.note(0, ChannelState.COLLISION)
        controller.note(0, ChannelState.SILENCE)
        controller.note(0, ChannelState.COLLISION)
        controller.note(0, ChannelState.COLLISION)
        assert controller.active_bus == 0

    def test_standby_slots_ignored(self):
        controller = BusFailoverController(jam_threshold=2)
        for _ in range(10):
            controller.note(1, ChannelState.COLLISION)
        assert controller.active_bus == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BusFailoverController(jam_threshold=1)


class _Steady(MACProtocol):
    """An inner replica that is always idle-steady and logs its leaps."""

    def __init__(self):
        super().__init__()
        self.leaps = []

    def offer(self, now):
        return None

    def observe(self, observation):
        pass

    def idle_steady(self):
        return True

    def leap_idle(self, n, end):
        self.leaps.append((n, end))


def _collide(port, times):
    for _ in range(times):
        port.observe(SlotObservation(
            state=ChannelState.COLLISION, start=0, duration=64,
        ))


class TestBusPortIdle:
    """A leapt idle stretch acts on the controller as its silent slots
    would: it ends the active bus's collision run, and the standby
    bus's stretch leaves it alone."""

    def _ports(self, threshold=4):
        controller = BusFailoverController(jam_threshold=threshold)
        return controller, [
            BusPort(controller, index, _Steady()) for index in range(2)
        ]

    def test_idle_methods_delegate_to_the_inner_replica(self):
        _, (active, standby) = self._ports()
        assert active.idle_steady() and standby.idle_steady()
        standby.leap_idle(7, 448)
        assert standby.inner.leaps == [(7, 448)]

    def test_active_ports_leap_clears_the_collision_run(self):
        controller, (active, _) = self._ports(threshold=4)
        _collide(active, 3)
        assert controller.state_key() == (0, 0, 3)
        active.leap_idle(5, 320)
        assert controller.state_key() == (0, 0, 0)

    def test_standby_ports_leap_leaves_the_count_alone(self):
        controller, (active, standby) = self._ports(threshold=4)
        _collide(active, 3)
        standby.leap_idle(5, 320)
        assert controller.state_key() == (0, 0, 3)

    def test_after_a_leap_threshold_minus_one_collisions_do_not_fail_over(
        self,
    ):
        stepped, (stepped_port, _) = self._ports(threshold=4)
        leapt, (leapt_port, _) = self._ports(threshold=4)
        _collide(stepped_port, 3)
        _collide(leapt_port, 3)
        for _ in range(5):
            stepped_port.observe(SlotObservation(
                state=ChannelState.SILENCE, start=0, duration=64,
            ))
        leapt_port.leap_idle(5, 320)
        _collide(stepped_port, 3)
        _collide(leapt_port, 3)
        assert leapt.state_key() == stepped.state_key() == (0, 0, 3)
        _collide(leapt_port, 1)
        assert leapt.active_bus == 1 and leapt.failovers == 1


class TestSuggestedThreshold:
    def test_exceeds_tree_depths(self):
        config = _config(_problem())
        threshold = suggested_jam_threshold(config)
        # log2(16) + log2(4) + 1 + margin 8 = 4 + 2 + 1 + 8.
        assert threshold == 15


class TestDualBusRuns:
    def test_healthy_never_fails_over(self):
        result = _simulate()
        assert result.failovers == 0
        assert result.bus_stats[1].successes == 0  # standby stayed silent
        delivered = sum(1 for r in result.completions if not r.dropped)
        assert delivered == 4 * 14  # one per 300k window per station

    def test_failure_triggers_single_failover(self):
        result = _simulate(fail_at=1_500_000)
        assert result.failovers == 1
        assert result.bus_stats[0].jammed_slots > 0
        assert result.bus_stats[1].successes > 0

    def test_no_message_lost_across_failover(self):
        healthy = _simulate()
        failed = _simulate(fail_at=1_500_000)
        assert len(failed.completions) == len(healthy.completions)
        assert all(r.on_time for r in failed.completions)
        assert failed.backlog() == []

    def test_unreachable_threshold_means_no_failover(self):
        result = _simulate(fail_at=1_500_000, jam_threshold=10**9)
        assert result.failovers == 0
        # Messages arriving after the failure are stranded.
        assert len(result.backlog()) > 0

    def test_completions_unique_across_busses(self):
        result = _simulate(fail_at=1_500_000)
        seqs = [r.message.seq for r in result.completions]
        assert len(seqs) == len(set(seqs))
